#include <sys/resource.h>

#include <algorithm>

#include "speedbench.h"

namespace speedbench {

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, parent, tracer_->Now(), 0});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = tracer_->Now();
  tracer_->open_.pop_back();
}

double Tracer::Total(const std::string& name) const {
  double sum = 0;
  for (const Record& r : spans_) {
    if (name == r.name) sum += r.end - r.start;
  }
  return sum;
}

double Tracer::ChildTotal(const std::string& parent) const {
  double sum = 0;
  for (const Record& r : spans_) {
    if (r.parent >= 0 && parent == spans_[static_cast<std::size_t>(r.parent)].name) {
      sum += r.end - r.start;
    }
  }
  return sum;
}

double Tracer::Self(const std::string& name) const {
  return Total(name) - ChildTotal(name);
}

std::size_t Tracer::Count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Record& r) { return name == r.name; }));
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream), cut to 53 bits: seeds travel in JSON
  // requests, whose numbers are doubles.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) >> 11;
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t index = n >= 11 ? n - 11 : n - 1;
  tail.value = samples[index];
  tail.beyond = n - 1 - index;
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace speedbench
