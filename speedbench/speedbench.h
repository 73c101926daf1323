// Shared pieces of the speedbench program: run configuration, the outcome a
// workload reports, the span tracer the traced runs use, and the small
// statistics helpers (median, tail percentile, metric-name grammar).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/timer.h"

namespace speedbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for files the run creates (the daemon's Unix socket).
  std::string run_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload hands back to main: the operations it attempted and how
// many failed, the checks it ran, its end-to-end figures, and its per-layer
// and workload-specific metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  double setup_s = 0;                 // median over the set-up repetitions
  double work_per_s = 0;
  std::vector<double> op_ms;  // latency of every timed operation
  std::vector<Metric> layer;  // per-layer metrics; in the JSON of traced runs
  std::vector<Metric> info;   // printed by name, never in the JSON

  // Records a failed check (and keeps going, so every failure is listed).
  void Check(bool ok, const std::string& what);
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

// Records spans around calls into the library's public functions. Spans nest
// (a span opened while another is open is its child) and are kept in memory;
// the aggregates are read once the run ends. A disabled tracer records
// nothing, so the untraced runs pay one branch per span. Single-threaded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Span Open(const char* name) { return Span(enabled_ ? this : nullptr, name); }
  // A span on `tracer`, or a no-op span when it is null.
  static Span OpenOn(Tracer* tracer, const char* name) {
    return Span(tracer != nullptr && tracer->enabled_ ? tracer : nullptr, name);
  }

  // Summed duration of every span named `name`.
  double Total(const std::string& name) const;
  // Summed self time: duration minus the part covered by child spans.
  double Self(const std::string& name) const;
  // Summed duration of the direct children of spans named `parent`.
  double ChildTotal(const std::string& parent) const;
  std::size_t Count(const std::string& name) const;

 private:
  struct Record {
    const char* name;
    int parent;
    double start;
    double end;
  };
  double Now() const { return clock_.Seconds(); }

  bool enabled_;
  sm::WallTimer clock_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

double Median(std::vector<double> samples);

// Independent seed number `stream` derived from the run's seed; below 2^53.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// The highest percentile of `samples` that still has at least ten samples
// above it. With fewer than eleven samples no percentile qualifies; the
// maximum is reported and `beyond` is 0.
struct Tail {
  double value = 0;
  double percentile = 0;  // in (0, 100]
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail TailOf(std::vector<double> samples);

// Metric names are [A-Za-z0-9_.-]+ and start with a letter or digit.
bool ValidMetricName(const std::string& name);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Runs `setup` `reps` times, keeps the last state and stores the median wall
// time in `*median_s`, so set-up cost is reported as steadily as the
// measured loop.
template <typename Fn>
auto RepeatedSetup(int reps, double* median_s, Fn&& setup) -> decltype(setup()) {
  std::vector<double> times;
  decltype(setup()) state;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    sm::WallTimer timer;
    state = setup();
    times.push_back(timer.Seconds());
  }
  *median_s = Median(times);
  return state;
}

Outcome RunFlowTable2(const RunConfig& config);
Outcome RunMcValidate(const RunConfig& config);
Outcome RunDaemonSweep(const RunConfig& config);
Outcome RunOptSearch(const RunConfig& config);

// Deterministic descriptions of the generated inputs, for the self-test that
// the same seed gives the same request and trial sequence.
std::string DaemonPlanText(std::uint64_t seed, std::size_t requests_per_client);
std::string McPlanText(std::uint64_t seed);
std::string OptPlanText(std::uint64_t seed);

}  // namespace speedbench
