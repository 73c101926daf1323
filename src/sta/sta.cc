#include "sta/sta.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace sm {

TimingInfo AnalyzeTiming(const MappedNetlist& net, double clock,
                         const std::vector<double>* delay_scale) {
  const std::size_t n = net.NumElements();
  SM_REQUIRE(delay_scale == nullptr || delay_scale->size() == n,
             "delay scale must be per-element");
  TimingInfo t;
  t.max_arrival.assign(n, 0.0);
  t.min_arrival.assign(n, 0.0);
  t.required.assign(n, std::numeric_limits<double>::infinity());

  auto scale = [delay_scale](GateId id) {
    return delay_scale == nullptr ? 1.0 : (*delay_scale)[id];
  };
  for (GateId id = 0; id < n; ++id) {
    if (net.IsInput(id)) continue;  // PIs arrive at 0
    const Cell& cell = net.cell(id);
    if (cell.IsConstant()) continue;  // settled from the start
    double max_a = -std::numeric_limits<double>::infinity();
    double min_a = std::numeric_limits<double>::infinity();
    const auto& fin = net.fanins(id);
    for (int p = 0; p < cell.num_pins(); ++p) {
      const GateId f = fin[static_cast<std::size_t>(p)];
      const double d = cell.pin_delay(p) * scale(id);
      max_a = std::max(max_a, t.max_arrival[f] + d);
      min_a = std::min(min_a, t.min_arrival[f] + d);
    }
    t.max_arrival[id] = max_a;
    t.min_arrival[id] = min_a;
  }

  for (const auto& o : net.outputs()) {
    t.critical_delay = std::max(t.critical_delay, t.max_arrival[o.driver]);
  }
  t.clock = clock < 0 ? t.critical_delay : clock;

  for (const auto& o : net.outputs()) {
    t.required[o.driver] = std::min(t.required[o.driver], t.clock);
  }
  for (GateId id = static_cast<GateId>(n); id-- > 0;) {
    if (net.IsInput(id)) continue;
    const Cell& cell = net.cell(id);
    const double r = t.required[id];
    if (!std::isfinite(r)) continue;  // dangling element
    const auto& fin = net.fanins(id);
    for (int p = 0; p < cell.num_pins(); ++p) {
      const GateId f = fin[static_cast<std::size_t>(p)];
      t.required[f] =
          std::min(t.required[f], r - cell.pin_delay(p) * scale(id));
    }
  }
  return t;
}

MaxArrivalPass::MaxArrivalPass(const MappedNetlist& net) {
  const std::size_t n = net.NumElements();
  first_pin_.reserve(n + 1);
  first_pin_.push_back(0);
  for (GateId id = 0; id < n; ++id) {
    if (!net.IsInput(id)) {
      const Cell& cell = net.cell(id);
      const auto& fin = net.fanins(id);
      for (int p = 0; p < cell.num_pins(); ++p) {
        pin_fanin_.push_back(fin[static_cast<std::size_t>(p)]);
        pin_delay_.push_back(cell.pin_delay(p));
      }
    }
    first_pin_.push_back(static_cast<std::uint32_t>(pin_fanin_.size()));
  }
}

void MaxArrivalPass::Run(const double* delay_scale, double* arrival) const {
  const std::size_t n = num_elements();
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint32_t lo = first_pin_[id];
    const std::uint32_t hi = first_pin_[id + 1];
    if (lo == hi) {
      arrival[id] = 0.0;  // primary input or tie cell
      continue;
    }
    // The same operations in the same order as AnalyzeTiming, so the
    // doubles agree bit for bit.
    double max_a = -std::numeric_limits<double>::infinity();
    for (std::uint32_t p = lo; p < hi; ++p) {
      const double d = pin_delay_[p] * delay_scale[id];
      max_a = std::max(max_a, arrival[pin_fanin_[p]] + d);
    }
    arrival[id] = max_a;
  }
}

std::vector<std::size_t> CriticalOutputs(const MappedNetlist& net,
                                         const TimingInfo& timing,
                                         double guard_band) {
  SM_REQUIRE(guard_band >= 0 && guard_band < 1,
             "guard band must be a fraction of the clock in [0, 1)");
  const double target = (1.0 - guard_band) * timing.clock;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
    if (timing.max_arrival[net.output(i).driver] > target) out.push_back(i);
  }
  return out;
}

}  // namespace sm
