// Static timing analysis over mapped netlists.
//
// Fixed pin-to-output delays (see liblib/cell.h). Produces max/min arrival
// times, required times against a clock (default: the critical-path delay Δ),
// and per-element slack. The SPCF engine consumes the arrival windows for
// pruning; the masking flow consumes slack to find critical outputs.
#pragma once

#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"

namespace sm {

struct TimingInfo {
  double clock = 0;           // required time applied at every output
  double critical_delay = 0;  // max over outputs of max arrival
  std::vector<double> max_arrival;  // latest settling, per element
  std::vector<double> min_arrival;  // earliest possible settling, per element
  std::vector<double> required;     // latest allowed settling, per element

  double Slack(GateId id) const {
    return required[id] - max_arrival[id];
  }
};

// clock < 0 means "use the critical-path delay as the clock period".
// `delay_scale`, when given, multiplies every pin delay of element i by
// delay_scale[i] — the hook for body-bias speed-up (scale < 1) and aging
// (scale > 1) studies.
TimingInfo AnalyzeTiming(const MappedNetlist& net, double clock = -1,
                         const std::vector<double>* delay_scale = nullptr);

// The forward max-arrival pass of AnalyzeTiming alone, over a flat copy of
// the netlist's fanins and pin delays taken at construction — the per-trial
// STA of the Monte-Carlo engine, which reads only max arrivals. Run writes
// arrivals bit-identical to AnalyzeTiming(net, clock, delay_scale)
// .max_arrival and allocates nothing. Immutable after construction, so one
// instance serves any number of threads.
class MaxArrivalPass {
 public:
  explicit MaxArrivalPass(const MappedNetlist& net);

  std::size_t num_elements() const { return first_pin_.size() - 1; }

  // `delay_scale` and `arrival` hold one entry per element.
  void Run(const double* delay_scale, double* arrival) const;

 private:
  // Element id's pins are [first_pin_[id], first_pin_[id + 1]); primary
  // inputs and tie cells have none and arrive at 0.
  std::vector<std::uint32_t> first_pin_;
  std::vector<GateId> pin_fanin_;
  std::vector<double> pin_delay_;
};

// Outputs whose driver has slack < guard_band * clock, i.e. the "critical
// primary outputs" of the paper (speed-paths within guard_band of Δ
// terminate there). Returns output indices.
std::vector<std::size_t> CriticalOutputs(const MappedNetlist& net,
                                         const TimingInfo& timing,
                                         double guard_band);

}  // namespace sm
