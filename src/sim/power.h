// Dynamic-power model: switching activity × per-cell switching energy.
// Absolute units are arbitrary; Table 2 reports the *relative* overhead of
// the error-masking circuit, which is the ratio of these estimates.
// ComputeOverheads (masking/report.h) gets both sides of that ratio from one
// simulation of the protected netlist, reading C's activity off its
// verbatim copy; the result is the double two EstimatePower calls give.
#pragma once

#include "map/mapped_netlist.h"
#include "sim/logic_sim.h"

namespace sm {

struct PowerReport {
  double dynamic = 0;           // Σ activity_g · switch_energy(g)
  double area = 0;              // convenience copy of netlist area
  std::size_t patterns = 0;     // simulation effort behind the estimate
};

// Monte-Carlo power estimate under uniform random inputs.
PowerReport EstimatePower(const MappedNetlist& net, Rng& rng,
                          int num_words = 64);

// Seeded variant: the pattern stream is Rng::ForStream(seed, stream), so
// two netlists with the same inputs estimated with the same (seed, stream)
// see identical stimuli (the fair-comparison contract of the Table-2 power
// overhead) without the caller wiring Rng construction by hand.
PowerReport EstimatePower(const MappedNetlist& net, std::uint64_t seed,
                          std::uint64_t stream, int num_words = 64);

// Power from a precomputed activity profile (e.g. shared between original
// and protected netlists for a fair comparison).
PowerReport PowerFromActivity(const MappedNetlist& net,
                              const ActivityEstimate& activity);

}  // namespace sm
