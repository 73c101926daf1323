// Overhead accounting for Table 2: area, power and slack of the
// error-masking circuit relative to the original circuit.
#pragma once

#include <string>

#include "masking/integrate.h"
#include "sim/power.h"

namespace sm {

struct OverheadReport {
  std::string circuit;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::size_t num_gates = 0;          // original mapped gates
  std::size_t critical_outputs = 0;   // Table 2 "Critical POs"
  // Outputs that actually received a mux (== critical_outputs under the
  // paper's protect-all scope; fewer under a partial protection scope).
  std::size_t protected_outputs = 0;
  double critical_minterms = 0;       // Table 2 "Critical minterms"
  double log2_critical_minterms = 0;
  double slack_percent = 0;           // Table 2 "Slack (in %)"
  double area_percent = 0;            // Table 2 "Overhead / Area"
  double power_percent = 0;           // Table 2 "Overhead / Power"
  bool coverage_100 = false;
  bool safety = false;
};

// Assembles the Table 2 row. Power comes from one simulation of the
// protected netlist under `sim_words` batches of 64 random patterns from
// Rng::ForStream(seed, 0): C's activity is read off its verbatim copy
// (VerbatimCopyMap, which throws when the protected netlist lacks one), so
// the result equals EstimatePower(original, seed, 0) against
// EstimatePower(protected, seed, 0) without simulating C twice.
OverheadReport ComputeOverheads(const MappedNetlist& original,
                                const ProtectedCircuit& protected_circuit,
                                std::uint64_t seed, int sim_words = 64);

}  // namespace sm
