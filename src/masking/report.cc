#include "masking/report.h"

namespace sm {

OverheadReport ComputeOverheads(const MappedNetlist& original,
                                const ProtectedCircuit& protected_circuit,
                                std::uint64_t seed, int sim_words) {
  OverheadReport r;
  r.circuit = original.name();
  r.num_inputs = original.NumInputs();
  r.num_outputs = original.NumOutputs();
  r.num_gates = original.NumLogicGates();
  r.critical_outputs = protected_circuit.taps.size();
  r.protected_outputs = protected_circuit.taps.size();
  r.slack_percent = protected_circuit.SlackPercent();
  r.area_percent = protected_circuit.AreaOverheadPercent();

  // Power overhead. The protected netlist holds a verbatim copy of C with
  // the same inputs in the same order, so one simulation of it drives both
  // sides with identical stimuli: each element of C toggles exactly as its
  // copy does. C's power is summed over C's own ids, in the order
  // EstimatePower(original) sums it, so the result is the same double as
  // two separate simulations would give.
  const MappedNetlist& prot = protected_circuit.netlist;
  const std::vector<GateId> copy_of = VerbatimCopyMap(original, prot);
  Rng rng = Rng::ForStream(seed, /*stream=*/0);
  const ActivityEstimate activity = EstimateActivity(prot, rng, sim_words);
  const double prot_dynamic = PowerFromActivity(prot, activity).dynamic;
  double orig_dynamic = 0;
  for (GateId id = 0; id < original.NumElements(); ++id) {
    if (original.IsInput(id)) continue;
    orig_dynamic +=
        activity.activity[copy_of[id]] * original.cell(id).switch_energy();
  }
  r.power_percent =
      orig_dynamic <= 0
          ? 0
          : 100.0 * (prot_dynamic - orig_dynamic) / orig_dynamic;
  return r;
}

}  // namespace sm
