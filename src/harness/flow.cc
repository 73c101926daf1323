#include "harness/flow.h"

#include <cmath>

#include "map/mapped_bdd.h"
#include "network/global_bdd.h"
#include "util/check.h"

namespace sm {
namespace {

// Attaches a cancel token to a manager for the current scope and always
// detaches on exit (including the CancelledError unwind), so a flow-owned
// manager never escapes with a dangling token pointer.
class ScopedManagerCancel {
 public:
  ScopedManagerCancel(BddManager* mgr, const CancelToken* token)
      : mgr_(token != nullptr ? mgr : nullptr) {
    if (mgr_ != nullptr) mgr_->SetCancelToken(token);
  }
  ScopedManagerCancel(const ScopedManagerCancel&) = delete;
  ScopedManagerCancel& operator=(const ScopedManagerCancel&) = delete;
  ~ScopedManagerCancel() {
    if (mgr_ != nullptr) mgr_->SetCancelToken(nullptr);
  }

 private:
  BddManager* mgr_;
};

}  // namespace

FlowOptions FlowOptionsFor(double guard, int effort,
                           const std::vector<std::size_t>& scope) {
  FlowOptions options;
  options.spcf.guard_band = guard;
  options.synth = SynthOptionsForEffort(effort);
  if (!scope.empty()) {
    options.synth.protect_all = false;
    options.synth.protection_scope = scope;
  }
  return options;
}

void ValidateFlowOptions(const FlowOptions& options, std::size_t num_outputs) {
  SM_REQUIRE(std::isfinite(options.spcf.guard_band) &&
                 options.spcf.guard_band >= 0 && options.spcf.guard_band < 1,
             "guard-band fraction must be finite and in [0, 1), got "
                 << options.spcf.guard_band);
  SM_REQUIRE(options.power_words > 0,
             "power_words must be positive, got " << options.power_words);
  SM_REQUIRE(options.bdd_node_limit > 0, "bdd_node_limit must be positive");
  ValidateMaskingSynthOptions(options.synth, num_outputs);
}

FlowResult RunMaskingFlowPremapped(const MappedNetlist& original,
                                   const Network& ti, const Library& lib,
                                   const FlowOptions& options) {
  SM_REQUIRE(original.NumInputs() == ti.NumInputs() &&
                 original.NumOutputs() == ti.NumOutputs(),
             "mapped circuit and technology-independent network must share "
             "the PI/PO interface");
  ValidateFlowOptions(options, ti.NumOutputs());
  std::unique_ptr<BddManager> owned;
  BddManager* mgr = options.reuse_manager;
  if (mgr != nullptr) {
    SM_REQUIRE(mgr->num_vars() == static_cast<int>(ti.NumInputs()),
               "reuse_manager has " << mgr->num_vars()
                                    << " variables but the circuit has "
                                    << ti.NumInputs() << " inputs");
  } else {
    BddManagerOptions mgr_options = options.bdd_options;
    mgr_options.node_limit = options.bdd_node_limit;
    owned = std::make_unique<BddManager>(static_cast<int>(ti.NumInputs()),
                                         mgr_options);
    mgr = owned.get();
  }
  const CancelToken* cancel = options.cancel;
  FlowResult r{std::move(owned),
               original,
               TimingInfo{},
               SpcfResult{},
               MaskingCircuit{Network(""), {}, 0, 0, 0, 0, 0},
               ProtectedCircuit{MappedNetlist(""), {}, 0, 0, 0, 0},
               MaskingVerification{},
               OverheadReport{},
               BddStats{}};
  // Flow-owned managers get the token for ITE-stride polling; an external
  // reuse_manager keeps whatever token its owner attached (the daemon
  // attaches one around the whole request). Declared after `r` so the token
  // is detached before the owned manager is destroyed on unwind.
  const ScopedManagerCancel mgr_cancel(r.mgr.get(), cancel);
  r.timing = AnalyzeTiming(r.original);
  if (cancel != nullptr) cancel->Check();

  // 2. SPCF over the mapped gates. The engine (and with it the timed χ
  // memos and the mapped global BDDs) lives only for this phase.
  {
    std::vector<GateId> groots;
    for (const auto& o : r.original.outputs()) groots.push_back(o.driver);
    const auto mapped_globals =
        BuildMappedGlobalBdds(*mgr, r.original, groots, /*checkpoint=*/true);
    TimedFunctionEngine engine(*mgr, r.original, mapped_globals);
    r.spcf = ComputeSpcf(engine, r.original, r.timing, options.spcf);
  }

  // Phase boundary: only the SPCF result crosses into synthesis. Pin it and
  // sweep the dead phase-2 intermediates (χ memos, mapped globals) so wide
  // circuits do not carry them through the rest of the flow.
  std::vector<BddManager::Ref> spcf_roots = r.spcf.sigma;
  spcf_roots.push_back(r.spcf.sigma_union);
  const BddRootScope spcf_scope(*mgr, &spcf_roots);
  mgr->GarbageCollect();
  if (cancel != nullptr) cancel->Check();

  // 3. Masking synthesis over the technology-independent network.
  std::vector<NodeId> troots;
  for (const auto& o : ti.outputs()) troots.push_back(o.driver);
  const auto ti_globals = BuildGlobalBdds(*mgr, ti, troots);
  r.masking = SynthesizeMaskingNetwork(*mgr, ti, ti_globals, r.spcf,
                                       options.synth);

  // 4. Delay-mode mapping + output muxes.
  if (cancel != nullptr) cancel->Check();
  r.protected_circuit =
      IntegrateMasking(r.original, r.masking, lib, options.integrate);

  // 5. Formal verification and Table-2 accounting.
  r.verification = VerifyMasking(*mgr, ti, ti_globals, r.masking, r.spcf);
  r.overheads = ComputeOverheads(r.original, r.protected_circuit,
                                 options.power_seed, options.power_words);
  // ComputeOverheads only sees the protected netlist, so it equates
  // critical with protected; under a partial scope the critical count comes
  // from the SPCF.
  r.overheads.critical_outputs = r.spcf.critical_outputs.size();
  r.overheads.critical_minterms = r.spcf.critical_minterms;
  r.overheads.log2_critical_minterms = r.spcf.log2_critical_minterms;
  r.overheads.coverage_100 =
      r.verification.coverage && r.verification.coverage_fraction >= 1.0;
  r.overheads.safety = r.verification.safety;
  r.bdd = mgr->Stats();
  return r;
}

FlowResult RunMaskingFlow(const Network& ti, const Library& lib,
                          const FlowOptions& options) {
  // Map the original circuit (the paper's C), then run the common flow.
  const TechMapResult mapped = DecomposeAndMap(ti, lib, options.original_map);
  return RunMaskingFlowPremapped(mapped.netlist, ti, lib, options);
}

}  // namespace sm
