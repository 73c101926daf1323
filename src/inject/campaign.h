// Timing-fault injection campaign engine: adversarial runtime validation of
// the masking guarantee.
//
// The BDD verifier (masking/verify.h) proves safety and coverage *against
// the SPCF it is given* — a buggy or under-approximated SPCF passes the
// formal check and still ships a broken guarantee. This engine attacks the
// integrated protected netlist (original ∪ masking ∪ muxes) dynamically: it
// injects per-gate delay faults into the event-driven simulator, drives the
// netlist with input-pattern transitions, and classifies every
// (fault, vector) trial:
//
//   benign — no wrong value was latched anywhere that matters: either no
//            element erred at the clock edge, or the error died before any
//            primary output;
//   masked — a copied-original output y_i was wrong at the clock edge, the
//            indicator e_i was raised, and the mux substituted the
//            prediction: the paper's mechanism, observed working;
//   escape — a wrong value was latched at a primary output of the protected
//            netlist: a guarantee violation.
//
// Fault model: a delay delta bounded by the guard window
// (delta_fraction · guard_band · clock, the largest slowdown the paper's
// guarantee covers — every path a bounded fault can push past the clock is
// nominally longer than Δ_y, so its activating patterns are in Σ_y and must
// raise e). Under a correct SPCF a campaign therefore reports ZERO escapes;
// any escape is a reproducible bug, minimized by the shrinker into a
// smallest (site, delta, vector-pair) triple.
//
// Determinism contract (same discipline as variation/monte_carlo.h): trial
// t's randomness is Rng::ForStream(seed, t), every trial writes its own
// outcome slot, and the reduction over slots is sequential — results are
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "masking/integrate.h"
#include "sim/event_sim.h"
#include "util/cancel.h"

namespace sm {

enum class FaultSiteStrategy {
  // Every gate of the original circuit within the guard window of its
  // deadline (slack < guard_band · clock) — the complete speed-path set the
  // guarantee covers. The zero-escape acceptance gate runs this.
  kExhaustiveSpeedPaths,
  // Uniformly random original gates (negative controls included: faults on
  // high-slack gates must come back benign).
  kRandomGates,
  // Speed-path gates ranked by ascending STA slack, worst first — the
  // attacker's ordering; with max_sites it concentrates the vector budget on
  // the gates closest to the deadline.
  kAdversarial,
};

const char* ToString(FaultSiteStrategy s);
// Accepts "exhaustive" | "random" | "adversarial"; throws ParseError.
FaultSiteStrategy FaultSiteStrategyFromString(const std::string& name);

enum class FaultKind {
  kPermanentDelta,  // extra_delay on every transition through the site
  kTransient,       // one late edge (EventSimConfig::transient_faults)
};

const char* ToString(FaultKind k);
// Accepts "permanent" | "transient"; throws ParseError.
FaultKind FaultKindFromString(const std::string& name);

enum class InjectOutcome : std::uint8_t { kBenign, kMasked, kEscape };

const char* ToString(InjectOutcome o);

// One concrete fault to inject into a simulation run.
struct DelayFault {
  GateId site = kInvalidGate;  // protected-netlist element
  double delta = 0;
  FaultKind kind = FaultKind::kPermanentDelta;
  std::uint64_t transition_index = 0;  // kTransient only
};

struct InjectOptions {
  FaultSiteStrategy strategy = FaultSiteStrategy::kExhaustiveSpeedPaths;
  FaultKind fault_kind = FaultKind::kPermanentDelta;
  // Speed-path window, matching the SPCF the masking circuit was built with.
  double guard_band = 0.1;
  // Raw clock for the original circuit C; < 0 means its nominal critical
  // delay Δ. Protected outputs are judged at clock + mux compensation.
  double clock = -1;
  // Injected delta = delta_fraction · guard_band · clock (minus an epsilon
  // for float-boundary safety). Values ≤ 1 stay inside the guarantee; > 1
  // deliberately exceeds it (escapes are then expected, not violations).
  double delta_fraction = 1.0;
  // 0 = every candidate site (exhaustive/adversarial) or 32 (random).
  std::size_t max_sites = 0;
  std::size_t vectors_per_site = 24;
  // Per site, derive one robust path-sensitizing vector pair from global
  // BDDs (Boolean difference along the STA-worst path through the site) and
  // inject it as the site's first vector. Random pattern pairs almost never
  // dynamically activate a 20+-level near-critical path (every side input
  // must be non-controlling), so without this the campaign observes nothing.
  bool sensitize = true;
  std::size_t bdd_node_limit = 8'000'000;  // sensitization manager cap
  int threads = 1;
  std::size_t chunk = 64;  // trials per thread-pool task (one full word)
  std::uint64_t seed = 2009;
  // Minimize escapes into smallest reproducers (sequential, deterministic).
  bool shrink = true;
  std::size_t max_shrink_escapes = 4;
  std::size_t max_escape_records = 64;
  // Cooperative cancellation, polled before each simulation word (up to 64
  // trials): a tripped token makes the remaining trials no-ops and the
  // post-pool check throws CancelledError before the sequential reduction —
  // a cancelled campaign never returns partial counts. Also attached to the
  // sensitization BDD manager. Not owned.
  const CancelToken* cancel = nullptr;
  // Output indices (strictly ascending) whose errors are NOT guarantee
  // violations: under a partial protection scope, a critical output left
  // outside the scope carries no masking claim — its residual risk is
  // quantified by the Monte-Carlo engine instead. A wrong value at a waived
  // output is classified through the ordinary masked/benign logic rather
  // than as an escape. Empty (the default, and always the case under
  // protect-all) judges every output. RunFaultInjectionCampaign fills this
  // automatically from the flow's unprotected critical outputs.
  std::vector<std::size_t> waived_outputs;
};

// A minimized (or raw, when shrinking is off) escape: everything needed to
// replay the guarantee violation in a single simulation run.
struct EscapeRecord {
  std::size_t trial = 0;  // campaign trial index that found it
  GateId site = kInvalidGate;
  std::string site_name;
  FaultKind kind = FaultKind::kPermanentDelta;
  std::uint64_t transition_index = 0;
  double delta = 0;           // shrunk delta (== campaign delta when raw)
  double campaign_delta = 0;  // delta the campaign injected
  std::vector<bool> previous;
  std::vector<bool> next;
  std::size_t output_index = 0;  // first escaping protected output
  std::string output_name;
  bool shrunk = false;

  DelayFault Fault() const {
    return DelayFault{site, delta, kind, transition_index};
  }
};

struct InjectionCampaignResult {
  std::size_t sites = 0;
  std::size_t trials = 0;
  std::size_t benign = 0;
  std::size_t masked = 0;
  std::size_t escapes = 0;
  // Taps where a wrong y_i met a raised e_i at the clock edge, summed over
  // trials (a masked trial can absorb errors at several outputs).
  std::uint64_t masked_events = 0;
  double clock = 0;            // raw clock the campaign used
  double protected_clock = 0;  // clock + mux compensation
  double delta = 0;            // injected delay delta
  std::vector<EscapeRecord> escape_records;  // first max_escape_records
  double seconds = 0;
  double trials_per_second = 0;

  // Simulation telemetry; deterministic for fixed options — chunk
  // boundaries decide the packing — so a different chunk size changes these
  // fields and none of the ones above.
  std::uint64_t words_simulated = 0;
  std::uint64_t lanes_simulated = 0;
  double lane_utilization = 0;  // lanes / (words * 64)

  bool GuaranteeHolds() const { return escapes == 0; }
};

// Classifies one fault/vector trial against the protected netlist — the
// single-shot primitive the campaign, the shrinker and reproducer replays
// share. Primary outputs are judged at `protected_clock` (= clock + mux
// compensation); each tap's copied-original output is judged against its
// own deadline `clock`, matching the Monte-Carlo engine. `escaping_output`,
// when non-null and the outcome is an escape, receives the first wrong
// output's index; `masked_taps`, when non-null, receives the number of
// wrong-y/raised-e taps. `waived_outputs`, when non-null, is a sorted list
// of output indices whose errors do not count as escapes (see
// InjectOptions::waived_outputs).
InjectOutcome ClassifyFaultTrial(const ProtectedCircuit& protected_circuit,
                                 const DelayFault& fault,
                                 const std::vector<bool>& previous,
                                 const std::vector<bool>& next, double clock,
                                 double protected_clock,
                                 std::size_t* escaping_output = nullptr,
                                 std::size_t* masked_taps = nullptr,
                                 const std::vector<std::size_t>* waived_outputs =
                                     nullptr);

// Single-shot escape replay on a bare netlist (no tap information needed):
// true iff a wrong value is latched at any primary output. This is what a
// reproducer BLIF round-trips through.
bool ReplayEscapesAtOutputs(const MappedNetlist& net, const DelayFault& fault,
                            const std::vector<bool>& previous,
                            const std::vector<bool>& next, double clock);

// The campaign's site list for `options` (exposed for tests): protected-
// netlist gate ids of the selected original-circuit gates, in injection
// order. `nominal` is the unscaled STA of `original`.
std::vector<GateId> SelectFaultSites(const MappedNetlist& original,
                                     const ProtectedCircuit& protected_circuit,
                                     const TimingInfo& nominal,
                                     const InjectOptions& options);

// `original` is the circuit C whose timing defines the speed-paths;
// `protected_circuit` is the integrated netlist from the flow. Both must
// outlive the call. Thread count only affects wall-clock time.
InjectionCampaignResult RunInjectionCampaign(
    const MappedNetlist& original, const ProtectedCircuit& protected_circuit,
    const InjectOptions& options = {});

}  // namespace sm
