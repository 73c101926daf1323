// Parallel Monte-Carlo timing-yield and residual-error-rate estimation.
//
// Each trial draws a per-gate delay_scale vector (variation.h) over the
// protected circuit C ∪ C̃ ∪ muxes, runs one forward max-arrival STA pass
// over it (sta.h MaxArrivalPass), and classifies the outcome. Integration
// copies C verbatim and the copies share the trial's draws, so the same
// pass times C at its copied output drivers (checked at set-up):
//
//   * C fails the trial when any output's arrival exceeds the clock T.
//   * The protected circuit is judged at T + mux compensation (the same
//     budget convention the wearout/DVS benches use). When STA shows no
//     violating protected output the trial passes outright — floating-mode
//     STA upper-bounds the event simulator, so no pattern can produce an
//     error. Otherwise a structural escape scan splits the violation:
//       - MASKED: every scaled-late path runs through a mux d0 pin and is
//         nominally longer than the SPCF target Δ_y. Floating-mode path
//         activation depends only on the input pattern, so each activating
//         pattern is in Σ_y, the verified coverage e ⊇ Σ guarantees e = 1,
//         and the mux substitutes ỹ — no error can escape.
//       - RESIDUAL: a scaled-late path reaches an unprotected output, runs
//         through a mux select/d1 pin (the masking circuit itself is late),
//         or is a nominally-short (≤ Δ_y) d0 path whose patterns carry no
//         coverage guarantee. Structural paths overapproximate sensitizable
//         ones, so this is pessimistic in exactly the way STA is.
//     Violating trials are additionally *excited* with a short stream of
//     pattern transitions (targeted toggles down the blamed paths plus
//     random pairs) through the event simulator under the trial's delays;
//     errors at the copied original outputs with the indicator e_i raised
//     count the paper's e·(y ⊕ ỹ) masked events, and any simulated error
//     surviving at a protected output marks the trial residual as well.
//
// Determinism contract: trial t's randomness is Rng::ForStream(seed, t) and
// every trial writes its outcome into its own slot; the reduction over
// slots is sequential. Counts and floating-point estimates are therefore
// bit-identical for any thread count.
//
// Per trial the engine allocates nothing: each worker thread reuses one set
// of arrival and delay-plane buffers, one batched simulator (sim/batch_sim.h),
// and lane words into which the classification patterns are drawn directly.
// A chunk's classification transitions run 64 lanes to a word; a trial
// counts the events of its transitions in order up to and including the
// first one that shows a residual error.
//
// Importance sampling (ISLE-style): the Gaussians of the gates within
// `is_guard_fraction`·clock of their deadline are shifted toward slowdown
// along one dominant direction of total magnitude `is_shift` sigmas
// (L2-normalized over the selected gates, so the weight variance does not
// grow with circuit size); each trial carries the likelihood ratio
// w_t = p/q and the estimator averages w_t·1[residual]. The result reports
// the standard error and effective sample size so callers can see when the
// shift was too aggressive.
#pragma once

#include <cstdint>

#include "masking/integrate.h"
#include "util/cancel.h"
#include "variation/variation.h"

namespace sm {

struct YieldMcOptions {
  std::size_t trials = 10000;
  int threads = 1;
  std::size_t chunk = 64;  // trials per thread-pool task
  std::uint64_t seed = 2009;
  VariationModel model;
  // Clock period for C; < 0 means "the nominal critical delay Δ".
  double clock = -1;
  // SPCF target arrival Δ_y: d0 paths nominally longer than this are covered
  // by the indicator. < 0 means (1 - guard_band) · clock, matching the SPCF
  // default; EstimateTimingYield passes the flow's exact value.
  double coverage_target_arrival = -1;
  double guard_band = 0.1;
  // Pattern transitions simulated per STA-violating trial to excite the
  // violation (masked-event statistics + a simulation cross-check of the
  // structural classification). 0 skips simulation; the masked/residual
  // split is then purely structural.
  int classify_transitions = 16;
  // Node-visit budget of the per-trial escape scan. An exhausted budget
  // truncates the scan (counted in scan_truncations) and the unscanned
  // remainder is treated as masked.
  std::size_t scan_budget = 200000;

  // Cooperative cancellation, polled before each trial is sampled: a
  // tripped token makes the remaining trials no-ops and the post-pool check
  // throws CancelledError before any reduction. Per-trial outcomes already
  // produced are discarded with the throw, so a cancelled run never returns
  // a partial estimate. Not owned.
  const CancelToken* cancel = nullptr;

  bool importance_sampling = false;
  // Total shift magnitude ‖μ‖ in sigmas, toward slowdown, distributed over
  // the low-slack gates proportionally to (window − slack) and
  // L2-normalized. E[w²] = exp(‖μ‖²) whatever the circuit size: 1.5 keeps
  // ~10% effective samples, 2.5+ collapses the weights.
  double is_shift = 1.5;
  double is_guard_fraction = 0.2; // slack window that selects shifted gates
};

struct YieldMcResult {
  std::size_t trials = 0;
  // Raw per-trial counts (unweighted; the bit-identity invariants).
  std::size_t violations_original = 0;  // STA violation somewhere in C
  std::size_t violations_protected = 0; // STA violation inside C ∪ C̃
  std::size_t masked_trials = 0;        // violating, no escaped error
  std::size_t residual_trials = 0;      // an error escaped a protected output
  std::size_t unexcited_trials = 0;     // violating but never produced an error
  std::size_t scan_truncations = 0;     // escape scans that ran out of budget
  std::uint64_t masked_events = 0;      // e·(y ⊕ ỹ) observations
  std::uint64_t residual_events = 0;    // escaped-error observations

  // Estimates; with importance sampling these are likelihood-ratio
  // weighted (and the raw counts above describe the *shifted* population).
  double yield_original = 0;   // P(C meets timing)
  double yield_protected = 0;  // P(no residual error in C ∪ C̃)
  double residual_rate = 0;    // P(residual-error trial)
  double residual_stderr = 0;  // standard error of residual_rate
  double relative_error = 0;   // residual_stderr / residual_rate
  double effective_samples = 0;  // (Σw)²/Σw²; == trials without IS

  double clock = 0;            // the clock C was judged at
  double protected_clock = 0;  // clock + mux compensation
  double seconds = 0;
  double trials_per_second = 0;

  // Simulation telemetry. Deterministic for fixed options — chunk
  // boundaries, not thread scheduling, decide the packing — so a different
  // chunk size changes these fields and none of the ones above.
  std::uint64_t words_simulated = 0;     // batched engine runs
  std::uint64_t lanes_simulated = 0;     // transitions packed into them
  double lane_utilization = 0;           // lanes / (words * 64)

  double ConfidenceInterval95() const { return 1.96 * residual_stderr; }
};

// `original` is the circuit C whose timing defines the speed-paths;
// `protected_circuit` is the integrated C ∪ C̃ ∪ muxes from the flow. Both
// must outlive the call. Thread-count only affects wall-clock time.
YieldMcResult RunTimingYieldMc(const MappedNetlist& original,
                               const ProtectedCircuit& protected_circuit,
                               const YieldMcOptions& options = {});

}  // namespace sm
