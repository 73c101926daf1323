#include "variation/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/batch_sim.h"
#include "sim/event_sim.h"
#include "sta/sta.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sm {
namespace {

// Arrival-vs-deadline comparisons ignore sub-ulp noise: the nominal critical
// path sits exactly at T and must not read as a violation.
constexpr double kEps = 1e-9;

// The classification pattern stream must be independent of the sampling
// stream of the same trial; offsetting the stream index by a large odd
// constant keeps the two families disjoint for any realistic trial count.
constexpr std::uint64_t kClassifyStreamOffset = 0x9e3779b97f4a7c15ULL;

struct TrialOutcome {
  bool violates_original = false;
  bool violates_protected = false;
  bool residual = false;
  bool excited = false;  // some error (masked or not) was observed
  bool scan_truncated = false;
  std::uint32_t masked_events = 0;
  std::uint32_t residual_events = 0;
  double log_weight = 0;
};

// A violating trial's deferred classification work: the pattern pairs the
// scalar path would simulate one by one, kept with the trial's delay plane
// so a chunk's trials can be packed into 64-lane batched runs. The per-
// transition counts come back lane by lane and the reduction replays the
// scalar early-exit bookkeeping, so the outcome is bit-identical.
struct TrialPlan {
  std::size_t trial = 0;
  std::vector<double> scale;
  std::vector<std::vector<bool>> prev;
  std::vector<std::vector<bool>> next;
  std::vector<std::uint32_t> err_counts;
  std::vector<std::uint32_t> tap_counts;
};

bool AnyOutputLate(const MappedNetlist& net, const TimingInfo& timing,
                   double deadline) {
  for (const auto& o : net.outputs()) {
    if (timing.max_arrival[o.driver] > deadline + kEps) return true;
  }
  return false;
}

// Structural escape scan. For a trial whose protected netlist misses the
// clock, decides whether the violation is guaranteed-masked or can escape:
//
//   * a late path through the mux's d0 pin (the copied original y) whose
//     NOMINAL delay exceeds the SPCF target Δ_y is covered — every pattern
//     activating it settles after Δ_y at nominal delays, is in Σ_y, and so
//     raises e (floating-mode activation depends on the pattern only, not
//     on the delays, so the trial's slowdown cannot create new activating
//     patterns for it);
//   * a late d0 path that is nominally SHORT (≤ Δ_y) escapes: its patterns
//     need not be in Σ_y, so e may be 0 while y errs;
//   * any late path through the mux select (e) or d1 (ỹ) pin means the
//     masking circuit itself missed timing — an escape;
//   * a late unprotected output has no mux at all — an escape.
//
// The scan is a pruned DFS: subtrees with no scaled-late path (scaled
// arrival bound) or with only nominally-long paths (nominal min-arrival
// bound, covered mode) are skipped. Structural paths overapproximate
// sensitizable ones, so a reported escape may be a false path — the
// classification errs on the pessimistic side, like STA itself.
struct EscapeScanner {
  const MappedNetlist& net;
  const TimingInfo& scaled;    // trial STA of the same netlist
  const TimingInfo& nominal;   // unscaled STA of the same netlist
  const std::vector<double>& scale;
  double scaled_deadline = 0;
  double nominal_threshold = 0;  // Δ_y: nominally-longer d0 paths are covered
  std::size_t budget = 0;
  bool covered_mode = false;  // true inside the d0 (original y) subtree
  bool truncated = false;

  // True when an uncovered scaled-late path exists under `id`; suffixes are
  // the scaled/nominal delays from id's output to the sampled output.
  bool Visit(GateId id, double s_suffix, double n_suffix) {
    if (budget == 0) {
      truncated = true;
      return false;
    }
    --budget;
    if (scaled.max_arrival[id] + s_suffix <= scaled_deadline + kEps) {
      return false;  // nothing below is scaled-late
    }
    if (covered_mode &&
        nominal.min_arrival[id] + n_suffix > nominal_threshold + kEps) {
      return false;  // every path below is nominally long — covered
    }
    if (net.IsInput(id) || net.cell(id).IsConstant()) {
      return !covered_mode || n_suffix <= nominal_threshold + kEps;
    }
    const Cell& cell = net.cell(id);
    const auto& fin = net.fanins(id);
    for (int p = 0; p < cell.num_pins(); ++p) {
      const double d = cell.pin_delay(p);
      if (Visit(fin[static_cast<std::size_t>(p)], s_suffix + d * scale[id],
                n_suffix + d)) {
        return true;
      }
    }
    return false;
  }
};

// Walks back from `driver` along the arrival-defining pin under the trial's
// scaled delays and returns the primary input at the head of that path
// (kInvalidGate when the path starts at a tie cell). Toggling this input
// launches a transition down the exact path STA blamed — random transitions
// almost never sensitize a specific speed-path, targeted ones often do.
GateId TrialPathHead(const MappedNetlist& net, const TimingInfo& timing,
                     const std::vector<double>& scale, GateId driver) {
  GateId at = driver;
  while (!net.IsInput(at)) {
    const Cell& cell = net.cell(at);
    if (cell.IsConstant()) return kInvalidGate;
    const auto& fin = net.fanins(at);
    GateId next = fin[0];
    double best = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < cell.num_pins(); ++p) {
      const GateId f = fin[static_cast<std::size_t>(p)];
      const double a = timing.max_arrival[f] + cell.pin_delay(p) * scale[at];
      if (a > best) {
        best = a;
        next = f;
      }
    }
    at = next;
  }
  return at;
}

}  // namespace

YieldMcResult RunTimingYieldMc(const MappedNetlist& original,
                               const ProtectedCircuit& protected_circuit,
                               const YieldMcOptions& options) {
  SM_REQUIRE(options.trials > 0, "need at least one trial");
  SM_REQUIRE(options.chunk > 0, "chunk must be positive");
  SM_REQUIRE(options.batch_width >= 1 && options.batch_width <= kBatchLanes,
             "batch_width must be in [1, " << kBatchLanes << "], got "
                                           << options.batch_width);
  const MappedNetlist& prot = protected_circuit.netlist;

  // Nominal timing fixes the clock and (for importance sampling) the set of
  // speed-path gates whose distribution is shifted.
  const TimingInfo nominal = AnalyzeTiming(original);
  const double clock = options.clock < 0 ? nominal.critical_delay
                                         : options.clock;
  SM_REQUIRE(clock > 0, "clock must be positive");
  double mux_compensation = 0;
  for (const auto& tap : protected_circuit.taps) {
    mux_compensation =
        std::max(mux_compensation, prot.cell(tap.mux).max_delay());
  }
  const double prot_clock = clock + mux_compensation;
  const double coverage_target =
      options.coverage_target_arrival < 0
          ? (1.0 - options.guard_band) * clock
          : options.coverage_target_arrival;

  // Nominal timing of the protected netlist: min-arrivals prune the escape
  // scan's covered subtrees, slacks pick the importance-sampling shift set.
  const TimingInfo prot_nominal = AnalyzeTiming(prot, prot_clock);

  // Which protected outputs carry a masking mux, by driver id.
  std::vector<const ProtectedCircuit::Tap*> tap_of(prot.NumElements(),
                                                   nullptr);
  for (const auto& tap : protected_circuit.taps) tap_of[tap.mux] = &tap;

  // Variation is sampled once per trial over the protected netlist (the
  // superset); the copied original gates share their copy's draw so C and
  // C ∪ C̃ see the same silicon. The map is by name — integration preserves
  // the original gate names.
  std::vector<GateId> orig_in_prot(original.NumElements(), kInvalidGate);
  for (GateId id = 0; id < original.NumElements(); ++id) {
    orig_in_prot[id] = prot.FindByName(original.element(id).name);
  }
  const DelayScaleSampler sampler(prot, options.model);

  std::vector<double> shift;
  if (options.importance_sampling) {
    // Shift toward slowdown along a single direction over the low-slack
    // gates, L2-normalized so the TOTAL shift magnitude is is_shift sigmas
    // however many gates qualify. (A per-gate shift would give the weights
    // a log-variance proportional to the gate count — on thousand-gate
    // circuits every likelihood ratio collapses to ~0 and the estimator
    // dies. With ‖μ‖ fixed, E[w²] = exp(‖μ‖²) independent of size.)
    shift.assign(prot.NumElements(), 0.0);
    const double window = options.is_guard_fraction * prot_clock;
    double norm2 = 0;
    for (GateId id = 0; id < prot.NumElements(); ++id) {
      if (prot.IsInput(id)) continue;
      if (!std::isfinite(prot_nominal.required[id])) continue;  // dangling
      const double score = window - prot_nominal.Slack(id);
      if (score > 0) {
        shift[id] = score;
        norm2 += score * score;
      }
    }
    if (norm2 > 0) {
      const double k = options.is_shift / std::sqrt(norm2);
      for (double& s : shift) s *= k;
    }
  }

  std::vector<TrialOutcome> outcomes(options.trials);
  // With `plan == nullptr` the trial is classified inline through the scalar
  // engine (the original path, kept as the differential oracle). With a plan
  // the simulations are deferred: the same RNG stream generates the same
  // pattern pairs, which the caller packs into batched runs. The only
  // divergence is that the plan generates every transition while the scalar
  // loop stops generating after the first residual one — those draws come
  // from the trial's private classify stream, so nothing downstream shifts.
  const auto run_trial = [&](std::size_t t, TrialPlan* plan) {
    // Cancellation: skip instead of throwing across the pool; the post-pool
    // Check() raises the typed error once every worker has drained.
    if (options.cancel != nullptr && options.cancel->Status() != ErrorCode::kOk) {
      return;
    }
    if (options.cancel != nullptr) options.cancel->ConsumeWork(1);
    TrialOutcome& out = outcomes[t];
    ShiftedSample sample = sampler.SampleShifted(options.seed, t, shift);
    out.log_weight = sample.log_weight;

    std::vector<double> orig_scale(original.NumElements(), 1.0);
    for (GateId id = 0; id < original.NumElements(); ++id) {
      if (orig_in_prot[id] != kInvalidGate) {
        orig_scale[id] = sample.scale[orig_in_prot[id]];
      }
    }

    const TimingInfo t_orig = AnalyzeTiming(original, clock, &orig_scale);
    out.violates_original = AnyOutputLate(original, t_orig, clock);

    const TimingInfo t_prot = AnalyzeTiming(prot, prot_clock, &sample.scale);
    out.violates_protected = AnyOutputLate(prot, t_prot, prot_clock);
    if (!out.violates_protected) return;  // STA bounds the simulator: safe

    // Structural escape scan over every late output. Late unprotected
    // outputs escape outright; through a mux, the select and d1 subtrees
    // must be clean and d0 may only be late along nominally-long (covered)
    // paths. The d0 branch compares nominal delays without the mux pin —
    // Δ_y is measured at the original circuit's outputs.
    std::vector<std::size_t> late_outputs;
    EscapeScanner scanner{prot, t_prot, prot_nominal, sample.scale};
    scanner.scaled_deadline = prot_clock;
    scanner.nominal_threshold = coverage_target;
    scanner.budget = options.scan_budget;
    for (std::size_t oi = 0; oi < prot.NumOutputs(); ++oi) {
      const GateId driver = prot.output(oi).driver;
      if (t_prot.max_arrival[driver] <= prot_clock + kEps) continue;
      late_outputs.push_back(oi);
      if (out.residual) continue;  // already classified; keep listing
      const ProtectedCircuit::Tap* tap = tap_of[driver];
      if (tap == nullptr) {
        out.residual = true;  // no mux guards this output
        continue;
      }
      const Cell& mux = prot.cell(driver);
      const auto& fin = prot.fanins(driver);
      for (int p = 0; p < mux.num_pins() && !out.residual; ++p) {
        const double d = mux.pin_delay(p);
        scanner.covered_mode = p == 1;  // pins are (select e, d0 y, d1 ỹ)
        out.residual =
            scanner.Visit(fin[static_cast<std::size_t>(p)],
                          d * sample.scale[driver],
                          scanner.covered_mode ? 0.0 : d);
      }
    }
    out.scan_truncated = scanner.truncated;
    if (options.classify_transitions <= 0) return;

    // Excite the violation under the trial delays. Transitions alternate
    // between targeted single-input toggles down the arrival-defining paths
    // of the late outputs (these sensitize the blamed speed-path with high
    // probability) and fully random pattern pairs (these catch escapes STA
    // blamed on one output but that surface on another).
    Rng rng = Rng::ForStream(options.seed, t + kClassifyStreamOffset);
    EventSimConfig cfg;
    cfg.clock = prot_clock;
    if (plan == nullptr) cfg.delay_scale = sample.scale;
    for (int i = 0; i < options.classify_transitions; ++i) {
      std::vector<bool> next(prot.NumInputs());
      for (std::size_t v = 0; v < next.size(); ++v) next[v] = rng.Chance(0.5);
      std::vector<bool> prev;
      const bool targeted = i % 2 == 0 && !late_outputs.empty();
      if (targeted) {
        const std::size_t oi =
            late_outputs[static_cast<std::size_t>(i / 2) %
                         late_outputs.size()];
        const GateId head = TrialPathHead(prot, t_prot, sample.scale,
                                          prot.output(oi).driver);
        const int pi = head == kInvalidGate ? -1 : prot.InputIndex(head);
        prev = next;
        if (pi >= 0) {
          prev[static_cast<std::size_t>(pi)] =
              !prev[static_cast<std::size_t>(pi)];
        }
      } else {
        prev.resize(prot.NumInputs());
        for (std::size_t v = 0; v < prev.size(); ++v) {
          prev[v] = rng.Chance(0.5);
        }
      }
      if (plan != nullptr) {
        plan->prev.push_back(std::move(prev));
        plan->next.push_back(std::move(next));
        continue;
      }
      const EventSimResult sim = SimulateTransition(prot, prev, next, cfg);
      for (const auto& o : prot.outputs()) {
        if (sim.TimingErrorAt(o.driver)) {
          ++out.residual_events;
          out.residual = true;
        }
      }
      for (const auto& tap : protected_circuit.taps) {
        // The copied original output is judged at the raw clock; with the
        // indicator raised the mux absorbed the error — the paper's
        // e_i·(y_i ⊕ ỹ_i) wearout events.
        if (sim.sampled[tap.indicator] &&
            sim.settle_at[tap.original] > clock + kEps) {
          ++out.masked_events;
        }
      }
      if (out.residual) break;  // classified; spare the remaining budget
    }
    if (plan != nullptr && !plan->prev.empty()) {
      plan->trial = t;
      plan->scale = std::move(sample.scale);
      return;
    }
    out.excited = out.masked_events > 0 || out.residual_events > 0;
  };

  // Counts one lane of a batched run against the trial's outcome slots —
  // the loop bodies match the scalar path's output/tap scans above.
  const auto count_lane = [&](const BatchEventSimResult& sim, int lane,
                              TrialPlan& plan, std::size_t transition) {
    std::uint32_t errs = 0;
    for (const auto& o : prot.outputs()) {
      if (sim.TimingErrorAt(o.driver, lane)) ++errs;
    }
    std::uint32_t taps = 0;
    for (const auto& tap : protected_circuit.taps) {
      if (sim.SampledAt(tap.indicator, lane) &&
          sim.SettleAt(tap.original, lane) > clock + kEps) {
        ++taps;
      }
    }
    plan.err_counts[transition] = errs;
    plan.tap_counts[transition] = taps;
  };

  // Batched-run telemetry per chunk slot: the packing depends only on the
  // chunk boundaries, so the totals are thread-count invariant.
  const std::size_t num_chunks =
      (options.trials + options.chunk - 1) / options.chunk;
  std::vector<std::uint64_t> chunk_words(num_chunks, 0);
  std::vector<std::uint64_t> chunk_lanes(num_chunks, 0);

  const int width = options.batch_width;
  const auto run_chunk_batched = [&](std::size_t lo, std::size_t hi) {
    // Phase A: STA + escape scan per trial; violating trials leave their
    // classification patterns and delay plane in a plan.
    std::vector<TrialPlan> pending;
    for (std::size_t t = lo; t < hi; ++t) {
      TrialPlan plan;
      run_trial(t, &plan);
      if (!plan.prev.empty()) pending.push_back(std::move(plan));
    }
    if (pending.empty()) return;

    // Phase B: flatten every (trial, transition) into lanes and run the
    // batched engine `width` lanes at a time. Lanes of one trial share its
    // delay plane by pointer.
    struct LaneRef {
      std::size_t plan_index;
      std::size_t transition;
    };
    std::vector<LaneRef> lanes;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      pending[i].err_counts.assign(pending[i].prev.size(), 0);
      pending[i].tap_counts.assign(pending[i].prev.size(), 0);
      for (std::size_t j = 0; j < pending[i].prev.size(); ++j) {
        lanes.push_back(LaneRef{i, j});
      }
    }
    BatchEventSim engine(prot);
    std::vector<std::uint64_t> prev_words(prot.NumInputs());
    std::vector<std::uint64_t> next_words(prot.NumInputs());
    std::uint64_t words = 0;
    for (std::size_t base = 0; base < lanes.size();
         base += static_cast<std::size_t>(width)) {
      const int count = static_cast<int>(
          std::min(lanes.size() - base, static_cast<std::size_t>(width)));
      BatchEventSimConfig cfg;
      cfg.clock = prot_clock;
      cfg.lanes = count;
      std::fill(prev_words.begin(), prev_words.end(), 0);
      std::fill(next_words.begin(), next_words.end(), 0);
      for (int l = 0; l < count; ++l) {
        const LaneRef& ref = lanes[base + static_cast<std::size_t>(l)];
        const TrialPlan& plan = pending[ref.plan_index];
        cfg.delay_scale[static_cast<std::size_t>(l)] = plan.scale.data();
        const std::vector<bool>& pv = plan.prev[ref.transition];
        const std::vector<bool>& nv = plan.next[ref.transition];
        for (std::size_t v = 0; v < pv.size(); ++v) {
          if (pv[v]) prev_words[v] |= 1ull << l;
          if (nv[v]) next_words[v] |= 1ull << l;
        }
      }
      const BatchEventSimResult& sim = engine.Run(prev_words, next_words, cfg);
      ++words;
      for (int l = 0; l < count; ++l) {
        const LaneRef& ref = lanes[base + static_cast<std::size_t>(l)];
        count_lane(sim, l, pending[ref.plan_index], ref.transition);
      }
    }
    chunk_words[lo / options.chunk] += words;
    chunk_lanes[lo / options.chunk] += lanes.size();

    // Phase C: fold the per-transition counts back in scalar order,
    // replaying the scalar loop's stop-after-first-residual-transition
    // bookkeeping (including the structurally-residual case, which the
    // scalar path simulates for exactly one transition).
    for (TrialPlan& plan : pending) {
      TrialOutcome& out = outcomes[plan.trial];
      for (std::size_t j = 0; j < plan.err_counts.size(); ++j) {
        if (plan.err_counts[j] > 0) {
          out.residual_events += plan.err_counts[j];
          out.residual = true;
        }
        out.masked_events += plan.tap_counts[j];
        if (out.residual) break;
      }
      out.excited = out.masked_events > 0 || out.residual_events > 0;
    }
  };

  WallTimer timer;
  {
    ThreadPool pool(options.threads);
    pool.ParallelFor(0, options.trials, options.chunk,
                     [&](std::size_t lo, std::size_t hi) {
                       if (options.use_batch_sim) {
                         run_chunk_batched(lo, hi);
                       } else {
                         for (std::size_t t = lo; t < hi; ++t) {
                           run_trial(t, nullptr);
                         }
                       }
                     });
  }
  // Raise the typed error only after the pool has drained: the workers
  // skipped (never threw), so no exception crosses a thread boundary.
  if (options.cancel != nullptr) options.cancel->Check();

  // Sequential reduction in trial order: bit-identical for any thread count.
  YieldMcResult r;
  r.trials = options.trials;
  r.clock = clock;
  r.protected_clock = prot_clock;
  double sum_w = 0, sum_w2 = 0;
  double sum_viol = 0, sum_res = 0, sum_res2 = 0;
  for (const TrialOutcome& out : outcomes) {
    const double w = std::exp(out.log_weight);
    sum_w += w;
    sum_w2 += w * w;
    if (out.violates_original) {
      ++r.violations_original;
      sum_viol += w;
    }
    if (out.violates_protected) ++r.violations_protected;
    if (out.scan_truncated) ++r.scan_truncations;
    if (out.residual) {
      ++r.residual_trials;
      sum_res += w;
      sum_res2 += w * w;
    } else if (out.violates_protected) {
      ++r.masked_trials;
      if (!out.excited) ++r.unexcited_trials;
    }
    r.masked_events += out.masked_events;
    r.residual_events += out.residual_events;
  }
  const auto n = static_cast<double>(options.trials);
  r.yield_original = 1.0 - sum_viol / n;
  r.residual_rate = sum_res / n;
  r.yield_protected = 1.0 - r.residual_rate;
  if (options.trials > 1) {
    const double mean = r.residual_rate;
    const double var =
        std::max(0.0, (sum_res2 / n - mean * mean) * (n / (n - 1.0)));
    r.residual_stderr = std::sqrt(var / n);
    r.relative_error = mean > 0 ? r.residual_stderr / mean : 0;
  }
  r.effective_samples = sum_w2 > 0 ? (sum_w * sum_w) / sum_w2 : 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    r.words_simulated += chunk_words[c];
    r.lanes_simulated += chunk_lanes[c];
  }
  r.lane_utilization =
      r.words_simulated > 0
          ? static_cast<double>(r.lanes_simulated) /
                (static_cast<double>(r.words_simulated) * kBatchLanes)
          : 0;
  r.seconds = timer.Seconds();
  r.trials_per_second = r.seconds > 0 ? n / r.seconds : 0;
  return r;
}

}  // namespace sm
