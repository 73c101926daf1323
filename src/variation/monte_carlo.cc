#include "variation/monte_carlo.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "sim/batch_sim.h"
#include "sim/lane_patterns.h"
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

// A late output's path head not yet walked in the current trial.
constexpr int kHeadUnknown = -2;

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

bool AnyLate(const std::vector<GateId>& drivers, const double* arrival,
             double deadline) {
  for (const GateId d : drivers) {
    if (arrival[d] > deadline + kEps) return true;
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
  const double* arrival;       // trial max arrivals of the same netlist
  const TimingInfo& nominal;   // unscaled STA of the same netlist
  const double* scale;
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
    if (arrival[id] + s_suffix <= scaled_deadline + kEps) {
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
GateId TrialPathHead(const MappedNetlist& net, const double* arrival,
                     const double* scale, GateId driver) {
  GateId at = driver;
  while (!net.IsInput(at)) {
    const Cell& cell = net.cell(at);
    if (cell.IsConstant()) return kInvalidGate;
    const auto& fin = net.fanins(at);
    GateId next = fin[0];
    double best = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < cell.num_pins(); ++p) {
      const GateId f = fin[static_cast<std::size_t>(p)];
      const double a = arrival[f] + cell.pin_delay(p) * scale[at];
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

  // Integration copies C into the protected netlist verbatim — same cells,
  // same pin order, names preserved — and the copies take the trial's draws
  // from the one sample over the protected netlist, so C's arrivals under a
  // trial are exactly its copy's. One STA of the protected netlist therefore
  // judges both circuits: C at its output drivers' copies, C ∪ C̃ at its own
  // output drivers.
  const std::vector<GateId> orig_in_prot = VerbatimCopyMap(original, prot);
  std::vector<GateId> original_drivers;
  for (const auto& o : original.outputs()) {
    original_drivers.push_back(orig_in_prot[o.driver]);
  }
  std::vector<GateId> protected_drivers;
  for (const auto& o : prot.outputs()) protected_drivers.push_back(o.driver);
  std::vector<int> input_index(prot.NumElements(), -1);
  for (std::size_t i = 0; i < prot.NumInputs(); ++i) {
    input_index[prot.inputs()[i]] = static_cast<int>(i);
  }

  const DelayScaleSampler sampler(prot, options.model);
  const MaxArrivalPass sta(prot);
  const std::size_t num_elements = prot.NumElements();

  std::vector<double> shift;
  if (options.importance_sampling) {
    // Shift toward slowdown along a single direction over the low-slack
    // gates, L2-normalized so the TOTAL shift magnitude is is_shift sigmas
    // however many gates qualify. (A per-gate shift would give the weights
    // a log-variance proportional to the gate count — on thousand-gate
    // circuits every likelihood ratio collapses to ~0 and the estimator
    // dies. With ‖μ‖ fixed, E[w²] = exp(‖μ‖²) independent of size.)
    shift.assign(num_elements, 0.0);
    const double window = options.is_guard_fraction * prot_clock;
    double norm2 = 0;
    for (GateId id = 0; id < num_elements; ++id) {
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

  // A worker's reusable buffers: after the first chunks have grown them, a
  // trial allocates nothing.
  struct Worker {
    explicit Worker(std::size_t num_inputs) : patterns(num_inputs) {}
    std::vector<double> arrival;
    // Delay planes of the chunk's trials awaiting simulation, plane k at
    // [k * num_elements, (k + 1) * num_elements); the next trial samples
    // into the first free one.
    std::vector<double> planes;
    std::vector<std::size_t> pending;  // their trial indices
    std::vector<std::size_t> late_outputs;
    // Parallel to late_outputs: the input index at the head of each late
    // output's worst path under the trial's delays (-1 for a tie-cell
    // head), kHeadUnknown until a targeted transition first needs it.
    std::vector<int> heads;
    // Classification pattern pairs: transition j of pending trial k is lane
    // (k * transitions + j) of the flattened word sequence.
    LanePatterns patterns;
    // Per flattened lane: output errors and e·(y ⊕ ỹ) taps observed.
    std::vector<std::uint32_t> err_counts;
    std::vector<std::uint32_t> tap_counts;
    std::unique_ptr<BatchEventSim> engine;  // built on first use
  };
  ScratchPool<Worker> workers;
  const auto make_worker = [&] {
    auto w = std::make_unique<Worker>(prot.NumInputs());
    w->arrival.resize(num_elements);
    return w;
  };

  std::vector<TrialOutcome> outcomes(options.trials);
  const int transitions = std::max(0, options.classify_transitions);

  // Samples trial t into `scale`, runs its one STA and the escape scan.
  // Returns true when the trial needs classification patterns; its late
  // outputs are then in w.late_outputs and its arrivals in w.arrival.
  const auto time_trial = [&](std::size_t t, Worker& w, double* scale) {
    // Cancellation: skip instead of throwing across the pool; the post-pool
    // Check() raises the typed error once every worker has drained.
    if (options.cancel != nullptr && options.cancel->Status() != ErrorCode::kOk) {
      return false;
    }
    if (options.cancel != nullptr) options.cancel->ConsumeWork(1);
    TrialOutcome& out = outcomes[t];
    out.log_weight = sampler.SampleShiftedInto(options.seed, t, shift, scale);
    double* arrival = w.arrival.data();
    sta.Run(scale, arrival);
    out.violates_original = AnyLate(original_drivers, arrival, clock);
    out.violates_protected = AnyLate(protected_drivers, arrival, prot_clock);
    if (!out.violates_protected) return false;  // STA bounds the simulator

    // Structural escape scan over every late output. Late unprotected
    // outputs escape outright; through a mux, the select and d1 subtrees
    // must be clean and d0 may only be late along nominally-long (covered)
    // paths. The d0 branch compares nominal delays without the mux pin —
    // Δ_y is measured at the original circuit's outputs.
    w.late_outputs.clear();
    EscapeScanner scanner{prot, arrival, prot_nominal, scale};
    scanner.scaled_deadline = prot_clock;
    scanner.nominal_threshold = coverage_target;
    scanner.budget = options.scan_budget;
    for (std::size_t oi = 0; oi < prot.NumOutputs(); ++oi) {
      const GateId driver = protected_drivers[oi];
      if (arrival[driver] <= prot_clock + kEps) continue;
      w.late_outputs.push_back(oi);
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
        out.residual = scanner.Visit(fin[static_cast<std::size_t>(p)],
                                     d * scale[driver],
                                     scanner.covered_mode ? 0.0 : d);
      }
    }
    out.scan_truncated = scanner.truncated;
    w.heads.assign(w.late_outputs.size(), kHeadUnknown);
    return transitions > 0;
  };

  // Writes classification transition i of the trial just timed into `lane`
  // of pattern word `word`. Transitions alternate between targeted
  // single-input toggles down the arrival-defining paths of the late outputs
  // (these sensitize the blamed speed-path with high probability) and fully
  // random pattern pairs (these catch escapes STA blamed on one output but
  // that surface on another).
  const auto draw_transition = [&](Rng& rng, Worker& w, const double* scale,
                                   int i, std::size_t word, int lane) {
    w.patterns.DrawNext(rng, word, lane);
    if (i % 2 == 0 && !w.late_outputs.empty()) {
      // The arrivals and scales are the trial's own, so each late output's
      // path head is walked once per trial, whichever transition asks first.
      const std::size_t k =
          static_cast<std::size_t>(i / 2) % w.late_outputs.size();
      int& head = w.heads[k];
      if (head == kHeadUnknown) {
        const GateId g = TrialPathHead(prot, w.arrival.data(), scale,
                                       protected_drivers[w.late_outputs[k]]);
        head = g == kInvalidGate ? -1 : input_index[g];
      }
      w.patterns.CopyNext(word, lane, head);
    } else {
      w.patterns.DrawPrevious(rng, word, lane);
    }
  };

  // Simulation telemetry per chunk slot: the packing depends only on the
  // chunk boundaries, so the totals are thread-count invariant.
  const std::size_t num_chunks =
      (options.trials + options.chunk - 1) / options.chunk;
  std::vector<std::uint64_t> chunk_words(num_chunks, 0);
  std::vector<std::uint64_t> chunk_lanes(num_chunks, 0);

  // The one trial path: each chunk times its trials (Phase A), simulates
  // the classification transitions of its violating trials packed 64 lanes
  // to a word (Phase B) and folds the per-lane counts into the outcomes
  // (Phase C).
  const auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    constexpr auto width = static_cast<std::size_t>(kBatchLanes);
    auto w = workers.Acquire(make_worker);
    // Phase A: sample, STA and escape scan per trial. A violating trial
    // keeps its delay plane and draws every classification transition
    // straight into its lanes; the draws come from the trial's private
    // classify stream, so no other trial's randomness depends on them.
    w->pending.clear();
    std::size_t lanes = 0;
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t slot = w->pending.size();
      if (w->planes.size() < (slot + 1) * num_elements) {
        w->planes.resize((slot + 1) * num_elements);
      }
      double* scale = w->planes.data() + slot * num_elements;
      if (!time_trial(t, *w, scale)) continue;
      w->pending.push_back(t);
      Rng rng = Rng::ForStream(options.seed, t + kClassifyStreamOffset);
      for (int i = 0; i < transitions; ++i, ++lanes) {
        const std::size_t word = lanes / width;
        const int lane = static_cast<int>(lanes % width);
        if (lane == 0) w->patterns.Start(word);
        draw_transition(rng, *w, scale, i, word, lane);
      }
    }
    if (lanes == 0) return;

    // Phase B: run the words; lanes of one trial share its delay plane by
    // pointer. Each word's outcome is read a word at a time: a pass over the
    // output error words and the tap words visits only the lanes that saw
    // something.
    if (!w->engine) w->engine = std::make_unique<BatchEventSim>(prot);
    w->err_counts.assign(lanes, 0);
    w->tap_counts.assign(lanes, 0);
    const std::size_t words = (lanes + width - 1) / width;
    BatchEventSimConfig cfg;
    cfg.clock = prot_clock;
    for (std::size_t word = 0; word < words; ++word) {
      const std::size_t base = word * width;
      cfg.lanes = static_cast<int>(std::min(lanes - base, width));
      for (int l = 0; l < cfg.lanes; ++l) {
        const std::size_t slot =
            (base + static_cast<std::size_t>(l)) /
            static_cast<std::size_t>(transitions);
        cfg.delay_scale[static_cast<std::size_t>(l)] =
            w->planes.data() + slot * num_elements;
      }
      w->patterns.Finish(word);
      const BatchEventSimResult& sim = w->engine->Run(
          w->patterns.previous(word), w->patterns.next(word), cfg);
      for (const GateId d : protected_drivers) {
        for (std::uint64_t e = sim.TimingErrorWord(d); e != 0; e &= e - 1) {
          ++w->err_counts[base + static_cast<std::size_t>(std::countr_zero(e))];
        }
      }
      for (const auto& tap : protected_circuit.taps) {
        // The copied original output is judged at the raw clock; with the
        // indicator raised the mux absorbed the error — the paper's
        // e_i·(y_i ⊕ ỹ_i) wearout events.
        for (std::uint64_t e = sim.sampled[tap.indicator] & sim.lane_mask;
             e != 0; e &= e - 1) {
          const int l = std::countr_zero(e);
          if (sim.SettleAt(tap.original, l) > clock + kEps) {
            ++w->tap_counts[base + static_cast<std::size_t>(l)];
          }
        }
      }
    }
    chunk_words[lo / options.chunk] += words;
    chunk_lanes[lo / options.chunk] += lanes;

    // Phase C: fold each trial's per-transition counts in transition order,
    // stopping after its first residual transition. Residual is final, so
    // the events of later transitions are not counted even though they were
    // simulated; a trial the escape scan already found residual therefore
    // counts its first transition only.
    for (std::size_t k = 0; k < w->pending.size(); ++k) {
      TrialOutcome& out = outcomes[w->pending[k]];
      for (int j = 0; j < transitions; ++j) {
        const std::size_t lane =
            k * static_cast<std::size_t>(transitions) +
            static_cast<std::size_t>(j);
        if (w->err_counts[lane] > 0) {
          out.residual_events += w->err_counts[lane];
          out.residual = true;
        }
        out.masked_events += w->tap_counts[lane];
        if (out.residual) break;
      }
      out.excited = out.masked_events > 0 || out.residual_events > 0;
    }
  };

  WallTimer timer;
  {
    ThreadPool pool(options.threads);
    pool.ParallelFor(0, options.trials, options.chunk, run_chunk);
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
