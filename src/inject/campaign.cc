#include "inject/campaign.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "bdd/bdd.h"
#include "bdd/bdd_util.h"
#include "map/mapped_bdd.h"
#include "sim/batch_sim.h"
#include "sim/lane_patterns.h"
#include "sta/sta.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sm {
namespace {

constexpr double kEps = 1e-9;

// Stream offset for site sampling, disjoint from the per-trial streams
// (trial t uses stream t, t < trials << 2^32).
constexpr std::uint64_t kSiteStreamOffset = 0x53495445ull << 32;  // "SITE"

// Default site count for the random strategy when max_sites is 0.
constexpr std::size_t kDefaultRandomSites = 32;

// Number of candidate positions for a transient fault's transition index.
// Most gates see only a handful of scheduled events per transition, so a
// small range keeps the fault likely to land on a real edge while still
// exercising later glitches.
constexpr std::uint64_t kTransientIndexRange = 4;

// One step of the worst path through a site: gate `gate` is entered through
// its pin `pin`.
struct PathEdge {
  GateId gate;
  int pin;
};

// Per-site vector-generation context, precomputed sequentially and shared by
// the parallel workers and the reduction.
struct SiteContext {
  int head_input = -1;  // PI launching the worst path through the site
  // Next-pattern that robustly sensitizes that path (every side input
  // non-controlling under both head values); empty when none exists.
  std::vector<bool> sensitized;
};

// Draws trial t into `lane` of pattern word `word` and returns its fault —
// the one generator of the campaign: the workers and the escape-record
// reduction both generate a trial through it, so the parallel phase only
// has to store a small outcome slot per trial.
DelayFault DrawTrial(LanePatterns& patterns, std::size_t word, int lane,
                     const InjectOptions& options, double delta, GateId site,
                     const SiteContext& ctx, std::size_t trial,
                     std::size_t vector_index) {
  Rng rng = Rng::ForStream(options.seed, trial);
  DelayFault fault;
  fault.site = site;
  fault.delta = delta;
  fault.kind = options.fault_kind;
  if (vector_index == 0 && !ctx.sensitized.empty()) {
    // The site's opening shot: the precomputed robust test pair — a single
    // transition racing down the exact speed-path the fault slows.
    patterns.SetNext(word, lane, ctx.sensitized);
    patterns.CopyNext(word, lane, ctx.head_input);
  } else {
    patterns.DrawNext(rng, word, lane);
    // Even vector indices are targeted: flip only the head input of the
    // worst path through the site under an otherwise random pattern. Odd
    // indices are fully random pattern pairs (negative controls and glitch
    // hunting).
    if (ctx.head_input >= 0 && vector_index % 2 == 0) {
      patterns.CopyNext(word, lane, ctx.head_input);
    } else {
      patterns.DrawPrevious(rng, word, lane);
    }
  }
  if (options.fault_kind == FaultKind::kTransient) {
    fault.transition_index = rng.Below(kTransientIndexRange);
  }
  return fault;
}

// Trial t through DrawTrial as one fault plus one pattern pair, for the
// escape records (and through them the shrinker).
struct TrialSetup {
  DelayFault fault;
  std::vector<bool> previous;
  std::vector<bool> next;
};

TrialSetup MakeTrialSetup(LanePatterns& patterns, const InjectOptions& options,
                          double delta, GateId site, const SiteContext& ctx,
                          std::size_t trial, std::size_t vector_index) {
  patterns.Start(0);
  TrialSetup s;
  s.fault = DrawTrial(patterns, 0, 0, options, delta, site, ctx, trial,
                      vector_index);
  patterns.Finish(0);
  s.previous = LanePatterns::Unpack(patterns.previous(0), 0);
  s.next = LanePatterns::Unpack(patterns.next(0), 0);
  return s;
}

// The STA-worst path through `site` inside the original copy: backward from
// the site along arrival-defining pins, forward along suffix-defining copy
// fanouts. Returns the edges in head-to-terminal order; `head` receives the
// launching element (a PI, or kInvalidGate for a tie-cell head).
std::vector<PathEdge> WorstPathThrough(const MappedNetlist& prot,
                                       const TimingInfo& timing,
                                       const std::vector<bool>& in_copy,
                                       const std::vector<double>& suffix,
                                       GateId site, GateId* head) {
  std::vector<PathEdge> prefix;  // collected terminal-to-head, reversed later
  GateId at = site;
  *head = kInvalidGate;
  while (!prot.IsInput(at)) {
    const Cell& cell = prot.cell(at);
    if (cell.IsConstant()) break;  // path launches from a tie cell
    const auto& fin = prot.fanins(at);
    int best_pin = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < cell.num_pins(); ++p) {
      const double a =
          timing.max_arrival[fin[static_cast<std::size_t>(p)]] +
          cell.pin_delay(p);
      if (a > best) {
        best = a;
        best_pin = p;
      }
    }
    prefix.push_back(PathEdge{at, best_pin});
    at = fin[static_cast<std::size_t>(best_pin)];
  }
  if (prot.IsInput(at)) *head = at;
  std::reverse(prefix.begin(), prefix.end());

  // Forward: follow the copy fanout continuing the longest suffix. Fanouts
  // of copied gates are copied gates or output muxes; staying inside the
  // copy terminates the path at a copied output driver, never through a mux
  // (whose select-side sensitization condition would contradict Σ).
  const auto& fanouts = prot.Fanouts();
  at = site;
  for (;;) {
    GateId best_gate = kInvalidGate;
    int best_pin = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (GateId g : fanouts[at]) {
      if (!in_copy[g]) continue;
      const Cell& cell = prot.cell(g);
      const auto& fin = prot.fanins(g);
      for (int p = 0; p < cell.num_pins(); ++p) {
        if (fin[static_cast<std::size_t>(p)] != at) continue;
        const double len = cell.pin_delay(p) + suffix[g];
        if (len > best || (len == best && g < best_gate)) {
          best = len;
          best_gate = g;
          best_pin = p;
        }
      }
    }
    if (best_gate == kInvalidGate) break;
    prefix.push_back(PathEdge{best_gate, best_pin});
    at = best_gate;
  }
  return prefix;
}

// Precomputes each site's targeted head input and, when options.sensitize is
// on, a robust path-sensitizing test pattern: the conjunction over every
// path edge of the Boolean difference of the gate's cell function with
// respect to the entered pin (side inputs at their global functions),
// cofactored to hold under both values of the head input. A satisfying
// assignment of that condition plus a head flip is a single transition that
// propagates down the whole path in transport-delay simulation — the
// classic robust path-delay test pair, built from the repo's global BDDs.
std::vector<SiteContext> BuildSiteContexts(const MappedNetlist& original,
                                           const MappedNetlist& prot,
                                           const TimingInfo& prot_nominal,
                                           const std::vector<GateId>& sites,
                                           const InjectOptions& options) {
  std::vector<SiteContext> ctx(sites.size());

  // Membership of the copied-original subcircuit, by name (the same mapping
  // site selection used).
  std::vector<bool> in_copy(prot.NumElements(), false);
  for (GateId id = 0; id < original.NumElements(); ++id) {
    if (original.IsInput(id)) continue;
    const GateId prot_id = prot.FindByName(original.element(id).name);
    if (prot_id != kInvalidGate) in_copy[prot_id] = true;
  }
  // Longest suffix inside the copy, by reverse topological (GateId) order.
  std::vector<double> suffix(prot.NumElements(), 0.0);
  const auto& fanouts = prot.Fanouts();
  for (GateId id = static_cast<GateId>(prot.NumElements()); id-- > 0;) {
    if (!in_copy[id] && !prot.IsInput(id)) continue;
    double s = 0;
    for (GateId g : fanouts[id]) {
      if (!in_copy[g]) continue;
      const Cell& cell = prot.cell(g);
      const auto& fin = prot.fanins(g);
      for (int p = 0; p < cell.num_pins(); ++p) {
        if (fin[static_cast<std::size_t>(p)] != id) continue;
        s = std::max(s, cell.pin_delay(p) + suffix[g]);
      }
    }
    suffix[id] = s;
  }

  std::vector<std::vector<PathEdge>> paths(sites.size());
  std::vector<GateId> roots;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    GateId head = kInvalidGate;
    paths[i] = WorstPathThrough(prot, prot_nominal, in_copy, suffix, sites[i],
                                &head);
    if (head != kInvalidGate) ctx[i].head_input = prot.InputIndex(head);
    if (!paths[i].empty()) roots.push_back(paths[i].back().gate);
  }
  if (!options.sensitize) return ctx;

  try {
    BddManager mgr(static_cast<int>(prot.NumInputs()), options.bdd_node_limit);
    // Local manager, destroyed with this scope — safe to attach directly.
    // CancelledError passes the BddOverflowError catch below and aborts the
    // whole campaign, as it should.
    mgr.SetCancelToken(options.cancel);
    const std::vector<BddManager::Ref> gbdd =
        BuildMappedGlobalBdds(mgr, prot, roots);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (ctx[i].head_input < 0 || paths[i].empty()) continue;
      BddManager::Ref sens = mgr.True();
      for (const PathEdge& e : paths[i]) {
        const Cell& cell = prot.cell(e.gate);
        const auto& fin = prot.fanins(e.gate);
        std::vector<BddManager::Ref> ins(
            static_cast<std::size_t>(cell.num_pins()));
        for (int p = 0; p < cell.num_pins(); ++p) {
          ins[static_cast<std::size_t>(p)] =
              gbdd[fin[static_cast<std::size_t>(p)]];
        }
        ins[static_cast<std::size_t>(e.pin)] = mgr.False();
        const BddManager::Ref f0 = TruthTableToBdd(mgr, cell.function(), ins);
        ins[static_cast<std::size_t>(e.pin)] = mgr.True();
        const BddManager::Ref f1 = TruthTableToBdd(mgr, cell.function(), ins);
        sens = mgr.And(sens, mgr.Xor(f0, f1));
        if (sens == BddManager::kFalse) break;
      }
      // Robustness: the side conditions must hold under both head values, so
      // flipping the head changes nothing but the path itself.
      const BddManager::Ref robust =
          mgr.And(mgr.Cofactor(sens, ctx[i].head_input, false),
                  mgr.Cofactor(sens, ctx[i].head_input, true));
      const BddManager::Ref chosen =
          robust != BddManager::kFalse ? robust : sens;
      if (chosen == BddManager::kFalse) continue;
      std::vector<bool> next(prot.NumInputs(), false);
      for (const auto& [var, value] : mgr.SatOne(chosen)) {
        next[static_cast<std::size_t>(var)] = value;
      }
      ctx[i].sensitized = std::move(next);
    }
  } catch (const BddOverflowError&) {
    // Sensitization is best-effort: fall back to targeted-random vectors for
    // the sites not yet covered rather than failing the campaign.
  }
  return ctx;
}

// Minimizes an escape in place: fewest toggling inputs, canonical steady
// bits, smallest delta (binary search), earliest transient index — each step
// keeps only changes under which the escape still replays, and the final
// single-shot re-verification refreshes the escaping output.
void ShrinkEscape(const ProtectedCircuit& protected_circuit, double clock,
                  double protected_clock,
                  const std::vector<std::size_t>& waived_outputs,
                  EscapeRecord* rec) {
  auto still_escapes = [&](const DelayFault& f, const std::vector<bool>& prev,
                           const std::vector<bool>& nxt,
                           std::size_t* out = nullptr) {
    return ClassifyFaultTrial(protected_circuit, f, prev, nxt, clock,
                              protected_clock, out, nullptr,
                              &waived_outputs) == InjectOutcome::kEscape;
  };
  DelayFault fault = rec->Fault();
  std::vector<bool> prev = rec->previous;
  std::vector<bool> next = rec->next;

  // 1) Drop input transitions one at a time (prev[i] := next[i]).
  for (std::size_t i = 0; i < prev.size(); ++i) {
    if (prev[i] == next[i]) continue;
    const bool saved = prev[i];
    prev[i] = next[i];
    if (!still_escapes(fault, prev, next)) prev[i] = saved;
  }
  // 2) Canonicalize: clear steady-1 bits where the escape survives.
  for (std::size_t i = 0; i < prev.size(); ++i) {
    if (prev[i] != next[i] || !prev[i]) continue;
    prev[i] = next[i] = false;
    if (!still_escapes(fault, prev, next)) prev[i] = next[i] = true;
  }
  // 3) Prefer the earliest transient transition index that still escapes.
  if (fault.kind == FaultKind::kTransient) {
    for (std::uint64_t idx = 0; idx < fault.transition_index; ++idx) {
      DelayFault probe = fault;
      probe.transition_index = idx;
      if (still_escapes(probe, prev, next)) {
        fault.transition_index = idx;
        break;
      }
    }
  }
  // 4) Binary-search the smallest escaping delta. The escape is monotone in
  // delta only per-path, not globally, so keep `hi` (known-escaping) as the
  // answer and use `lo` purely as the bracket.
  double lo = 0;
  double hi = fault.delta;
  const double resolution = std::max(kEps, 1e-3 * rec->campaign_delta);
  while (hi - lo > resolution) {
    const double mid = 0.5 * (lo + hi);
    DelayFault probe = fault;
    probe.delta = mid;
    if (still_escapes(probe, prev, next)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  fault.delta = hi;

  std::size_t out = 0;
  SM_CHECK(still_escapes(fault, prev, next, &out),
           "shrinker lost the escape it was minimizing");
  rec->delta = fault.delta;
  rec->transition_index = fault.transition_index;
  rec->previous = std::move(prev);
  rec->next = std::move(next);
  rec->output_index = out;
  rec->output_name = protected_circuit.netlist.output(out).name;
  rec->shrunk = true;
}

}  // namespace

const char* ToString(FaultSiteStrategy s) {
  switch (s) {
    case FaultSiteStrategy::kExhaustiveSpeedPaths:
      return "exhaustive";
    case FaultSiteStrategy::kRandomGates:
      return "random";
    case FaultSiteStrategy::kAdversarial:
      return "adversarial";
  }
  SM_UNREACHABLE("bad FaultSiteStrategy");
}

FaultSiteStrategy FaultSiteStrategyFromString(const std::string& name) {
  if (name == "exhaustive") return FaultSiteStrategy::kExhaustiveSpeedPaths;
  if (name == "random") return FaultSiteStrategy::kRandomGates;
  if (name == "adversarial") return FaultSiteStrategy::kAdversarial;
  throw ParseError("unknown fault-site strategy \"" + name +
                   "\" (want exhaustive | random | adversarial)");
}

const char* ToString(FaultKind k) {
  switch (k) {
    case FaultKind::kPermanentDelta:
      return "permanent";
    case FaultKind::kTransient:
      return "transient";
  }
  SM_UNREACHABLE("bad FaultKind");
}

FaultKind FaultKindFromString(const std::string& name) {
  if (name == "permanent") return FaultKind::kPermanentDelta;
  if (name == "transient") return FaultKind::kTransient;
  throw ParseError("unknown fault kind \"" + name +
                   "\" (want permanent | transient)");
}

const char* ToString(InjectOutcome o) {
  switch (o) {
    case InjectOutcome::kBenign:
      return "benign";
    case InjectOutcome::kMasked:
      return "masked";
    case InjectOutcome::kEscape:
      return "escape";
  }
  SM_UNREACHABLE("bad InjectOutcome");
}

InjectOutcome ClassifyFaultTrial(const ProtectedCircuit& protected_circuit,
                                 const DelayFault& fault,
                                 const std::vector<bool>& previous,
                                 const std::vector<bool>& next, double clock,
                                 double protected_clock,
                                 std::size_t* escaping_output,
                                 std::size_t* masked_taps,
                                 const std::vector<std::size_t>* waived_outputs) {
  const MappedNetlist& prot = protected_circuit.netlist;
  SM_REQUIRE(fault.site < prot.NumElements() && !prot.IsInput(fault.site),
             "fault site must be a non-input element of the protected "
             "netlist, got "
                 << fault.site);
  EventSimConfig cfg;
  cfg.clock = protected_clock;
  if (fault.kind == FaultKind::kPermanentDelta) {
    cfg.extra_delay.assign(prot.NumElements(), 0.0);
    cfg.extra_delay[fault.site] = fault.delta;
  } else {
    cfg.transient_faults.push_back(
        TransientFault{fault.site, fault.transition_index, fault.delta});
  }
  const EventSimResult sim = SimulateTransition(prot, previous, next, cfg);

  // Escape: a wrong value latched at a primary output the guarantee covers
  // — the one thing it says cannot happen. Waived outputs (outside the
  // protection scope) fall through to the masked/benign classification.
  for (std::size_t i = 0; i < prot.NumOutputs(); ++i) {
    if (sim.TimingErrorAt(prot.output(i).driver)) {
      if (waived_outputs != nullptr &&
          std::binary_search(waived_outputs->begin(), waived_outputs->end(),
                             i)) {
        continue;
      }
      if (escaping_output != nullptr) *escaping_output = i;
      return InjectOutcome::kEscape;
    }
  }
  // Masked: some copied-original output was still changing after its own
  // deadline (the raw clock — the mux compensation extends only the mux's
  // sampling instant) while its indicator was raised — the mux substituted
  // the prediction.
  std::size_t taps = 0;
  for (const ProtectedCircuit::Tap& tap : protected_circuit.taps) {
    if (sim.settle_at[tap.original] > clock + kEps &&
        sim.sampled[tap.indicator]) {
      ++taps;
    }
  }
  if (masked_taps != nullptr) *masked_taps = taps;
  return taps > 0 ? InjectOutcome::kMasked : InjectOutcome::kBenign;
}

bool ReplayEscapesAtOutputs(const MappedNetlist& net, const DelayFault& fault,
                            const std::vector<bool>& previous,
                            const std::vector<bool>& next, double clock) {
  SM_REQUIRE(fault.site < net.NumElements() && !net.IsInput(fault.site),
             "fault site must be a non-input element, got " << fault.site);
  EventSimConfig cfg;
  cfg.clock = clock;
  if (fault.kind == FaultKind::kPermanentDelta) {
    cfg.extra_delay.assign(net.NumElements(), 0.0);
    cfg.extra_delay[fault.site] = fault.delta;
  } else {
    cfg.transient_faults.push_back(
        TransientFault{fault.site, fault.transition_index, fault.delta});
  }
  const EventSimResult sim = SimulateTransition(net, previous, next, cfg);
  for (const MappedNetlist::Output& o : net.outputs()) {
    if (sim.TimingErrorAt(o.driver)) return true;
  }
  return false;
}

std::vector<GateId> SelectFaultSites(const MappedNetlist& original,
                                     const ProtectedCircuit& protected_circuit,
                                     const TimingInfo& nominal,
                                     const InjectOptions& options) {
  const MappedNetlist& prot = protected_circuit.netlist;
  const double clock =
      options.clock < 0 ? nominal.critical_delay : options.clock;
  SM_REQUIRE(clock > 0, "clock must be positive");
  const double window = options.guard_band * clock;

  // Candidates are the copied-original gates, located in the protected
  // netlist by name (integration preserves original gate names; gates swept
  // during integration are skipped). Injecting on the original copy — never
  // on the masking circuit, which banks slack by construction — is exactly
  // the fault population the guarantee covers.
  struct Candidate {
    GateId prot_id;
    GateId orig_id;
    double slack;
  };
  std::vector<Candidate> candidates;
  for (GateId id = 0; id < original.NumElements(); ++id) {
    if (original.IsInput(id) || original.cell(id).IsConstant()) continue;
    const GateId prot_id = prot.FindByName(original.element(id).name);
    if (prot_id == kInvalidGate) continue;
    candidates.push_back(Candidate{prot_id, id, nominal.Slack(id)});
  }

  std::vector<GateId> sites;
  switch (options.strategy) {
    case FaultSiteStrategy::kExhaustiveSpeedPaths: {
      // Every gate on some path longer than (1 - guard_band) · clock, i.e.
      // slack < window — the complete set of gates a guard-window-bounded
      // fault could push past the deadline. Kept in GateId (topological)
      // order.
      for (const Candidate& c : candidates) {
        if (c.slack < window) sites.push_back(c.prot_id);
      }
      if (options.max_sites > 0 && sites.size() > options.max_sites) {
        sites.resize(options.max_sites);
      }
      break;
    }
    case FaultSiteStrategy::kAdversarial: {
      std::vector<Candidate> speed;
      for (const Candidate& c : candidates) {
        if (c.slack < window) speed.push_back(c);
      }
      std::sort(speed.begin(), speed.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.slack != b.slack) return a.slack < b.slack;
                  return a.orig_id < b.orig_id;
                });
      if (options.max_sites > 0 && speed.size() > options.max_sites) {
        speed.resize(options.max_sites);
      }
      for (const Candidate& c : speed) sites.push_back(c.prot_id);
      break;
    }
    case FaultSiteStrategy::kRandomGates: {
      const std::size_t want =
          options.max_sites > 0 ? options.max_sites : kDefaultRandomSites;
      const std::size_t k = std::min(want, candidates.size());
      Rng rng = Rng::ForStream(options.seed, kSiteStreamOffset);
      for (std::size_t i : rng.Sample(candidates.size(), k)) {
        sites.push_back(candidates[i].prot_id);
      }
      break;
    }
  }
  return sites;
}

InjectionCampaignResult RunInjectionCampaign(
    const MappedNetlist& original, const ProtectedCircuit& protected_circuit,
    const InjectOptions& options) {
  SM_REQUIRE(options.guard_band > 0 && options.guard_band < 1,
             "guard_band must be in (0, 1), got " << options.guard_band);
  SM_REQUIRE(options.vectors_per_site > 0, "need at least one vector per site");
  SM_REQUIRE(options.chunk > 0, "chunk must be positive");
  SM_REQUIRE(std::is_sorted(options.waived_outputs.begin(),
                            options.waived_outputs.end()) &&
                 std::adjacent_find(options.waived_outputs.begin(),
                                    options.waived_outputs.end()) ==
                     options.waived_outputs.end(),
             "waived_outputs must be strictly ascending");
  SM_REQUIRE(std::isfinite(options.delta_fraction) &&
                 options.delta_fraction > 0,
             "delta_fraction must be positive and finite, got "
                 << options.delta_fraction);
  const MappedNetlist& prot = protected_circuit.netlist;
  WallTimer timer;

  const TimingInfo nominal = AnalyzeTiming(original);
  const double clock =
      options.clock < 0 ? nominal.critical_delay : options.clock;
  SM_REQUIRE(clock > 0, "clock must be positive");
  // Protected outputs are judged at clock + mux compensation, mirroring the
  // Monte-Carlo engine: the mux is new logic after y_i, so its propagation
  // delay extends the sampling instant, not the guarantee.
  double mux_compensation = 0;
  for (const ProtectedCircuit::Tap& tap : protected_circuit.taps) {
    mux_compensation =
        std::max(mux_compensation, prot.cell(tap.mux).max_delay());
  }
  const double protected_clock = clock + mux_compensation;
  // The epsilon keeps a full-window fault strictly inside the guarantee at
  // float boundaries (a path of length exactly Δ_y + window would otherwise
  // tie with the clock edge).
  const double delta =
      std::max(0.0, options.delta_fraction * options.guard_band * clock - kEps);

  InjectOptions resolved = options;
  resolved.clock = clock;
  const std::vector<GateId> sites =
      SelectFaultSites(original, protected_circuit, nominal, resolved);

  InjectionCampaignResult r;
  r.sites = sites.size();
  r.clock = clock;
  r.protected_clock = protected_clock;
  r.delta = delta;
  if (sites.empty()) {
    r.seconds = timer.Seconds();
    return r;
  }

  // Per-site vector-generation contexts (worst-path heads and robust
  // sensitizing patterns), computed sequentially — the BDD manager is not
  // thread-safe, and the reduction regenerates vectors from the same data.
  const TimingInfo prot_nominal = AnalyzeTiming(prot, protected_clock);
  const std::vector<SiteContext> contexts =
      BuildSiteContexts(original, prot, prot_nominal, sites, resolved);

  const std::size_t trials = sites.size() * options.vectors_per_site;
  // Workers only record the outcome; escape vectors are regenerated from the
  // trial index during the sequential reduction, so memory stays O(trials)
  // bytes instead of O(trials · inputs).
  struct Slot {
    InjectOutcome outcome = InjectOutcome::kBenign;
    std::uint32_t escaping_output = 0;
    std::uint32_t masked_taps = 0;
  };
  std::vector<Slot> slots(trials);

  // Simulation telemetry per chunk slot — thread-count invariant because
  // the packing depends only on the chunk boundaries.
  const std::size_t num_chunks = (trials + options.chunk - 1) / options.chunk;
  std::vector<std::uint64_t> chunk_words(num_chunks, 0);
  std::vector<std::uint64_t> chunk_lanes(num_chunks, 0);

  // Outputs whose errors count as escapes, by output index.
  std::vector<GateId> judged_drivers;
  std::vector<std::uint32_t> judged_index;
  for (std::size_t i = 0; i < prot.NumOutputs(); ++i) {
    if (std::binary_search(options.waived_outputs.begin(),
                           options.waived_outputs.end(), i)) {
      continue;
    }
    judged_drivers.push_back(prot.output(i).driver);
    judged_index.push_back(static_cast<std::uint32_t>(i));
  }

  // A worker's reusable state: one engine and one pattern word per worker
  // thread rather than per chunk.
  struct Worker {
    explicit Worker(const MappedNetlist& net)
        : patterns(net.NumInputs()), engine(net) {}
    LanePatterns patterns;
    BatchEventSim engine;
    BatchEventSimConfig cfg;
  };
  ScratchPool<Worker> workers;
  const auto make_worker = [&] { return std::make_unique<Worker>(prot); };

  // The one trial path: each lane carries one (fault, vector) trial — a
  // sparse extra-delay override for a permanent fault, a per-lane transient
  // for a one-shot edge — and each word is classified a word at a time,
  // mirroring ClassifyFaultTrial: an escape at the first judged output in
  // error, else masked when some tap saw a late y under a raised e.
  const auto run_trials = [&](std::size_t lo, std::size_t hi) {
    constexpr auto width = static_cast<std::size_t>(kBatchLanes);
    auto w = workers.Acquire(make_worker);
    BatchEventSimConfig& cfg = w->cfg;
    cfg.clock = protected_clock;
    std::array<std::uint32_t, kBatchLanes> taps{};
    for (std::size_t base = lo; base < hi; base += width) {
      if (options.cancel != nullptr &&
          options.cancel->Status() != ErrorCode::kOk) {
        return;
      }
      cfg.lanes = static_cast<int>(std::min(width, hi - base));
      if (options.cancel != nullptr) {
        options.cancel->ConsumeWork(static_cast<std::uint64_t>(cfg.lanes));
      }
      cfg.extra_overrides.clear();
      cfg.transient_faults.clear();
      w->patterns.Start(0);
      for (int l = 0; l < cfg.lanes; ++l) {
        const std::size_t t = base + static_cast<std::size_t>(l);
        const std::size_t site_index = t / options.vectors_per_site;
        const DelayFault f = DrawTrial(
            w->patterns, 0, l, options, delta, sites[site_index],
            contexts[site_index], t, t % options.vectors_per_site);
        if (f.kind == FaultKind::kPermanentDelta) {
          cfg.extra_overrides.push_back(BatchDelayOverride{l, f.site, f.delta});
        } else {
          cfg.transient_faults.push_back(
              BatchTransientFault{l, f.site, f.transition_index, f.delta});
        }
      }
      w->patterns.Finish(0);
      const BatchEventSimResult& sim =
          w->engine.Run(w->patterns.previous(0), w->patterns.next(0), cfg);
      chunk_words[lo / options.chunk] += 1;
      chunk_lanes[lo / options.chunk] += static_cast<std::uint64_t>(cfg.lanes);

      std::uint64_t escaped = 0;
      for (std::size_t i = 0; i < judged_drivers.size(); ++i) {
        const std::uint64_t errors = sim.TimingErrorWord(judged_drivers[i]);
        for (std::uint64_t e = errors & ~escaped; e != 0; e &= e - 1) {
          slots[base + static_cast<std::size_t>(std::countr_zero(e))] =
              Slot{InjectOutcome::kEscape, judged_index[i], 0};
        }
        escaped |= errors;
      }
      taps.fill(0);
      for (const ProtectedCircuit::Tap& tap : protected_circuit.taps) {
        for (std::uint64_t e = sim.sampled[tap.indicator] & sim.lane_mask &
                               ~escaped;
             e != 0; e &= e - 1) {
          const int l = std::countr_zero(e);
          if (sim.SettleAt(tap.original, l) > clock + kEps) {
            ++taps[static_cast<std::size_t>(l)];
          }
        }
      }
      for (int l = 0; l < cfg.lanes; ++l) {
        if ((escaped >> l) & 1u) continue;
        const std::uint32_t n = taps[static_cast<std::size_t>(l)];
        slots[base + static_cast<std::size_t>(l)] =
            Slot{n > 0 ? InjectOutcome::kMasked : InjectOutcome::kBenign, 0, n};
      }
    }
  };

  ThreadPool pool(options.threads);
  pool.ParallelFor(0, trials, options.chunk, run_trials);
  // Raise the typed error only after the pool has drained: workers skipped
  // rather than threw, so no exception crosses a thread boundary.
  if (options.cancel != nullptr) options.cancel->Check();

  // Sequential reduction in trial order — deterministic at any thread count.
  r.trials = trials;
  LanePatterns record_patterns(prot.NumInputs());
  for (std::size_t t = 0; t < trials; ++t) {
    switch (slots[t].outcome) {
      case InjectOutcome::kBenign:
        ++r.benign;
        break;
      case InjectOutcome::kMasked:
        ++r.masked;
        r.masked_events += slots[t].masked_taps;
        break;
      case InjectOutcome::kEscape: {
        ++r.escapes;
        if (r.escape_records.size() >= options.max_escape_records) break;
        const std::size_t site_index = t / options.vectors_per_site;
        const std::size_t vector_index = t % options.vectors_per_site;
        TrialSetup s =
            MakeTrialSetup(record_patterns, options, delta, sites[site_index],
                           contexts[site_index], t, vector_index);
        EscapeRecord rec;
        rec.trial = t;
        rec.site = s.fault.site;
        rec.site_name = prot.element(s.fault.site).name;
        rec.kind = s.fault.kind;
        rec.transition_index = s.fault.transition_index;
        rec.delta = s.fault.delta;
        rec.campaign_delta = s.fault.delta;
        rec.previous = std::move(s.previous);
        rec.next = std::move(s.next);
        rec.output_index = slots[t].escaping_output;
        rec.output_name = prot.output(rec.output_index).name;
        r.escape_records.push_back(std::move(rec));
        break;
      }
    }
  }

  if (options.shrink) {
    const std::size_t n =
        std::min(options.max_shrink_escapes, r.escape_records.size());
    for (std::size_t i = 0; i < n; ++i) {
      ShrinkEscape(protected_circuit, clock, protected_clock,
                   options.waived_outputs, &r.escape_records[i]);
    }
  }

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
  r.trials_per_second = r.seconds > 0 ? trials / r.seconds : 0;
  return r;
}

}  // namespace sm
