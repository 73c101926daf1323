#include "sim/batch_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace sm {
namespace {

// Mirrors the pin-count ceiling of TruthTable (kMaxTruthVars); the merge
// keeps per-pin cursors in fixed stack arrays of this size.
constexpr int kMaxPins = 24;

}  // namespace

BatchEventSim::BatchEventSim(const MappedNetlist& net)
    : net_(net), fanouts_(net.Fanouts()), n_(net.NumElements()) {
  info_.resize(n_);
  std::size_t total_pins = 0;
  std::size_t total_tt_words = 0;
  for (GateId id = 0; id < n_; ++id) {
    if (net.IsInput(id)) continue;
    const std::size_t pins = net.fanins(id).size();
    total_pins += pins;
    total_tt_words += ((1ull << pins) + 63) / 64;
  }
  pin_delay_flat_.reserve(total_pins);
  pin_group_flat_.reserve(total_pins);
  tt_flat_.reserve(total_tt_words);
  for (GateId id = 0; id < n_; ++id) {
    if (net.IsInput(id)) continue;
    const Cell& cell = net.cell(id);
    GateInfo& gi = info_[id];
    gi.fn = &cell.function();
    gi.num_pins = cell.num_pins();
    SM_REQUIRE(gi.num_pins <= kMaxPins,
               "cell " << cell.name() << " has " << gi.num_pins
                       << " pins, above the batched-sim ceiling of "
                       << kMaxPins);
    const auto& fin = net.fanins(id);
    gi.fanins = fin.data();
    gi.pin_delays = pin_delay_flat_.data() + pin_delay_flat_.size();
    gi.pin_groups = pin_group_flat_.data() + pin_group_flat_.size();
    for (int p = 0; p < gi.num_pins; ++p) {
      pin_delay_flat_.push_back(cell.pin_delay(p));
      std::uint32_t group = 0;
      for (int q = 0; q < gi.num_pins; ++q) {
        if (fin[static_cast<std::size_t>(q)] ==
            fin[static_cast<std::size_t>(p)]) {
          group |= 1u << q;
        }
      }
      pin_group_flat_.push_back(group);
      if ((group & ((1u << p) - 1)) != 0) gi.dup_pin_mask |= 1u << p;
    }
    gi.tt = tt_flat_.data() + tt_flat_.size();
    const std::uint64_t minterms = 1ull << gi.num_pins;
    for (std::uint64_t w = 0; w < (minterms + 63) / 64; ++w) {
      std::uint64_t word = 0;
      for (std::uint64_t b = 0; b < 64 && w * 64 + b < minterms; ++b) {
        if (gi.fn->Get(w * 64 + b)) word |= 1ull << b;
      }
      tt_flat_.push_back(word);
    }
  }
  // reserve() sized the buffers exactly, so the .data() snapshots above are
  // stable; guard against a cell growing pins between the two passes.
  SM_CHECK(pin_delay_flat_.size() == total_pins &&
               pin_group_flat_.size() == total_pins &&
               tt_flat_.size() == total_tt_words,
           "constructor cache sizes drifted during construction");

  result_.sampled.resize(n_);
  result_.settled.resize(n_);
  result_.changed.assign(n_, 0);
  result_.settle_at.resize(n_ * static_cast<std::size_t>(kBatchLanes));
  steady_prev_.resize(n_);
  steady_next_.resize(n_);
  dirty_.assign(n_, 0);
  single_trans_.assign(n_, 0);
  fault_lanes_.assign(n_, 0);
  override_lanes_.assign(n_, 0);
  tr_begin_.resize(n_ * static_cast<std::size_t>(kBatchLanes));
  tr_count_.resize(n_ * static_cast<std::size_t>(kBatchLanes));
}

const BatchEventSimResult& BatchEventSim::Run(
    const std::vector<std::uint64_t>& previous,
    const std::vector<std::uint64_t>& next,
    const BatchEventSimConfig& config) {
  SM_REQUIRE(previous.size() == net_.NumInputs() &&
                 next.size() == net_.NumInputs(),
             "batched Run needs one word per primary input");
  SM_REQUIRE(config.lanes >= 1 && config.lanes <= kBatchLanes,
             "lanes must be in [1, " << kBatchLanes << "], got "
                                     << config.lanes);
  SM_REQUIRE(config.clock >= 0, "clock must be non-negative");

  // Validate each distinct dense plane once (lanes of one MC chunk share
  // planes by pointer; re-validating per lane would undo the sharing win).
  const auto validate_planes =
      [&](const std::array<const double*, kBatchLanes>& planes,
          const char* what) {
        std::array<const double*, kBatchLanes> seen{};
        int num_seen = 0;
        for (int l = 0; l < config.lanes; ++l) {
          const double* plane = planes[static_cast<std::size_t>(l)];
          if (plane == nullptr) continue;
          bool dup = false;
          for (int i = 0; i < num_seen && !dup; ++i) {
            dup = seen[static_cast<std::size_t>(i)] == plane;
          }
          if (dup) continue;
          seen[static_cast<std::size_t>(num_seen++)] = plane;
          // Branchless vectorizable sweep: an entry is bad iff its sign bit
          // is set or its exponent is all-ones (inf/NaN). The slow per-entry
          // loop only runs to build the error message.
          std::uint64_t bad = 0;
          for (std::size_t g = 0; g < n_; ++g) {
            const auto b = std::bit_cast<std::uint64_t>(plane[g]);
            bad |= b >> 63;
            bad |= (((b >> 52) & 0x7ff) + 1) >> 11;
          }
          if (bad != 0) {
            for (std::size_t g = 0; g < n_; ++g) {
              SM_REQUIRE(std::isfinite(plane[g]) && plane[g] >= 0,
                         what << " lane " << l << " entry " << g
                              << " must be finite and non-negative, got "
                              << plane[g]);
            }
          }
        }
      };
  validate_planes(config.delay_scale, "delay_scale");
  validate_planes(config.extra_delay, "extra_delay");

  for (int l = 0; l < kBatchLanes; ++l) {
    lane_overrides_[static_cast<std::size_t>(l)].clear();
    lane_faults_[static_cast<std::size_t>(l)].clear();
    arena_[static_cast<std::size_t>(l)].clear();
  }
  for (const GateId g : fault_gates_) fault_lanes_[g] = 0;
  fault_gates_.clear();
  for (const GateId g : override_gates_) override_lanes_[g] = 0;
  override_gates_.clear();
  for (const BatchDelayOverride& o : config.extra_overrides) {
    SM_REQUIRE(o.lane >= 0 && o.lane < config.lanes,
               "extra override lane out of range: " << o.lane);
    SM_REQUIRE(o.gate < n_, "extra override gate out of range: " << o.gate);
    SM_REQUIRE(std::isfinite(o.delta) && o.delta >= 0,
               "extra override delta must be finite and non-negative, got "
                   << o.delta);
    lane_overrides_[static_cast<std::size_t>(o.lane)].push_back(
        LaneOverride{o.gate, o.delta});
    if (override_lanes_[o.gate] == 0) override_gates_.push_back(o.gate);
    override_lanes_[o.gate] |= 1ull << o.lane;
  }
  for (const BatchTransientFault& f : config.transient_faults) {
    SM_REQUIRE(f.lane >= 0 && f.lane < config.lanes,
               "transient fault lane out of range: " << f.lane);
    SM_REQUIRE(f.gate < n_ && !net_.IsInput(f.gate),
               "transient fault site must be a non-input element, got gate "
                   << f.gate);
    SM_REQUIRE(std::isfinite(f.delta) && f.delta >= 0,
               "transient fault delta must be finite and non-negative, got "
                   << f.delta);
    lane_faults_[static_cast<std::size_t>(f.lane)].push_back(
        LaneFault{f.gate, f.transition_index, f.delta, 0});
    if (fault_lanes_[f.gate] == 0) fault_gates_.push_back(f.gate);
    fault_lanes_[f.gate] |= 1ull << f.lane;
  }
  lane_scale_ = config.delay_scale;
  lane_extra_ = config.extra_delay;

  const std::uint64_t lane_mask =
      config.lanes == kBatchLanes ? ~0ull : (1ull << config.lanes) - 1;
  result_.lanes = config.lanes;
  result_.lane_mask = lane_mask;
  result_.lane_events.fill(0);

  net_.EvalParallel(previous.data(), steady_prev_.data());
  net_.EvalParallel(next.data(), steady_next_.data());
  std::copy(steady_prev_.begin(), steady_prev_.end(),
            result_.settled.begin());
  std::copy(steady_prev_.begin(), steady_prev_.end(),
            result_.sampled.begin());
  std::fill(result_.changed.begin(), result_.changed.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(single_trans_.begin(), single_trans_.end(), 0);

  // One topological sweep: primary inputs seed their toggling lanes'
  // waveforms, gates replay the merged fanin streams lane by lane.
  std::size_t next_input = 0;
  for (GateId id = 0; id < n_; ++id) {
    const GateInfo& gi = info_[id];
    if (gi.fn == nullptr) {
      const std::uint64_t nv = next[next_input];
      const std::uint64_t diff =
          (previous[next_input] ^ nv) & lane_mask;
      ++next_input;
      if (diff == 0) continue;
      const std::size_t row = id * static_cast<std::size_t>(kBatchLanes);
      for (std::uint64_t w = diff; w != 0; w &= w - 1) {
        const int l = std::countr_zero(w);
        auto& arena = arena_[static_cast<std::size_t>(l)];
        tr_begin_[row + static_cast<std::size_t>(l)] =
            static_cast<std::uint32_t>(arena.size());
        tr_count_[row + static_cast<std::size_t>(l)] = 1;
        arena.push_back(Transition{0.0, ((nv >> l) & 1u) != 0});
        result_.settle_at[row + static_cast<std::size_t>(l)] = 0.0;
        ++result_.lane_events[static_cast<std::size_t>(l)];
      }
      result_.changed[id] = diff;
      single_trans_[id] = diff;
      result_.settled[id] ^= diff;
      result_.sampled[id] ^= diff;  // t = 0 <= clock: sampled follows next
      for (GateId g : fanouts_[id]) dirty_[g] |= diff;
      continue;
    }
    std::uint64_t dirty = dirty_[id] & lane_mask;
    if (dirty == 0) continue;
    // Word-parallel fast paths for lanes where exactly one fanin changed
    // and its stream holds a single transition: the gate sees exactly one
    // scheduled edge, and the value it evaluates to after that edge IS the
    // gate's steady value under the next pattern (already computed word-
    // parallel in steady_next_). Two exact cases fall out:
    //   quiet — steady value unchanged: the scalar engine pops the edge and
    //     cancels it. One event, nothing to propagate, no replay needed.
    //   flip  — steady value toggles: one executed output transition at
    //     t = tr.time + pin_delay·scale (+ extra), no merge machinery and
    //     no truth-table lookup needed.
    // A third path covers the remaining single-changed-fanin lanes whose
    // stream carries several transitions (pulse trains): with every other
    // input static, the gate is either insensitive to that pin at the
    // lane's previous steady point (all edges cancel) or its output
    // mirrors the fanin stream shifted by the pin delay — replayed with a
    // tight copy loop, no merge.
    // Lanes with a transient fault or extra-delay override at this gate and
    // lanes behind duplicate pins keep the general per-lane replay.
    if (gi.dup_pin_mask == 0) {
      // Carry-save lane counters: c1 = lanes with >= 1 changed fanin,
      // c2 >= 2, c3 >= 3; nonsingle = lanes where some changed fanin's
      // stream carries more than one transition.
      std::uint64_t c1 = 0;
      std::uint64_t c2 = 0;
      std::uint64_t c3 = 0;
      std::uint64_t nonsingle = 0;
      for (int p = 0; p < gi.num_pins; ++p) {
        const GateId f = gi.fanins[p];
        const std::uint64_t w = result_.changed[f];
        c3 |= c2 & w;
        c2 |= c1 & w;
        c1 |= w;
        nonsingle |= w & ~single_trans_[f];
      }
      const std::uint64_t ok =
          dirty & ~fault_lanes_[id] & ~override_lanes_[id];
      const std::uint64_t solo = ok & ~c2;
      const std::uint64_t duo = ok & c2 & ~c3 & ~nonsingle;
      const std::uint64_t eligible = solo & ~nonsingle;
      const std::uint64_t toggles = steady_prev_[id] ^ steady_next_[id];
      const std::uint64_t quiet = eligible & ~toggles;
      for (std::uint64_t w = quiet; w != 0; w &= w - 1) {
        ++result_.lane_events[static_cast<std::size_t>(std::countr_zero(w))];
      }
      std::uint64_t flip = eligible & toggles;
      std::uint64_t rest = solo & nonsingle;
      dirty &= ~(solo | duo);
      if (flip != 0) {
        const std::size_t row = id * static_cast<std::size_t>(kBatchLanes);
        std::uint64_t on_time = 0;  // flip lanes whose edge lands by clock
        for (int p = 0; p < gi.num_pins && flip != 0; ++p) {
          const std::uint64_t claimed = result_.changed[gi.fanins[p]] & flip;
          flip &= ~claimed;
          const std::size_t frow = gi.fanins[p] *
                                   static_cast<std::size_t>(kBatchLanes);
          const double pin_delay = gi.pin_delays[p];
          for (std::uint64_t w = claimed; w != 0; w &= w - 1) {
            const int l = std::countr_zero(w);
            const std::size_t lz = static_cast<std::size_t>(l);
            auto& arena = arena_[lz];
            const Transition tr =
                arena[tr_begin_[frow + lz]];
            const double* scale_plane = lane_scale_[lz];
            const double* extra_plane = lane_extra_[lz];
            const double t =
                tr.time + pin_delay * (scale_plane ? scale_plane[id] : 1.0) +
                (extra_plane ? extra_plane[id] : 0.0);
            const bool nv = ((steady_prev_[id] >> l) & 1u) == 0;
            tr_begin_[row + lz] = static_cast<std::uint32_t>(arena.size());
            tr_count_[row + lz] = 1;
            arena.push_back(Transition{t, nv});
            result_.settle_at[row + lz] = t;
            ++result_.lane_events[lz];
            if (t <= config.clock) on_time |= 1ull << l;
          }
        }
        const std::uint64_t flipped = eligible & toggles;
        single_trans_[id] |= flipped;
        result_.changed[id] |= flipped;
        result_.settled[id] ^= flipped;
        result_.sampled[id] ^= on_time;
        for (GateId g : fanouts_[id]) dirty_[g] |= flipped;
      }
      if (rest != 0) {
        // Pulse-train replay. Exactness: the only trigger source is one
        // fanin stream on one pin, so the scalar engine pops its edges in
        // stream order; each pushed value is the cell evaluated with that
        // pin at the edge value and every other pin at its (static) steady
        // value — i.e. one of two truth-table entries o0/o1. If o0 == o1
        // the pin is insensitive at this point and all pops cancel; else
        // every pop executes (stream values alternate, and the first edge
        // flips the fanin away from its previous steady value, so the
        // first output differs from the gate's). Times tr.time + d are
        // non-decreasing, so the scalar no-overtake clamp is the identity.
        const std::size_t row = id * static_cast<std::size_t>(kBatchLanes);
        std::uint64_t executed = 0;
        for (int p = 0; p < gi.num_pins && rest != 0; ++p) {
          const GateId f = gi.fanins[p];
          const std::uint64_t claimed = result_.changed[f] & rest;
          if (claimed == 0) continue;
          rest &= ~claimed;
          const std::size_t frow = f * static_cast<std::size_t>(kBatchLanes);
          const double pin_delay = gi.pin_delays[p];
          const std::uint64_t pbit = 1ull << p;
          for (std::uint64_t w = claimed; w != 0; w &= w - 1) {
            const int l = std::countr_zero(w);
            const std::size_t lz = static_cast<std::size_t>(l);
            std::uint64_t m = 0;
            for (int q = 0; q < gi.num_pins; ++q) {
              m |= ((steady_prev_[gi.fanins[q]] >> l) & 1ull) << q;
            }
            const std::uint32_t base = tr_begin_[frow + lz];
            const std::uint32_t cnt = tr_count_[frow + lz];
            result_.lane_events[lz] += cnt;
            const std::uint64_t m0 = m & ~pbit;
            const std::uint64_t m1 = m | pbit;
            const bool o0 = (gi.tt[m0 >> 6] >> (m0 & 63)) & 1u;
            const bool o1 = (gi.tt[m1 >> 6] >> (m1 & 63)) & 1u;
            if (o0 == o1) continue;  // insensitive: every pop cancels
            const double* scale_plane = lane_scale_[lz];
            const double* extra_plane = lane_extra_[lz];
            // Keep the scalar engine's exact float association:
            // (tr.time + pd*scale) + extra, term by term.
            const double step = pin_delay * (scale_plane ? scale_plane[id]
                                                         : 1.0);
            const double ex = extra_plane ? extra_plane[id] : 0.0;
            auto& arena = arena_[lz];
            const auto start = static_cast<std::uint32_t>(arena.size());
            bool sampled = ((steady_prev_[id] >> l) & 1u) != 0;
            bool out = sampled;
            double t = 0.0;
            for (std::uint32_t i = 0; i < cnt; ++i) {
              const Transition tr = arena[base + i];
              t = std::max(t, tr.time + step + ex);
              out = tr.value ? o1 : o0;
              if (t <= config.clock) sampled = out;
              arena.push_back(Transition{t, out});
            }
            tr_begin_[row + lz] = start;
            tr_count_[row + lz] = cnt;
            result_.settle_at[row + lz] = t;
            result_.settled[id] = (result_.settled[id] & ~(1ull << l)) |
                                  (static_cast<std::uint64_t>(out) << l);
            result_.sampled[id] = (result_.sampled[id] & ~(1ull << l)) |
                                  (static_cast<std::uint64_t>(sampled) << l);
            executed |= 1ull << l;
          }
        }
        if (executed != 0) {
          result_.changed[id] |= executed;
          for (GateId g : fanouts_[id]) dirty_[g] |= executed;
        }
      }
      if (duo != 0) {
        // Duo replay: exactly two changed fanins, one transition each —
        // the dominant reconvergence shape under random pattern pairs.
        // The general merge is unrolled to its two triggers, ordered by
        // (input edge time, fanin id) exactly like the scalar pop order;
        // the no-overtake clamp survives as a single max on the second
        // edge. The second evaluation lands on the gate's next steady
        // point by construction, so the lane ends converged.
        const std::size_t row = id * static_cast<std::size_t>(kBatchLanes);
        std::uint64_t dchanged = 0;
        for (std::uint64_t w = duo; w != 0; w &= w - 1) {
          const int l = std::countr_zero(w);
          const std::size_t lz = static_cast<std::size_t>(l);
          int p1 = -1;
          int p2 = -1;
          std::uint64_t m = 0;
          for (int q = 0; q < gi.num_pins; ++q) {
            m |= ((steady_prev_[gi.fanins[q]] >> l) & 1ull) << q;
            if ((result_.changed[gi.fanins[q]] >> l) & 1u) {
              if (p1 < 0) {
                p1 = q;
              } else {
                p2 = q;
              }
            }
          }
          const GateId f1 = gi.fanins[p1];
          const GateId f2 = gi.fanins[p2];
          auto& arena = arena_[lz];
          const Transition a =
              arena[tr_begin_[f1 * static_cast<std::size_t>(kBatchLanes) +
                              lz]];
          const Transition b =
              arena[tr_begin_[f2 * static_cast<std::size_t>(kBatchLanes) +
                              lz]];
          // f1 < f2 (pin order follows fanin construction only per pin, so
          // compare ids explicitly for the time tie-break).
          const bool a_first =
              a.time < b.time || (a.time == b.time && f1 < f2);
          const int pf = a_first ? p1 : p2;
          const int ps = a_first ? p2 : p1;
          const Transition trf = a_first ? a : b;
          const Transition trs = a_first ? b : a;
          const double* scale_plane = lane_scale_[lz];
          const double* extra_plane = lane_extra_[lz];
          const double sc = scale_plane ? scale_plane[id] : 1.0;
          const double ex = extra_plane ? extra_plane[id] : 0.0;
          m = trf.value ? (m | (1ull << pf))
                        : (m & ~(1ull << pf));
          const bool nv1 = (gi.tt[m >> 6] >> (m & 63)) & 1u;
          const double t1 = trf.time + gi.pin_delays[pf] * sc + ex;
          m = trs.value ? (m | (1ull << ps))
                        : (m & ~(1ull << ps));
          const bool nv2 = (gi.tt[m >> 6] >> (m & 63)) & 1u;
          const double t2 =
              std::max(t1, trs.time + gi.pin_delays[ps] * sc + ex);
          result_.lane_events[lz] += 2;
          bool v = ((steady_prev_[id] >> l) & 1u) != 0;
          bool sampled = v;
          double settle = 0.0;
          const auto start = static_cast<std::uint32_t>(arena.size());
          if (nv1 != v) {
            v = nv1;
            settle = t1;
            if (t1 <= config.clock) sampled = nv1;
            arena.push_back(Transition{t1, nv1});
          }
          if (nv2 != v) {
            v = nv2;
            settle = t2;
            if (t2 <= config.clock) sampled = nv2;
            arena.push_back(Transition{t2, nv2});
          }
          const auto cnt = static_cast<std::uint32_t>(arena.size()) - start;
          if (cnt == 0) continue;
          tr_begin_[row + lz] = start;
          tr_count_[row + lz] = cnt;
          if (cnt == 1) single_trans_[id] |= 1ull << l;
          result_.settle_at[row + lz] = settle;
          result_.settled[id] = (result_.settled[id] & ~(1ull << l)) |
                                (static_cast<std::uint64_t>(v) << l);
          result_.sampled[id] = (result_.sampled[id] & ~(1ull << l)) |
                                (static_cast<std::uint64_t>(sampled) << l);
          dchanged |= 1ull << l;
        }
        if (dchanged != 0) {
          result_.changed[id] |= dchanged;
          for (GateId g : fanouts_[id]) dirty_[g] |= dchanged;
        }
      }
    }
    for (std::uint64_t w = dirty; w != 0; w &= w - 1) {
      ProcessGateLane(id, gi, std::countr_zero(w), config.clock);
    }
  }

  // The scalar engine cross-checks convergence against SteadyState(next);
  // keep the same safety net per batch. steady_next_ was settled word-
  // parallel before the sweep and is read-only during it.
  for (GateId id = 0; id < n_; ++id) {
    SM_CHECK(((result_.settled[id] ^ steady_next_[id]) & lane_mask) == 0,
             "batched event simulation failed to converge to the steady "
             "state at element "
                 << id);
  }
  return result_;
}

// Replays the scalar pop sequence restricted to (gate g, lane `lane`):
// merges the fanins' executed-transition streams by (time, fanin id, stream
// order) and executes g's own scheduled edges inline (see the header for why
// this ordering is exact).
void BatchEventSim::ProcessGateLane(GateId g, const GateInfo& gi, int lane,
                                    double clock) {
  const int k = gi.num_pins;
  const GateId* fin = gi.fanins;
  const double* pd = gi.pin_delays;
  const std::uint64_t lbit = 1ull << lane;
  auto& arena = arena_[static_cast<std::size_t>(lane)];

  // One fused setup pass: previous-steady minterm plus, per non-duplicate
  // pin with pending fanin transitions, a merge stream (cursor + cached
  // next-transition time). Most dirty slots see exactly one stream with one
  // or two transitions, so everything below is sized for tiny `na`.
  int act[kMaxPins];            // pin index of each active stream
  std::uint32_t abase[kMaxPins];
  std::uint32_t acnt[kMaxPins];
  std::uint32_t acur[kMaxPins];
  double atime[kMaxPins];       // next transition time, cached from arena
  int na = 0;
  std::uint64_t m = 0;
  for (int p = 0; p < k; ++p) {
    const GateId f = fin[p];
    if (steady_prev_[f] & lbit) m |= 1ull << p;
    if ((gi.dup_pin_mask >> p) & 1u) continue;
    if ((result_.changed[f] & lbit) == 0) continue;
    const std::size_t slot = f * static_cast<std::size_t>(kBatchLanes) +
                             static_cast<std::size_t>(lane);
    act[na] = p;
    abase[na] = tr_begin_[slot];
    acnt[na] = tr_count_[slot];
    acur[na] = 0;
    atime[na] = arena[abase[na]].time;
    ++na;
  }

  const double* scale_plane = lane_scale_[static_cast<std::size_t>(lane)];
  const double* extra_plane = lane_extra_[static_cast<std::size_t>(lane)];
  const double sc = scale_plane == nullptr ? 1.0 : scale_plane[g];
  double ex = extra_plane == nullptr ? 0.0 : extra_plane[g];
  if (!lane_overrides_[static_cast<std::size_t>(lane)].empty()) {
    for (const LaneOverride& o :
         lane_overrides_[static_cast<std::size_t>(lane)]) {
      if (o.gate == g) ex += o.delta;
    }
  }
  auto& faults = lane_faults_[static_cast<std::size_t>(lane)];
  const bool has_faults = !faults.empty();

  bool v = (steady_prev_[g] & lbit) != 0;
  bool sampled = v;
  double settle = 0.0;
  double last_out = 0.0;
  std::uint64_t events = 0;
  const auto start = static_cast<std::uint32_t>(arena.size());

  while (na > 0) {
    // Next trigger: smallest (time, fanin id); within one fanin, stream
    // order. Streams are per distinct fanin, so the pair is a total order.
    int bi = 0;
    if (na > 1) {
      for (int i = 1; i < na; ++i) {
        if (atime[i] < atime[bi] ||
            (atime[i] == atime[bi] && fin[act[i]] < fin[act[bi]])) {
          bi = i;
        }
      }
    }
    const int bp = act[bi];
    const Transition tr = arena[abase[bi] + acur[bi]];
    if (++acur[bi] == acnt[bi]) {
      // Stream exhausted: swap-remove (selection re-orders anyway).
      --na;
      act[bi] = act[na];
      abase[bi] = abase[na];
      acnt[bi] = acnt[na];
      acur[bi] = acur[na];
      atime[bi] = atime[na];
    } else {
      atime[bi] = arena[abase[bi] + acur[bi]].time;
    }
    const std::uint32_t group = gi.pin_groups[bp];  // pins fed by this fanin
    m = tr.value ? (m | group) : (m & ~static_cast<std::uint64_t>(group));
    const bool nv = (gi.tt[m >> 6] >> (m & 63)) & 1u;
    // Schedule one edge per pin the trigger feeds, ascending — the scalar
    // engine's push, executed inline (per-gate times are monotone, so push
    // order is pop order). The float expression matches the scalar one.
    for (std::uint32_t pins = group; pins != 0; pins &= pins - 1) {
      const int p = std::countr_zero(pins);
      double bump = 0.0;
      if (has_faults) {
        for (LaneFault& f : faults) {
          if (f.gate != g) continue;
          if (f.seen++ == f.transition_index) bump += f.delta;
        }
      }
      const double t = std::max(last_out, tr.time + pd[p] * sc + ex + bump);
      last_out = t;
      ++events;
      if (nv != v) {  // equal values are the scalar engine's cancelled pops
        v = nv;
        settle = t;
        if (t <= clock) sampled = nv;
        arena.push_back(Transition{t, nv});
      }
    }
  }

  result_.lane_events[static_cast<std::size_t>(lane)] += events;
  if (arena.size() == start) return;  // every edge cancelled: no change
  const std::size_t slot =
      g * static_cast<std::size_t>(kBatchLanes) + static_cast<std::size_t>(lane);
  tr_begin_[slot] = start;
  tr_count_[slot] = static_cast<std::uint32_t>(arena.size()) - start;
  if (tr_count_[slot] == 1) single_trans_[g] |= lbit;
  result_.changed[g] |= lbit;
  result_.settled[g] = (result_.settled[g] & ~lbit) | (v ? lbit : 0);
  result_.sampled[g] = (result_.sampled[g] & ~lbit) | (sampled ? lbit : 0);
  result_.settle_at[slot] = settle;
  for (GateId f : fanouts_[g]) dirty_[f] |= lbit;
}

}  // namespace sm
