// Word-parallel (64-lane) batched event-driven timing simulation.
//
// Packs up to 64 independent trials ("lanes") into one pass over the
// netlist. The logic-value plane is bit-parallel — one std::uint64_t per
// element for sampled/settled/changed, bit l belonging to lane l — while the
// timing plane is a structure of arrays: each lane carries its own dense
// delay_scale / extra_delay planes (shared by pointer, so 64 trials under
// one delay assignment cost one plane), sparse per-gate extra-delay
// overrides, and its own transient fault list.
//
// Results are bit-identical to the scalar engine (event_sim.h): lane l of a
// Run equals SimulateTransition of lane l's pattern pair under lane l's
// delay state, down to every sampled/settled bit, settle_at double and event
// count. The scalar engine remains the differential-testing oracle; the
// batched engine is the throughput path under the Monte-Carlo yield and
// fault-injection campaign hot loops.
//
// Why replaying per gate is exact: GateIds are topological (fanins precede
// their gate), and the scalar queue pops in (time, gate, push-order) order,
// so every event executed at gate g is scheduled by an earlier-executing
// event at a fanin f < g. Processing elements in id order and merging the
// fanins' executed-transition streams by (time, fanin id, stream order)
// therefore visits exactly the scalar pop sequence restricted to g — and
// because the no-overtake clamp makes scheduled times at one gate
// monotone, g's own edges can be executed inline at push time. One
// topological sweep per lane batch replaces the global priority queue.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"
#include "sim/event_sim.h"

namespace sm {

inline constexpr int kBatchLanes = 64;

// Sparse additive extra delay for one (lane, gate) pair, applied on top of
// the lane's dense extra_delay plane (if any). The fault-injection campaign
// uses one override per lane instead of materializing a dense plane per
// trial.
struct BatchDelayOverride {
  int lane = 0;
  GateId gate = kInvalidGate;
  double delta = 0;
};

// A scalar TransientFault pinned to one lane; semantics per lane are exactly
// those of EventSimConfig::transient_faults (the transition_index-th edge
// scheduled at `gate` in that lane is slowed by `delta`).
struct BatchTransientFault {
  int lane = 0;
  GateId gate = kInvalidGate;
  std::uint64_t transition_index = 0;
  double delta = 0;
};

struct BatchEventSimConfig {
  // Sampling instant, shared by every lane (trials in a batch share the
  // clock; delay state is what varies per trial).
  double clock = 0;
  // Number of active lanes in [1, kBatchLanes]; bits >= lanes of every input
  // word are ignored and the corresponding result bits are unspecified.
  int lanes = kBatchLanes;
  // Per-lane dense planes indexed by GateId, or nullptr for 1.0 / 0.0
  // everywhere — the batched analogue of EventSimConfig::delay_scale /
  // extra_delay. Pointed-to storage must stay alive across Run and may be
  // shared between lanes. Entries must be finite and non-negative.
  std::array<const double*, kBatchLanes> delay_scale{};
  std::array<const double*, kBatchLanes> extra_delay{};
  std::vector<BatchDelayOverride> extra_overrides;
  std::vector<BatchTransientFault> transient_faults;
};

struct BatchEventSimResult {
  int lanes = 0;
  std::uint64_t lane_mask = 0;  // low `lanes` bits set
  // One word per element; bit l is lane l's value at the clock edge /
  // settled value / whether the element's waveform changed at all in lane l.
  std::vector<std::uint64_t> sampled;
  std::vector<std::uint64_t> settled;
  std::vector<std::uint64_t> changed;
  // settle_at[id * kBatchLanes + lane]; only meaningful where the matching
  // `changed` bit is set — use SettleAt, which folds in the 0.0 default.
  std::vector<double> settle_at;
  // Scalar-equivalent processed event count per lane (glitches included).
  std::array<std::uint64_t, kBatchLanes> lane_events{};

  bool SampledAt(GateId id, int lane) const {
    return (sampled[id] >> lane) & 1u;
  }
  bool SettledAt(GateId id, int lane) const {
    return (settled[id] >> lane) & 1u;
  }
  double SettleAt(GateId id, int lane) const {
    return (changed[id] >> lane) & 1u
               ? settle_at[id * static_cast<std::size_t>(kBatchLanes) +
                           static_cast<std::size_t>(lane)]
               : 0.0;
  }
  bool TimingErrorAt(GateId id, int lane) const {
    return ((sampled[id] ^ settled[id]) >> lane) & 1u;
  }
  // Lanes whose sampled and settled values disagree, masked to active lanes.
  std::uint64_t TimingErrorWord(GateId id) const {
    return (sampled[id] ^ settled[id]) & lane_mask;
  }
};

// Reusable batched simulator for one netlist. Not thread-safe; give each
// worker its own instance. The netlist must outlive the engine and stay
// structurally unchanged (the constructor snapshots fanins, pin delays and
// the fanout lists).
class BatchEventSim {
 public:
  explicit BatchEventSim(const MappedNetlist& net);

  // `previous` / `next` hold one word per primary input (declaration order),
  // bit l = lane l's pattern bit. Returns a reference to an internal result
  // reused by the next Run.
  const BatchEventSimResult& Run(const std::vector<std::uint64_t>& previous,
                                 const std::vector<std::uint64_t>& next,
                                 const BatchEventSimConfig& config);

 private:
  struct Transition {
    double time;
    bool value;
  };
  // Constructor-cached per-element data: one indirection per hot-loop access
  // instead of element()/cell() bounds-checked chains.
  struct GateInfo {
    const TruthTable* fn = nullptr;  // nullptr for primary inputs
    const GateId* fanins = nullptr;
    const double* pin_delays = nullptr;
    // Truth table flattened to raw words (bit m = fn->Get(m)) so the merge
    // reads function values with one inline shift instead of an out-of-line
    // bounds-checked call — the single hottest lookup of the engine.
    const std::uint64_t* tt = nullptr;
    // pin_groups[p]: bit mask over pins that share pin p's fanin (always
    // includes p itself) — one minterm update and one scheduling sweep per
    // merged trigger instead of a scan over all pins.
    const std::uint32_t* pin_groups = nullptr;
    int num_pins = 0;
    std::uint32_t dup_pin_mask = 0;  // pin repeats an earlier pin's fanin
  };
  struct LaneOverride {
    GateId gate;
    double delta;
  };
  struct LaneFault {
    GateId gate;
    std::uint64_t transition_index;
    double delta;
    std::uint64_t seen;
  };

  void ProcessGateLane(GateId g, const GateInfo& gi, int lane, double clock);

  const MappedNetlist& net_;
  const std::vector<std::vector<GateId>>& fanouts_;
  std::size_t n_ = 0;
  std::vector<GateInfo> info_;
  std::vector<double> pin_delay_flat_;
  std::vector<std::uint32_t> pin_group_flat_;
  std::vector<std::uint64_t> tt_flat_;
  BatchEventSimResult result_;
  std::vector<std::uint64_t> steady_prev_;
  std::vector<std::uint64_t> steady_next_;
  std::vector<std::uint64_t> dirty_;
  // single_trans_[g]: lanes whose recorded stream for g holds exactly one
  // transition; fault_lanes_[g]: lanes with a transient fault sited at g.
  // Together they power the word-parallel quiet fast path in Run (a gate
  // whose only stimulus is one transition and whose steady value does not
  // change counts one cancelled event and propagates nothing — no per-lane
  // replay needed).
  std::vector<std::uint64_t> single_trans_;
  std::vector<std::uint64_t> fault_lanes_;
  std::vector<GateId> fault_gates_;  // gates with nonzero fault_lanes_ bits
  std::vector<std::uint64_t> override_lanes_;  // same, for extra overrides
  std::vector<GateId> override_gates_;
  // Executed-transition waveforms, one arena per lane; transitions of gate g
  // occupy [tr_begin_[g*64+l], +tr_count_[g*64+l]) of arena_[l], valid only
  // where result_.changed has the lane bit set.
  std::array<std::vector<Transition>, kBatchLanes> arena_;
  std::vector<std::uint32_t> tr_begin_;
  std::vector<std::uint32_t> tr_count_;
  std::array<const double*, kBatchLanes> lane_scale_{};
  std::array<const double*, kBatchLanes> lane_extra_{};
  std::array<std::vector<LaneOverride>, kBatchLanes> lane_overrides_;
  std::array<std::vector<LaneFault>, kBatchLanes> lane_faults_;
};

}  // namespace sm
