// Differential tests for the 64-lane batched event simulator: every lane of
// every batch must be bit-identical to the scalar engine — sampled/settled
// bits, settle times and event counts — across random netlists, random
// per-lane delay assignments, transient faults and partial final batches.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "sim/batch_sim.h"
#include "sim/event_sim.h"
#include "sim/lane_patterns.h"
#include "sim/logic_sim.h"
#include "sta/sta.h"
#include "suite/circuit_gen.h"
#include "util/rng.h"

namespace sm {
namespace {

MappedNetlist MakeFuzzNetlist(CircuitSpec::Profile profile, std::uint64_t seed,
                              const Library& lib) {
  CircuitSpec spec;
  spec.name = profile == CircuitSpec::Profile::kDenseControl ? "fuzz_dense"
                                                             : "fuzz_sliced";
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.target_nodes = 90;
  spec.profile = profile;
  spec.seed = seed;
  return DecomposeAndMap(GenerateCircuit(spec), lib).netlist;
}

std::vector<bool> LanePattern(const std::vector<std::uint64_t>& words,
                              int lane) {
  std::vector<bool> bits(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    bits[i] = (words[i] >> lane) & 1u;
  }
  return bits;
}

// Rebuilds lane `lane` of the batched config as a scalar EventSimConfig,
// replicating the batched engine's effective-extra computation (base plane
// plus overrides, added in order) so the doubles are bitwise equal.
EventSimConfig ScalarConfigForLane(const BatchEventSimConfig& cfg,
                                   std::size_t num_elements, int lane) {
  EventSimConfig scalar;
  scalar.clock = cfg.clock;
  const double* scale = cfg.delay_scale[static_cast<std::size_t>(lane)];
  if (scale != nullptr) scalar.delay_scale.assign(scale, scale + num_elements);
  const double* extra = cfg.extra_delay[static_cast<std::size_t>(lane)];
  bool has_extra = extra != nullptr;
  for (const BatchDelayOverride& o : cfg.extra_overrides) {
    has_extra = has_extra || o.lane == lane;
  }
  if (has_extra) {
    if (extra != nullptr) {
      scalar.extra_delay.assign(extra, extra + num_elements);
    } else {
      scalar.extra_delay.assign(num_elements, 0.0);
    }
    for (const BatchDelayOverride& o : cfg.extra_overrides) {
      if (o.lane == lane) scalar.extra_delay[o.gate] += o.delta;
    }
  }
  for (const BatchTransientFault& f : cfg.transient_faults) {
    if (f.lane == lane) {
      scalar.transient_faults.push_back(
          TransientFault{f.gate, f.transition_index, f.delta});
    }
  }
  return scalar;
}

void ExpectLaneMatchesScalar(const MappedNetlist& net,
                             const BatchEventSimResult& batch,
                             const EventSimResult& scalar, int lane) {
  for (GateId id = 0; id < net.NumElements(); ++id) {
    ASSERT_EQ(batch.SampledAt(id, lane), scalar.sampled[id])
        << "sampled mismatch at element " << id << " lane " << lane;
    ASSERT_EQ(batch.SettledAt(id, lane), scalar.settled[id])
        << "settled mismatch at element " << id << " lane " << lane;
    ASSERT_EQ(batch.SettleAt(id, lane), scalar.settle_at[id])
        << "settle_at mismatch at element " << id << " lane " << lane;
    ASSERT_EQ(batch.TimingErrorAt(id, lane), scalar.TimingErrorAt(id))
        << "timing-error mismatch at element " << id << " lane " << lane;
  }
  ASSERT_EQ(batch.lane_events[static_cast<std::size_t>(lane)], scalar.events)
      << "event count mismatch in lane " << lane;
}

TEST(BatchSim, FuzzDifferentialMatchesScalar) {
  const Library lib = Lsi10kLike();
  const std::array<CircuitSpec::Profile, 2> profiles = {
      CircuitSpec::Profile::kDenseControl,
      CircuitSpec::Profile::kSlicedControl};
  const std::array<int, 3> widths = {64, 7, 1};
  int total_timing_errors = 0;

  for (std::size_t c = 0; c < profiles.size(); ++c) {
    const MappedNetlist net =
        MakeFuzzNetlist(profiles[c], 17 + c, lib);
    const std::size_t n = net.NumElements();
    const double clock = 0.6 * AnalyzeTiming(net).critical_delay;
    std::vector<GateId> gates;
    for (GateId id = 0; id < n; ++id) {
      if (!net.IsInput(id) && !net.cell(id).IsConstant()) gates.push_back(id);
    }
    BatchEventSim engine(net);

    // Shared storage for the dense planes lanes point into; stable addresses
    // across the Run (lanes may share a plane, like an MC chunk does).
    std::vector<std::vector<double>> scale_store;
    std::vector<std::vector<double>> extra_store;
    scale_store.reserve(kBatchLanes);
    extra_store.reserve(kBatchLanes);

    for (std::size_t round = 0; round < widths.size() * 2; ++round) {
      const int lanes = widths[round % widths.size()];
      Rng rng = Rng::ForStream(0xBA7C4 + c, round);
      scale_store.clear();
      extra_store.clear();

      BatchEventSimConfig cfg;
      cfg.clock = clock;
      cfg.lanes = lanes;
      std::vector<std::uint64_t> prev(net.NumInputs());
      std::vector<std::uint64_t> next(net.NumInputs());
      for (auto& w : prev) w = rng.Next();
      for (auto& w : next) w = rng.Next();

      for (int l = 0; l < lanes; ++l) {
        switch (rng.Below(5)) {
          case 0:  // nominal delays
            break;
          case 1: {  // fresh per-lane scale plane
            std::vector<double> s(n, 1.0);
            for (std::size_t g = 0; g < n; ++g) {
              s[g] = 0.5 + rng.Uniform();
            }
            scale_store.push_back(std::move(s));
            cfg.delay_scale[static_cast<std::size_t>(l)] =
                scale_store.back().data();
            break;
          }
          case 2:  // plane shared with an earlier lane, if any
            if (!scale_store.empty()) {
              cfg.delay_scale[static_cast<std::size_t>(l)] =
                  scale_store.front().data();
            }
            break;
          case 3: {  // dense extra plane plus a sparse override
            std::vector<double> e(n, 0.0);
            for (std::size_t g = 0; g < n; ++g) {
              e[g] = rng.Uniform();
            }
            extra_store.push_back(std::move(e));
            cfg.extra_delay[static_cast<std::size_t>(l)] =
                extra_store.back().data();
            cfg.extra_overrides.push_back(BatchDelayOverride{
                l, gates[rng.Below(gates.size())], 2.0 * rng.Uniform()});
            break;
          }
          case 4:  // sparse override only (campaign-style permanent fault)
            cfg.extra_overrides.push_back(BatchDelayOverride{
                l, gates[rng.Below(gates.size())], 3.0 * rng.Uniform()});
            break;
        }
        if (rng.Chance(0.4)) {  // transient faults ride along any mode
          cfg.transient_faults.push_back(
              BatchTransientFault{l, gates[rng.Below(gates.size())],
                                  rng.Below(3), 3.0 * rng.Uniform()});
        }
      }

      const BatchEventSimResult& batch = engine.Run(prev, next, cfg);
      for (int l = 0; l < lanes; ++l) {
        const EventSimConfig scalar_cfg = ScalarConfigForLane(cfg, n, l);
        const EventSimResult scalar = SimulateTransition(
            net, LanePattern(prev, l), LanePattern(next, l), scalar_cfg);
        ExpectLaneMatchesScalar(net, batch, scalar, l);
        for (const auto& o : net.outputs()) {
          if (scalar.TimingErrorAt(o.driver)) ++total_timing_errors;
        }
      }
    }
  }
  // The fuzz must actually exercise the timing-error plane, not just settle.
  EXPECT_GT(total_timing_errors, 0);
}

TEST(BatchSim, TransientFaultIsConfinedToItsLane) {
  const Library lib = Lsi10kLike();
  MappedNetlist net("chain");
  const GateId a = net.AddInput("a");
  const Cell* buf = lib.ByNameOrThrow("BUF");
  const GateId g1 = net.AddGate(buf, {a}, "g1");
  const GateId g2 = net.AddGate(buf, {g1}, "g2");
  net.AddOutput("y", g2);

  const double unit = net.cell(g1).pin_delay(0);
  BatchEventSim engine(net);
  BatchEventSimConfig cfg;
  cfg.lanes = 3;
  cfg.clock = 2.5 * unit;
  // Lane 1's first edge at g1 is pushed past the clock; lanes 0 and 2 see
  // the nominal chain.
  cfg.transient_faults.push_back(BatchTransientFault{1, g1, 0, 2.0 * unit});
  const std::vector<std::uint64_t> prev = {0b000};
  const std::vector<std::uint64_t> nxt = {0b111};
  const BatchEventSimResult& r = engine.Run(prev, nxt, cfg);

  for (int l : {0, 2}) {
    EXPECT_FALSE(r.TimingErrorAt(g2, l));
    EXPECT_EQ(r.SettleAt(g2, l), 2.0 * unit);
  }
  EXPECT_TRUE(r.TimingErrorAt(g2, 1));
  EXPECT_EQ(r.SettleAt(g2, 1), 4.0 * unit);
  EXPECT_EQ(r.TimingErrorWord(g2), 0b010u);
  EXPECT_EQ(r.lane_events[0], 3u);
  EXPECT_EQ(r.lane_events[1], 3u);
}

TEST(BatchSim, ValidatesConfig) {
  const Library lib = Lsi10kLike();
  MappedNetlist net("tiny");
  const GateId a = net.AddInput("a");
  const GateId g = net.AddGate(lib.ByNameOrThrow("INV"), {a}, "g");
  net.AddOutput("y", g);
  BatchEventSim engine(net);
  const std::vector<std::uint64_t> w = {0};

  BatchEventSimConfig cfg;
  cfg.lanes = 0;
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);
  cfg.lanes = kBatchLanes + 1;
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  EXPECT_THROW(engine.Run({}, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  const std::vector<double> bad_scale = {1.0, -0.5};
  cfg.delay_scale[0] = bad_scale.data();
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  cfg.extra_overrides.push_back(BatchDelayOverride{63, g, 1.0});
  cfg.lanes = 2;  // override lane beyond the active width
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  cfg.transient_faults.push_back(BatchTransientFault{0, a, 0, 1.0});
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);  // input site

  cfg = BatchEventSimConfig{};
  cfg.clock = -1.0;
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);
}

// Draws words 2, 0 and 5 of `inputs`-input pattern pairs, one lane of each
// kind at a time, and compares every lane with the plain bit vectors.
void CheckLanesAgainstBitVectors(std::size_t inputs) {
  LanePatterns patterns(inputs);
  std::vector<bool> sensitized(inputs);
  for (std::size_t v = 0; v < inputs; ++v) sensitized[v] = v % 3 == 0;
  for (const std::size_t w : {std::size_t{2}, std::size_t{0}, std::size_t{5}}) {
    patterns.Start(w);
    std::vector<std::vector<bool>> want_prev, want_next;
    for (int lane = 0; lane < kBatchLanes; ++lane) {
      const std::uint64_t stream = w * kBatchLanes + lane;
      Rng rng = Rng::ForStream(9, stream);
      Rng ref = Rng::ForStream(9, stream);
      std::vector<bool> next(inputs), prev(inputs);
      const int flip =
          lane % 5 == 4 ? -1 : (lane * 7) % static_cast<int>(inputs);
      switch (lane % 3) {
        case 0:  // random pair
          for (std::size_t v = 0; v < inputs; ++v) next[v] = ref.Chance(0.5);
          for (std::size_t v = 0; v < inputs; ++v) prev[v] = ref.Chance(0.5);
          patterns.DrawNext(rng, w, lane);
          patterns.DrawPrevious(rng, w, lane);
          break;
        case 1:  // targeted: next with one input flipped, copy marked first
          for (std::size_t v = 0; v < inputs; ++v) next[v] = ref.Chance(0.5);
          prev = next;
          if (flip >= 0) prev[static_cast<std::size_t>(flip)].flip();
          patterns.CopyNext(w, lane, flip);
          patterns.DrawNext(rng, w, lane);
          break;
        default:  // fixed next pattern, copy marked last
          next = sensitized;
          prev = next;
          if (flip >= 0) prev[static_cast<std::size_t>(flip)].flip();
          patterns.SetNext(w, lane, sensitized);
          patterns.CopyNext(w, lane, flip);
          break;
      }
      want_prev.push_back(prev);
      want_next.push_back(next);
    }
    patterns.Finish(w);
    for (int lane = 0; lane < kBatchLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      EXPECT_EQ(LanePatterns::Unpack(patterns.next(w), lane), want_next[l])
          << "word " << w << " lane " << lane;
      EXPECT_EQ(LanePatterns::Unpack(patterns.previous(w), lane), want_prev[l])
          << "word " << w << " lane " << lane;
    }
  }
}

// The engines' scalar paths unpack one lane of the same generator, so the
// scalar-vs-batched tests cannot see a generator bug; this checks every lane
// against pattern pairs built the plain way, one std::vector<bool> per
// pattern from the same Chance sequence, at input counts around the 64-bit
// word size and in words past the first.
TEST(LanePatterns, LanesMatchPlainBitVectorPairs) {
  for (const std::size_t inputs : {1, 37, 63, 64, 65, 200}) {
    SCOPED_TRACE(inputs);
    CheckLanesAgainstBitVectors(inputs);
  }
}

TEST(MappedNetlist, EvalParallelMatchesScalarSteadyState) {
  const Library lib = Lsi10kLike();
  const MappedNetlist net =
      MakeFuzzNetlist(CircuitSpec::Profile::kDenseControl, 5, lib);
  Rng rng = Rng::ForStream(99, 0);
  const auto words = RandomInputWords(net.NumInputs(), rng);
  const auto batch = net.EvalParallel(words);
  ASSERT_EQ(batch.size(), net.NumElements());
  for (int lane = 0; lane < 64; lane += 13) {
    const auto scalar = SteadyState(net, LanePattern(words, lane));
    for (GateId id = 0; id < net.NumElements(); ++id) {
      ASSERT_EQ((batch[id] >> lane) & 1u, scalar[id] ? 1u : 0u)
          << "element " << id << " lane " << lane;
    }
  }
}

}  // namespace
}  // namespace sm
