#include <gtest/gtest.h>

#include <limits>

#include "liblib/lsi10k.h"
#include "sim/event_sim.h"
#include "sim/logic_sim.h"
#include "sim/power.h"
#include "network/structural.h"
#include "util/strings.h"

namespace sm {
namespace {

MappedNetlist PaperComparator(const Library& lib) {
  MappedNetlist net("cmp2");
  const GateId a0 = net.AddInput("a0");
  const GateId a1 = net.AddInput("a1");
  const GateId b0 = net.AddInput("b0");
  const GateId b1 = net.AddInput("b1");
  const Cell* inv = lib.ByNameOrThrow("INV");
  const Cell* and2 = lib.ByNameOrThrow("AND2");
  const Cell* or2 = lib.ByNameOrThrow("OR2");
  const GateId nb1 = net.AddGate(inv, {b1}, "nb1");
  const GateId nb0 = net.AddGate(inv, {b0}, "nb0");
  const GateId g1 = net.AddGate(and2, {a1, nb1}, "g1");
  const GateId g2 = net.AddGate(or2, {a0, nb0}, "g2");
  const GateId g3 = net.AddGate(or2, {a1, nb1}, "g3");
  const GateId g4 = net.AddGate(and2, {g2, g3}, "g4");
  const GateId y = net.AddGate(or2, {g1, g4}, "y");
  net.AddOutput("y", y);
  return net;
}

TEST(LogicSim, NetworkParallelMatchesScalarSemantics) {
  Network net("n");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId c = net.AddInput("c");
  const NodeId x = AddXor2(net, a, b, "x");
  const NodeId y = AddMux2(net, c, x, a, "y");
  net.AddOutput("y", y);
  std::vector<std::uint64_t> words(3);
  for (std::uint64_t m = 0; m < 8; ++m) {
    for (int v = 0; v < 3; ++v) {
      if ((m >> v) & 1u) words[static_cast<std::size_t>(v)] |= 1ull << m;
    }
  }
  const auto values = EvalNetworkParallel(net, words);
  for (std::uint64_t m = 0; m < 8; ++m) {
    const bool av = m & 1, bv = (m >> 1) & 1, cv = (m >> 2) & 1;
    const bool xv = av ^ bv;
    const bool yv = cv ? xv : av;  // mux: sel ? in1 : in0, in0=x? careful
    (void)yv;
    // AddMux2(sel=c, in0=x, in1=a): y = c ? a : x.
    const bool expect = cv ? av : xv;
    EXPECT_EQ((values[y] >> m) & 1u, expect ? 1u : 0u) << m;
  }
}

TEST(LogicSim, ActivityOfFreeInputsIsHalf) {
  const Library lib = UnitLibrary();
  MappedNetlist net("wire");
  const GateId a = net.AddInput("a");
  net.AddGate(lib.ByNameOrThrow("INV"), {a}, "na");
  net.AddOutput("y", net.FindByName("na"));
  Rng rng(1);
  const ActivityEstimate est = EstimateActivity(net, rng, 256);
  EXPECT_NEAR(est.probability[a], 0.5, 0.02);
  EXPECT_NEAR(est.activity[a], 0.5, 0.02);
  // The inverter output follows its input exactly.
  EXPECT_NEAR(est.activity[net.FindByName("na")], 0.5, 0.02);
  EXPECT_EQ(est.patterns, 256u * 64u);
}

TEST(LogicSim, AndGateActivityBelowInputActivity) {
  const Library lib = UnitLibrary();
  MappedNetlist net("and4");
  std::vector<GateId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(net.AddInput(IndexedName("i", i)));
  const GateId g = net.AddGate(lib.ByNameOrThrow("AND4"), ins, "g");
  net.AddOutput("y", g);
  Rng rng(2);
  const ActivityEstimate est = EstimateActivity(net, rng, 256);
  // P(AND4 = 1) = 1/16; toggle rate well below 0.5.
  EXPECT_NEAR(est.probability[g], 1.0 / 16, 0.02);
  EXPECT_LT(est.activity[g], 0.2);
}

TEST(EventSim, SteadyStateMatchesParallelEval) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  for (std::uint64_t m = 0; m < 16; ++m) {
    std::vector<bool> pattern(4);
    for (int v = 0; v < 4; ++v) pattern[static_cast<std::size_t>(v)] = (m >> v) & 1u;
    const auto ss = SteadyState(net, pattern);
    const unsigned a = static_cast<unsigned>((m & 1) | ((m >> 1) & 1) << 1);
    const unsigned b = static_cast<unsigned>(((m >> 2) & 1) | ((m >> 3) & 1) << 1);
    EXPECT_EQ(ss[net.output(0).driver], a >= b) << m;
  }
}

TEST(EventSim, NoErrorAtNominalClock) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  EventSimConfig cfg;
  cfg.clock = 7.0;  // the critical delay
  for (std::uint64_t from = 0; from < 16; ++from) {
    for (std::uint64_t to = 0; to < 16; ++to) {
      std::vector<bool> p(4), q(4);
      for (int v = 0; v < 4; ++v) {
        p[static_cast<std::size_t>(v)] = (from >> v) & 1u;
        q[static_cast<std::size_t>(v)] = (to >> v) & 1u;
      }
      const EventSimResult r = SimulateTransition(net, p, q, cfg);
      EXPECT_FALSE(r.TimingErrorAt(net.output(0).driver))
          << from << "->" << to;
    }
  }
}

TEST(EventSim, AgingOnSpeedPathCausesMaskableError) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  // Slow down g4 (on both speed-paths) by 1.5 units: paths through g4 now
  // take 8.5 > clock 7.
  EventSimConfig cfg;
  cfg.clock = 7.0;
  cfg.extra_delay.assign(net.NumElements(), 0.0);
  cfg.extra_delay[net.FindByName("g4")] = 1.5;

  // Pattern pair exercising the b1 -> nb1 -> g3 -> g4 -> y speed-path:
  // a=(01), b goes 11 -> 01: y flips 0 -> 1 through g4.
  const std::vector<bool> from{true, false, true, true};   // a0,a1,b0,b1
  const std::vector<bool> to{true, false, true, false};
  const EventSimResult r = SimulateTransition(net, from, to, cfg);
  const GateId y = net.output(0).driver;
  EXPECT_TRUE(r.settled[y]);
  EXPECT_TRUE(r.TimingErrorAt(y)) << "slowed speed-path must miss the clock";
  EXPECT_GT(r.settle_at[y], cfg.clock);

  // Without aging the same transition meets timing.
  EventSimConfig nominal;
  nominal.clock = 7.0;
  EXPECT_FALSE(
      SimulateTransition(net, from, to, nominal).TimingErrorAt(y));
}

TEST(EventSim, RejectsInvalidDelayModifiers) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const std::vector<bool> p(4, false), q(4, true);

  EventSimConfig cfg;
  cfg.clock = 7.0;
  cfg.extra_delay.assign(net.NumElements(), 0.0);
  cfg.extra_delay[net.FindByName("g4")] = -0.5;
  EXPECT_THROW(SimulateTransition(net, p, q, cfg), std::invalid_argument);
  cfg.extra_delay[net.FindByName("g4")] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SimulateTransition(net, p, q, cfg), std::invalid_argument);

  cfg = EventSimConfig{};
  cfg.clock = 7.0;
  cfg.delay_scale.assign(net.NumElements(), 1.0);
  cfg.delay_scale[net.FindByName("g4")] = -1.0;
  EXPECT_THROW(SimulateTransition(net, p, q, cfg), std::invalid_argument);
  cfg.delay_scale[net.FindByName("g4")] =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(SimulateTransition(net, p, q, cfg), std::invalid_argument);

  // Transient faults: the site must be a non-input element and the delta
  // finite and non-negative.
  cfg = EventSimConfig{};
  cfg.clock = 7.0;
  cfg.transient_faults.push_back(TransientFault{0, 0, 1.0});  // a PI
  EXPECT_THROW(SimulateTransition(net, p, q, cfg), std::invalid_argument);
  cfg.transient_faults[0] = TransientFault{net.FindByName("g4"), 0, -1.0};
  EXPECT_THROW(SimulateTransition(net, p, q, cfg), std::invalid_argument);
}

TEST(EventSim, TransientFaultDelaysExactlyOneEdge) {
  const Library lib = UnitLibrary();
  MappedNetlist net("chain");
  const Cell* inv = lib.ByNameOrThrow("INV");
  const GateId a = net.AddInput("a");
  const GateId inv1 = net.AddGate(inv, {a}, "inv1");
  const GateId inv2 = net.AddGate(inv, {inv1}, "inv2");
  net.AddOutput("y", inv2);
  const std::vector<bool> p{false}, q{true};

  EventSimConfig cfg;
  cfg.clock = 2.0;  // nominal chain delay: exactly meets timing
  cfg.transient_faults.push_back(TransientFault{inv1, 0, 5.0});
  const EventSimResult faulted = SimulateTransition(net, p, q, cfg);
  EXPECT_DOUBLE_EQ(faulted.settle_at[inv1], 6.0);
  EXPECT_DOUBLE_EQ(faulted.settle_at[inv2], 7.0);
  EXPECT_TRUE(faulted.TimingErrorAt(inv2));

  // The single input edge is event 0 — a later transition index never fires
  // and the run is indistinguishable from nominal.
  cfg.transient_faults[0].transition_index = 1;
  const EventSimResult missed = SimulateTransition(net, p, q, cfg);
  EXPECT_DOUBLE_EQ(missed.settle_at[inv1], 1.0);
  EXPECT_DOUBLE_EQ(missed.settle_at[inv2], 2.0);
  EXPECT_FALSE(missed.TimingErrorAt(inv2));
}

TEST(EventSim, SettleTimesRespectStaBounds) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  EventSimConfig cfg;
  cfg.clock = 7.0;
  Rng rng(3);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<bool> p(4), q(4);
    for (int v = 0; v < 4; ++v) {
      p[static_cast<std::size_t>(v)] = rng.Chance(0.5);
      q[static_cast<std::size_t>(v)] = rng.Chance(0.5);
    }
    const EventSimResult r = SimulateTransition(net, p, q, cfg);
    for (GateId id = 0; id < net.NumElements(); ++id) {
      EXPECT_LE(r.settle_at[id], 7.0 + 1e-9);  // never beyond max arrival
    }
  }
}

TEST(EventSim, ValidatesArguments) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  EventSimConfig cfg;
  cfg.clock = -1;
  EXPECT_THROW(SimulateTransition(net, std::vector<bool>(4),
                                  std::vector<bool>(4), cfg),
               std::invalid_argument);
  cfg.clock = 7;
  EXPECT_THROW(SimulateTransition(net, std::vector<bool>(3),
                                  std::vector<bool>(4), cfg),
               std::invalid_argument);
  cfg.extra_delay.assign(2, 0.0);
  EXPECT_THROW(SimulateTransition(net, std::vector<bool>(4),
                                  std::vector<bool>(4), cfg),
               std::invalid_argument);
}

TEST(Power, ScalesWithCircuitSize) {
  const Library lib = Lsi10kLike();
  MappedNetlist small("small");
  const GateId a = small.AddInput("a");
  const GateId b = small.AddInput("b");
  small.AddOutput("y", small.AddGate(lib.ByNameOrThrow("AND2"), {a, b}, "g"));

  MappedNetlist big("big");
  std::vector<GateId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(big.AddInput(IndexedName("i", i)));
  GateId acc = big.AddGate(lib.ByNameOrThrow("XOR2"), {ins[0], ins[1]}, "x0");
  for (int i = 2; i < 8; ++i) {
    acc = big.AddGate(lib.ByNameOrThrow("XOR2"), {acc, ins[static_cast<std::size_t>(i)]},
                      IndexedName("x", i));
  }
  big.AddOutput("y", acc);

  Rng r1(7), r2(7);
  const PowerReport ps = EstimatePower(small, r1, 64);
  const PowerReport pb = EstimatePower(big, r2, 64);
  EXPECT_GT(ps.dynamic, 0);
  EXPECT_GT(pb.dynamic, ps.dynamic);
  EXPECT_GT(pb.area, ps.area);
}

TEST(Power, SharedActivityProfileIsDeterministic) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  Rng r1(11), r2(11);
  const auto a1 = EstimateActivity(net, r1, 32);
  const auto a2 = EstimateActivity(net, r2, 32);
  EXPECT_EQ(a1.activity, a2.activity);
  EXPECT_DOUBLE_EQ(PowerFromActivity(net, a1).dynamic,
                   PowerFromActivity(net, a2).dynamic);
}

}  // namespace
}  // namespace sm
