#include <gtest/gtest.h>

#include "network/cone.h"
#include "network/decompose.h"
#include "network/global_bdd.h"
#include "network/network.h"
#include "network/structural.h"
#include "network/sweep.h"
#include "network/topo.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

// Small shared fixture: y = (a & b) | ~c, z = a ^ c.
Network MakeSmallNet() {
  Network net("small");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId c = net.AddInput("c");
  const NodeId g1 = AddAnd(net, {a, b}, "g1");
  const NodeId nc = AddNot(net, c, "nc");
  const NodeId y = AddOr(net, {g1, nc}, "y");
  const NodeId z = AddXor2(net, a, c, "z");
  net.AddOutput("y", y);
  net.AddOutput("z", z);
  return net;
}

TEST(Network, BasicStructure) {
  const Network net = MakeSmallNet();
  EXPECT_EQ(net.NumInputs(), 3u);
  EXPECT_EQ(net.NumOutputs(), 2u);
  EXPECT_EQ(net.NumLogicNodes(), 4u);
  EXPECT_NO_THROW(net.CheckInvariants());
  EXPECT_EQ(net.kind(net.inputs()[0]), NodeKind::kInput);
  EXPECT_EQ(net.InputIndex(net.inputs()[2]), 2);
  EXPECT_EQ(net.FindByName("g1"), 3u);
  EXPECT_EQ(net.FindByName("nope"), kInvalidNode);
}

TEST(Network, RejectsForwardFanins) {
  Network net("bad");
  const NodeId a = net.AddInput("a");
  EXPECT_THROW(net.AddNode({a, 5}, Sop(2, {Cube::Literal(0, true)})),
               std::invalid_argument);
}

TEST(Network, RejectsWidthMismatch) {
  Network net("bad");
  const NodeId a = net.AddInput("a");
  EXPECT_THROW(net.AddNode({a}, Sop(2)), std::invalid_argument);
}

TEST(Network, RejectsDuplicateNames) {
  Network net("bad");
  net.AddInput("a");
  EXPECT_THROW(net.AddInput("a"), std::invalid_argument);
}

TEST(Network, FanoutsMatchFanins) {
  const Network net = MakeSmallNet();
  const auto& fo = net.Fanouts();
  const NodeId a = net.FindByName("a");
  // a feeds g1 and z.
  EXPECT_EQ(fo[a].size(), 2u);
}

TEST(Topo, LevelsMonotone) {
  const Network net = MakeSmallNet();
  const auto levels = Levels(net);
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    for (NodeId f : net.fanins(id)) {
      EXPECT_LT(levels[f], levels[id]);
    }
  }
  EXPECT_EQ(MaxLevel(net), 2);
}

TEST(Cone, TransitiveFaninOfOutput) {
  const Network net = MakeSmallNet();
  const NodeId y = net.output(0).driver;
  const auto cone = TransitiveFanin(net, {y});
  // y, g1, nc, a, b, c
  EXPECT_EQ(cone.size(), 6u);
  const auto ins = ConeInputs(net, {y});
  EXPECT_EQ(ins.size(), 3u);
  // z's cone excludes b.
  const auto ins_z = ConeInputs(net, {net.output(1).driver});
  EXPECT_EQ(ins_z.size(), 2u);
}

TEST(Cone, TransitiveFanoutOfInput) {
  const Network net = MakeSmallNet();
  const NodeId b = net.FindByName("b");
  const auto fo = TransitiveFanout(net, {b});
  // b, g1, y
  EXPECT_EQ(fo.size(), 3u);
}

// ------------------------------------------------------------------ Sweep

TEST(Sweep, RemovesDanglingNodes) {
  Network net("dangling");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId used = AddAnd(net, {a, b}, "used");
  AddOr(net, {a, b}, "unused");
  net.AddOutput("y", used);
  const SweepResult r = Sweep(net);
  EXPECT_EQ(r.network.NumLogicNodes(), 1u);
  EXPECT_EQ(r.node_map[net.FindByName("unused")], kInvalidNode);
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
}

TEST(Sweep, PropagatesConstants) {
  Network net("const");
  const NodeId a = net.AddInput("a");
  const NodeId zero = net.AddNode({}, Sop::Const0(0), "zero");
  const NodeId g = AddOr(net, {a, zero}, "g");   // == a
  const NodeId h = AddAnd(net, {g, zero}, "h");  // == 0
  const NodeId k = AddXor2(net, h, a, "k");      // == a
  net.AddOutput("y", k);
  const SweepResult r = Sweep(net);
  // Everything folds to a buffer of `a`... which collapses into `a` itself;
  // output driven directly by the input.
  EXPECT_EQ(r.network.output(0).driver,
            r.network.FindByName("a"));
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
}

TEST(Sweep, ConstantOutputMaterialized) {
  Network net("constout");
  const NodeId a = net.AddInput("a");
  const NodeId na = AddNot(net, a, "na");
  const NodeId g = AddAnd(net, {a, na}, "g");  // == 0
  net.AddOutput("y", g);
  const SweepResult r = Sweep(net);
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
  const NodeId drv = r.network.output(0).driver;
  EXPECT_EQ(r.network.function(drv).num_vars(), 0);
  EXPECT_TRUE(r.network.function(drv).IsConst0());
}

TEST(Sweep, DropsVacuousFanins) {
  Network net("vacuous");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  // f(a, b) = a regardless of b.
  Sop f(2, {Cube::Literal(0, true)});
  const NodeId g = net.AddNode({a, b}, f, "g");
  const NodeId h = AddNot(net, g, "h");
  net.AddOutput("y", h);
  const SweepResult r = Sweep(net);
  // g collapses into a buffer of a, so h becomes an inverter on a.
  const NodeId new_h = r.node_map[h];
  ASSERT_NE(new_h, kInvalidNode);
  EXPECT_EQ(r.network.fanins(new_h).size(), 1u);
  EXPECT_EQ(r.network.fanins(new_h)[0], r.network.FindByName("a"));
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
}

TEST(Sweep, MergesStructurallyIdenticalNodes) {
  Network net("dup");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId g1 = AddAnd(net, {a, b}, "g1");
  const NodeId g2 = AddAnd(net, {a, b}, "g2");
  const NodeId y = AddXor2(net, g1, g2, "y");  // == 0, after merging
  net.AddOutput("y", y);
  const SweepResult r = Sweep(net);
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
  const NodeId drv = r.network.output(0).driver;
  EXPECT_TRUE(r.network.function(drv).IsConst0());
}

TEST(Sweep, MergedDuplicateFaninVariables) {
  Network net("samefanin");
  const NodeId a = net.AddInput("a");
  const NodeId buf = AddBuf(net, a, "buf");
  // g(x, y) = x & y with x and y both ultimately `a` — reduces to buffer(a).
  const NodeId g = AddAnd(net, {a, buf}, "g");
  net.AddOutput("y", g);
  const SweepResult r = Sweep(net);
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
  EXPECT_EQ(r.network.output(0).driver, r.network.FindByName("a"));
}

TEST(Sweep, KeepsAllPrimaryInputs) {
  Network net("keep_pis");
  net.AddInput("a");
  const NodeId b = net.AddInput("b");
  net.AddInput("c_unused");
  net.AddOutput("y", b);
  const SweepResult r = Sweep(net);
  EXPECT_EQ(r.network.NumInputs(), 3u);
}

// -------------------------------------------------------------- Decompose

TEST(Decompose, ProducesAndInvOnly) {
  const Network net = MakeSmallNet();
  const DecomposeResult d = DecomposeToAndInv(net);
  EXPECT_TRUE(IsAndInvNetwork(d.network));
  EXPECT_FALSE(IsAndInvNetwork(net));  // has OR/XOR nodes
  EXPECT_EQ(FirstMismatchingOutput(net, d.network), -1);
}

TEST(Decompose, SharesCommonSubtrees) {
  Network net("share");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId g1 = AddAnd(net, {a, b}, "g1");
  const NodeId g2 = AddAnd(net, {a, b}, "g2");
  net.AddOutput("y1", g1);
  net.AddOutput("y2", g2);
  const DecomposeResult d = DecomposeToAndInv(net);
  // Structural hashing must produce a single AND node.
  EXPECT_EQ(d.network.NumLogicNodes(), 1u);
}

class DecomposeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DecomposeRandomTest, PreservesFunction) {
  Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  // Random multi-level network with random SOP nodes.
  Network net("rand");
  std::vector<NodeId> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(net.AddInput(IndexedName("i", i)));
  for (int g = 0; g < 15; ++g) {
    const int k = static_cast<int>(rng.Range(1, 4));
    std::vector<NodeId> fanins;
    for (int i = 0; i < k; ++i) {
      fanins.push_back(pool[rng.Below(pool.size())]);
    }
    TruthTable tt(k);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
      tt.Set(m, rng.Chance(0.5));
    }
    if (tt.IsConst0() || tt.IsConst1()) continue;
    pool.push_back(net.AddNode(fanins, Sop::FromTruthTable(tt)));
  }
  for (int o = 0; o < 3; ++o) {
    net.AddOutput(IndexedName("o", o), pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  const DecomposeResult d = DecomposeToAndInv(net);
  EXPECT_TRUE(IsAndInvNetwork(d.network));
  EXPECT_EQ(FirstMismatchingOutput(net, d.network), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeRandomTest,
                         ::testing::Range(0, 8));

// -------------------------------------------------------------- GlobalBdd

TEST(GlobalBdd, MatchesHandComputation) {
  const Network net = MakeSmallNet();
  BddManager mgr(static_cast<int>(net.NumInputs()));
  const auto g = BuildGlobalBdds(mgr, net);
  const auto a = mgr.Var(0);
  const auto b = mgr.Var(1);
  const auto c = mgr.Var(2);
  EXPECT_EQ(g[net.output(0).driver], mgr.Or(mgr.And(a, b), mgr.Not(c)));
  EXPECT_EQ(g[net.output(1).driver], mgr.Xor(a, c));
}

TEST(GlobalBdd, RestrictedBuildOnlyTouchesCone) {
  const Network net = MakeSmallNet();
  BddManager mgr(static_cast<int>(net.NumInputs()));
  const NodeId z = net.output(1).driver;
  const auto g = BuildGlobalBdds(mgr, net, {z});
  EXPECT_EQ(g[z], mgr.Xor(mgr.Var(0), mgr.Var(2)));
  // Node outside the cone stays at the kFalse placeholder.
  EXPECT_EQ(g[net.FindByName("g1")], mgr.False());
}

TEST(GlobalBdd, EquivalenceCheckFindsMismatch) {
  const Network a = MakeSmallNet();
  Network b = MakeSmallNet();
  // Tamper with output 1: swap xor for xnor.
  const NodeId xn = AddXnor2(b, b.FindByName("a"), b.FindByName("c"), "zz");
  b.SetOutputDriver(1, xn);
  EXPECT_EQ(FirstMismatchingOutput(a, b), 1);
}

}  // namespace
}  // namespace sm
