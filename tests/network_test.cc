#include <gtest/gtest.h>

#include <ios>

#include "network/cone.h"
#include "network/decompose.h"
#include "network/global_bdd.h"
#include "network/network.h"
#include "network/structural.h"
#include "network/sweep.h"
#include "network/topo.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "pinned_networks.h"

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

// InputIndex binary-searches the input list; ids ascend even when inputs
// and logic nodes are created interleaved.
TEST(Network, InputIndexOnInterleavedInputs) {
  Network net("interleaved");
  std::vector<NodeId> ins;
  std::vector<NodeId> logic;
  for (int i = 0; i < 9; ++i) {
    ins.push_back(net.AddInput(IndexedName("i", i)));
    logic.push_back(
        net.AddNode({ins.back()}, Sop(1, {Cube::Literal(0, false)})));
    if (i % 3 == 0) {
      logic.push_back(
          net.AddNode({ins.back()}, Sop(1, {Cube::Literal(0, true)})));
    }
  }
  for (std::size_t i = 0; i < ins.size(); ++i) {
    EXPECT_EQ(net.InputIndex(ins[i]), static_cast<int>(i));
  }
  for (NodeId id : logic) EXPECT_EQ(net.InputIndex(id), -1);
  EXPECT_EQ(net.InputIndex(static_cast<NodeId>(net.NumNodes())), -1);
  EXPECT_EQ(net.InputIndex(kInvalidNode), -1);
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

// The structural table merges a node only with one of the same function on
// the same fanins: hundreds of AND2s over distinct input pairs all survive,
// however the table buckets them.
TEST(Sweep, KeepsSameFunctionOnDistinctFaninsApart) {
  Network net("pairs");
  std::vector<NodeId> in;
  for (int i = 0; i < 24; ++i) in.push_back(net.AddInput(IndexedName("i", i)));
  std::size_t ands = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (std::size_t j = i + 1; j < in.size(); ++j) {
      const NodeId g = AddAnd(net, {in[i], in[j]}, IndexedName("g", ands));
      net.AddOutput(IndexedName("o", ands++), g);
    }
  }
  const SweepResult r = Sweep(net);
  EXPECT_EQ(r.removed_nodes, 0u);
  EXPECT_EQ(r.network.NumLogicNodes(), ands);
  EXPECT_EQ(FirstMismatchingOutput(net, r.network), -1);
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

// Digest of everything DecomposeToAndInv promises: per node, in order, its
// kind, name, fanins and cube list; then the outputs and node_map. Unlike
// HashNetwork this covers node names and order.
std::uint64_t SubjectGraphDigest(const DecomposeResult& d) {
  const Network& net = d.network;
  Hasher h;
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    h.Add(static_cast<std::uint64_t>(net.kind(id)));
    h.AddBytes(net.node_name(id));
    h.Add(net.fanins(id).size());
    for (NodeId f : net.fanins(id)) h.Add(f);
    if (net.kind(id) != NodeKind::kLogic) continue;
    const Sop& f = net.function(id);
    h.Add(static_cast<std::uint64_t>(f.num_vars()));
    h.Add(f.NumCubes());
    for (const Cube& c : f.cubes()) {
      h.Add((static_cast<std::uint64_t>(c.pos()) << 32) | c.neg());
    }
  }
  for (const auto& o : net.outputs()) {
    h.AddBytes(o.name);
    h.Add(o.driver);
  }
  for (NodeId n : d.node_map) h.Add(n);
  return h.Digest();
}

// Pins the exact subject graph (node order, n<k> names, fanins, covers,
// outputs, node_map) of the Table-2 and Table-1 TI networks, their masking
// networks, and random networks with narrow (memoized complement), wide
// (direct complement) and over-wide (no complement) nodes.
TEST(Decompose, SubjectGraphsMatchThePins) {
  const std::vector<Network> nets = PinnedSubjectSources();
  const std::uint64_t pins[] = {
      0x08d1f1471219b8c5ull,  // i1
      0xdfd0c89893437340ull,  // cmb
      0xae306bcebb9e585bull,  // x2
      0xa8a9a7c8026af7a0ull,  // cu
      0xe1e704bd7e17d83dull,  // too_large
      0x0aa1915b8e583015ull,  // k2
      0xfe0d3c26b1c39b3aull,  // alu2
      0x9312dcb8c878ffc7ull,  // alu4
      0x3445bc262ae02a0cull,  // apex4
      0x4b6b4f54c08c28a8ull,  // apex6
      0xfc988c903ca4dc4cull,  // frg1
      0xc6d98db2da155b60ull,  // C432
      0xbf5f180d6598dc84ull,  // C880
      0x090880fc4d235212ull,  // C2670
      0x14ad5c27b15fab79ull,  // sparc_ifu_dec
      0xad550c01ccba36a3ull,  // sparc_ifu_invctl
      0x96b9a77385e63aa7ull,  // sparc_ifu_ifqdp
      0xeec38249fddd852full,  // sparc_ifu_dcl
      0x55d408f042d8d4bbull,  // lsu_stb_ctl
      0x2911878fee0d7a03ull,  // sparc_exu_ecl
      0x20add22912d0400cull,  // C432
      0x090880fc4d235212ull,  // C2670
      0x14ad5c27b15fab79ull,  // sparc_ifu_dec
      0xd353b35ce09178dfull,  // sparc_ifu_invctl
      0x55d408f042d8d4bbull,  // lsu_stb_ctl
      0x2dc89047a7bb6f7eull,  // i1_mask
      0xe87228937b85a74full,  // cmb_mask
      0x6c4bccaa762b33fbull,  // x2_mask
      0xd5b15f91395cb777ull,  // cu_mask
      0x11a52fc69b8b5157ull,  // too_large_mask
      0x66c84d5273a5cb12ull,  // k2_mask
      0x24bebb563f0926baull,  // alu2_mask
      0x005744d760b4ee49ull,  // alu4_mask
      0x9d4198c16205df28ull,  // apex4_mask
      0xe9885c0d47a74b78ull,  // apex6_mask
      0x6a96b7b87379b601ull,  // frg1_mask
      0x0ff45c04e481b84dull,  // C432_mask
      0xb6e986d398c69deeull,  // C880_mask
      0x46bae8809239308eull,  // C2670_mask
      0xc2555a3c841898cfull,  // sparc_ifu_dec_mask
      0xc203692a4d17403eull,  // sparc_ifu_invctl_mask
      0x2460ca1d279cb24eull,  // sparc_ifu_ifqdp_mask
      0x81c04218eeb06087ull,  // sparc_ifu_dcl_mask
      0x7913c390a234784dull,  // lsu_stb_ctl_mask
      0x57c35eb1ce2eb7d3ull,  // sparc_exu_ecl_mask
      0x6ab54f74d611ecfeull,  // C432_mask
      0x46bae8809239308eull,  // C2670_mask
      0xc2555a3c841898cfull,  // sparc_ifu_dec_mask
      0x69a87d5e768aff1eull,  // sparc_ifu_invctl_mask
      0x7913c390a234784dull,  // lsu_stb_ctl_mask
      0xc29b8474f691f239ull,  // wide100
      0xeab00d3787ab5e37ull,  // wide101
      0x065fb7b6f6a04c06ull,  // wide700
      0xa22cf1575969a366ull,  // wide701
      0x5bd903ac9abeb48bull,  // wide2100
      0xc074a10986c5e2dfull,  // wide2101
  };
  ASSERT_EQ(nets.size(), std::size(pins));
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::uint64_t digest = SubjectGraphDigest(DecomposeToAndInv(nets[i]));
    EXPECT_EQ(digest, pins[i]) << "network " << i << " (" << nets[i].name()
                               << "): 0x" << std::hex << digest;
  }
}

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
