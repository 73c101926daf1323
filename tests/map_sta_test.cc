#include <gtest/gtest.h>

#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "map/mapped_netlist.h"
#include "map/netlist_io.h"
#include "map/tech_map.h"
#include "network/decompose.h"
#include "network/global_bdd.h"
#include "network/structural.h"
#include "sta/paths.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

// The paper's Fig. 2(a) 2-bit comparator, built gate-for-gate:
//   y = a1·b1' + (a0 + b0')·(a1 + b1')
// Unit delay model: inverters 1, two-input gates 2. Critical delay Δ = 7.
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
  net.CheckInvariants();
  return net;
}

TEST(MappedNetlist, BasicAccountingOnComparator) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  EXPECT_EQ(net.NumInputs(), 4u);
  EXPECT_EQ(net.NumGates(), 7u);
  EXPECT_EQ(net.NumLogicGates(), 7u);
  EXPECT_EQ(net.NumOutputs(), 1u);
  EXPECT_GT(net.TotalArea(), 0);
  EXPECT_EQ(net.FindByName("g4"), 9u);
  EXPECT_EQ(net.InputIndex(net.FindByName("b0")), 2);
  EXPECT_EQ(net.InputIndex(net.FindByName("g1")), -1);
}

TEST(MappedNetlist, EvalParallelMatchesComparatorSemantics) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  // Drive all 16 input combinations in one 64-bit word batch.
  std::vector<std::uint64_t> words(4, 0);
  for (std::uint64_t m = 0; m < 16; ++m) {
    for (int v = 0; v < 4; ++v) {
      if ((m >> v) & 1) words[static_cast<std::size_t>(v)] |= 1ull << m;
    }
  }
  const auto values = net.EvalParallel(words);
  const std::uint64_t y = values[net.output(0).driver];
  for (std::uint64_t m = 0; m < 16; ++m) {
    const unsigned a = static_cast<unsigned>((m & 1) | ((m >> 1) & 1) << 1);
    const unsigned b =
        static_cast<unsigned>(((m >> 2) & 1) | ((m >> 3) & 1) << 1);
    EXPECT_EQ((y >> m) & 1, (a >= b) ? 1u : 0u) << "a=" << a << " b=" << b;
  }
}

TEST(MappedNetlist, RejectsMalformedConstruction) {
  const Library lib = UnitLibrary();
  MappedNetlist net("bad");
  const GateId a = net.AddInput("a");
  EXPECT_THROW(net.AddGate(lib.ByNameOrThrow("AND2"), {a}, "g"),
               std::invalid_argument);  // pin count
  EXPECT_THROW(net.AddGate(nullptr, {}, "g"), std::invalid_argument);
  EXPECT_THROW(net.AddInput("a"), std::invalid_argument);  // dup name
  EXPECT_THROW(net.AddOutput("y", 99), std::invalid_argument);
}

// -------------------------------------------------------------------- STA

TEST(Sta, ComparatorArrivalsMatchHandCalculation) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_DOUBLE_EQ(t.critical_delay, 7.0);
  EXPECT_DOUBLE_EQ(t.clock, 7.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("nb1")], 1.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("g1")], 3.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("g2")], 3.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("g4")], 5.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("y")], 7.0);
  // Min arrivals: g2 can settle via a0 after 2.
  EXPECT_DOUBLE_EQ(t.min_arrival[net.FindByName("g2")], 2.0);
  EXPECT_DOUBLE_EQ(t.min_arrival[net.FindByName("y")], 4.0);
  // Slacks: y zero, g1 has slack 2 (required 5, arrival 3).
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("y")), 0.0);
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("g1")), 2.0);
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("g4")), 0.0);
}

TEST(Sta, CriticalOutputsUnderGuardBand) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_EQ(CriticalOutputs(net, t, 0.1).size(), 1u);
  // With an enormous guard band everything is critical; with zero, only
  // paths strictly beyond the clock (none) would be.
  EXPECT_EQ(CriticalOutputs(net, t, 0.9).size(), 1u);
  EXPECT_TRUE(CriticalOutputs(net, t, 0.0).empty());
}

TEST(Sta, ExplicitClockChangesSlackNotArrival) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net, 10.0);
  EXPECT_DOUBLE_EQ(t.critical_delay, 7.0);
  EXPECT_DOUBLE_EQ(t.clock, 10.0);
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("y")), 3.0);
}

TEST(Paths, WorstPathIsSevenUnits) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  const TimingPath p = WorstPath(net, t);
  EXPECT_DOUBLE_EQ(p.delay, 7.0);
  // PI, INV, OR, AND, OR — five elements.
  EXPECT_EQ(p.elements.size(), 5u);
  EXPECT_TRUE(net.IsInput(p.elements.front()));
  EXPECT_EQ(p.elements.back(), net.output(0).driver);
}

TEST(Paths, ExactlyTwoSpeedPathsWithinTenPercent) {
  // The paper highlights exactly two speed-paths within 10% of Δ = 7.
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  const auto paths = EnumerateSpeedPaths(net, t, 0.9 * 7.0);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].delay, 7.0);
  EXPECT_DOUBLE_EQ(paths[1].delay, 7.0);
  // Both start at the b inputs and run through g4.
  for (const auto& p : paths) {
    const std::string& start = net.element(p.elements.front()).name;
    EXPECT_TRUE(start == "b0" || start == "b1") << start;
  }
  EXPECT_EQ(CountSpeedPaths(net, t, 0.9 * 7.0), 2u);
  // Lowering the threshold below 6 units picks up the two 6-delay paths.
  EXPECT_EQ(CountSpeedPaths(net, t, 5.9), 4u);
  // Everything: 6 PI->PO paths total in this circuit (a1/b1 through g1,
  // a0/b0 through g2, a1/b1 through g3).
  EXPECT_EQ(CountSpeedPaths(net, t, 0.0), 6u);
}

TEST(Paths, EnumerationLimitSaturates) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_EQ(EnumerateSpeedPaths(net, t, 0.0, 3).size(), 3u);
  EXPECT_EQ(CountSpeedPaths(net, t, 0.0, 5), 5u);
}

// ----------------------------------------------------------------- Mapper

Network RandomNetwork(std::uint64_t seed, int num_inputs, int num_nodes) {
  Rng rng(seed);
  Network net(IndexedName("rand", seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(net.AddInput(IndexedName("i", i)));
  }
  for (int g = 0; g < num_nodes; ++g) {
    const int k = static_cast<int>(rng.Range(1, 4));
    std::vector<NodeId> fanins;
    for (int i = 0; i < k; ++i) fanins.push_back(pool[rng.Below(pool.size())]);
    TruthTable tt(k);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
      tt.Set(m, rng.Chance(0.5));
    }
    if (tt.IsConst0() || tt.IsConst1()) continue;
    pool.push_back(net.AddNode(fanins, Sop::FromTruthTable(tt)));
  }
  const int outs = std::min<int>(4, static_cast<int>(pool.size()));
  for (int o = 0; o < outs; ++o) {
    net.AddOutput(IndexedName("o", o),
                  pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  return net;
}

// Functional equivalence between a network and its mapped netlist, by BDD.
void ExpectMappedEquivalent(const Network& net, const MappedNetlist& mapped) {
  ASSERT_EQ(net.NumInputs(), mapped.NumInputs());
  ASSERT_EQ(net.NumOutputs(), mapped.NumOutputs());
  BddManager mgr(static_cast<int>(net.NumInputs()));
  std::vector<NodeId> roots_n;
  for (const auto& o : net.outputs()) roots_n.push_back(o.driver);
  std::vector<GateId> roots_m;
  for (const auto& o : mapped.outputs()) roots_m.push_back(o.driver);
  const auto gn = BuildGlobalBdds(mgr, net, roots_n);
  const auto gm = BuildMappedGlobalBdds(mgr, mapped, roots_m);
  for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
    EXPECT_EQ(gn[net.output(i).driver], gm[mapped.output(i).driver])
        << "output " << i << " mismatches after mapping";
  }
}

class TechMapRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TechMapRandomTest, AreaModePreservesFunction) {
  const Network net = RandomNetwork(7000 + GetParam(), 6, 20);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  ExpectMappedEquivalent(net, r.netlist);
}

TEST_P(TechMapRandomTest, DelayModePreservesFunctionAndIsNoSlower) {
  const Network net = RandomNetwork(8000 + GetParam(), 6, 20);
  const Library lib = Lsi10kLike();
  TechMapOptions area_opts;
  TechMapOptions delay_opts;
  delay_opts.mode = TechMapOptions::Mode::kDelay;
  const TechMapResult ra = DecomposeAndMap(net, lib, area_opts);
  const TechMapResult rd = DecomposeAndMap(net, lib, delay_opts);
  ExpectMappedEquivalent(net, rd.netlist);
  const double da = AnalyzeTiming(ra.netlist).critical_delay;
  const double dd = AnalyzeTiming(rd.netlist).critical_delay;
  EXPECT_LE(dd, da + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TechMapRandomTest, ::testing::Range(0, 10));

TEST(TechMap, MapsComparatorNetworkEquivalently) {
  // Tech-independent comparator; mapping must preserve the function.
  Network net("cmp2_ti");
  const NodeId a0 = net.AddInput("a0");
  const NodeId a1 = net.AddInput("a1");
  const NodeId b0 = net.AddInput("b0");
  const NodeId b1 = net.AddInput("b1");
  const NodeId nb1 = AddNot(net, b1, "nb1");
  const NodeId nb0 = AddNot(net, b0, "nb0");
  const NodeId g1 = AddAnd(net, {a1, nb1}, "g1");
  const NodeId g2 = AddOr(net, {a0, nb0}, "g2");
  const NodeId g3 = AddOr(net, {a1, nb1}, "g3");
  const NodeId g4 = AddAnd(net, {g2, g3}, "g4");
  const NodeId y = AddOr(net, {g1, g4}, "y");
  net.AddOutput("y", y);
  const Library lib = Lsi10kLike();  // must outlive the mapped netlist
  const TechMapResult r = DecomposeAndMap(net, lib);
  ExpectMappedEquivalent(net, r.netlist);
  EXPECT_GT(r.netlist.NumGates(), 0u);
}

TEST(TechMap, UsesComplexCellsToSaveArea) {
  // f = ~((a & b) | c) is exactly AOI21; area mode should not expand it to
  // three simple gates (AOI21 area 3 < INV+AND2+OR2 = 7).
  Network net("aoi");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId c = net.AddInput("c");
  const NodeId g = AddAnd(net, {a, b}, "g");
  const NodeId o = AddOr(net, {g, c}, "o");
  const NodeId y = AddNot(net, o, "y");
  net.AddOutput("y", y);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  EXPECT_EQ(r.netlist.NumGates(), 1u);
  EXPECT_EQ(r.netlist.cell(r.netlist.output(0).driver).name(), "AOI21");
}

TEST(TechMap, ConstantsMapToTieCells) {
  Network net("tie");
  net.AddInput("a");
  const NodeId one = net.AddNode({}, Sop::Const1(0), "one");
  net.AddOutput("y", one);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  EXPECT_TRUE(r.netlist.cell(r.netlist.output(0).driver).IsConstant());
  EXPECT_TRUE(r.netlist.cell(r.netlist.output(0).driver).function().Get(0));
}

TEST(TechMap, OutputDrivenByInput) {
  Network net("wire");
  const NodeId a = net.AddInput("a");
  net.AddOutput("y", a);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  EXPECT_TRUE(r.netlist.IsInput(r.netlist.output(0).driver));
}

TEST(TechMap, RejectsNonSubjectGraph) {
  Network net("bad");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId x = AddXor2(net, a, b, "x");
  net.AddOutput("y", x);
  EXPECT_THROW(TechMap(net, Lsi10kLike()), std::invalid_argument);
  EXPECT_NO_THROW(DecomposeAndMap(net, Lsi10kLike()));
}

TEST(TechMap, MapsSubjectGraphBufferAsBuffer) {
  // IsAndInvNetwork admits 1-input buffers beside inverters; the mapper must
  // take each 1-input node's polarity from its SOP.
  Network net("buf");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const TruthTable x = TruthTable::Var(0, 1);
  const NodeId buf = net.AddNode({a}, Sop::FromTruthTable(x), "buf");
  const NodeId nb = net.AddNode({b}, Sop::FromTruthTable(~x), "nb");
  const NodeId g = net.AddNode(
      {buf, nb},
      Sop::FromTruthTable(TruthTable::Var(0, 2) & TruthTable::Var(1, 2)), "g");
  net.AddOutput("y", buf);
  net.AddOutput("z", g);
  ASSERT_TRUE(IsAndInvNetwork(net));
  const Library lib = Lsi10kLike();
  for (const auto mode :
       {TechMapOptions::Mode::kArea, TechMapOptions::Mode::kDelay}) {
    TechMapOptions opts;
    opts.mode = mode;
    ExpectMappedEquivalent(net, TechMap(net, lib, opts).netlist);
  }
}

// Differential oracle for the mapper's inner loop: the mapped BLIF of every
// Table-2 circuit, in area and in delay mode, must keep the digest it had
// under the string-keyed, vector-cut mapper that the allocation-free one
// replaced.
TEST(TechMap, Table2NetlistsMatchGoldenDigests) {
  struct Golden {
    const char* name;
    std::uint64_t area;
    std::uint64_t delay;
  };
  const Golden golden[] = {
      {"i1", 0x0928f6096685e34aull, 0xb30c3d17fb5e6a83ull},
      {"cmb", 0xab42fcf6c3d0acc6ull, 0x487abc5b227652ceull},
      {"x2", 0x1dacdec23d2ccd30ull, 0xe7e91c6410735ab5ull},
      {"cu", 0x316063305535dd28ull, 0xf3215cb725f210f4ull},
      {"too_large", 0xe06b3266b5465a7aull, 0xf0efe315bb0c816cull},
      {"k2", 0xb83b8942eea99bcaull, 0x0342b0ebeae5c234ull},
      {"alu2", 0x1a4968bf70fc2bb6ull, 0xe8b6a19524ef9504ull},
      {"alu4", 0x936c43eff5a8412bull, 0xcd12e2440daa01b6ull},
      {"apex4", 0x4d62897593bddc7dull, 0x6c5a21c910be05f3ull},
      {"apex6", 0xe234d81231d1b4c5ull, 0x161734a0f1b83e25ull},
      {"frg1", 0xde591cdd1f7ecb1cull, 0x8f5cc4019a3d7447ull},
      {"C432", 0x5cead37f487591b7ull, 0x2abdef6afaf4c129ull},
      {"C880", 0x5460424b0a86f8d7ull, 0xc025ea52ce57d70bull},
      {"C2670", 0x7265421b9d15ee5dull, 0x293fd5961558111aull},
      {"sparc_ifu_dec", 0x1640594630f69eafull, 0xb5590b9558bfc96eull},
      {"sparc_ifu_invctl", 0x6abf378e13dc98ddull, 0x889839ce2ffafffaull},
      {"sparc_ifu_ifqdp", 0xd223dd16a65e7f69ull, 0x8dfd4ca7a5cd91deull},
      {"sparc_ifu_dcl", 0xe17d6b2ed7c55776ull, 0xa9652376fbd22ebcull},
      {"lsu_stb_ctl", 0x2b6d76bff44dd8fdull, 0xe682997228fb9c56ull},
      {"sparc_exu_ecl", 0xc1032873da75c5faull, 0x2e62ea6d5031dfc6ull},
  };
  const std::vector<PaperCircuitInfo> infos = Table2Circuits();
  const std::vector<Network> nets = GenerateCircuits(infos, 1);
  ASSERT_EQ(nets.size(), std::size(golden));
  const Library lib = Lsi10kLike();
  TechMapOptions delay_opts;
  delay_opts.mode = TechMapOptions::Mode::kDelay;
  auto digest = [&](const Network& net, const TechMapOptions& opts) {
    Hasher h;
    h.AddBytes(WriteMappedBlifString(DecomposeAndMap(net, lib, opts).netlist));
    return h.Digest();
  };
  for (std::size_t i = 0; i < nets.size(); ++i) {
    ASSERT_EQ(infos[i].spec.name, golden[i].name);
    EXPECT_EQ(digest(nets[i], TechMapOptions{}), golden[i].area)
        << golden[i].name << " (area mode)";
    EXPECT_EQ(digest(nets[i], delay_opts), golden[i].delay)
        << golden[i].name << " (delay mode)";
  }
}

}  // namespace
}  // namespace sm
