#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_runner.h"
#include "harness/flow.h"
#include "harness/table.h"
#include "liblib/lsi10k.h"
#include "suite/paper_suite.h"
#include "suite/structured.h"

namespace sm {
namespace {

TEST(Table, FormatsAlignedRows) {
  std::ostringstream out;
  TablePrinter table(out, {{"Name", 8}, {"Value", 6}});
  table.PrintHeader();
  table.PrintRow({"alpha", "1"});
  table.PrintRow({"b", "23"});
  const std::string text = out.str();
  EXPECT_NE(text.find("    Name   Value"), std::string::npos);
  EXPECT_NE(text.find("   alpha       1"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRows) {
  std::ostringstream out;
  TablePrinter table(out, {{"A", 4}});
  EXPECT_THROW(table.PrintRow({"x", "y"}), std::invalid_argument);
  EXPECT_THROW(TablePrinter(out, {}), std::invalid_argument);
}

TEST(Flow, AdderEndToEnd) {
  const Network ti = RippleCarryAdderNetwork(6);
  const Library lib = Lsi10kLike();
  const FlowResult r = RunMaskingFlow(ti, lib);
  EXPECT_TRUE(r.verification.safety);
  EXPECT_TRUE(r.verification.coverage);
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
  // The adder's carry chain ends at cout/high sum bits: speed-paths exist.
  EXPECT_FALSE(r.spcf.critical_outputs.empty());
  // Kernel work counters are surfaced through both result layers.
  EXPECT_GT(r.spcf.bdd.ite_recursions, 0u);
  EXPECT_GT(r.bdd.num_nodes, 1u);
  EXPECT_GE(r.bdd.ite_recursions, r.spcf.bdd.ite_recursions);
}

TEST(Flow, MiniAluEndToEnd) {
  const Network ti = MiniAluNetwork(4);
  const Library lib = Lsi10kLike();
  const FlowResult r = RunMaskingFlow(ti, lib);
  EXPECT_TRUE(r.verification.ok());
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
}

TEST(Flow, PremappedVariantAgreesWithInternalMapping) {
  const Network ti = Comparator2Network();
  const Library lib = UnitLibrary();
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  const FlowResult a = RunMaskingFlow(ti, lib);
  const FlowResult b = RunMaskingFlowPremapped(mapped.netlist, ti, lib);
  EXPECT_TRUE(b.verification.ok());
  EXPECT_EQ(a.spcf.critical_outputs.size(), b.spcf.critical_outputs.size());
  EXPECT_TRUE(VerifyProtectedEquivalence(b.original, b.protected_circuit));
}

TEST(Flow, PremappedRejectsInterfaceMismatch) {
  const Library lib = UnitLibrary();
  const MappedNetlist mapped = Comparator2Mapped(lib);
  const Network wrong = RippleComparatorNetwork(4);
  EXPECT_THROW(RunMaskingFlowPremapped(mapped, wrong, lib),
               std::invalid_argument);
}

TEST(Flow, OverheadReportFieldsPopulated) {
  const Network ti = RippleComparatorNetwork(6);
  const Library lib = Lsi10kLike();
  const FlowResult r = RunMaskingFlow(ti, lib);
  const OverheadReport& o = r.overheads;
  EXPECT_EQ(o.circuit, ti.name());
  EXPECT_EQ(o.num_inputs, ti.NumInputs());
  EXPECT_EQ(o.num_outputs, ti.NumOutputs());
  EXPECT_GT(o.num_gates, 0u);
  EXPECT_EQ(o.critical_outputs, r.protected_circuit.taps.size());
  EXPECT_GE(o.area_percent, 0.0);
  EXPECT_TRUE(o.safety);
  EXPECT_TRUE(o.coverage_100);
  // log2 count is consistent with the plain count when both fit.
  if (o.critical_minterms > 0) {
    EXPECT_NEAR(std::log2(o.critical_minterms), o.log2_critical_minterms,
                1e-6);
  }
}

TEST(Flow, BddNodeLimitSurfacesAsTypedError) {
  const Network ti = RippleComparatorNetwork(10);
  const Library lib = Lsi10kLike();
  FlowOptions options;
  options.bdd_node_limit = 256;  // absurdly small
  EXPECT_THROW(RunMaskingFlow(ti, lib, options), BddOverflowError);
}

TEST(BenchRunner, ParsesFlags) {
  const char* argv[] = {"bench", "--threads=8", "--json=out.json", "--smoke"};
  const BenchOptions o = ParseBenchArgs(4, const_cast<char**>(argv));
  EXPECT_EQ(o.threads, 8);
  EXPECT_EQ(o.json_path, "out.json");
  EXPECT_TRUE(o.smoke);

  const char* none[] = {"bench"};
  const BenchOptions d = ParseBenchArgs(1, const_cast<char**>(none));
  EXPECT_EQ(d.threads, 1);
  EXPECT_TRUE(d.json_path.empty());
  EXPECT_FALSE(d.smoke);
}

TEST(BenchRunner, RejectsMalformedFlags) {
  auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    return ParseBenchArgs(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()));
  };
  EXPECT_THROW(parse({"--threads=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads="}), std::invalid_argument);
  EXPECT_THROW(parse({"--json="}), std::invalid_argument);
  EXPECT_THROW(parse({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(parse({"--no-batch"}), std::invalid_argument);
  EXPECT_THROW(parse({"extra"}), std::invalid_argument);
}

TEST(BenchRunner, ThreadCountIsBoundedToOneThrough1024) {
  EXPECT_EQ(ParseThreadCount("8"), 8);
  EXPECT_EQ(ParseThreadCount("1"), 1);
  EXPECT_EQ(ParseThreadCount("1024"), 1024);
  EXPECT_THROW(ParseThreadCount("0"), std::invalid_argument);
  EXPECT_THROW(ParseThreadCount("1025"), std::invalid_argument);
  EXPECT_THROW(ParseThreadCount("2x"), std::invalid_argument);
  EXPECT_THROW(ParseThreadCount(""), std::invalid_argument);
}

TEST(BenchRunner, ParallelRowsDeterministicAcrossThreadCounts) {
  // Each row does real BDD work in its own manager; the result vectors must
  // be identical (bit-exact doubles included) at any thread count.
  struct RowResult {
    double sat_fraction = 0;
    std::size_t ops = 0;
    std::size_t nodes = 0;
    bool operator==(const RowResult& o) const {
      return sat_fraction == o.sat_fraction && ops == o.ops &&
             nodes == o.nodes;
    }
  };
  const auto row = [](std::size_t i) {
    const int n = static_cast<int>(i % 5) + 4;
    BddManager mgr(n);
    BddManager::Ref f = mgr.False();
    for (int v = 0; v < n; ++v) {
      f = mgr.Xor(f, mgr.And(mgr.Var(v), mgr.Var((v + 1) % n)));
    }
    const BddStats s = mgr.Stats();
    return RowResult{mgr.SatFraction(f), s.ite_recursions, s.num_nodes};
  };
  const std::vector<RowResult> serial = ParallelRows(16, 1, row);
  const std::vector<RowResult> parallel = ParallelRows(16, 8, row);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(serial == parallel);
}

TEST(BenchRunner, ParallelRowsRethrowsFirstFailure) {
  EXPECT_THROW(ParallelRows(8, 4,
                            [](std::size_t i) -> int {
                              if (i >= 5) throw std::runtime_error("boom");
                              return static_cast<int>(i);
                            }),
               std::runtime_error);
}

TEST(BenchRunner, GenerateCircuitsDeterministicAcrossThreadCounts) {
  const std::vector<PaperCircuitInfo> infos = Table2SmokeCircuits();
  const std::vector<Network> serial = GenerateCircuits(infos, 1);
  const std::vector<Network> parallel = GenerateCircuits(infos, 4);
  ASSERT_EQ(serial.size(), infos.size());
  ASSERT_EQ(parallel.size(), infos.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(serial[i].name(), parallel[i].name());
    EXPECT_EQ(serial[i].NumNodes(), parallel[i].NumNodes());
    EXPECT_EQ(serial[i].NumInputs(), parallel[i].NumInputs());
    EXPECT_EQ(serial[i].NumOutputs(), parallel[i].NumOutputs());
  }
}

}  // namespace
}  // namespace sm
