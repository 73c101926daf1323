#include <gtest/gtest.h>

#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "masking/body_bias.h"
#include "suite/paper_suite.h"
#include "suite/structured.h"
#include "util/strings.h"

namespace sm {
namespace {

TEST(BodyBias, SpeedsUpTheComparatorCriticalPath) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const TimingInfo timing = AnalyzeTiming(net);
  BodyBiasOptions options;
  options.biased_delay_factor = 0.5;
  options.max_gate_fraction = 0.3;  // up to 2 of 7 gates
  options.target_delay_fraction = 0.8;
  const BodyBiasPlan plan = PlanBodyBias(net, timing, options);
  EXPECT_DOUBLE_EQ(plan.delay_before, 7.0);
  EXPECT_LT(plan.delay_after, 7.0);
  EXPECT_FALSE(plan.biased.empty());
  EXPECT_LE(plan.biased.size(), 2u);
  EXPECT_GT(plan.leakage_cost, 0.0);
  // Biased gates carry the scale; everything else stays at 1.
  for (GateId id = 0; id < net.NumElements(); ++id) {
    const bool biased = std::find(plan.biased.begin(), plan.biased.end(),
                                  id) != plan.biased.end();
    EXPECT_DOUBLE_EQ(plan.delay_scale[id], biased ? 0.5 : 1.0);
  }
}

TEST(BodyBias, ShrinksTheExactSpcf) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const TimingInfo timing = AnalyzeTiming(net);
  BddManager mgr(4);
  BodyBiasOptions options;
  options.biased_delay_factor = 0.5;
  options.max_gate_fraction = 0.2;
  options.target_delay_fraction = 0.85;
  BodyBiasPlan plan = PlanBodyBias(net, timing, options);
  plan = EvaluateBodyBias(mgr, net, timing, plan);
  // Before: Σ(6.3) covers 10/16 of the space.
  EXPECT_DOUBLE_EQ(plan.sigma_fraction_before, 10.0 / 16.0);
  EXPECT_LT(plan.sigma_fraction_after, plan.sigma_fraction_before);
}

TEST(BodyBias, RespectsGateBudget) {
  const Library lib = Lsi10kLike();
  const Network ti = GenerateCircuit(PaperCircuitByName("C432").spec);
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  const TimingInfo timing = AnalyzeTiming(mapped.netlist);
  BodyBiasOptions options;
  options.max_gate_fraction = 0.05;
  options.target_delay_fraction = 0.5;  // unreachable: budget binds
  const BodyBiasPlan plan = PlanBodyBias(mapped.netlist, timing, options);
  EXPECT_LE(plan.biased.size(),
            std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       0.05 * static_cast<double>(mapped.netlist.NumGates()))));
  EXPECT_LT(plan.delay_after, plan.delay_before);
}

TEST(BodyBias, ScaledStaMatchesManualExpectation) {
  // One inverter chain: halving one gate's delay shortens Δ by exactly that
  // gate's half-delay.
  const Library lib = UnitLibrary();
  MappedNetlist net("chain");
  GateId x = net.AddInput("a");
  const Cell* inv = lib.ByNameOrThrow("INV");
  for (int i = 0; i < 4; ++i) {
    x = net.AddGate(inv, {x}, IndexedName("i", i));
  }
  net.AddOutput("y", x);
  std::vector<double> scale(net.NumElements(), 1.0);
  scale[net.FindByName("i2")] = 0.5;
  const TimingInfo t = AnalyzeTiming(net, -1, &scale);
  EXPECT_DOUBLE_EQ(t.critical_delay, 3.5);
  EXPECT_THROW(
      [&] {
        std::vector<double> bad(2, 1.0);
        AnalyzeTiming(net, -1, &bad);
      }(),
      std::invalid_argument);
}

TEST(BodyBias, ValidatesOptions) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const TimingInfo timing = AnalyzeTiming(net);
  BodyBiasOptions bad;
  bad.biased_delay_factor = 1.5;
  EXPECT_THROW(PlanBodyBias(net, timing, bad), std::invalid_argument);
  bad.biased_delay_factor = 0.8;
  bad.target_delay_fraction = 0.0;
  EXPECT_THROW(PlanBodyBias(net, timing, bad), std::invalid_argument);
}

}  // namespace
}  // namespace sm
