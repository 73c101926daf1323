#include <gtest/gtest.h>

#include "boolean/isop.h"
#include "harness/flow.h"
#include "liblib/lsi10k.h"
#include "masking/care_set.h"
#include "masking/indicator.h"
#include "network/global_bdd.h"
#include "network/structural.h"
#include "sim/event_sim.h"
#include "sta/paths.h"
#include "suite/structured.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

// Technology-independent 2-bit comparator as a single two-level node
// (the form used in the paper's Sec. 4.2 walk-through).
Network FlatComparator() {
  Network net("cmp2_flat");
  const NodeId a0 = net.AddInput("a0");
  const NodeId a1 = net.AddInput("a1");
  const NodeId b0 = net.AddInput("b0");
  const NodeId b1 = net.AddInput("b1");
  TruthTable tt(4);  // vars: a0,a1,b0,b1
  for (std::uint32_t m = 0; m < 16; ++m) {
    const unsigned a = (m & 1u) | ((m >> 1) & 1u) << 1;
    const unsigned b = ((m >> 2) & 1u) | ((m >> 3) & 1u) << 1;
    tt.Set(m, a >= b);
  }
  const NodeId y =
      net.AddNode({a0, a1, b0, b1}, Sop::FromTruthTable(tt), "y");
  net.AddOutput("y", y);
  return net;
}

// Multi-level comparator matching Fig. 2(a)'s structure.
Network StructuredComparator() {
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
  return net;
}

// N-bit MSB-first ripple comparator (a >= b): per bit i (MSB down),
//   gt_i = a_i·b_i',  eq_i = a_i XNOR b_i,  res_i = gt_i + eq_i·res_{i+1},
// seeded with res = 1 (equality means >=). Deep chain — the shape on which
// the masking circuit's slack advantage is real.
Network RippleComparator(int bits) {
  Network net(IndexedName("ripple_cmp", bits));
  std::vector<NodeId> a(static_cast<std::size_t>(bits));
  std::vector<NodeId> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    a[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("a", i));
  }
  for (int i = 0; i < bits; ++i) {
    b[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("b", i));
  }
  NodeId res = net.AddNode({}, Sop::Const1(0), "res_init");
  for (int i = 0; i < bits; ++i) {  // LSB last => MSB priority via nesting
    const std::string s = std::to_string(i);
    const NodeId nb = AddNot(net, b[static_cast<std::size_t>(i)], "nb" + s);
    const NodeId gt =
        AddAnd(net, {a[static_cast<std::size_t>(i)], nb}, "gt" + s);
    const NodeId eq = AddXnor2(net, a[static_cast<std::size_t>(i)],
                               b[static_cast<std::size_t>(i)], "eq" + s);
    const NodeId keep = AddAnd(net, {eq, res}, "keep" + s);
    res = AddOr(net, {gt, keep}, "res" + s);
  }
  net.AddOutput("ge", res);
  return net;
}

// Injects the paper's Σ_y = a1' + a0'·b1 as the SPCF of output 0.
SpcfResult PaperSigma(BddManager& mgr) {
  SpcfResult spcf;
  spcf.target_arrival = 6.3;
  spcf.critical_outputs = {0};
  spcf.sigma = {mgr.Or(mgr.NotVar(1), mgr.And(mgr.NotVar(0), mgr.Var(3)))};
  spcf.sigma_union = spcf.sigma[0];
  spcf.critical_minterms = 10;
  return spcf;
}

// ------------------------------------------------------------- care sets

TEST(CareSet, EssentialWeightSelection) {
  // Node f = ab + cd over PIs; Σ = a·b — only the ab cube is essential.
  BddManager mgr(4);
  std::vector<BddManager::Ref> globals{mgr.Var(0), mgr.Var(1), mgr.Var(2),
                                       mgr.Var(3)};
  Sop cover(4, {Cube::Literal(0, true).Intersect(Cube::Literal(1, true)),
                Cube::Literal(2, true).Intersect(Cube::Literal(3, true))});
  const BddManager::Ref sigma =
      mgr.And(mgr.And(mgr.Var(0), mgr.Var(1)), mgr.Not(mgr.Var(2)));
  const ReducedCover red = ReduceCoverBySigma(mgr, cover, globals, sigma);
  ASSERT_EQ(red.cover.NumCubes(), 1u);
  EXPECT_EQ(red.cover.cubes()[0].pos(), 0b0011u);
  ASSERT_EQ(red.weights.size(), 1u);
  EXPECT_GT(red.weights[0], 0.99);  // the one cube covers all of Σ
}

TEST(CareSet, EarlierCubesAbsorbLaterOnes) {
  // Cubes a and ab: with Σ ⊆ a, the second adds nothing.
  BddManager mgr(2);
  std::vector<BddManager::Ref> globals{mgr.Var(0), mgr.Var(1)};
  Sop cover(2, {Cube::Literal(0, true),
                Cube::Literal(0, true).Intersect(Cube::Literal(1, true))});
  const ReducedCover red =
      ReduceCoverBySigma(mgr, cover, globals, mgr.Var(0), false);
  EXPECT_EQ(red.cover.NumCubes(), 1u);
  EXPECT_EQ(red.cover.cubes()[0].NumLiterals(), 1);
}

TEST(CareSet, ReducedCoverStillCoversSigmaCareMinterms) {
  Rng rng(42);
  BddManager mgr(5);
  std::vector<BddManager::Ref> globals;
  for (int v = 0; v < 5; ++v) globals.push_back(mgr.Var(v));
  for (int iter = 0; iter < 20; ++iter) {
    TruthTable f(5);
    TruthTable s(5);
    for (std::uint64_t m = 0; m < 32; ++m) {
      f.Set(m, rng.Chance(0.5));
      s.Set(m, rng.Chance(0.3));
    }
    if (f.IsConst0() || f.IsConst1()) continue;
    const Sop cover = Isop(f, TruthTable::Const0(5));
    std::vector<BddManager::Ref> dummy;  // sigma over the same 5 PIs
    const BddManager::Ref sigma = [&] {
      BddManager::Ref r = mgr.False();
      for (std::uint64_t m = 0; m < 32; ++m) {
        if (!s.Get(m)) continue;
        BddManager::Ref c = mgr.True();
        for (int v = 0; v < 5; ++v) {
          c = mgr.And(c, ((m >> v) & 1u) ? mgr.Var(v) : mgr.NotVar(v));
        }
        r = mgr.Or(r, c);
      }
      return r;
    }();
    const ReducedCover red = ReduceCoverBySigma(mgr, cover, globals, sigma);
    // Every Σ-pattern in the on-set stays covered.
    for (std::uint64_t m = 0; m < 32; ++m) {
      if (!s.Get(m) || !f.Get(m)) continue;
      EXPECT_TRUE(red.cover.EvalMinterm(static_cast<std::uint32_t>(m)))
          << "lost care minterm " << m;
    }
  }
}

TEST(CareSet, DropInessentialCubesKeepsSigmaCoverage) {
  BddManager mgr(3);
  std::vector<BddManager::Ref> globals{mgr.Var(0), mgr.Var(1), mgr.Var(2)};
  // e-cover {a, b, c}; Σ = a ∨ b: cube c is droppable.
  Sop cover(3, {Cube::Literal(0, true), Cube::Literal(1, true),
                Cube::Literal(2, true)});
  const BddManager::Ref sigma = mgr.Or(mgr.Var(0), mgr.Var(1));
  const Sop dropped = DropInessentialCubes(mgr, cover, globals, sigma);
  EXPECT_EQ(dropped.NumCubes(), 2u);
  // Result still covers Σ.
  BddManager::Ref img = mgr.False();
  for (const Cube& c : dropped.cubes()) {
    BddManager::Ref t = mgr.True();
    for (int v = 0; v < 3; ++v) {
      if (!c.HasVar(v)) continue;
      t = mgr.And(t, c.VarPhase(v) ? mgr.Var(v) : mgr.NotVar(v));
    }
    img = mgr.Or(img, t);
  }
  EXPECT_TRUE(mgr.Implies(sigma, img));
}

// ------------------------------------------------ golden Sec. 4.2 semantics

TEST(MaskingSynth, FlatComparatorSatisfiesPaperProperties) {
  const Network ti = FlatComparator();
  BddManager mgr(4);
  const auto globals = BuildGlobalBdds(mgr, ti);
  const SpcfResult spcf = PaperSigma(mgr);

  const MaskingCircuit mc =
      SynthesizeMaskingNetwork(mgr, ti, globals, spcf);
  ASSERT_EQ(mc.entries.size(), 1u);

  const MaskingVerification v = VerifyMasking(mgr, ti, globals, mc, spcf);
  EXPECT_TRUE(v.safety) << "e = 1 must imply a correct prediction";
  EXPECT_TRUE(v.coverage) << "every Σ pattern must raise e";
  EXPECT_DOUBLE_EQ(v.coverage_fraction, 1.0);

  // The indicator must not be trivially constant 1 on this example: the
  // prediction ignores don't-care patterns, so e < 1 (paper: e = a1' + b1).
  std::vector<NodeId> roots;
  for (const auto& o : mc.network.outputs()) roots.push_back(o.driver);
  const auto mg = BuildGlobalBdds(mgr, mc.network, roots);
  const auto ind =
      mg[mc.network.output(mc.entries[0].ind_output).driver];
  EXPECT_NE(ind, mgr.True());
  EXPECT_NE(ind, mgr.False());
  // The paper's walk-through (factored-form covers) lands on e = a1' + b1;
  // our ISOP covers give a different but equally valid indicator. What is
  // invariant: Σ ⟹ e, and e is no larger than necessary to stay inside the
  // correct-prediction region (checked by safety above). Sanity: e must
  // cover the paper's Σ but not the whole space.
  EXPECT_TRUE(mgr.Implies(spcf.sigma[0], ind));
  EXPECT_LT(mgr.SatCount(ind, 4), 16.0);
  EXPECT_GE(mgr.SatCount(ind, 4), 10.0);  // at least the 10 Σ minterms
}

TEST(MaskingSynth, PredictionAgreesOnSigmaOnly) {
  const Network ti = FlatComparator();
  BddManager mgr(4);
  const auto globals = BuildGlobalBdds(mgr, ti);
  const SpcfResult spcf = PaperSigma(mgr);
  const MaskingCircuit mc =
      SynthesizeMaskingNetwork(mgr, ti, globals, spcf);

  std::vector<NodeId> roots;
  for (const auto& o : mc.network.outputs()) roots.push_back(o.driver);
  const auto mg = BuildGlobalBdds(mgr, mc.network, roots);
  const auto pred =
      mg[mc.network.output(mc.entries[0].pred_output).driver];
  const auto y = globals[ti.output(0).driver];
  // On Σ the prediction is exact; globally it differs (don't cares used).
  EXPECT_EQ(mgr.And(spcf.sigma[0], mgr.Xor(pred, y)), mgr.False());
  EXPECT_NE(pred, y) << "don't-care space should have been exploited";
}

// Hand-built masking circuits exercising the verifier's failure paths: the
// synthesized circuits above always pass, so these are the only tests of
// what VerifyMasking reports when the construction is actually wrong.
TEST(MaskingVerify, SafetyViolationIsReportedWithTheFailingOutput) {
  Network ti("and2");
  const NodeId a = ti.AddInput("a");
  const NodeId b = ti.AddInput("b");
  ti.AddOutput("y", AddAnd(ti, {a, b}, "y"));
  BddManager mgr(2);
  const auto globals = BuildGlobalBdds(mgr, ti);

  // Indicator constant 1 with a constant-0 prediction: e is raised on
  // patterns where the prediction is wrong (a=b=1) — unsafe to mux.
  MaskingCircuit mc{Network("bad_mask"), {}, 0, 0, 0, 0, 0};
  const NodeId ma = mc.network.AddInput("a");
  mc.network.AddInput("b");
  const NodeId na = AddNot(mc.network, ma, "na");
  mc.network.AddOutput("pred_y", AddAnd(mc.network, {ma, na}, "pred"));
  mc.network.AddOutput("ind_y", AddOr(mc.network, {ma, na}, "ind"));
  mc.entries.push_back(MaskingCircuit::Entry{0, 0, 1});

  SpcfResult spcf;
  spcf.critical_outputs = {0};
  spcf.sigma = {mgr.Var(0)};

  const MaskingVerification v = VerifyMasking(mgr, ti, globals, mc, spcf);
  EXPECT_FALSE(v.safety);
  EXPECT_FALSE(v.ok());
  ASSERT_EQ(v.failing_outputs.size(), 1u);
  EXPECT_EQ(v.failing_outputs[0], 0u);
  // The constant-1 indicator does cover Σ, so coverage itself holds.
  EXPECT_TRUE(v.coverage);
  EXPECT_DOUBLE_EQ(v.coverage_fraction, 1.0);
}

TEST(MaskingVerify, PartialCoverageReportsTheFraction) {
  Network ti("and2");
  const NodeId a = ti.AddInput("a");
  const NodeId b = ti.AddInput("b");
  ti.AddOutput("y", AddAnd(ti, {a, b}, "y"));
  BddManager mgr(2);
  const auto globals = BuildGlobalBdds(mgr, ti);

  // Exact prediction (safety holds trivially) but the indicator only fires
  // on a ∧ b while Σ = a: half of the Σ minterms are uncovered.
  MaskingCircuit mc{Network("half_mask"), {}, 0, 0, 0, 0, 0};
  const NodeId ma = mc.network.AddInput("a");
  const NodeId mb = mc.network.AddInput("b");
  mc.network.AddOutput("pred_y", AddAnd(mc.network, {ma, mb}, "pred"));
  mc.network.AddOutput("ind_y", AddAnd(mc.network, {ma, mb}, "ind"));
  mc.entries.push_back(MaskingCircuit::Entry{0, 0, 1});

  SpcfResult spcf;
  spcf.critical_outputs = {0};
  spcf.sigma = {mgr.Var(0)};

  const MaskingVerification v = VerifyMasking(mgr, ti, globals, mc, spcf);
  EXPECT_TRUE(v.safety);
  EXPECT_FALSE(v.coverage);
  EXPECT_FALSE(v.ok());
  ASSERT_EQ(v.failing_outputs.size(), 1u);
  EXPECT_EQ(v.failing_outputs[0], 0u);
  EXPECT_DOUBLE_EQ(v.coverage_fraction, 0.5);
}

TEST(MaskingSynth, StructuredComparatorConeInduction) {
  const Network ti = StructuredComparator();
  BddManager mgr(4);
  const auto globals = BuildGlobalBdds(mgr, ti);
  const SpcfResult spcf = PaperSigma(mgr);
  const MaskingCircuit mc =
      SynthesizeMaskingNetwork(mgr, ti, globals, spcf);
  const MaskingVerification v = VerifyMasking(mgr, ti, globals, mc, spcf);
  EXPECT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.coverage_fraction, 1.0);
  EXPECT_GT(mc.cone_nodes, 0u);
  EXPECT_LE(mc.cubes_after, mc.cubes_before);
}

TEST(MaskingSynth, AblationKnobsBehave) {
  const Network ti = StructuredComparator();
  BddManager mgr(4);
  const auto globals = BuildGlobalBdds(mgr, ti);
  const SpcfResult spcf = PaperSigma(mgr);

  MaskingSynthOptions full;
  MaskingSynthOptions no_reduce;
  no_reduce.reduce_covers = false;
  MaskingSynthOptions no_simplify;
  no_simplify.simplify_indicators = false;

  const MaskingCircuit a = SynthesizeMaskingNetwork(mgr, ti, globals, spcf, full);
  const MaskingCircuit b =
      SynthesizeMaskingNetwork(mgr, ti, globals, spcf, no_reduce);
  const MaskingCircuit c =
      SynthesizeMaskingNetwork(mgr, ti, globals, spcf, no_simplify);

  EXPECT_EQ(b.cubes_after, b.cubes_before);  // reduction disabled
  EXPECT_LE(a.cubes_after, a.cubes_before);
  EXPECT_GE(c.indicator_cubes, a.indicator_cubes);
  // All variants must still verify.
  for (const MaskingCircuit* mc : {&a, &b, &c}) {
    EXPECT_TRUE(VerifyMasking(mgr, ti, globals, *mc, spcf).ok());
  }
}

// ------------------------------------------------------------ full flow

TEST(Flow, ComparatorEndToEnd) {
  const Network ti = StructuredComparator();
  const Library lib = UnitLibrary();
  const FlowResult r = RunMaskingFlow(ti, lib);

  EXPECT_TRUE(r.verification.ok());
  EXPECT_TRUE(r.overheads.coverage_100);
  EXPECT_TRUE(r.overheads.safety);
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
  EXPECT_EQ(r.protected_circuit.taps.size(), r.spcf.critical_outputs.size());
  // The 2-bit toy is as shallow as its own masking logic, so no slack is
  // claimed here (the paper's slack numbers are on deep circuits — see
  // Flow.DeepCircuitBanksSlack).
}

TEST(Flow, DeepCircuitBanksSlack) {
  const Network ti = RippleComparator(8);
  const Library lib = UnitLibrary();
  const FlowResult r = RunMaskingFlow(ti, lib);
  EXPECT_TRUE(r.verification.ok());
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
  ASSERT_FALSE(r.protected_circuit.taps.empty());
  EXPECT_GE(r.overheads.slack_percent, 20.0)
      << "the error-masking circuit must bank at least 20% slack "
         "(paper Sec. 2) — masking delay "
      << r.protected_circuit.masking_delay << " vs original "
      << r.protected_circuit.original_delay;
}

TEST(Flow, NoCriticalOutputsMeansNoHardware) {
  const Network ti = StructuredComparator();
  const Library lib = UnitLibrary();
  FlowOptions o;
  o.spcf.guard_band = 0.0;  // nothing is a speed-path
  const FlowResult r = RunMaskingFlow(ti, lib, o);
  EXPECT_TRUE(r.spcf.critical_outputs.empty());
  EXPECT_TRUE(r.protected_circuit.taps.empty());
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
  EXPECT_DOUBLE_EQ(r.overheads.area_percent, 0.0);
}

class FlowRandomTest : public ::testing::TestWithParam<int> {};

Network RandomNetwork(std::uint64_t seed) {
  Rng rng(seed);
  Network net(IndexedName("rand", seed));
  std::vector<NodeId> pool;
  const int ni = 4 + static_cast<int>(rng.Below(5));
  for (int i = 0; i < ni; ++i) {
    pool.push_back(net.AddInput(IndexedName("i", i)));
  }
  const int nodes = 12 + static_cast<int>(rng.Below(18));
  for (int g = 0; g < nodes; ++g) {
    const int kk = static_cast<int>(rng.Range(2, 4));
    std::vector<NodeId> fanins;
    for (int i = 0; i < kk; ++i) fanins.push_back(pool[rng.Below(pool.size())]);
    TruthTable tt(kk);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
      tt.Set(m, rng.Chance(0.5));
    }
    if (tt.IsConst0() || tt.IsConst1()) continue;
    pool.push_back(net.AddNode(fanins, Sop::FromTruthTable(tt)));
  }
  for (int o = 0; o < 3 && o < static_cast<int>(pool.size()); ++o) {
    net.AddOutput(IndexedName("o", o),
                  pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  return net;
}

TEST_P(FlowRandomTest, FullFlowVerifiesFormally) {
  const Network ti = RandomNetwork(42000 + GetParam());
  const Library lib = Lsi10kLike();
  const FlowResult r = RunMaskingFlow(ti, lib);
  EXPECT_TRUE(r.verification.safety) << "safety must hold on every circuit";
  EXPECT_TRUE(r.verification.coverage) << "coverage must be 100%";
  EXPECT_DOUBLE_EQ(r.verification.coverage_fraction, 1.0);
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
  EXPECT_GE(r.overheads.area_percent, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowRandomTest, ::testing::Range(0, 12));

// -------------------------------------------------- fault injection

TEST(FaultInjection, AgedSpeedPathErrorsAreMaskedAtProtectedOutputs) {
  const Network ti = RippleComparator(8);
  const Library lib = UnitLibrary();
  const FlowResult r = RunMaskingFlow(ti, lib);
  ASSERT_TRUE(r.verification.ok());
  const MappedNetlist& prot = r.protected_circuit.netlist;

  // Clock compensation: the mux adds one cell delay at the output.
  const Cell* mux = lib.ByNameOrThrow("MUX2");
  const double delta = r.timing.critical_delay;
  const double clock = delta + mux->max_delay();

  // Age the final gate of the worst path. The guard band protects paths
  // longer than 0.9·Δ; the aging delta must keep unguarded paths (settle ≤
  // 0.9·Δ at the raw output, + mux delay at the protected output) inside the
  // compensated clock: δ ≤ clock − mux − 0.9·Δ = 0.1·Δ. Guarded paths then
  // miss the raw deadline Δ and must be masked.
  const TimingPath worst = WorstPath(r.original, r.timing);
  const GateId worst_end = worst.elements.back();
  ASSERT_FALSE(r.original.IsInput(worst_end));
  EventSimConfig cfg;
  cfg.clock = clock;
  cfg.extra_delay.assign(prot.NumElements(), 0.0);
  {
    const GateId in_prot =
        prot.FindByName(r.original.element(worst_end).name);
    ASSERT_NE(in_prot, kInvalidGate);
    cfg.extra_delay[in_prot] = 0.09 * delta;
  }

  WearoutMonitor monitor(r.protected_circuit, /*raw_deadline=*/delta);
  Rng rng(99);
  std::vector<bool> prev(prot.NumInputs(), false);
  for (int cycle = 0; cycle < 500; ++cycle) {
    std::vector<bool> next(prot.NumInputs());
    for (std::size_t v = 0; v < next.size(); ++v) next[v] = rng.Chance(0.5);
    monitor.Record(SimulateTransition(prot, prev, next, cfg));
    prev = next;
  }
  const WearoutMonitor::Stats& s = monitor.stats();
  EXPECT_EQ(s.cycles, 500u);
  EXPECT_GT(s.exercised, 0u) << "speed-paths should be exercised";
  EXPECT_GT(s.masked_errors, 0u) << "aging must cause (masked) errors";
  EXPECT_EQ(s.unmasked_errors, 0u)
      << "no timing error may escape to a protected output";
}

TEST(FaultInjection, UnprotectedCircuitShowsTheSameErrorsUnmasked) {
  const Network ti = RippleComparator(8);
  const Library lib = UnitLibrary();
  const FlowResult r = RunMaskingFlow(ti, lib);
  const MappedNetlist& orig = r.original;

  const TimingPath worst = WorstPath(orig, r.timing);
  EventSimConfig cfg;
  cfg.clock = r.timing.critical_delay;
  cfg.extra_delay.assign(orig.NumElements(), 0.0);
  if (!orig.IsInput(worst.elements.back())) {
    cfg.extra_delay[worst.elements.back()] = 0.09 * r.timing.critical_delay;
  }

  Rng rng(99);
  std::vector<bool> prev(orig.NumInputs(), false);
  std::size_t raw_errors = 0;
  for (int cycle = 0; cycle < 500; ++cycle) {
    std::vector<bool> next(orig.NumInputs());
    for (std::size_t v = 0; v < next.size(); ++v) next[v] = rng.Chance(0.5);
    const EventSimResult sim = SimulateTransition(orig, prev, next, cfg);
    for (const auto& o : orig.outputs()) {
      raw_errors += sim.TimingErrorAt(o.driver) ? 1u : 0u;
    }
    prev = next;
  }
  EXPECT_GT(raw_errors, 0u) << "without masking the errors must be visible";
}

// ----------------------------------------------------- runtime monitors

TEST(TraceBuffer, SelectiveCaptureExpandsWindow) {
  TraceBufferModel always(8);
  TraceBufferModel selective(8);
  Rng rng(5);
  // Unconditional capture fills in exactly 8 cycles; capturing only the ~10%
  // flagged cycles covers a ~10x longer window.
  std::uint64_t cycle = 0;
  while (!always.full() || !selective.full()) {
    ++cycle;
    if (!always.full()) always.Step(true);
    if (!selective.full()) selective.Step(rng.Chance(0.1));
    ASSERT_LT(cycle, 10000u);
  }
  EXPECT_EQ(always.window(), 8u);
  EXPECT_GT(selective.window(), 3u * always.window());
}

TEST(TraceBuffer, Validation) {
  EXPECT_THROW(TraceBufferModel(0), std::invalid_argument);
  TraceBufferModel b(2);
  EXPECT_FALSE(b.full());
  EXPECT_TRUE(b.Step(true));
  EXPECT_FALSE(b.Step(false));
  EXPECT_TRUE(b.Step(true));
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.window(), 3u);
  EXPECT_FALSE(b.Step(true));  // full buffers stop storing
}


TEST(WearoutMonitor, ValidatesInputs) {
  const Network ti = StructuredComparator();
  const Library lib = UnitLibrary();
  const FlowResult r = RunMaskingFlow(ti, lib);
  EXPECT_THROW(WearoutMonitor(r.protected_circuit, 0.0),
               std::invalid_argument);
  WearoutMonitor monitor(r.protected_circuit, 7.0);
  EventSimResult bogus;
  bogus.sampled.assign(3, false);  // wrong size
  EXPECT_THROW(monitor.Record(bogus), std::invalid_argument);
}

TEST(WearoutMonitor, ResetClearsStatistics) {
  const Network ti = StructuredComparator();
  const Library lib = UnitLibrary();
  const FlowResult r = RunMaskingFlow(ti, lib);
  const MappedNetlist& prot = r.protected_circuit.netlist;
  WearoutMonitor monitor(r.protected_circuit, r.timing.critical_delay);
  EventSimConfig cfg;
  cfg.clock = r.timing.critical_delay + 2.0;
  const std::vector<bool> zeros(prot.NumInputs(), false);
  std::vector<bool> ones(prot.NumInputs(), true);
  monitor.Record(SimulateTransition(prot, zeros, ones, cfg));
  EXPECT_EQ(monitor.stats().cycles, 1u);
  monitor.Reset();
  EXPECT_EQ(monitor.stats().cycles, 0u);
  EXPECT_EQ(monitor.stats().masked_errors, 0u);
}

// ------------------------------------------------ partial protection scope

// Four structurally identical ripple comparators over disjoint input pairs:
// equal depths make every output SPCF-critical, so a 2-of-4 scope leaves
// exactly two criticals deliberately unprotected.
Network FourWayRipple(int bits) {
  Network net(IndexedName("ripple4x", bits));
  for (int lane = 0; lane < 4; ++lane) {
    const std::string tag = std::to_string(lane);
    std::vector<NodeId> a(static_cast<std::size_t>(bits));
    std::vector<NodeId> b(static_cast<std::size_t>(bits));
    for (int i = 0; i < bits; ++i) {
      a[static_cast<std::size_t>(i)] =
          net.AddInput("a" + tag + IndexedName("_", i));
    }
    for (int i = 0; i < bits; ++i) {
      b[static_cast<std::size_t>(i)] =
          net.AddInput("b" + tag + IndexedName("_", i));
    }
    NodeId res = net.AddNode({}, Sop::Const1(0), "res_init" + tag);
    for (int i = 0; i < bits; ++i) {
      const std::string s = tag + IndexedName("_", i);
      const NodeId nb = AddNot(net, b[static_cast<std::size_t>(i)], "nb" + s);
      const NodeId gt =
          AddAnd(net, {a[static_cast<std::size_t>(i)], nb}, "gt" + s);
      const NodeId eq = AddXnor2(net, a[static_cast<std::size_t>(i)],
                                 b[static_cast<std::size_t>(i)], "eq" + s);
      const NodeId keep = AddAnd(net, {eq, res}, "keep" + s);
      res = AddOr(net, {gt, keep}, "res" + s);
    }
    net.AddOutput("ge" + tag, res);
  }
  return net;
}

TEST(Flow, PartialScopeTwoOfFourOutputs) {
  const Network ti = FourWayRipple(3);
  const Library lib = UnitLibrary();

  const FlowResult all = RunMaskingFlow(ti, lib);
  ASSERT_EQ(all.spcf.critical_outputs.size(), 4u)
      << "equal-depth lanes must all be critical";
  ASSERT_TRUE(all.verification.ok());

  FlowOptions o;
  o.synth.protect_all = false;
  o.synth.protection_scope = {all.spcf.critical_outputs[0],
                              all.spcf.critical_outputs[1]};
  const FlowResult r = RunMaskingFlow(ti, lib, o);

  // The protected half keeps the full guarantee...
  EXPECT_TRUE(r.verification.safety);
  EXPECT_TRUE(r.verification.scope_coverage);
  EXPECT_TRUE(VerifyProtectedEquivalence(r.original, r.protected_circuit));
  EXPECT_EQ(r.protected_circuit.taps.size(), 2u);
  EXPECT_EQ(r.overheads.protected_outputs, 2u);
  EXPECT_EQ(r.overheads.critical_outputs, 4u);

  // ...while the report must account for the two unprotected criticals
  // instead of quietly claiming 100% coverage.
  EXPECT_FALSE(r.verification.coverage);
  EXPECT_FALSE(r.verification.ok());
  EXPECT_FALSE(r.overheads.coverage_100);
  EXPECT_DOUBLE_EQ(r.verification.coverage_fraction, 0.0);
  const std::vector<std::size_t> expected_unprotected = {
      all.spcf.critical_outputs[2], all.spcf.critical_outputs[3]};
  EXPECT_EQ(r.verification.unprotected_critical, expected_unprotected);
  EXPECT_EQ(r.verification.failing_outputs, expected_unprotected);

  // Masking half the lanes must cost less than masking all of them.
  EXPECT_LT(r.overheads.area_percent, all.overheads.area_percent);
  EXPECT_LT(r.overheads.power_percent, all.overheads.power_percent);
}

TEST(Flow, ValidatesScopedOptions) {
  const Network ti = StructuredComparator();  // one output
  FlowOptions o;

  o.synth.protect_all = false;  // empty scope
  EXPECT_THROW(ValidateFlowOptions(o, ti.NumOutputs()), std::invalid_argument);

  o.synth.protection_scope = {0};
  EXPECT_NO_THROW(ValidateFlowOptions(o, ti.NumOutputs()));

  o.synth.protection_scope = {1};  // out of range for one output
  EXPECT_THROW(ValidateFlowOptions(o, ti.NumOutputs()), std::invalid_argument);

  MaskingSynthOptions synth;
  synth.protect_all = false;
  synth.protection_scope = {2, 0};  // not strictly ascending
  EXPECT_THROW(ValidateMaskingSynthOptions(synth, 4), std::invalid_argument);
  synth.protection_scope = {0, 0};
  EXPECT_THROW(ValidateMaskingSynthOptions(synth, 4), std::invalid_argument);
  synth.protection_scope = {0, 2};
  EXPECT_NO_THROW(ValidateMaskingSynthOptions(synth, 4));

  FlowOptions guard;
  guard.spcf.guard_band = 1.0;  // must be in [0, 1)
  EXPECT_THROW(ValidateFlowOptions(guard, 1), std::invalid_argument);
  guard.spcf.guard_band = -0.1;
  EXPECT_THROW(ValidateFlowOptions(guard, 1), std::invalid_argument);

  // The flow entry points run the same checks before any work.
  FlowOptions bad;
  bad.synth.protect_all = false;
  EXPECT_THROW(RunMaskingFlow(ti, UnitLibrary(), bad), std::invalid_argument);
}

TEST(Flow, CriticalOutputsGuardValidation) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_THROW(CriticalOutputs(net, t, 1.0), std::invalid_argument);
  EXPECT_THROW(CriticalOutputs(net, t, -0.2), std::invalid_argument);
}

}  // namespace
}  // namespace sm
