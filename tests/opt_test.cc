#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "harness/optimize.h"
#include "liblib/lsi10k.h"
#include "opt/genome.h"
#include "opt/nsga2.h"
#include "opt/optimizer.h"
#include "service/protocol.h"
#include "service/server.h"
#include "suite/circuit_gen.h"
#include "suite/paper_suite.h"
#include "util/rng.h"

namespace sm {
namespace {

std::string TestSocket(const char* tag) {
  return "/tmp/speedmask_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Synthetic search space: three palette guards with nested critical sets
// over an 8-output circuit (the usual SPCF shape — a larger guard makes
// more outputs critical).
OptSearchSpace ToySpace() {
  OptSearchSpace space;
  space.guard_palette = {0.05, 0.10, 0.20};
  space.num_outputs = 8;
  space.critical_per_guard = {{1, 3}, {1, 3, 5}, {0, 1, 3, 5, 6}};
  return space;
}

bool GenomeIsCanonical(const OptGenome& g, const OptSearchSpace& space) {
  if (g.guard_index < 0 ||
      g.guard_index >= static_cast<int>(space.guard_palette.size())) {
    return false;
  }
  if (g.effort < 0 || g.effort >= kNumSynthEffortLevels) return false;
  if (g.protect_all) return g.scope.empty();
  const auto& crit =
      space.critical_per_guard[static_cast<std::size_t>(g.guard_index)];
  if (g.scope.empty() || g.scope.size() >= crit.size()) return false;
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (std::size_t o : g.scope) {
    if (prev != std::numeric_limits<std::size_t>::max() && o <= prev) {
      return false;
    }
    if (std::find(crit.begin(), crit.end(), o) == crit.end()) return false;
    prev = o;
  }
  return true;
}

// ------------------------------------------------------------- genome codec

TEST(OptGenome, ValidateSearchSpaceRejectsMalformedSpaces) {
  EXPECT_NO_THROW(ValidateSearchSpace(ToySpace()));

  OptSearchSpace empty = ToySpace();
  empty.guard_palette.clear();
  empty.critical_per_guard.clear();
  EXPECT_THROW(ValidateSearchSpace(empty), std::invalid_argument);

  OptSearchSpace unsorted = ToySpace();
  std::swap(unsorted.guard_palette[0], unsorted.guard_palette[1]);
  EXPECT_THROW(ValidateSearchSpace(unsorted), std::invalid_argument);

  OptSearchSpace bad_guard = ToySpace();
  bad_guard.guard_palette.back() = 1.0;
  EXPECT_THROW(ValidateSearchSpace(bad_guard), std::invalid_argument);

  OptSearchSpace mismatched = ToySpace();
  mismatched.critical_per_guard.pop_back();
  EXPECT_THROW(ValidateSearchSpace(mismatched), std::invalid_argument);

  OptSearchSpace out_of_range = ToySpace();
  out_of_range.critical_per_guard[0] = {1, 9};  // 9 >= num_outputs
  EXPECT_THROW(ValidateSearchSpace(out_of_range), std::invalid_argument);
}

TEST(OptGenome, RepairClampsSortsAndIntersects) {
  const OptSearchSpace space = ToySpace();
  OptGenome g;
  g.guard_index = 99;  // clamped to the last palette entry
  g.effort = -3;       // clamped to 0
  g.protect_all = false;
  g.scope = {5, 3, 5, 2, 0};  // unsorted, duplicated, 2 is not critical
  RepairGenome(g, space);
  EXPECT_EQ(g.guard_index, 2);
  EXPECT_EQ(g.effort, 0);
  EXPECT_FALSE(g.protect_all);
  EXPECT_EQ(g.scope, (std::vector<std::size_t>{0, 3, 5}));
  EXPECT_TRUE(GenomeIsCanonical(g, space));
}

TEST(OptGenome, DegenerateScopesCollapseToProtectAll) {
  const OptSearchSpace space = ToySpace();

  // Empty intersection with the critical set → protect_all.
  OptGenome none;
  none.guard_index = 0;
  none.protect_all = false;
  none.scope = {0, 2, 7};  // none critical at guard 0.05
  RepairGenome(none, space);
  EXPECT_TRUE(none.protect_all);
  EXPECT_TRUE(none.scope.empty());

  // Full critical set → same flow as protect_all, same representation.
  OptGenome full;
  full.guard_index = 1;
  full.protect_all = false;
  full.scope = {1, 3, 5};
  RepairGenome(full, space);
  EXPECT_TRUE(full.protect_all);
  EXPECT_EQ(CanonicalGenomeKey(full), "g1|e2|all");
}

TEST(OptGenome, CanonicalKeyIdentifiesTheMaskingFlow) {
  const OptSearchSpace space = ToySpace();
  OptGenome a;
  a.guard_index = 2;
  a.effort = 3;
  a.protect_all = false;
  a.scope = {5, 1};
  RepairGenome(a, space);
  EXPECT_EQ(CanonicalGenomeKey(a), "g2|e3|s1,5");

  OptGenome b;
  b.guard_index = 2;
  b.effort = 3;
  b.protect_all = false;
  b.scope = {1, 5, 1};
  RepairGenome(b, space);
  EXPECT_EQ(CanonicalGenomeKey(a), CanonicalGenomeKey(b));
}

TEST(OptGenome, BaselineIsProtectAllAtTenPercentEffortTwo) {
  const OptSearchSpace space = ToySpace();
  const OptGenome base = BaselineGenome(space);
  EXPECT_EQ(base.guard_index, 1);  // palette entry closest to 0.10
  EXPECT_EQ(base.effort, 2);
  EXPECT_TRUE(base.protect_all);
  EXPECT_EQ(CanonicalGenomeKey(base), "g1|e2|all");
}

TEST(OptGenome, VariationOperatorsAlwaysProduceCanonicalGenomes) {
  const OptSearchSpace space = ToySpace();
  Rng rng(7);
  std::vector<OptGenome> pool;
  for (int i = 0; i < 200; ++i) {
    OptGenome g = RandomGenome(rng, space);
    EXPECT_TRUE(GenomeIsCanonical(g, space)) << CanonicalGenomeKey(g);
    pool.push_back(g);
  }
  for (int i = 0; i < 200; ++i) {
    OptGenome child = CrossoverGenomes(
        rng, pool[rng.Below(pool.size())], pool[rng.Below(pool.size())], space);
    MutateGenome(rng, child, space);
    EXPECT_TRUE(GenomeIsCanonical(child, space)) << CanonicalGenomeKey(child);
  }
}

TEST(OptGenome, ResolveAndSynthOptionsCarryTheScope) {
  const OptSearchSpace space = ToySpace();
  OptGenome g;
  g.guard_index = 2;
  g.effort = 1;
  g.protect_all = false;
  g.scope = {3, 6};
  RepairGenome(g, space);

  const CandidateConfig config = ResolveGenome(g, space);
  EXPECT_DOUBLE_EQ(config.guard, 0.20);
  EXPECT_EQ(config.effort, 1);
  EXPECT_FALSE(config.protect_all);
  EXPECT_EQ(config.scope, (std::vector<std::size_t>{3, 6}));

  const MaskingSynthOptions synth = SynthOptionsForCandidate(config);
  EXPECT_FALSE(synth.protect_all);
  EXPECT_EQ(synth.protection_scope, config.scope);
  // Effort 1 = Σ-reduced covers only.
  EXPECT_TRUE(synth.reduce_covers);
  EXPECT_FALSE(synth.simplify_indicators);
  EXPECT_FALSE(synth.collapse);

  const CandidateConfig all = ResolveGenome(BaselineGenome(space), space);
  const MaskingSynthOptions defaults = SynthOptionsForCandidate(all);
  EXPECT_TRUE(defaults.protect_all);
  EXPECT_TRUE(defaults.protection_scope.empty());
}

// ------------------------------------------------------------------ NSGA-II

Nsga2Item Item(double f1, double f2, double violation = 0) {
  Nsga2Item item;
  item.f1 = f1;
  item.f2 = f2;
  item.violation = violation;
  return item;
}

TEST(Nsga2, ConstrainedDomination) {
  // Feasible beats infeasible regardless of objectives.
  EXPECT_TRUE(Nsga2Dominates(Item(9, 9), Item(0, 0, 0.1)));
  EXPECT_FALSE(Nsga2Dominates(Item(0, 0, 0.1), Item(9, 9)));
  // Among infeasible, the smaller violation dominates.
  EXPECT_TRUE(Nsga2Dominates(Item(9, 9, 0.1), Item(0, 0, 0.5)));
  EXPECT_FALSE(Nsga2Dominates(Item(0, 0, 0.5), Item(9, 9, 0.1)));
  // Among feasible, ordinary Pareto domination.
  EXPECT_TRUE(Nsga2Dominates(Item(1, 2), Item(2, 2)));
  EXPECT_TRUE(Nsga2Dominates(Item(1, 1), Item(2, 2)));
  EXPECT_FALSE(Nsga2Dominates(Item(1, 2), Item(2, 1)));
  EXPECT_FALSE(Nsga2Dominates(Item(1, 2), Item(1, 2)));  // equal: no dominance
}

TEST(Nsga2, NonDominatedSortRanksFronts) {
  // Front 0: (1,4), (2,2), (4,1); front 1: (3,3); front 2: infeasible.
  const std::vector<Nsga2Item> items = {Item(3, 3), Item(1, 4), Item(2, 2),
                                        Item(4, 1), Item(5, 5, 1.0)};
  const auto fronts = NonDominatedSort(items);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{4}));
}

TEST(Nsga2, CrowdingBoundariesAreInfinite) {
  const std::vector<Nsga2Item> items = {Item(1, 5), Item(2, 4), Item(3, 3),
                                        Item(5, 1)};
  const std::vector<std::size_t> front = {0, 1, 2, 3};
  const auto crowd = CrowdingDistances(items, front);
  ASSERT_EQ(crowd.size(), 4u);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[3]));
  EXPECT_TRUE(std::isfinite(crowd[1]));
  EXPECT_TRUE(std::isfinite(crowd[2]));
  // The middle points: (2,4) sits nearer its neighbours than (3,3) does on
  // f1, but crowding sums both axes — just require positivity here.
  EXPECT_GT(crowd[1], 0.0);
  EXPECT_GT(crowd[2], 0.0);

  // Tiny fronts are all-boundary.
  const auto pair = CrowdingDistances(items, {0, 3});
  EXPECT_TRUE(std::isinf(pair[0]));
  EXPECT_TRUE(std::isinf(pair[1]));
}

TEST(Nsga2, SelectTakesWholeFrontsThenSplitsByCrowding) {
  // Front 0 = {1,2,3}, front 1 = {0}. k=2 must split front 0 by crowding:
  // boundaries (1 and 3) win over the middle point 2.
  const std::vector<Nsga2Item> items = {Item(3, 3), Item(1, 4), Item(2, 2),
                                        Item(4, 1)};
  EXPECT_EQ(SelectNsga2(items, 2), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(SelectNsga2(items, 3), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(SelectNsga2(items, 4), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Nsga2, TiesBreakTowardTheLowerIndex) {
  // Four identical feasible items: one rank-0 front, and every choice is a
  // deterministic tie-break. The degenerate-span crowding rule makes the
  // (index-ordered) boundaries 0 and 3 infinite; the remaining equal-
  // crowding slots break toward the lower index.
  const std::vector<Nsga2Item> items = {Item(1, 1), Item(1, 1), Item(1, 1),
                                        Item(1, 1)};
  const auto ranking = RankPopulation(items);
  for (std::size_t r : ranking.rank) EXPECT_EQ(r, 0u);
  EXPECT_EQ(SelectNsga2(items, 2), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(SelectNsga2(items, 3), (std::vector<std::size_t>{0, 1, 3}));
}

// -------------------------------------------- optimizer on a fake evaluator

// Deterministic closed-form evaluator: overhead grows with scope size,
// effort and guard; the residual rate shrinks with the protected fraction.
// Lets the optimizer tests pin exact search behaviour without running
// flows. One designated genome reports escapes to exercise the expulsion
// loop.
class FakeEvaluator : public CandidateEvaluator {
 public:
  explicit FakeEvaluator(std::string expelled_key = "")
      : expelled_key_(std::move(expelled_key)) {}

  std::size_t NumOutputs() override { return space_.num_outputs; }

  std::vector<std::size_t> CriticalOutputs(double guard) override {
    for (std::size_t i = 0; i < space_.guard_palette.size(); ++i) {
      if (std::abs(space_.guard_palette[i] - guard) < 1e-12) {
        return space_.critical_per_guard[i];
      }
    }
    ADD_FAILURE() << "unexpected guard " << guard;
    return {};
  }

  std::vector<OptEvaluation> EvaluateBatch(
      const std::vector<CandidateConfig>& candidates, int) override {
    std::vector<OptEvaluation> evals;
    for (const CandidateConfig& c : candidates) evals.push_back(Evaluate(c));
    batches_ += 1;
    evaluated_ += candidates.size();
    return evals;
  }

  std::size_t SpotCheck(const CandidateConfig& candidate) override {
    spot_checks_ += 1;
    return KeyOf(candidate) == expelled_key_ ? 3u : 0u;
  }

  std::size_t evaluated() const { return evaluated_; }
  std::size_t spot_checks() const { return spot_checks_; }

  static std::string KeyOf(const CandidateConfig& c) {
    std::string key = "g" + std::to_string(c.guard) + "|e" +
                      std::to_string(c.effort) + "|";
    if (c.protect_all) {
      key += "all";
    } else {
      for (std::size_t i = 0; i < c.scope.size(); ++i) {
        if (i != 0) key += ',';
        key += std::to_string(c.scope[i]);
      }
    }
    return key;
  }

 private:
  OptEvaluation Evaluate(const CandidateConfig& c) const {
    const std::vector<std::size_t> crit =
        const_cast<FakeEvaluator*>(this)->CriticalOutputs(c.guard);
    const std::size_t protected_n = c.protect_all ? crit.size() : c.scope.size();
    const double frac = crit.empty()
                            ? 1.0
                            : static_cast<double>(protected_n) /
                                  static_cast<double>(crit.size());
    OptEvaluation e;
    e.ok = true;
    e.area_percent = 10.0 * static_cast<double>(protected_n) +
                     2.0 * c.effort + 100.0 * c.guard;
    e.power_percent = 5.0 * static_cast<double>(protected_n);
    e.slack_percent = 30.0;
    e.residual_rate = 0.2 * (1.0 - frac);
    e.yield_original = 0.80;
    e.yield_protected = 0.80 + 0.2 * frac;
    e.critical_outputs = crit.size();
    e.protected_outputs = protected_n;
    e.safety = true;
    e.scope_coverage = true;
    return e;
  }

  OptSearchSpace space_ = ToySpace();
  std::string expelled_key_;
  std::size_t batches_ = 0;
  std::size_t evaluated_ = 0;
  std::size_t spot_checks_ = 0;
};

OptimizerOptions ToyOptions() {
  OptimizerOptions options;
  options.population = 8;
  options.generations = 4;
  options.seed = 2009;
  options.guard_palette = {0.05, 0.10, 0.20};
  options.target_yield = 0.90;
  return options;
}

TEST(Optimizer, ValidatesOptions) {
  EXPECT_NO_THROW(ValidateOptimizerOptions(ToyOptions()));
  OptimizerOptions o = ToyOptions();
  o.population = 1;
  EXPECT_THROW(ValidateOptimizerOptions(o), std::invalid_argument);
  o = ToyOptions();
  o.generations = 0;
  EXPECT_THROW(ValidateOptimizerOptions(o), std::invalid_argument);
  o = ToyOptions();
  o.target_yield = 1.5;
  EXPECT_THROW(ValidateOptimizerOptions(o), std::invalid_argument);
  o = ToyOptions();
  o.crossover_rate = -0.1;
  EXPECT_THROW(ValidateOptimizerOptions(o), std::invalid_argument);
  o = ToyOptions();
  o.guard_palette = {0.1, 1.5};  // entries must lie in (0, 1)
  EXPECT_THROW(ValidateOptimizerOptions(o), std::invalid_argument);
  o.guard_palette.clear();
  EXPECT_THROW(ValidateOptimizerOptions(o), std::invalid_argument);

  EXPECT_NO_THROW(ValidateOptEvalConfig(OptEvalConfig{}));
  OptEvalConfig c;
  c.yield_trials = 0;
  EXPECT_THROW(ValidateOptEvalConfig(c), std::invalid_argument);
  c = OptEvalConfig{};
  c.sigma = -1.0;
  EXPECT_THROW(ValidateOptEvalConfig(c), std::invalid_argument);
}

TEST(Optimizer, FindsCheaperFeasiblePointsThanProtectAll) {
  FakeEvaluator eval;
  const OptimizeResult result = RunMaskingOptimizer(eval, ToyOptions());

  // Baseline = protect-all at 0.10: 3 outputs, effort 2 →
  // area 30+4+10 = 44, power 15 → 59% overhead.
  EXPECT_TRUE(result.baseline.ok);
  EXPECT_DOUBLE_EQ(result.baseline.Overhead(), 59.0);
  EXPECT_DOUBLE_EQ(result.baseline.yield_protected, 1.0);

  ASSERT_FALSE(result.front.empty());
  EXPECT_GT(result.feasible, 0u);
  EXPECT_GT(result.distinct_evaluations, 0u);
  // Front sorted by ascending overhead, all feasible, all spot-checked.
  double prev = -1;
  for (const ParetoPoint& p : result.front) {
    EXPECT_TRUE(p.eval.ok);
    EXPECT_GE(p.eval.yield_protected, ToyOptions().target_yield);
    EXPECT_TRUE(p.spot_checked);
    EXPECT_EQ(p.spot_escapes, 0u);
    EXPECT_GE(p.eval.Overhead(), prev);
    prev = p.eval.Overhead();
  }
  // Yield target 0.90 is met by protecting half the criticals — the search
  // must find a point strictly cheaper than protect-all.
  EXPECT_LT(result.front.front().eval.Overhead(), result.baseline.Overhead());
}

TEST(Optimizer, ArchiveEvaluatesEachDistinctGenomeOnce) {
  FakeEvaluator eval;
  const OptimizeResult result = RunMaskingOptimizer(eval, ToyOptions());
  EXPECT_EQ(eval.evaluated(), result.distinct_evaluations);
}

TEST(Optimizer, SpotCheckFailuresAreExpelledFromTheFront) {
  // First find the cheapest front point, then rerun with that exact
  // candidate rigged to report escapes: it must vanish from the front.
  FakeEvaluator clean;
  const OptimizeResult before = RunMaskingOptimizer(clean, ToyOptions());
  ASSERT_FALSE(before.front.empty());
  const std::string cheapest = FakeEvaluator::KeyOf(before.front[0].config);

  FakeEvaluator rigged(cheapest);
  const OptimizeResult after = RunMaskingOptimizer(rigged, ToyOptions());
  EXPECT_GT(after.spot_failures, 0u);
  for (const ParetoPoint& p : after.front) {
    EXPECT_NE(FakeEvaluator::KeyOf(p.config), cheapest);
    EXPECT_EQ(p.spot_escapes, 0u);
  }
}

TEST(Optimizer, DisablingSpotChecksSkipsTheEvaluatorCalls) {
  FakeEvaluator eval;
  OptimizerOptions options = ToyOptions();
  options.spot_check = false;
  const OptimizeResult result = RunMaskingOptimizer(eval, options);
  EXPECT_EQ(eval.spot_checks(), 0u);
  EXPECT_EQ(result.spot_checks, 0u);
  for (const ParetoPoint& p : result.front) EXPECT_FALSE(p.spot_checked);
}

TEST(Optimizer, FrontIsDeterministicAcrossRerunsAndThreadCounts) {
  OptimizerOptions options = ToyOptions();
  FakeEvaluator a;
  const std::string one =
      EncodeParetoFrontJson("toy", options, RunMaskingOptimizer(a, options));

  FakeEvaluator b;
  const std::string again =
      EncodeParetoFrontJson("toy", options, RunMaskingOptimizer(b, options));
  EXPECT_EQ(one, again);

  options.threads = 8;
  FakeEvaluator c;
  const std::string wide =
      EncodeParetoFrontJson("toy", options, RunMaskingOptimizer(c, options));
  // threads is wall-clock only: it must not appear in the canonical JSON
  // nor perturb the search.
  EXPECT_EQ(one, wide);

  options.threads = 1;
  options.seed = 77;
  FakeEvaluator d;
  const std::string reseeded =
      EncodeParetoFrontJson("toy", options, RunMaskingOptimizer(d, options));
  EXPECT_NE(one, reseeded);  // the seed is part of the canonical output
}

// ------------------------------------------- in-process evaluator (real flow)

TEST(Optimizer, InProcessRunOnPaperCircuitIsDeterministic) {
  const Network ti = GenerateCircuit(PaperCircuitByName("cmb").spec);
  const Library lib = Lsi10kLike();

  OptimizerOptions options;
  options.population = 6;
  options.generations = 2;
  options.seed = 2009;
  options.target_yield = 0.9;
  OptEvalConfig config;
  config.yield_trials = 300;

  const OptimizeResult result = OptimizeCircuit(ti, lib, options, config);
  EXPECT_TRUE(result.baseline.ok) << result.baseline.error;
  ASSERT_FALSE(result.front.empty());
  for (const ParetoPoint& p : result.front) {
    EXPECT_TRUE(p.eval.safety);
    EXPECT_TRUE(p.eval.scope_coverage);
    EXPECT_EQ(p.spot_escapes, 0u);
  }

  const std::string one = EncodeParetoFrontJson("cmb", options, result);
  EXPECT_EQ(one.find("seconds"), std::string::npos)
      << "wall-clock values must stay out of the canonical front";

  // Byte-identical at 8 evaluation threads.
  options.threads = 8;
  const std::string wide = EncodeParetoFrontJson(
      "cmb", options, OptimizeCircuit(ti, lib, options, config));
  EXPECT_EQ(one, wide);
}

TEST(Optimizer, PartialScopeSpotCheckWaivesUnprotectedCriticals) {
  // A scoped candidate leaves criticals unmasked; the spot-check campaign
  // must waive exactly those outputs (harness/inject auto-fill) and report
  // zero escapes at the protected ones.
  const Network ti = GenerateCircuit(PaperCircuitByName("cu").spec);
  const Library lib = Lsi10kLike();
  InProcessEvaluator eval(ti, lib);

  const std::vector<std::size_t> crit = eval.CriticalOutputs(0.1);
  ASSERT_GE(crit.size(), 2u) << "cu must have at least two criticals";

  CandidateConfig scoped;
  scoped.guard = 0.1;
  scoped.effort = 2;
  scoped.protect_all = false;
  scoped.scope = {crit[0]};
  EXPECT_EQ(eval.SpotCheck(scoped), 0u);

  const FlowResult flow = eval.RunCandidateFlow(scoped);
  EXPECT_TRUE(flow.verification.safety);
  EXPECT_TRUE(flow.verification.scope_coverage);
  EXPECT_FALSE(flow.verification.coverage);
  EXPECT_EQ(flow.verification.unprotected_critical.size(), crit.size() - 1);
}

// ------------------------------------------------- daemon transport parity

TEST(Protocol, ScopedAndOptimizeFieldsRoundTrip) {
  ServiceRequest request;
  request.id = 11;
  request.method = ServiceMethod::kSynthesizeMasking;
  request.circuit_name = "cmb";
  request.guard = 0.15;
  request.effort = 3;
  request.scope = {0, 2};

  const ServiceRequest parsed = ParseRequest(SerializeRequest(request));
  EXPECT_EQ(parsed.effort, 3u);
  EXPECT_EQ(parsed.scope, (std::vector<std::size_t>{0, 2}));

  // Default scope/effort stay off the wire so pre-optimizer request bytes
  // (and their cache keys) are unchanged.
  ServiceRequest plain = request;
  plain.effort = 2;
  plain.scope.clear();
  const std::string bytes = SerializeRequest(plain);
  EXPECT_EQ(bytes.find("effort"), std::string::npos);
  EXPECT_EQ(bytes.find("scope"), std::string::npos);

  // The cache key must separate scoped from protect-all requests.
  const Network circuit = GenerateCircuit(PaperCircuitByName("cmb").spec);
  EXPECT_NE(RequestCacheKey(request, circuit), RequestCacheKey(plain, circuit));

  ServiceRequest opt;
  opt.id = 12;
  opt.method = ServiceMethod::kOptimizeMasking;
  opt.circuit_name = "cmb";
  opt.target_yield = 0.85;
  opt.population = 10;
  opt.generations = 3;
  opt.trials = 400;
  const ServiceRequest opt_parsed = ParseRequest(SerializeRequest(opt));
  EXPECT_EQ(opt_parsed.method, ServiceMethod::kOptimizeMasking);
  EXPECT_DOUBLE_EQ(opt_parsed.target_yield, 0.85);
  EXPECT_EQ(opt_parsed.population, 10u);
  EXPECT_EQ(opt_parsed.generations, 3u);
  EXPECT_EQ(opt_parsed.trials, 400u);

  ServiceRequest bad = request;
  bad.scope = {2, 0};  // not ascending
  EXPECT_THROW(ParseRequest(SerializeRequest(bad)), std::invalid_argument);
  bad = request;
  bad.effort = 99;
  EXPECT_THROW(ParseRequest(SerializeRequest(bad)), std::invalid_argument);
}

TEST(Optimizer, DaemonFrontIsByteIdenticalToInProcess) {
  const Network ti = GenerateCircuit(PaperCircuitByName("cmb").spec);
  const Library lib = Lsi10kLike();

  OptimizerOptions options;
  options.population = 6;
  options.generations = 2;
  options.seed = 2009;
  options.target_yield = 0.9;
  OptEvalConfig config;
  config.yield_trials = 300;

  const std::string local = EncodeParetoFrontJson(
      "cmb", options, OptimizeCircuit(ti, lib, options, config));

  ServerOptions server_options;
  server_options.listen_address = TestSocket("opt");
  server_options.num_workers = 1;
  SpeedmaskServer server(server_options);
  server.Start();
  {
    ServiceClient client(server_options.listen_address);

    // Client-side search, daemon-evaluated candidates.
    DaemonEvaluator remote(client, "cmb", ti, config);
    const std::string via_daemon = EncodeParetoFrontJson(
        "cmb", options, RunMaskingOptimizer(remote, options));
    EXPECT_EQ(local, via_daemon);

    // Whole search server-side via optimize_masking.
    ServiceRequest request;
    request.method = ServiceMethod::kOptimizeMasking;
    request.circuit_name = "cmb";
    request.target_yield = options.target_yield;
    request.population = options.population;
    request.generations = options.generations;
    request.seed = options.seed;
    request.trials = config.yield_trials;
    request.sigma = config.sigma;
    const ServiceResponse response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.result_json, local);

    // Second call replays from the content-addressed cache, same bytes.
    ServiceRequest again = request;
    again.id = 0;
    const ServiceResponse cached = client.Call(again);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.result_json, local);

    client.Shutdown();
  }
  server.Wait();
  ::unlink(server_options.listen_address.c_str());
}

}  // namespace
}  // namespace sm
