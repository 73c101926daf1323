#include "harness/optimize.h"

#include <cmath>

#include "harness/bench_runner.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "map/tech_map.h"
#include "service/json.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "util/check.h"

namespace sm {

void ValidateOptEvalConfig(const OptEvalConfig& config) {
  SM_REQUIRE(config.yield_trials > 0, "yield_trials must be positive");
  SM_REQUIRE(std::isfinite(config.sigma) && config.sigma > 0,
             "sigma must be positive and finite, got " << config.sigma);
  SM_REQUIRE(config.spot_sites > 0, "spot_sites must be positive");
  SM_REQUIRE(config.spot_vectors > 0, "spot_vectors must be positive");
}

InProcessEvaluator::InProcessEvaluator(const Network& ti, const Library& lib,
                                       const OptEvalConfig& config)
    : ti_(ti), lib_(lib), config_(config) {
  ValidateOptEvalConfig(config_);
  // Map once; every candidate flow reuses the same circuit C (the paper's
  // area-mode baseline), exactly as RunMaskingFlow would rebuild it.
  mapped_ = DecomposeAndMap(ti_, lib_, TechMapOptions{}).netlist;
  timing_ = AnalyzeTiming(mapped_);
}

std::size_t InProcessEvaluator::NumOutputs() { return ti_.NumOutputs(); }

std::vector<std::size_t> InProcessEvaluator::CriticalOutputs(double guard) {
  BddManager mgr(static_cast<int>(ti_.NumInputs()),
                 FlowOptions{}.bdd_node_limit);
  SpcfOptions options;
  options.guard_band = guard;
  return ComputeSpcf(mgr, mapped_, timing_, options).critical_outputs;
}

FlowResult InProcessEvaluator::RunCandidateFlow(
    const CandidateConfig& candidate) const {
  FlowOptions options = FlowOptionsFor(
      candidate.guard, candidate.effort,
      candidate.protect_all ? std::vector<std::size_t>{} : candidate.scope);
  options.cancel = config_.cancel;
  return RunMaskingFlowPremapped(mapped_, ti_, lib_, options);
}

OptEvaluation InProcessEvaluator::EvaluateOne(
    const CandidateConfig& candidate) const {
  OptEvaluation e;
  try {
    const FlowResult flow = RunCandidateFlow(candidate);
    YieldMcOptions yield_options;
    yield_options.trials = config_.yield_trials;
    yield_options.threads = 1;  // candidates are already the parallel axis
    yield_options.seed = config_.yield_seed;
    yield_options.model.sigma = config_.sigma;
    yield_options.guard_band = candidate.guard;
    yield_options.cancel = config_.cancel;
    const YieldMcResult yield = EstimateTimingYield(flow, yield_options);
    e.area_percent = flow.overheads.area_percent;
    e.power_percent = flow.overheads.power_percent;
    e.slack_percent = flow.overheads.slack_percent;
    e.residual_rate = yield.residual_rate;
    e.yield_original = yield.yield_original;
    e.yield_protected = yield.yield_protected;
    e.critical_outputs = flow.overheads.critical_outputs;
    e.protected_outputs = flow.overheads.protected_outputs;
    e.safety = flow.verification.safety;
    e.scope_coverage = flow.verification.scope_coverage;
    e.ok = true;
  } catch (const std::exception& ex) {
    e.ok = false;
    e.error = ex.what();
  }
  return e;
}

std::vector<OptEvaluation> InProcessEvaluator::EvaluateBatch(
    const std::vector<CandidateConfig>& candidates, int threads) {
  return ParallelRows(candidates.size(), threads,
                      [&](std::size_t i) { return EvaluateOne(candidates[i]); });
}

std::size_t InProcessEvaluator::SpotCheck(const CandidateConfig& candidate) {
  const FlowResult flow = RunCandidateFlow(candidate);
  InjectOptions options;
  options.strategy = FaultSiteStrategy::kAdversarial;
  options.max_sites = config_.spot_sites;
  options.vectors_per_site = config_.spot_vectors;
  options.seed = config_.spot_seed;
  options.threads = 1;
  options.cancel = config_.cancel;
  return RunFaultInjectionCampaign(flow, options).escapes;
}

namespace {

Json EncodeEvaluation(const OptEvaluation& e) {
  Json obj = Json::MakeObject();
  obj.Set("ok", e.ok);
  obj.Set("overhead", e.Overhead());
  obj.Set("area_percent", e.area_percent);
  obj.Set("power_percent", e.power_percent);
  obj.Set("slack_percent", e.slack_percent);
  obj.Set("residual_rate", e.residual_rate);
  obj.Set("yield_original", e.yield_original);
  obj.Set("yield_protected", e.yield_protected);
  obj.Set("critical_outputs", e.critical_outputs);
  obj.Set("protected_outputs", e.protected_outputs);
  obj.Set("safety", e.safety);
  obj.Set("scope_coverage", e.scope_coverage);
  return obj;
}

}  // namespace

std::string EncodeParetoFrontJson(const std::string& circuit,
                                  const OptimizerOptions& options,
                                  const OptimizeResult& result) {
  Json obj = Json::MakeObject();
  obj.Set("circuit", circuit);
  obj.Set("target_yield", options.target_yield);
  obj.Set("seed", options.seed);
  obj.Set("population", options.population);
  obj.Set("generations", options.generations);
  Json palette = Json::MakeArray();
  for (const double g : result.space.guard_palette) palette.Append(g);
  obj.Set("guard_palette", std::move(palette));
  obj.Set("distinct_evaluations", result.distinct_evaluations);
  obj.Set("feasible", result.feasible);
  obj.Set("spot_checks", result.spot_checks);
  obj.Set("spot_failures", result.spot_failures);
  obj.Set("baseline", EncodeEvaluation(result.baseline));
  Json front = Json::MakeArray();
  for (const ParetoPoint& p : result.front) {
    Json entry = Json::MakeObject();
    entry.Set("key", CanonicalGenomeKey(p.genome));
    entry.Set("guard", p.config.guard);
    entry.Set("effort", p.config.effort);
    if (p.config.protect_all) {
      entry.Set("scope", "all");
    } else {
      Json scope = Json::MakeArray();
      for (const std::size_t o : p.config.scope) scope.Append(o);
      entry.Set("scope", std::move(scope));
    }
    entry.Set("eval", EncodeEvaluation(p.eval));
    entry.Set("spot_checked", p.spot_checked);
    entry.Set("spot_escapes", p.spot_escapes);
    front.Append(std::move(entry));
  }
  obj.Set("front", std::move(front));
  return obj.Dump();
}

OptimizeResult OptimizeCircuit(const Network& ti, const Library& lib,
                               const OptimizerOptions& options,
                               const OptEvalConfig& config) {
  InProcessEvaluator evaluator(ti, lib, config);
  return RunMaskingOptimizer(evaluator, options);
}

}  // namespace sm
