// The in-process candidate evaluator for the closed-loop masking optimizer
// (opt/optimizer.h), running the full flow + Monte-Carlo yield oracle
// locally, and the canonical Pareto-front JSON encoder.
//
// Byte-identity contract: a candidate's flow is exactly the flow the
// analysis service runs for the same scoped request — Lsi10kLike library,
// FlowOptionsFor(guard, effort, scope), yield engine at threads=1 — so the
// daemon's optimize_masking method, which runs this evaluator server-side,
// answers the same front bytes as an in-process search (one of the
// acceptance gates of bench/opt_pareto).
#pragma once

#include <memory>
#include <string>

#include "harness/flow.h"
#include "opt/optimizer.h"

namespace sm {

// Fixed per-candidate budgets (everything the genome does NOT search over).
struct OptEvalConfig {
  // Monte-Carlo yield oracle (mirrors the service's estimate_yield knobs).
  std::uint64_t yield_trials = 1500;
  double sigma = 0.05;
  std::uint64_t yield_seed = 2009;
  // Elite spot-check: short adversarial injection campaign.
  std::size_t spot_sites = 12;
  std::size_t spot_vectors = 12;
  std::uint64_t spot_seed = 2009;
  // Cooperative cancellation threaded into every candidate flow, yield run
  // and spot-check (the same token the optimizer polls per generation), so
  // a deadline aborts mid-candidate rather than at the next generation
  // boundary. Not owned; never part of the canonical output.
  const CancelToken* cancel = nullptr;
};

void ValidateOptEvalConfig(const OptEvalConfig& config);

// Runs every candidate locally: DecomposeAndMap once at construction, then
// per candidate RunMaskingFlowPremapped + EstimateTimingYield(threads=1).
// EvaluateBatch parallelizes across candidates (each flow owns its
// manager), with per-slot writes — results are independent of the thread
// count.
class InProcessEvaluator : public CandidateEvaluator {
 public:
  // `ti` and `lib` must outlive the evaluator.
  InProcessEvaluator(const Network& ti, const Library& lib,
                     const OptEvalConfig& config = {});

  std::size_t NumOutputs() override;
  std::vector<std::size_t> CriticalOutputs(double guard) override;
  std::vector<OptEvaluation> EvaluateBatch(
      const std::vector<CandidateConfig>& candidates, int threads) override;
  std::size_t SpotCheck(const CandidateConfig& candidate) override;

  // The flow for one candidate — exposed so the service and tests can
  // reproduce exactly what an evaluation saw.
  FlowResult RunCandidateFlow(const CandidateConfig& candidate) const;

 private:
  OptEvaluation EvaluateOne(const CandidateConfig& candidate) const;

  const Network& ti_;
  const Library& lib_;
  OptEvalConfig config_;
  MappedNetlist mapped_{""};
  TimingInfo timing_;
};

// Canonical front JSON: circuit, search parameters, the protect-all
// baseline, and one entry per front point (genome + Table-2 overheads +
// yield + spot-check status). Only semantic values — never wall-clock
// times — and emitted through service/json's canonical dumper, so two
// equal results produce byte-identical text.
std::string EncodeParetoFrontJson(const std::string& circuit,
                                  const OptimizerOptions& options,
                                  const OptimizeResult& result);

// Convenience: in-process optimizer run for a circuit.
OptimizeResult OptimizeCircuit(const Network& ti, const Library& lib,
                               const OptimizerOptions& options,
                               const OptEvalConfig& config = {});

}  // namespace sm
