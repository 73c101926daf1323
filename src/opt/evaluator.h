// Pluggable candidate evaluation for the masking optimizer.
//
// The optimizer (opt/optimizer.h) never runs a flow itself — it hands
// resolved candidate configurations to a CandidateEvaluator and consumes
// the scalar fitness summaries that come back. The production
// implementation is InProcessEvaluator (harness/optimize.h), which runs
// RunMaskingFlow + EstimateTimingYield per candidate; the analysis daemon's
// optimize_masking method runs the same evaluator server-side. Evaluations
// must be pure functions of the candidate, so the search trajectory — and
// the final Pareto front — does not depend on the thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "opt/genome.h"

namespace sm {

// Scalar fitness summary of one candidate masking flow.
struct OptEvaluation {
  // False when the flow or yield estimate threw (e.g. BDD overflow); the
  // optimizer then treats the candidate as maximally infeasible.
  bool ok = false;
  std::string error;  // what() when !ok

  double area_percent = 0;
  double power_percent = 0;
  double slack_percent = 0;
  double residual_rate = 0;
  double yield_original = 0;
  double yield_protected = 0;
  std::size_t critical_outputs = 0;
  std::size_t protected_outputs = 0;
  bool safety = false;
  // Full coverage over the candidate's own scope (partial-scope flows pass
  // this while plain coverage_100 stays false).
  bool scope_coverage = false;

  // Objective 1: total Table-2 overhead.
  double Overhead() const { return area_percent + power_percent; }
};

class CandidateEvaluator {
 public:
  virtual ~CandidateEvaluator() = default;

  // Output count of the circuit under optimization.
  virtual std::size_t NumOutputs() = 0;

  // Critical-output indices (ascending) the SPCF reports at `guard` — the
  // optimizer calls this once per palette entry to build the search space.
  virtual std::vector<std::size_t> CriticalOutputs(double guard) = 0;

  // One evaluation per candidate, same order. `threads` is a wall-clock
  // hint only: results must not depend on it.
  virtual std::vector<OptEvaluation> EvaluateBatch(
      const std::vector<CandidateConfig>& candidates, int threads) = 0;

  // Short adversarial injection campaign against the candidate's flow
  // (worst-slack sites first, unprotected-critical outputs waived);
  // returns the escape count. Zero is the only acceptable answer for a
  // candidate to enter the published Pareto front.
  virtual std::size_t SpotCheck(const CandidateConfig& candidate) = 0;
};

}  // namespace sm
