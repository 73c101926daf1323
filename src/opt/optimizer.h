// Closed-loop masking optimizer: deterministic NSGA-II Pareto search over
// protection scope × guard band × synthesis effort.
//
// The paper's flow fixes one operating point — protect every SPCF-critical
// output at a 10% guard band with the default synthesis knobs. This
// optimizer searches the surrounding configuration space for cheaper
// points: masking only the outputs that matter for a target timing yield
// can cut the Table-2 area+power overhead sharply while the Monte-Carlo
// engine quantifies exactly how much escape risk the dropped outputs add.
//
//   minimize  f1 = area% + power%   (Table-2 overhead of the candidate)
//             f2 = residual_rate    (P[an error escapes under variation])
//   subject to yield_protected >= target_yield, safety, scope-coverage
//
// Search: NSGA-II with constrained (Deb) domination, binary tournaments,
// uniform crossover and palette-step mutation (opt/genome.h). Every
// distinct genome is evaluated exactly once — an archive keyed by the
// canonical genome string caches fitness across generations, and the final
// front is extracted from the WHOLE archive, not just the last population.
//
// Elite re-validation: before a candidate enters the published front it
// must survive a short adversarial fault-injection spot-check (zero
// escapes at its protected outputs). Failing candidates are expelled and
// the front recomputed until it is spot-check-stable — the closed loop
// that keeps the optimizer honest against its own fitness oracle.
//
// Determinism contract: generation g draws randomness only from
// Rng::ForStream(seed, g); evaluation runs in parallel but each candidate
// writes its own slot and the archive merge is sequential in batch order;
// NSGA-II ties break on population index (opt/nsga2.h) and archive order
// is the canonical key order. The resulting front is bit-identical across
// reruns, thread counts, and in-process vs daemon (optimize_masking) runs.
#pragma once

#include <cstdint>
#include <vector>

#include "opt/evaluator.h"
#include "opt/genome.h"
#include "util/cancel.h"

namespace sm {

struct OptimizerOptions {
  std::size_t population = 16;
  std::size_t generations = 6;
  std::uint64_t seed = 2009;
  int threads = 1;  // evaluation parallelism (wall-clock only)
  // Constraint: P(no residual error under variation) of the candidate.
  double target_yield = 0.95;
  // Guard-band fractions the SPCF axis may take. Must contain a value
  // close to 0.10 for the protect-all baseline to be the paper's.
  std::vector<double> guard_palette = {0.05, 0.10, 0.15, 0.20};
  double crossover_rate = 0.9;
  // Adversarial injection spot-check of front members (evaluator budget).
  bool spot_check = true;
  // Cooperative cancellation, polled at each generation boundary and before
  // every evaluation batch; a tripped token throws CancelledError (the
  // search returns nothing partial). Kernel-level checks inside each
  // candidate's flow come from the evaluator wiring the same token through
  // its FlowOptions. Not owned.
  const CancelToken* cancel = nullptr;
};

// population >= 2, generations >= 1, target_yield in [0, 1], finite
// crossover rate in [0, 1], valid palette. Throws std::invalid_argument.
void ValidateOptimizerOptions(const OptimizerOptions& options);

struct ParetoPoint {
  OptGenome genome;
  CandidateConfig config;  // genome resolved against the search space
  OptEvaluation eval;
  bool spot_checked = false;
  std::size_t spot_escapes = 0;  // always 0 for published points
};

struct OptimizeResult {
  // Feasible, non-dominated, spot-check-survived candidates, sorted by
  // ascending overhead (then residual rate, then canonical key).
  std::vector<ParetoPoint> front;
  // The protect-all baseline's fitness (always evaluated in generation 0).
  OptEvaluation baseline;
  OptSearchSpace space;
  std::size_t distinct_evaluations = 0;
  std::size_t spot_checks = 0;
  std::size_t spot_failures = 0;  // elites expelled by the injection loop
  std::size_t feasible = 0;       // archive entries meeting the constraint
  double seconds = 0;  // wall clock; never part of canonical output
};

OptimizeResult RunMaskingOptimizer(CandidateEvaluator& evaluator,
                                   const OptimizerOptions& options);

}  // namespace sm
