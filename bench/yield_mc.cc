// Monte-Carlo timing-yield benchmark (JSON output).
//
// Runs the full masking flow on a paper-suite circuit, then drives the
// parallel variation engine three ways:
//   1. plain MC at 1, 4 and 8 threads with one seed — reports trials/sec,
//      the speedup over 1 thread, and checks the counts are bit-identical;
//   2. the headline yield numbers (C vs C ∪ C̃) at the shipped clock Δ;
//   3. a rare-failure configuration (small sigma) where importance sampling
//      with 1/5 of the trials must land within its confidence interval of
//      the plain-MC residual-error estimate.
//
// Usage: yield_mc [circuit] [trials] [sigma]
//   circuit defaults to the largest paper-suite module (sparc_ifu_ifqdp);
//   trials defaults to 10000.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "suite/paper_suite.h"
#include "util/timer.h"

namespace sm {
namespace {

bool SameCounts(const YieldMcResult& a, const YieldMcResult& b) {
  return a.violations_original == b.violations_original &&
         a.violations_protected == b.violations_protected &&
         a.masked_trials == b.masked_trials &&
         a.residual_trials == b.residual_trials &&
         a.masked_events == b.masked_events &&
         a.residual_events == b.residual_events &&
         a.yield_original == b.yield_original &&  // bit-exact doubles too
         a.residual_rate == b.residual_rate;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> pos(argv + 1, argv + argc);
  const std::string circuit = !pos.empty() ? pos[0] : "sparc_ifu_ifqdp";
  const std::size_t trials =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                     : 10000;
  const double sigma = pos.size() > 2 ? std::atof(pos[2].c_str()) : 0.05;

  const Library lib = Lsi10kLike();
  WallTimer flow_timer;
  const Network ti = GenerateCircuit(PaperCircuitByName(circuit).spec);
  const FlowResult flow = RunMaskingFlow(ti, lib);
  const double flow_seconds = flow_timer.Seconds();
  if (!flow.verification.ok()) {
    std::cerr << "masking flow verification failed on " << circuit << "\n";
    return 1;
  }

  YieldMcOptions base;
  base.trials = trials;
  base.seed = 20090420;
  base.model.sigma = sigma;
  base.classify_transitions = 8;

  // --- 1. thread scaling + bit-identity ---------------------------------
  YieldMcResult by_threads[3];
  const int thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    YieldMcOptions o = base;
    o.threads = thread_counts[i];
    by_threads[i] = EstimateTimingYield(flow, o);
  }
  const bool identical = SameCounts(by_threads[0], by_threads[1]) &&
                         SameCounts(by_threads[0], by_threads[2]);
  const double speedup_8v1 =
      by_threads[2].seconds > 0
          ? by_threads[0].seconds / by_threads[2].seconds
          : 0;
  const YieldMcResult& mc = by_threads[2];

  // --- 2. rare-failure configuration: plain vs importance sampling ------
  // Residual escapes need a nominally-short path (or the masking logic) to
  // blow through the clock, which takes roughly 3× the headline sigma to
  // happen at all — and there it is still a rare event worth IS.
  YieldMcOptions rare = base;
  rare.threads = 8;
  rare.model.sigma = 3 * sigma;
  const YieldMcResult rare_plain = EstimateTimingYield(flow, rare);

  YieldMcOptions is = rare;
  is.trials = trials / 5;
  is.importance_sampling = true;
  const YieldMcResult rare_is = EstimateTimingYield(flow, is);
  // The IS estimate must reproduce the plain one within the combined 95%
  // interval (both carry sampling noise).
  const double gap = std::abs(rare_is.residual_rate - rare_plain.residual_rate);
  const double tolerance = rare_is.ConfidenceInterval95() +
                           rare_plain.ConfidenceInterval95();
  const bool is_consistent = gap <= tolerance;

  // --- JSON report ------------------------------------------------------
  std::printf("{\n");
  std::printf("  \"circuit\": \"%s\",\n", circuit.c_str());
  std::printf("  \"gates\": %zu,\n", flow.original.NumLogicGates());
  std::printf("  \"flow_seconds\": %.3f,\n", flow_seconds);
  std::printf("  \"model\": \"%s\",\n", ToString(base.model.kind));
  std::printf("  \"sigma\": %g,\n", sigma);
  std::printf("  \"clock\": %g,\n", mc.clock);
  std::printf("  \"protected_clock\": %g,\n", mc.protected_clock);
  std::printf("  \"trials\": %zu,\n", mc.trials);
  std::printf("  \"threads\": {\n");
  for (int i = 0; i < 3; ++i) {
    const YieldMcResult& r = by_threads[i];
    std::printf("    \"%d\": {\"seconds\": %.3f, \"trials_per_sec\": %.1f}%s\n",
                thread_counts[i], r.seconds, r.trials_per_second,
                i + 1 < 3 ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"speedup_8_vs_1\": %.2f,\n", speedup_8v1);
  std::printf("  \"counts_bit_identical\": %s,\n",
              identical ? "true" : "false");
  std::printf("  \"words_simulated\": %llu,\n",
              static_cast<unsigned long long>(mc.words_simulated));
  std::printf("  \"lane_utilization\": %.4f,\n", mc.lane_utilization);
  std::printf("  \"yield_original\": %.6f,\n", mc.yield_original);
  std::printf("  \"yield_protected\": %.6f,\n", mc.yield_protected);
  std::printf("  \"residual_rate\": %.6g,\n", mc.residual_rate);
  std::printf("  \"residual_stderr\": %.6g,\n", mc.residual_stderr);
  std::printf("  \"violations_original\": %zu,\n", mc.violations_original);
  std::printf("  \"violations_protected\": %zu,\n", mc.violations_protected);
  std::printf("  \"masked_trials\": %zu,\n", mc.masked_trials);
  std::printf("  \"residual_trials\": %zu,\n", mc.residual_trials);
  std::printf("  \"masked_events\": %llu,\n",
              static_cast<unsigned long long>(mc.masked_events));
  std::printf("  \"importance_sampling\": {\n");
  std::printf("    \"sigma\": %g,\n", rare.model.sigma);
  std::printf("    \"plain_trials\": %zu,\n", rare_plain.trials);
  std::printf("    \"plain_estimate\": %.6g,\n", rare_plain.residual_rate);
  std::printf("    \"plain_ci95\": %.6g,\n",
              rare_plain.ConfidenceInterval95());
  std::printf("    \"is_trials\": %zu,\n", rare_is.trials);
  std::printf("    \"is_estimate\": %.6g,\n", rare_is.residual_rate);
  std::printf("    \"is_ci95\": %.6g,\n", rare_is.ConfidenceInterval95());
  std::printf("    \"is_relative_error\": %.4f,\n", rare_is.relative_error);
  std::printf("    \"effective_samples\": %.1f,\n",
              rare_is.effective_samples);
  std::printf("    \"consistent\": %s\n", is_consistent ? "true" : "false");
  std::printf("  }\n");
  std::printf("}\n");

  return (identical && is_consistent) ? 0 : 1;
}

}  // namespace
}  // namespace sm

int main(int argc, char** argv) {
  try {
    return sm::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
