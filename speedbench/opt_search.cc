// opt_search: the closed-loop masking optimizer (src/opt), in process, on
// two Table-1 circuits. Each search runs premapped flows under many
// guard/effort/scope settings, with short Monte-Carlo runs and injection
// spot-checks of the front. The only user of src/opt.
#include <sstream>

#include "harness/optimize.h"
#include "liblib/lsi10k.h"
#include "speedbench.h"
#include "suite/paper_suite.h"

namespace speedbench {
namespace {

const char* const kCircuits[] = {"C432", "sparc_ifu_invctl"};
constexpr std::size_t kPopulation = 6;
constexpr std::size_t kGenerations = 2;
constexpr std::uint64_t kYieldTrials = 200;
// Searches per circuit in a pass, each with its own search seed. Which
// candidates a search visits, and so what it costs, depends strongly on its
// seed; several searches a pass keep that from dominating the run-to-run
// spread.
constexpr std::uint64_t kSearchesPerCircuit = 8;

struct Plan {
  sm::OptEvalConfig eval;
  std::vector<sm::OptimizerOptions> searches;
};

Plan MakePlan(std::uint64_t seed) {
  Plan plan;
  plan.eval.yield_trials = kYieldTrials;
  plan.eval.yield_seed = DeriveSeed(seed, 0);
  plan.eval.spot_seed = DeriveSeed(seed, 1);
  for (std::uint64_t i = 0; i < kSearchesPerCircuit; ++i) {
    sm::OptimizerOptions search;
    search.population = kPopulation;
    search.generations = kGenerations;
    search.seed = DeriveSeed(seed, 2 + i);
    search.threads = 1;
    plan.searches.push_back(search);
  }
  return plan;
}

// Times the optimizer's calls into its evaluator; the search's own time
// (NSGA-II sorting, archive, front extraction) is what is left over.
class TimedEvaluator : public sm::CandidateEvaluator {
 public:
  TimedEvaluator(sm::CandidateEvaluator& inner, Tracer& tracer, Outcome& out)
      : inner_(inner), tracer_(tracer), out_(out) {}

  std::size_t NumOutputs() override { return inner_.NumOutputs(); }
  std::vector<std::size_t> CriticalOutputs(double guard) override {
    const auto s = tracer_.Open("opt.critical");
    return inner_.CriticalOutputs(guard);
  }
  std::vector<sm::OptEvaluation> EvaluateBatch(
      const std::vector<sm::CandidateConfig>& candidates, int threads) override {
    const auto s = tracer_.Open("opt.evaluate");
    std::vector<sm::OptEvaluation> evals = inner_.EvaluateBatch(candidates, threads);
    for (const sm::OptEvaluation& e : evals) {
      ++out_.attempted;
      ++evaluations;
      if (!e.ok) {
        ++out_.failed;
        out_.Check(false, "evaluation threw: " + e.error);
      }
    }
    return evals;
  }
  std::size_t SpotCheck(const sm::CandidateConfig& candidate) override {
    const auto s = tracer_.Open("opt.spotcheck");
    ++spot_checks;
    return inner_.SpotCheck(candidate);
  }

  std::size_t evaluations = 0;
  std::size_t spot_checks = 0;

 private:
  sm::CandidateEvaluator& inner_;
  Tracer& tracer_;
  Outcome& out_;
};

// The circuits and their premapped evaluators (DecomposeAndMap runs once per
// circuit, in set-up); members are declared in dependency order.
struct Circuits {
  sm::Library lib = sm::Lsi10kLike();
  std::vector<sm::Network> nets;
  std::vector<std::unique_ptr<sm::InProcessEvaluator>> evaluators;
  double generate_s = 0;
};

// Every planned search on every circuit, the timed operation; returns its
// wall time. `fronts` receives each search's canonical front JSON.
double Pass(const Circuits& circuits, const Plan& plan, Tracer& tracer,
            Outcome& out, std::vector<std::string>& fronts,
            std::size_t& evaluations, std::size_t& spot_checks) {
  fronts.clear();
  evaluations = spot_checks = 0;
  sm::WallTimer timer;
  for (std::size_t k = 0; k < plan.searches.size() * circuits.nets.size(); ++k) {
    const sm::OptimizerOptions& search = plan.searches[k / circuits.nets.size()];
    const std::size_t i = k % circuits.nets.size();
    const std::string name = kCircuits[i];
    try {
      const auto s = tracer.Open("opt.search");
      TimedEvaluator timed(*circuits.evaluators[i], tracer, out);
      const sm::OptimizeResult result = sm::RunMaskingOptimizer(timed, search);
      evaluations += timed.evaluations;
      spot_checks += timed.spot_checks;
      fronts.push_back(sm::EncodeParetoFrontJson(name, search, result));
      bool clean = result.baseline.ok && !result.front.empty();
      for (const sm::ParetoPoint& p : result.front) {
        clean = clean && p.spot_checked && p.spot_escapes == 0;
      }
      out.Check(clean, name + ": empty front, failed baseline or unchecked front point");
    } catch (const std::exception& e) {
      ++out.attempted;
      ++out.failed;
      out.Check(false, name + ": search threw: " + e.what());
    }
  }
  const double seconds = timer.Seconds();
  out.op_ms.push_back(seconds * 1e3);
  return seconds;
}

}  // namespace

std::string OptPlanText(std::uint64_t seed) {
  const Plan plan = MakePlan(seed);
  std::ostringstream text;
  text << "yield_seed=" << plan.eval.yield_seed
       << " yield_trials=" << plan.eval.yield_trials
       << " spot_seed=" << plan.eval.spot_seed << "\n";
  for (const sm::OptimizerOptions& search : plan.searches) {
    for (const char* name : kCircuits) {
      text << name << " search_seed=" << search.seed
           << " population=" << search.population
           << " generations=" << search.generations << "\n";
    }
  }
  return text.str();
}

Outcome RunOptSearch(const RunConfig& config) {
  Outcome out;
  const Plan plan = MakePlan(config.seed);
  const auto circuits = RepeatedSetup(11, &out.setup_s, [&] {
    auto c = std::make_unique<Circuits>();
    sm::WallTimer timer;
    for (const char* name : kCircuits) {
      c->nets.push_back(sm::GenerateCircuit(sm::PaperCircuitByName(name).spec));
    }
    c->generate_s = timer.Seconds();
    for (const sm::Network& net : c->nets) {
      c->evaluators.push_back(
          std::make_unique<sm::InProcessEvaluator>(net, c->lib, plan.eval));
    }
    return c;
  });
  out.Layer("suite.generate_s", circuits->generate_s, "s");

  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  Tracer off(false);
  std::vector<std::string> first, fronts;
  std::size_t evaluations = 0, spot_checks = 0;
  std::vector<double> pass_s;
  double untraced_s = 0;
  std::size_t passes = 0;
  do {
    pass_s.push_back(Pass(*circuits, plan, off, out, passes == 0 ? first : fronts,
                          evaluations, spot_checks));
    untraced_s += pass_s.back();
    if (passes > 0) out.Check(fronts == first, "Pareto fronts differ between passes");
    ++passes;
  } while (untraced_s < untraced_budget);
  // The median pass, so a few passes slowed by a busy machine do not move it.
  out.work_per_s = static_cast<double>(evaluations) / Median(pass_s);
  out.Info("opt.evals_per_s", out.work_per_s, "1/s");
  out.Info("opt_search.passes", static_cast<double>(passes), "count");
  out.Layer("opt.evaluations", static_cast<double>(evaluations), "count");
  out.Layer("opt.spot_checks", static_cast<double>(spot_checks), "count");
  if (!config.trace) return out;

  Tracer tracer(true);
  double traced_s = 0;
  std::size_t traced_passes = 0;
  do {
    traced_s += Pass(*circuits, plan, tracer, out, fronts, evaluations, spot_checks);
    out.Check(fronts == first, "traced Pareto fronts differ from untraced");
    ++traced_passes;
  } while (traced_s < config.seconds / 2);
  const double search_s = tracer.Total("opt.search");
  const double evaluate_s = tracer.Total("opt.evaluate") + tracer.Total("opt.critical");
  const double spot_s = tracer.Total("opt.spotcheck");
  out.Info("opt.evaluate_s", evaluate_s, "s");
  out.Info("opt.spotcheck_s", spot_s, "s");
  out.Info("opt.search_self_s", tracer.Self("opt.search"), "s");
  out.Layer("opt.evaluate_pct", 100.0 * evaluate_s / search_s, "%");
  out.Layer("opt.spotcheck_pct", 100.0 * spot_s / search_s, "%");
  out.Layer("opt.search_self_pct", 100.0 * tracer.Self("opt.search") / search_s, "%");
  const double per_untraced = untraced_s / static_cast<double>(passes);
  const double per_traced = traced_s / static_cast<double>(traced_passes);
  out.Layer("trace.overhead_pct", 100.0 * (per_traced / per_untraced - 1), "%");
  return out;
}

}  // namespace speedbench
