// Closed-loop masking optimizer benchmark: Pareto fronts over protection
// scope × guard band × synthesis effort for the Table-1 circuits, at
// several target escape yields.
//
// Acceptance gates (exit status 0 iff all hold):
//   * savings  — on at least two circuits (one under --smoke) the front
//     contains a point with >= 20% lower area+power overhead than the
//     protect-all baseline at an equal-or-better escape yield;
//   * determinism — the first circuit's front JSON is byte-identical when
//     the search reruns with 1 vs 8 evaluation threads;
//   * spot-check — every published front point survived its adversarial
//     injection spot-check with zero escapes.
//
// Usage: opt_pareto [--threads=N] [--json=PATH] [--smoke]
//
// stdout carries only deterministic values (fronts, overheads, yields);
// wall-clock times go to stderr and the JSON dump.
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/bench_runner.h"
#include "harness/optimize.h"
#include "harness/table.h"
#include "liblib/lsi10k.h"
#include "service/json.h"
#include "suite/paper_suite.h"
#include "util/strings.h"
#include "util/timer.h"

namespace sm {
namespace {

struct OptRow {
  std::string circuit;
  double target_yield = 0;
  OptimizeResult result;
  double seconds = 0;

  // Cheapest front point with yield >= the protect-all baseline's — the
  // "same guarantee, less hardware" witness the savings gate looks for.
  const ParetoPoint* BestAtBaselineYield() const {
    for (const ParetoPoint& p : result.front) {  // sorted by overhead
      if (p.eval.yield_protected >= result.baseline.yield_protected) {
        return &p;
      }
    }
    return nullptr;
  }

  double CutPercent() const {
    const ParetoPoint* best = BestAtBaselineYield();
    if (best == nullptr || result.baseline.Overhead() <= 0) return 0;
    return 100.0 * (1.0 - best->eval.Overhead() / result.baseline.Overhead());
  }
};

std::string FormatFixed(double value, int decimals) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(decimals);
  out << value;
  return out.str();
}

std::string FormatScope(const ParetoPoint& p) {
  if (p.config.protect_all) return "all";
  std::ostringstream out;
  for (std::size_t i = 0; i < p.config.scope.size(); ++i) {
    if (i) out << ',';
    out << p.config.scope[i];
  }
  return out.str();
}

void WriteJson(const std::string& path, const std::vector<OptRow>& rows,
               int threads, double wall_seconds, bool determinism_identical,
               std::size_t circuits_passing, bool spot_clean) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"bench\": \"opt_pareto\",\n  \"threads\": " << threads
      << ",\n  \"wall_seconds\": " << wall_seconds
      << ",\n  \"determinism_identical\": "
      << (determinism_identical ? "true" : "false")
      << ",\n  \"circuits_with_20pct_cut\": " << circuits_passing
      << ",\n  \"spot_checks_clean\": " << (spot_clean ? "true" : "false")
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OptRow& row = rows[i];
    const OptimizeResult& r = row.result;
    const ParetoPoint* best = row.BestAtBaselineYield();
    out << "    {\"circuit\": \"" << JsonEscape(row.circuit)
        << "\", \"target_yield\": " << row.target_yield
        << ", \"baseline_overhead\": " << r.baseline.Overhead()
        << ", \"baseline_yield\": " << r.baseline.yield_protected
        << ", \"front_size\": " << r.front.size()
        << ", \"distinct_evaluations\": " << r.distinct_evaluations
        << ", \"feasible\": " << r.feasible
        << ", \"spot_checks\": " << r.spot_checks
        << ", \"spot_failures\": " << r.spot_failures;
    if (best != nullptr) {
      out << ", \"best_overhead\": " << best->eval.Overhead()
          << ", \"best_yield\": " << best->eval.yield_protected
          << ", \"best_config\": \"" << JsonEscape(CanonicalGenomeKey(
                 best->genome))
          << "\", \"cut_percent\": " << row.CutPercent();
    }
    out << ", \"seconds\": " << row.seconds << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const BenchOptions opts = ParseBenchArgs(argc, argv);
  const Library lib = Lsi10kLike();
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table1SmokeCircuits() : Table1Circuits();
  const std::vector<double> targets =
      opts.smoke ? std::vector<double>{0.90, 0.99}
                 : std::vector<double>{0.90, 0.95, 0.99};

  OptimizerOptions search;
  search.population = opts.smoke ? 8 : 12;
  search.generations = opts.smoke ? 2 : 3;
  search.threads = opts.threads;
  OptEvalConfig eval_config;
  eval_config.yield_trials = opts.smoke ? 300 : 600;

  WallTimer wall;
  const std::vector<Network> nets = GenerateCircuits(infos, opts.threads);

  std::vector<OptRow> rows;
  for (std::size_t c = 0; c < infos.size(); ++c) {
    for (const double target : targets) {
      WallTimer timer;
      OptRow row;
      row.circuit = infos[c].spec.name;
      row.target_yield = target;
      OptimizerOptions options = search;
      options.target_yield = target;
      row.result = OptimizeCircuit(nets[c], lib, options, eval_config);
      row.seconds = timer.Seconds();
      rows.push_back(std::move(row));
    }
  }

  // Determinism gate: rerun the first circuit's first target at 1 and 8
  // evaluation threads; the canonical front JSON must not budge.
  OptimizerOptions probe = search;
  probe.target_yield = targets[0];
  probe.threads = 1;
  const std::string narrow = EncodeParetoFrontJson(
      infos[0].spec.name, probe,
      OptimizeCircuit(nets[0], lib, probe, eval_config));
  probe.threads = 8;
  const std::string wide = EncodeParetoFrontJson(
      infos[0].spec.name, probe,
      OptimizeCircuit(nets[0], lib, probe, eval_config));
  const bool determinism_identical = narrow == wide;

  std::cout << "Closed-loop masking optimizer: Pareto search over scope x "
               "guard x effort\n(protect-all baseline at 10% guard band, "
               "effort 2)\n\n";
  TablePrinter table(std::cout, {{"Circuit", 18},
                                 {"Target", 7},
                                 {"Base%", 8},
                                 {"BaseYld", 8},
                                 {"Best%", 8},
                                 {"BestYld", 8},
                                 {"Cut%", 7},
                                 {"Config", 16},
                                 {"Front", 5},
                                 {"Evals", 6}});
  table.PrintHeader();

  std::size_t circuits_passing = 0;
  bool spot_clean = true;
  std::string last_circuit;
  bool circuit_passes = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OptRow& row = rows[i];
    const OptimizeResult& r = row.result;
    for (const ParetoPoint& p : r.front) {
      spot_clean = spot_clean && p.spot_checked && p.spot_escapes == 0;
    }
    if (row.circuit != last_circuit) {
      circuits_passing += circuit_passes ? 1 : 0;
      circuit_passes = false;
      last_circuit = row.circuit;
    }
    circuit_passes = circuit_passes || row.CutPercent() >= 20.0;

    const ParetoPoint* best = row.BestAtBaselineYield();
    table.PrintRow(
        {row.circuit, FormatFixed(row.target_yield, 2),
         FormatPercent(r.baseline.Overhead()),
         FormatFixed(r.baseline.yield_protected, 4),
         best ? FormatPercent(best->eval.Overhead()) : "-",
         best ? FormatFixed(best->eval.yield_protected, 4) : "-",
         best ? FormatPercent(row.CutPercent()) : "-",
         best ? CanonicalGenomeKey(best->genome) + "/" + FormatScope(*best)
              : "-",
         std::to_string(r.front.size()), std::to_string(r.distinct_evaluations)});
  }
  circuits_passing += circuit_passes ? 1 : 0;

  const std::size_t required = opts.smoke ? 1 : 2;
  std::cout << "\ncircuits with a >=20% overhead cut at equal-or-better "
               "yield: "
            << circuits_passing << " (gate: >= " << required << ")\n"
            << "thread-count determinism (1 vs 8): "
            << (determinism_identical ? "byte-identical" : "MISMATCH") << "\n"
            << "published front points spot-check clean: "
            << (spot_clean ? "yes" : "NO") << "\n";

  const double wall_seconds = wall.Seconds();
  double per_run = 0;
  for (const OptRow& row : rows) per_run += row.seconds;
  std::cerr << "threads " << opts.threads << ", wall " << wall_seconds
            << "s, per-search total " << per_run << "s\n";

  if (!opts.json_path.empty()) {
    WriteJson(opts.json_path, rows, opts.threads, wall_seconds,
              determinism_identical, circuits_passing, spot_clean);
  }
  return (circuits_passing >= required && determinism_identical && spot_clean)
             ? 0
             : 1;
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
