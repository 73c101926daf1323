// Reproduction of Table 2: area and power overhead for 100% masking of
// timing errors on speed-paths within 10% of the critical path delay, for
// the paper's 20 benchmark circuits (synthetic stand-ins, see DESIGN.md §2).
//
// Expected shape (paper): 100% coverage everywhere, average slack ~57%,
// average area overhead ~18%, average power overhead ~16%, ~20% of primary
// outputs critical.
//
// Usage: table2_overhead [--threads=N] [--json=PATH] [--smoke]
//                        [--reorder|--no-reorder]
//
// Circuits run as independent pool tasks (one full masking flow and one
// BddManager per task); stdout carries only deterministic values — the
// wall-clock column of the paper's table is replaced by the kernel's ITE
// recursion count — so the table is byte-identical at any thread count.
// --reorder turns on GC + one sifting episode inside each flow's manager;
// rows stay deterministic (and self-verified by the flow's formal coverage
// check), but the synthesized cubes differ from a --no-reorder run, so
// byte-identity comparisons must use the same flag on both sides.
// Wall-clock times go to stderr and the JSON dump.
#include <fstream>
#include <iostream>

#include "harness/bench_runner.h"
#include "harness/flow.h"
#include "harness/table.h"
#include "liblib/lsi10k.h"
#include "service/json.h"
#include "suite/paper_suite.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/timer.h"

namespace sm {
namespace {

// One circuit's worth of results; the FlowResult itself (and its BddManager)
// is dropped inside the task so memory stays bounded by the pool width.
struct CircuitRow {
  OverheadReport report;
  BddStats bdd;
  double seconds = 0;
};

void WriteJson(const std::string& path, const std::vector<CircuitRow>& rows,
               int threads, double wall_seconds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"bench\": \"table2_overhead\",\n  \"threads\": " << threads
      << ",\n  \"wall_seconds\": " << wall_seconds << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OverheadReport& o = rows[i].report;
    out << "    {\"circuit\": \"" << JsonEscape(o.circuit)
        << "\", \"inputs\": " << o.num_inputs
        << ", \"outputs\": " << o.num_outputs << ", \"gates\": " << o.num_gates
        << ", \"critical_outputs\": " << o.critical_outputs
        << ", \"critical_minterms\": " << o.critical_minterms
        << ", \"slack_percent\": " << o.slack_percent
        << ", \"area_percent\": " << o.area_percent
        << ", \"power_percent\": " << o.power_percent << ", \"covered\": "
        << ((o.coverage_100 && o.safety) ? "true" : "false")
        << ", \"seconds\": " << rows[i].seconds
        << ", \"bdd_nodes\": " << rows[i].bdd.num_nodes
        << ", \"bdd_peak_nodes\": " << rows[i].bdd.peak_live_nodes
        << ", \"bdd_reclaimed_nodes\": " << rows[i].bdd.gc_reclaimed
        << ", \"bdd_gc_runs\": " << rows[i].bdd.gc_runs
        << ", \"bdd_reorder_runs\": " << rows[i].bdd.reorder_runs
        << ", \"ite_recursions\": " << rows[i].bdd.ite_recursions << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const BenchOptions opts = ParseBenchArgs(argc, argv);
  const Library lib = Lsi10kLike();
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table2SmokeCircuits() : Table2Circuits();

  WallTimer wall;
  const std::vector<Network> nets = GenerateCircuits(infos, opts.threads);
  const std::vector<CircuitRow> rows =
      ParallelRows(infos.size(), opts.threads, [&](std::size_t i) {
        WallTimer timer;
        FlowOptions flow_options;
        if (opts.reorder) {
          flow_options.bdd_options.reorder = BddReorderMode::kOnce;
          flow_options.bdd_options.reorder_trigger_nodes = 1024;
          flow_options.bdd_options.gc_threshold = 2048;
        }
        const FlowResult r = RunMaskingFlow(nets[i], lib, flow_options);
        return CircuitRow{r.overheads, r.bdd, timer.Seconds()};
      });
  const double wall_seconds = wall.Seconds();

  std::cout << "Table 2: area and power overhead for 100% masking of timing\n"
            << "errors on speed-paths (guard band 10%)\n\n";
  TablePrinter table(std::cout, {{"Circuit", 18},
                                 {"I/O", 9},
                                 {"Gates", 6},
                                 {"CritPOs", 7},
                                 {"Crit minterms", 13},
                                 {"Slack%", 7},
                                 {"Area%", 7},
                                 {"Power%", 7},
                                 {"Cov", 4},
                                 {"BDD ops", 9}});
  table.PrintHeader();

  Accumulator slack;
  Accumulator area;
  Accumulator power;
  double critical_po_fraction_sum = 0;
  std::size_t rows_count = 0;
  bool all_covered = true;

  for (const CircuitRow& row : rows) {
    const OverheadReport& o = row.report;
    table.PrintRow(
        {o.circuit,
         std::to_string(o.num_inputs) + "/" + std::to_string(o.num_outputs),
         std::to_string(o.num_gates), std::to_string(o.critical_outputs),
         FormatCount(o.critical_minterms), FormatPercent(o.slack_percent),
         FormatPercent(o.area_percent), FormatPercent(o.power_percent),
         o.coverage_100 && o.safety ? "yes" : "NO",
         std::to_string(row.bdd.ite_recursions)});

    slack.Add(o.slack_percent);
    area.Add(o.area_percent);
    power.Add(o.power_percent);
    critical_po_fraction_sum += static_cast<double>(o.critical_outputs) /
                                static_cast<double>(o.num_outputs);
    ++rows_count;
    all_covered = all_covered && o.coverage_100 && o.safety;
  }
  table.PrintSeparator();
  table.PrintRow({"Average", "-", "-", "-", "-",
                  FormatPercent(slack.mean()), FormatPercent(area.mean()),
                  FormatPercent(power.mean()), all_covered ? "yes" : "NO",
                  "-"});

  std::cout << "\naverage critical-PO fraction: "
            << FormatPercent(100.0 * critical_po_fraction_sum /
                             static_cast<double>(rows_count))
            << "%   (paper: ~20%)\n"
            << "paper averages: slack 57%, area 18%, power 16%, coverage "
               "100%\n";

  // Machine-dependent wall-clock numbers stay off stdout.
  double seconds_total = 0;
  for (const CircuitRow& row : rows) seconds_total += row.seconds;
  std::cerr << "threads " << opts.threads << ", wall " << wall_seconds
            << "s, per-circuit flow total " << seconds_total << "s\n";

  if (!opts.json_path.empty()) {
    WriteJson(opts.json_path, rows, opts.threads, wall_seconds);
  }
  return all_covered ? 0 : 1;
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
