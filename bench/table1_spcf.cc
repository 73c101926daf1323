// Reproduction of Table 1: accuracy vs runtime for computing the speed-path
// characteristic function with (a) the node-based approach of [22]
// (over-approximate), (b) the proposed path-based extension of [22] (exact),
// and (c) the proposed short-path-based approach (exact).
//
// Expected shape (paper): the two exact algorithms agree; the node-based
// count is a superset (>=); the path-based extension is the slowest (~3.5x
// node-based in the paper); the short-path runtime is comparable to
// node-based. Absolute counts/runtimes differ from the paper because the
// circuits are synthetic stand-ins (see DESIGN.md §2).
//
// Usage: table1_spcf [--threads=N] [--json=PATH] [--smoke]
//                    [--reorder|--no-reorder]
//
// Circuits run as independent pool tasks, one BddManager per task; stdout
// carries only deterministic values (minterm counts and BDD-kernel op
// counts), so the table is byte-identical at any thread count — with or
// without --reorder, since each row's manager reorders deterministically.
// Wall-clock times go to stderr and the JSON dump.
#include <fstream>
#include <iostream>

#include "harness/bench_runner.h"
#include "harness/table.h"
#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "map/tech_map.h"
#include "service/json.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "util/strings.h"
#include "util/timer.h"

namespace sm {
namespace {

struct AlgoResult {
  double minterms = 0;
  double seconds = 0;
  // Deterministic kernel work: ITE/XOR recursions of the per-algorithm
  // manager (each algorithm runs in a fresh BddManager).
  std::size_t ops = 0;
};

struct CircuitRow {
  std::string name;
  std::string io;
  double area = 0;
  AlgoResult node, path, shrt;
};

// With `reorder`, each per-algorithm manager runs GC at checkpoints and one
// deterministic sifting episode; the checkpointed global-BDD build lets the
// reorder fire while the peak is forming.
BddManagerOptions RowManagerOptions(bool reorder) {
  BddManagerOptions o;
  if (reorder) {
    o.reorder = BddReorderMode::kOnce;
    o.reorder_trigger_nodes = 1024;
    o.gc_threshold = 2048;
  }
  return o;
}

AlgoResult RunAlgorithm(const MappedNetlist& net, const TimingInfo& timing,
                        SpcfAlgorithm algo, bool reorder) {
  BddManager mgr(static_cast<int>(net.NumInputs()), RowManagerOptions(reorder));
  std::vector<GateId> roots;
  for (const auto& o : net.outputs()) roots.push_back(o.driver);
  const auto globals =
      BuildMappedGlobalBdds(mgr, net, roots, /*checkpoint=*/reorder);
  TimedFunctionEngine engine(mgr, net, globals);
  SpcfOptions options;
  options.algorithm = algo;
  options.guard_band = 0.1;
  const SpcfResult r = ComputeSpcf(engine, net, timing, options);
  return AlgoResult{r.critical_minterms, r.runtime_seconds,
                    r.bdd.ite_recursions};
}

void WriteJson(const std::string& path, const std::vector<CircuitRow>& rows,
               int threads, double wall_seconds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  auto algo = [&out](const char* key, const AlgoResult& a, const char* tail) {
    out << "      \"" << key << "\": {\"minterms\": " << a.minterms
        << ", \"seconds\": " << a.seconds << ", \"ite_recursions\": " << a.ops
        << "}" << tail << "\n";
  };
  out << "{\n  \"bench\": \"table1_spcf\",\n  \"threads\": " << threads
      << ",\n  \"wall_seconds\": " << wall_seconds << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CircuitRow& r = rows[i];
    out << "    {\"circuit\": \"" << JsonEscape(r.name) << "\", \"io\": \""
        << r.io << "\", \"area\": " << r.area << ",\n";
    algo("node_based", r.node, ",");
    algo("path_extension", r.path, ",");
    algo("short_path", r.shrt, "");
    out << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const BenchOptions opts = ParseBenchArgs(argc, argv);
  const Library lib = Lsi10kLike();
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table1SmokeCircuits() : Table1Circuits();

  WallTimer wall;
  const std::vector<Network> nets = GenerateCircuits(infos, opts.threads);
  const std::vector<CircuitRow> rows =
      ParallelRows(infos.size(), opts.threads, [&](std::size_t i) {
        const TechMapResult mapped = DecomposeAndMap(nets[i], lib);
        const MappedNetlist& net = mapped.netlist;
        const TimingInfo timing = AnalyzeTiming(net);
        CircuitRow r;
        r.name = infos[i].spec.name;
        r.io = std::to_string(infos[i].spec.num_inputs) + "/" +
               std::to_string(infos[i].spec.num_outputs);
        r.area = net.TotalArea();
        r.node =
            RunAlgorithm(net, timing, SpcfAlgorithm::kNodeBased, opts.reorder);
        r.path = RunAlgorithm(net, timing, SpcfAlgorithm::kPathBasedExtension,
                              opts.reorder);
        r.shrt = RunAlgorithm(net, timing, SpcfAlgorithm::kShortPathBased,
                              opts.reorder);
        return r;
      });
  const double wall_seconds = wall.Seconds();

  std::cout << "Table 1: accuracy vs runtime for SPCF computation\n"
            << "(speed-paths within 10% of the critical path delay)\n\n";
  TablePrinter table(
      std::cout,
      {{"Circuit", 18},
       {"I/O", 9},
       {"Area", 7},
       {"node-based[22]", 14},
       {"ops", 8},
       {"path-ext (exact)", 16},
       {"ops", 8},
       {"short-path (exact)", 18},
       {"ops", 8}});
  table.PrintHeader();

  double node_total = 0;
  double path_total = 0;
  double short_total = 0;
  for (const CircuitRow& r : rows) {
    node_total += r.node.seconds;
    path_total += r.path.seconds;
    short_total += r.shrt.seconds;

    table.PrintRow({r.name, r.io, FormatCount(r.area),
                    FormatCount(r.node.minterms), std::to_string(r.node.ops),
                    FormatCount(r.path.minterms), std::to_string(r.path.ops),
                    FormatCount(r.shrt.minterms), std::to_string(r.shrt.ops)});

    if (r.path.minterms != r.shrt.minterms) {
      std::cout << "!! exact algorithms disagree on " << r.name << "\n";
      return 1;
    }
    if (r.node.minterms + 1e-9 < r.shrt.minterms) {
      std::cout << "!! node-based undercounts on " << r.name << "\n";
      return 1;
    }
  }
  table.PrintSeparator();
  std::cout << "\ninvariants held: exact algorithms agree; node-based is a "
               "superset on every circuit\n";

  // Wall-clock numbers are machine-dependent: stderr + JSON only, so stdout
  // stays byte-identical across thread counts and hosts.
  std::cerr << "threads " << opts.threads << ", wall " << wall_seconds
            << "s\nruntime totals: node-based " << node_total
            << "s, path-based extension " << path_total << "s, short-path "
            << short_total << "s\n";
  if (node_total > 0) {
    std::cerr << "path-ext / node-based runtime ratio:  "
              << FormatPercent(path_total / node_total, 2)
              << "x   (paper: ~3.5x)\n"
              << "short-path / node-based runtime ratio: "
              << FormatPercent(short_total / node_total, 2)
              << "x   (paper: ~1x)\n";
  }

  if (!opts.json_path.empty()) {
    WriteJson(opts.json_path, rows, opts.threads, wall_seconds);
  }
  return 0;
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
