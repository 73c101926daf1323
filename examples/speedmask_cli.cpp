// speedmask_cli — command-line driver for the library.
//
//   speedmask_cli flow <circuit> [--guard <frac>] [--verilog <path>]
//                  [--reorder|--no-reorder]
//       run the full masking flow on a named paper circuit or a BLIF file;
//       prints the Table-2 row and optionally writes the protected netlist.
//   speedmask_cli spcf <circuit> [--guard <frac>] [--algo node|path|short]
//                  [--reorder|--no-reorder]
//       compute the SPCF and print per-output pattern counts. --reorder
//       turns on GC + one deterministic sifting episode in the BDD manager.
//   speedmask_cli gen <name> [--blif <path>]
//       generate a named paper circuit and print stats / write BLIF.
//   speedmask_cli list
//       list the built-in paper circuits.
//   speedmask_cli inject <circuit> [--guard <frac>]
//                  [--strategy exhaustive|random|adversarial]
//                  [--fault permanent|transient] [--sites <n>]
//                  [--vectors <n>] [--delta-fraction <f>] [--seed <n>]
//                  [--threads <n>] [--repro-dir <dir>]
//       run the masking flow, then a timing-fault injection campaign against
//       the protected netlist; nonzero exit on any escape. --repro-dir dumps
//       shrunk escape reproducers (BLIF + JSON) into an existing directory.
//   speedmask_cli optimize <circuit> [--target-yield <y>] [--population <n>]
//                  [--generations <n>] [--seed <n>] [--threads <n>]
//                  [--trials <n>] [--sigma <s>] [--no-spot-check]
//                  [--json <path>]
//       run the closed-loop Pareto search over protection scope × guard
//       band × synthesis effort and print the canonical front JSON.
//       (`submit --method optimize` runs the same search on a daemon.)
//   speedmask_cli serve [--socket <path|host:port>] [--workers <n>]
//       run the analysis daemon until a client sends `shutdown`. The
//       address is a Unix socket path or host:port (":0" = free port).
//   speedmask_cli submit <circuit> [--socket <path|host:port>]
//                  [--method spcf|flow|yield|inject|optimize]
//                  [--guard <frac>] [--algo node|path|short]
//                  [--trials <n>] [--sigma <s>] [--seed <n>]
//                  [--strategy exhaustive|random|adversarial]
//                  [--fault permanent|transient] [--sites <n>] [--vectors <n>]
//                  [--target-yield <y>] [--population <n>] [--generations <n>]
//                  [--deadline-ms <n>] [--work-budget <n>]
//                  [--read-timeout-ms <n>]
//       send one request to a running daemon and print the result JSON
//       (connects and retries with backoff while the daemon is overloaded).
//       --deadline-ms bounds server-side compute: an expired deadline aborts
//       the analysis mid-flight and answers `deadline_exceeded`.
//       --work-budget caps BDD recursion steps (`resource_exhausted` past
//       it). --read-timeout-ms bounds the local wait for each response
//       frame so a wedged daemon surfaces a typed FrameError, not a hang.
//   speedmask_cli stats [--socket <path|host:port>]
//   speedmask_cli shutdown [--socket <path|host:port>]
//       query daemon counters / drain and stop the daemon.
//
// <circuit> is either a name from `list` or a path to a BLIF file.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_runner.h"
#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/optimize.h"
#include "liblib/lsi10k.h"
#include "map/netlist_io.h"
#include "network/blif.h"
#include "network/topo.h"
#include "service/client.h"
#include "service/server.h"
#include "suite/paper_suite.h"
#include "util/strings.h"

namespace {

using namespace sm;

Network LoadCircuit(const std::string& spec) {
  if (spec.find('.') != std::string::npos ||
      spec.find('/') != std::string::npos) {
    return ReadBlifFile(spec);
  }
  return GenerateCircuit(PaperCircuitByName(spec).spec);
}

std::optional<std::string> GetFlag(std::vector<std::string>& args,
                                   const std::string& name) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

// Valueless switch: returns true if present (and removes it).
bool GetSwitch(std::vector<std::string>& args, const std::string& name) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == name) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

// --reorder enables GC + one deterministic sifting episode in the BDD
// manager; --no-reorder (the default) keeps the static variable order.
bool ParseReorderSwitch(std::vector<std::string>& args) {
  const bool on = GetSwitch(args, "--reorder");
  const bool off = GetSwitch(args, "--no-reorder");
  return on && !off;
}

BddManagerOptions ReorderManagerOptions() {
  BddManagerOptions o;
  o.reorder = BddReorderMode::kOnce;
  o.reorder_trigger_nodes = 1024;
  o.gc_threshold = 2048;
  return o;
}

int CmdList() {
  std::cout << "built-in circuits (Table 2 of the paper):\n";
  for (const auto& info : Table2Circuits()) {
    std::cout << "  " << info.spec.name << "  (" << info.spec.num_inputs
              << "/" << info.spec.num_outputs << " I/O, ~" << info.paper_gates
              << " gates in the paper)\n";
  }
  return 0;
}

int CmdGen(std::vector<std::string> args) {
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli gen <name> [--blif <path>]\n";
    return 2;
  }
  const auto blif_path = GetFlag(args, "--blif");
  const Network net = LoadCircuit(args[0]);
  std::cout << net.name() << ": " << net.NumInputs() << " inputs, "
            << net.NumOutputs() << " outputs, " << net.NumLogicNodes()
            << " nodes, depth " << MaxLevel(net) << "\n";
  if (blif_path) {
    WriteBlifFile(net, *blif_path);
    std::cout << "wrote " << *blif_path << "\n";
  }
  return 0;
}

int CmdSpcf(std::vector<std::string> args) {
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli spcf <circuit> [--guard <frac>] "
                 "[--algo node|path|short] [--reorder|--no-reorder]\n";
    return 2;
  }
  const bool reorder = ParseReorderSwitch(args);
  const double guard = std::stod(GetFlag(args, "--guard").value_or("0.1"));
  const std::string algo = GetFlag(args, "--algo").value_or("short");
  const Network ti = LoadCircuit(args[0]);
  const Library lib = Lsi10kLike();
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  const TimingInfo timing = AnalyzeTiming(mapped.netlist);

  SpcfOptions options;
  options.guard_band = guard;
  if (algo == "node") {
    options.algorithm = SpcfAlgorithm::kNodeBased;
  } else if (algo == "path") {
    options.algorithm = SpcfAlgorithm::kPathBasedExtension;
  } else if (algo == "short") {
    options.algorithm = SpcfAlgorithm::kShortPathBased;
  } else {
    std::cerr << "unknown algorithm: " << algo << "\n";
    return 2;
  }
  BddManager mgr(static_cast<int>(mapped.netlist.NumInputs()),
                 reorder ? ReorderManagerOptions() : BddManagerOptions{});
  const SpcfResult r = ComputeSpcf(mgr, mapped.netlist, timing, options);

  std::cout << ti.name() << ": Δ = " << timing.critical_delay
            << ", target arrival = " << r.target_arrival << " ("
            << ToString(options.algorithm) << ")\n"
            << "critical outputs: " << r.critical_outputs.size() << " of "
            << mapped.netlist.NumOutputs() << "\n";
  for (std::size_t i : r.critical_outputs) {
    std::cout << "  " << mapped.netlist.output(i).name << ": "
              << FormatCount(mgr.SatCount(
                     r.sigma[i], static_cast<int>(mapped.netlist.NumInputs())))
              << " patterns\n";
  }
  std::cout << "union: " << FormatCount(r.critical_minterms) << " patterns ("
            << r.runtime_seconds << " s)\n";
  if (reorder) {
    const BddStats s = mgr.Stats();
    std::cout << "manager: peak " << s.peak_live_nodes << " nodes, "
              << s.gc_runs << " GC runs (" << s.gc_reclaimed
              << " nodes reclaimed), " << s.reorder_runs
              << " reorder runs (" << s.reorder_swaps << " swaps)\n";
  }
  return 0;
}

int CmdFlow(std::vector<std::string> args) {
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli flow <circuit> [--guard <frac>] "
                 "[--verilog <path>] [--reorder|--no-reorder]\n";
    return 2;
  }
  const bool reorder = ParseReorderSwitch(args);
  const double guard = std::stod(GetFlag(args, "--guard").value_or("0.1"));
  const auto verilog_path = GetFlag(args, "--verilog");
  const Network ti = LoadCircuit(args[0]);
  const Library lib = Lsi10kLike();
  FlowOptions options;
  options.spcf.guard_band = guard;
  if (reorder) options.bdd_options = ReorderManagerOptions();
  const FlowResult r = RunMaskingFlow(ti, lib, options);
  const OverheadReport& o = r.overheads;

  std::cout << o.circuit << ": " << o.num_inputs << "/" << o.num_outputs
            << " I/O, " << o.num_gates << " gates, Δ = "
            << r.timing.critical_delay << "\n"
            << "critical outputs : " << o.critical_outputs << "\n"
            << "critical minterms: " << FormatCount(o.critical_minterms)
            << "\n"
            << "slack            : " << FormatPercent(o.slack_percent)
            << "%\narea overhead    : " << FormatPercent(o.area_percent)
            << "%\npower overhead   : " << FormatPercent(o.power_percent)
            << "%\nsafety           : " << (o.safety ? "proved" : "FAILED")
            << "\ncoverage         : "
            << (o.coverage_100 ? "100% (proved)" : "FAILED") << "\n";
  if (reorder) {
    std::cout << "manager          : peak " << r.bdd.peak_live_nodes
              << " nodes, " << r.bdd.gc_runs << " GC runs ("
              << r.bdd.gc_reclaimed << " reclaimed), " << r.bdd.reorder_runs
              << " reorder runs\n";
  }
  if (verilog_path) {
    std::ofstream f(*verilog_path);
    WriteVerilog(r.protected_circuit.netlist, f);
    std::cout << "wrote protected netlist to " << *verilog_path << "\n";
  }
  return (o.safety && o.coverage_100) ? 0 : 1;
}

int CmdInject(std::vector<std::string> args) {
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli inject <circuit> [--guard <frac>] "
                 "[--strategy exhaustive|random|adversarial] "
                 "[--fault permanent|transient] [--sites <n>] [--vectors <n>] "
                 "[--delta-fraction <f>] [--seed <n>] [--threads <n>] "
                 "[--repro-dir <dir>]\n";
    return 2;
  }
  const double guard = std::stod(GetFlag(args, "--guard").value_or("0.1"));
  InjectOptions options;
  options.strategy = FaultSiteStrategyFromString(
      GetFlag(args, "--strategy").value_or("exhaustive"));
  options.fault_kind =
      FaultKindFromString(GetFlag(args, "--fault").value_or("permanent"));
  options.max_sites = std::stoull(GetFlag(args, "--sites").value_or("0"));
  options.vectors_per_site =
      std::stoull(GetFlag(args, "--vectors").value_or("24"));
  options.delta_fraction =
      std::stod(GetFlag(args, "--delta-fraction").value_or("1.0"));
  options.seed = std::stoull(GetFlag(args, "--seed").value_or("2009"));
  options.threads =
      ParseThreadCount(GetFlag(args, "--threads").value_or("1"));
  const auto repro_dir = GetFlag(args, "--repro-dir");

  const Network ti = LoadCircuit(args[0]);
  const Library lib = Lsi10kLike();
  FlowOptions flow_options;
  flow_options.spcf.guard_band = guard;
  const FlowResult flow = RunMaskingFlow(ti, lib, flow_options);
  const InjectionCampaignResult r = RunFaultInjectionCampaign(flow, options);

  std::cout << flow.overheads.circuit << ": " << r.sites << " fault sites ("
            << ToString(options.strategy) << ", "
            << ToString(options.fault_kind) << "), " << r.trials
            << " trials at delta " << r.delta << " (clock " << r.clock
            << ", judged at " << r.protected_clock << ")\n"
            << "benign: " << r.benign << "  masked: " << r.masked << " ("
            << r.masked_events << " events)  escapes: " << r.escapes << "\n";
  for (const EscapeRecord& rec : r.escape_records) {
    std::cout << "  escape at " << rec.site_name << " -> " << rec.output_name
              << " (trial " << rec.trial << ", delta " << rec.delta
              << (rec.shrunk ? ", shrunk" : "") << ")\n";
  }
  if (repro_dir && !r.escape_records.empty()) {
    for (const std::string& path : WriteEscapeReproducers(
             flow, r, *repro_dir, flow.overheads.circuit)) {
      std::cout << "wrote " << path << "\n";
    }
  }
  std::cout << "guarantee: " << (r.GuaranteeHolds() ? "held" : "BROKEN")
            << "\n";
  return r.GuaranteeHolds() ? 0 : 1;
}

int CmdServe(std::vector<std::string> args) {
  ServerOptions options;
  options.listen_address =
      GetFlag(args, "--socket").value_or(options.listen_address);
  options.num_workers = static_cast<std::size_t>(std::stoul(
      GetFlag(args, "--workers")
          .value_or(std::to_string(options.num_workers))));
  SpeedmaskServer server(options);
  server.Start();
  std::cerr << "speedmask daemon listening on " << server.address()
            << " (" << options.num_workers << " workers); send `speedmask_cli "
            << "shutdown --socket " << server.address() << "` to stop\n";
  server.Wait();
  const ServiceStatsSnapshot stats = server.SnapshotStats();
  std::cerr << "daemon stopped after " << stats.requests_total << " requests ("
            << stats.cache.hits << " cache hits)\n";
  return 0;
}

int CmdOptimize(std::vector<std::string> args) {
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli optimize <circuit> "
                 "[--target-yield <y>] [--population <n>] "
                 "[--generations <n>] [--seed <n>] [--threads <n>] "
                 "[--trials <n>] [--sigma <s>] [--no-spot-check] "
                 "[--json <path>]\n";
    return 2;
  }
  OptimizerOptions options;
  options.target_yield =
      std::stod(GetFlag(args, "--target-yield").value_or("0.95"));
  options.population =
      std::stoull(GetFlag(args, "--population").value_or("16"));
  options.generations =
      std::stoull(GetFlag(args, "--generations").value_or("6"));
  options.seed = std::stoull(GetFlag(args, "--seed").value_or("2009"));
  options.threads =
      ParseThreadCount(GetFlag(args, "--threads").value_or("1"));
  options.spot_check = !GetSwitch(args, "--no-spot-check");
  OptEvalConfig config;
  config.yield_trials =
      std::stoull(GetFlag(args, "--trials").value_or("1500"));
  config.sigma = std::stod(GetFlag(args, "--sigma").value_or("0.05"));
  const auto json_path = GetFlag(args, "--json");

  const Network net = LoadCircuit(args[0]);
  const Library lib = Lsi10kLike();
  const OptimizeResult result = OptimizeCircuit(net, lib, options, config);

  const std::string json = EncodeParetoFrontJson(net.name(), options, result);
  std::cout << json << "\n";
  if (json_path) {
    std::ofstream f(*json_path);
    f << json << "\n";
    std::cerr << "wrote " << *json_path << "\n";
  }
  std::cerr << result.distinct_evaluations << " evaluations, "
            << result.feasible << " feasible, front " << result.front.size()
            << " (spot checks " << result.spot_checks << ", failures "
            << result.spot_failures << ") in " << result.seconds << "s\n";
  if (result.baseline.ok && !result.front.empty()) {
    const OptEvaluation& best = result.front.front().eval;
    std::cerr << "baseline overhead " << result.baseline.Overhead()
              << "% @ yield " << result.baseline.yield_protected
              << " -> cheapest front point " << best.Overhead() << "% @ yield "
              << best.yield_protected << "\n";
  }
  return 0;
}

int CmdSubmit(std::vector<std::string> args) {
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli submit <circuit> [--socket <path>] "
                 "[--method spcf|flow|yield|inject|optimize] "
                 "[--guard <frac>] [--algo node|path|short] [--trials <n>] "
                 "[--sigma <s>] [--seed <n>] [--target-yield <y>] "
                 "[--population <n>] [--generations <n>] [--deadline-ms <n>] "
                 "[--work-budget <n>] [--read-timeout-ms <n>]\n";
    return 2;
  }
  const std::string socket =
      GetFlag(args, "--socket").value_or(ServerOptions{}.listen_address);
  const std::string method = GetFlag(args, "--method").value_or("spcf");
  const std::string algo = GetFlag(args, "--algo").value_or("short");

  ServiceRequest request;
  if (method == "spcf") {
    request.method = ServiceMethod::kAnalyzeSpcf;
  } else if (method == "flow") {
    request.method = ServiceMethod::kSynthesizeMasking;
  } else if (method == "yield") {
    request.method = ServiceMethod::kEstimateYield;
  } else if (method == "inject") {
    request.method = ServiceMethod::kInjectCampaign;
  } else if (method == "optimize") {
    request.method = ServiceMethod::kOptimizeMasking;
  } else {
    std::cerr << "unknown method: " << method << "\n";
    return 2;
  }
  const std::string& spec = args[0];
  if (spec.find('.') != std::string::npos ||
      spec.find('/') != std::string::npos) {
    std::ifstream f(spec);
    if (!f) {
      std::cerr << "cannot read " << spec << "\n";
      return 2;
    }
    std::ostringstream text;
    text << f.rdbuf();
    request.circuit_blif = text.str();
  } else {
    request.circuit_name = spec;
  }
  request.guard = std::stod(GetFlag(args, "--guard").value_or("0.1"));
  if (algo == "node") {
    request.algorithm = SpcfAlgorithm::kNodeBased;
  } else if (algo == "path") {
    request.algorithm = SpcfAlgorithm::kPathBasedExtension;
  } else if (algo == "short") {
    request.algorithm = SpcfAlgorithm::kShortPathBased;
  } else {
    std::cerr << "unknown algorithm: " << algo << "\n";
    return 2;
  }
  request.trials = std::stoull(GetFlag(args, "--trials").value_or("2000"));
  request.sigma = std::stod(GetFlag(args, "--sigma").value_or("0.05"));
  request.seed = std::stoull(GetFlag(args, "--seed").value_or("2009"));
  request.strategy = FaultSiteStrategyFromString(
      GetFlag(args, "--strategy").value_or("exhaustive"));
  request.fault =
      FaultKindFromString(GetFlag(args, "--fault").value_or("permanent"));
  request.sites = std::stoull(GetFlag(args, "--sites").value_or("0"));
  request.vectors = std::stoull(GetFlag(args, "--vectors").value_or("24"));
  request.target_yield =
      std::stod(GetFlag(args, "--target-yield").value_or("0.95"));
  request.population =
      std::stoull(GetFlag(args, "--population").value_or("16"));
  request.generations =
      std::stoull(GetFlag(args, "--generations").value_or("6"));
  request.deadline_ms =
      std::stod(GetFlag(args, "--deadline-ms").value_or("0"));
  request.work_budget =
      std::stoull(GetFlag(args, "--work-budget").value_or("0"));
  ClientOptions client_options;
  client_options.read_timeout_ms =
      std::stoi(GetFlag(args, "--read-timeout-ms").value_or("0"));

  // Campaign submissions ride out a briefly saturated daemon instead of
  // failing on the first "overloaded".
  auto client = ServiceClient::ConnectWithRetry(socket, {}, client_options);
  const ServiceResponse response = client->CallWithRetry(std::move(request));
  if (!response.ok()) {
    std::cerr << response.status << ": " << response.error
              << (response.code.empty() ? "" : " [" + response.code + "]")
              << (response.retryable() ? " (retryable)" : "") << "\n";
    return 1;
  }
  std::cout << response.result_json << "\n";
  return 0;
}

int CmdStats(std::vector<std::string> args) {
  const std::string socket =
      GetFlag(args, "--socket").value_or(ServerOptions{}.listen_address);
  ServiceClient client(socket);
  std::cout << client.Stats().result_json << "\n";
  return 0;
}

int CmdShutdown(std::vector<std::string> args) {
  const std::string socket =
      GetFlag(args, "--socket").value_or(ServerOptions{}.listen_address);
  ServiceClient client(socket);
  const ServiceResponse response = client.Shutdown();
  if (!response.ok()) {
    std::cerr << response.status << ": " << response.error << "\n";
    return 1;
  }
  std::cout << "daemon drained and stopped\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: speedmask_cli "
                 "<list|gen|spcf|flow|inject|optimize|serve|submit|stats|"
                 "shutdown> ...\n";
    return 2;
  }
  const std::string cmd = args[0];
  args.erase(args.begin());
  try {
    if (cmd == "list") return CmdList();
    if (cmd == "gen") return CmdGen(std::move(args));
    if (cmd == "spcf") return CmdSpcf(std::move(args));
    if (cmd == "flow") return CmdFlow(std::move(args));
    if (cmd == "inject") return CmdInject(std::move(args));
    if (cmd == "optimize") return CmdOptimize(std::move(args));
    if (cmd == "serve") return CmdServe(std::move(args));
    if (cmd == "submit") return CmdSubmit(std::move(args));
    if (cmd == "stats") return CmdStats(std::move(args));
    if (cmd == "shutdown") return CmdShutdown(std::move(args));
    std::cerr << "unknown command: " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
