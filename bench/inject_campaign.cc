// Timing-fault injection campaign benchmark and zero-escape gate.
//
// For every Table 1 circuit: run the full masking flow at the default 10%
// guard band, then attack the protected netlist with an exhaustive
// speed-path injection campaign (one guard-window delay fault per original
// speed-path gate, robust path-sensitized + random vector pairs). The paper
// guarantee says no trial may latch a wrong value at a protected output —
// the benchmark exits non-zero on ANY escape, and also re-runs every
// campaign at 8 threads to hold the engine to its bit-identical-results
// determinism contract.
//
// Usage: inject_campaign [--smoke] [--threads=N] [--json=PATH]
//   --smoke     reduced circuit list for CI
//   --json=PATH result dump (default BENCH_inject.json)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_runner.h"
#include "harness/flow.h"
#include "harness/inject.h"
#include "liblib/lsi10k.h"
#include "service/json.h"
#include "suite/paper_suite.h"
#include "util/timer.h"

namespace sm {
namespace {

struct Row {
  std::string name;
  std::size_t gates = 0;
  double flow_seconds = 0;
  InjectionCampaignResult campaign;  // the 8-thread run
  bool identical_1v8 = false;
  bool verified = false;
};

// The determinism contract covers every semantic field; only wall-clock
// times may differ between thread counts.
bool SameResults(const InjectionCampaignResult& a,
                 const InjectionCampaignResult& b) {
  if (a.sites != b.sites || a.trials != b.trials || a.benign != b.benign ||
      a.masked != b.masked || a.escapes != b.escapes ||
      a.masked_events != b.masked_events || a.clock != b.clock ||
      a.protected_clock != b.protected_clock || a.delta != b.delta ||
      a.escape_records.size() != b.escape_records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.escape_records.size(); ++i) {
    if (EncodeEscapeRecordJson(a.escape_records[i], a.clock,
                               a.protected_clock) !=
        EncodeEscapeRecordJson(b.escape_records[i], b.clock,
                               b.protected_clock)) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseBenchArgs(argc, argv);
  if (opts.json_path.empty()) opts.json_path = "BENCH_inject.json";
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table1SmokeCircuits() : Table1Circuits();

  const Library lib = Lsi10kLike();
  std::vector<Row> rows;
  for (const PaperCircuitInfo& info : infos) {
    Row row;
    row.name = info.spec.name;
    const Network ti = GenerateCircuit(info.spec);
    WallTimer flow_timer;
    const FlowResult flow = RunMaskingFlow(ti, lib);
    row.flow_seconds = flow_timer.Seconds();
    row.gates = flow.original.NumLogicGates();
    row.verified = flow.verification.ok();

    InjectOptions io;
    io.vectors_per_site = 8;
    io.threads = 1;
    const InjectionCampaignResult one = RunFaultInjectionCampaign(flow, io);
    io.threads = 8;
    row.campaign = RunFaultInjectionCampaign(flow, io);
    row.identical_1v8 = SameResults(one, row.campaign);

    const InjectionCampaignResult& c = row.campaign;
    std::printf(
        "%-18s gates %5zu  sites %4zu  trials %6zu  benign %6zu  "
        "masked %5zu  escapes %zu  %s  1v8 %s  %.2fs\n",
        row.name.c_str(), row.gates, c.sites, c.trials, c.benign, c.masked,
        c.escapes, c.GuaranteeHolds() ? "held" : "BROKEN",
        row.identical_1v8 ? "ok" : "MISMATCH", c.seconds);
    std::fflush(stdout);
    rows.push_back(std::move(row));
  }

  bool all_held = true;
  bool all_identical = true;
  bool all_verified = true;
  for (const Row& row : rows) {
    all_held = all_held && row.campaign.GuaranteeHolds();
    all_identical = all_identical && row.identical_1v8;
    all_verified = all_verified && row.verified;
  }

  std::ofstream out(opts.json_path);
  if (!out.good()) {
    std::cerr << "cannot write " << opts.json_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"inject_campaign\",\n";
  out << "  \"smoke\": " << (opts.smoke ? "true" : "false") << ",\n";
  out << "  \"guarantee_holds\": " << (all_held ? "true" : "false") << ",\n";
  out << "  \"deterministic_1v8\": " << (all_identical ? "true" : "false")
      << ",\n";
  out << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const InjectionCampaignResult& c = row.campaign;
    out << "    {\"name\": \"" << JsonEscape(row.name) << "\""
        << ", \"gates\": " << row.gates
        << ", \"verified\": " << (row.verified ? "true" : "false")
        << ", \"sites\": " << c.sites << ", \"trials\": " << c.trials
        << ", \"benign\": " << c.benign << ", \"masked\": " << c.masked
        << ", \"escapes\": " << c.escapes
        << ", \"masked_events\": " << c.masked_events
        << ", \"clock\": " << c.clock
        << ", \"protected_clock\": " << c.protected_clock
        << ", \"delta\": " << c.delta
        << ", \"identical_1v8\": " << (row.identical_1v8 ? "true" : "false")
        << ", \"flow_seconds\": " << row.flow_seconds
        << ", \"campaign_seconds\": " << c.seconds
        << ", \"words_simulated\": " << c.words_simulated
        << ", \"lane_utilization\": " << c.lane_utilization
        << ", \"trials_per_second\": " << c.trials_per_second << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  if (!all_verified) std::cerr << "FAIL: a flow failed formal verification\n";
  if (!all_held) std::cerr << "FAIL: the masking guarantee was broken\n";
  if (!all_identical) std::cerr << "FAIL: results differ across threads\n";
  return (all_held && all_identical && all_verified) ? 0 : 1;
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
