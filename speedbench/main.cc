// speedbench: the speedmask benchmark program.
//
//   speedbench --workload NAME --seed N --seconds S --trace 0|1
//              [--run-dir DIR] [--commit TEXT]
//   speedbench --selftest
//
// Runs one workload, checks its outputs, prints stamp and info lines, and
// ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a check failed, 2 on bad usage, 3 on an unoptimised build.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "speedbench.h"

#ifndef SPEEDBENCH_BUILD_TYPE
#define SPEEDBENCH_BUILD_TYPE "unknown"
#endif

namespace speedbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload with tracing off.
const MetricSpec kEndToEnd[] = {
    {"work_per_s", "1/s"},  {"op_p50_ms", "ms"},   {"op_tail_ms", "ms"},
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
};

// The per-layer metrics of the traced runs. A workload that does not reach
// a layer reports 0 for it; only suite.generate_s is a time every workload
// measures, the rest are shares, counts and rates.
const MetricSpec kPerLayer[] = {
    {"suite.generate_s", "s"},
    {"map.self_pct", "%"},
    {"map.gates", "count"},
    {"sta.flow_pct", "%"},
    {"sta.mc_pct", "%"},
    {"sta.mc_calls", "count"},
    {"spcf.globals_pct", "%"},
    {"spcf.compute_pct", "%"},
    {"bdd.gc_pct", "%"},
    {"bdd.ite_recursions", "count"},
    {"bdd.peak_live_nodes", "count"},
    {"bdd.gc_reclaimed", "count"},
    {"masking.globals_pct", "%"},
    {"masking.synth_pct", "%"},
    {"masking.integrate_pct", "%"},
    {"masking.verify_pct", "%"},
    {"masking.cubes", "count"},
    {"sim.power_pct", "%"},
    {"sim.words", "count"},
    {"sim.lanes", "count"},
    {"sim.lane_utilization", "ratio"},
    {"flow.span_coverage_pct", "%"},
    {"variation.sample_pct", "%"},
    {"mc.rest_pct", "%"},
    {"mc.trials", "count"},
    {"mc.violating_trials", "count"},
    {"mc.trials_per_s", "1/s"},
    {"inject.campaign_pct", "%"},
    {"inject.sites", "count"},
    {"inject.trials", "count"},
    {"inject.trials_per_s", "1/s"},
    {"svc.direct_pct", "%"},
    {"svc.overhead_pct", "%"},
    {"svc.flow_share", "ratio"},
    {"svc.resolve_pct", "%"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.manager_gc_runs", "count"},
    {"svc.warm_misses", "count"},
    {"opt.evaluate_pct", "%"},
    {"opt.spotcheck_pct", "%"},
    {"opt.search_self_pct", "%"},
    {"opt.evaluations", "count"},
    {"opt.spot_checks", "count"},
    {"trace.overhead_pct", "%"},
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "FAIL " << what << "\n";
      ++failures;
    }
  };
  // Tail rule: the highest percentile with at least ten samples beyond it.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(101 - i);
  const Tail t100 = TailOf(hundred);
  expect(t100.value == 90 && t100.beyond == 10 && t100.percentile == 90,
         "tail of 1..100 is p90 = 90 with 10 beyond");
  const Tail t11 = TailOf({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
  expect(t11.value == 1 && t11.beyond == 10, "tail of 11 samples is the minimum");
  const Tail t5 = TailOf({1, 9, 3});
  expect(t5.value == 9 && t5.beyond == 0 && t5.percentile == 100,
         "tail of fewer than 11 samples is the maximum");
  expect(TailOf({}).samples == 0, "tail of no samples is empty");

  // Metric-name grammar.
  std::set<std::string> names;
  for (const MetricSpec& m : kEndToEnd) names.insert(m.name);
  for (const MetricSpec& m : kPerLayer) names.insert(m.name);
  expect(names.size() == std::size(kEndToEnd) + std::size(kPerLayer),
         "metric names are unique");
  for (const std::string& n : names) expect(ValidMetricName(n), "valid name " + n);
  for (const char* bad : {"", "a b", ".x", "x/y", "é", "_x"}) {
    expect(!ValidMetricName(bad), std::string("invalid name '") + bad + "'");
  }

  // Same seed, same inputs; another seed, other inputs.
  expect(DaemonPlanText(7, 64) == DaemonPlanText(7, 64), "daemon plan repeats");
  expect(DaemonPlanText(7, 64) != DaemonPlanText(8, 64), "daemon plan follows seed");
  expect(McPlanText(7) == McPlanText(7) && McPlanText(7) != McPlanText(8),
         "MC plan follows seed");
  expect(OptPlanText(7) == OptPlanText(7) && OptPlanText(7) != OptPlanText(8),
         "optimizer plan follows seed");
  // Every planned miss is a request no other line of the plan repeats.
  std::istringstream plan(DaemonPlanText(7, 400));
  std::map<std::string, int> seen;
  std::set<std::string> warm;
  std::size_t hits = 0, lines = 0;
  for (std::string line; std::getline(plan, line); ++lines) {
    const std::string request = line.substr(line.find('{'));
    if (line.rfind("warm", 0) == 0) {
      warm.insert(request);
    } else if (line.find(" hit ") != std::string::npos) {
      expect(warm.count(request) == 1, "hit repeats a warm request");
      ++hits;
    } else {
      expect(warm.count(request) == 0 && seen[request]++ == 0,
             "miss is unique: " + request);
    }
  }
  expect(hits > lines / 6 && hits < lines / 3, "about a quarter of requests hit");
  std::cout << (failures == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

int Usage(const std::string& why) {
  std::cerr << "speedbench: " << why << "\n"
            << "usage: speedbench --workload flow_table2|mc_validate|daemon_sweep|"
               "opt_search --seed N --seconds S --trace 0|1 [--run-dir DIR] "
               "[--commit TEXT]\n       speedbench --selftest\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--selftest") return SelfTest();
      if (i + 1 >= argc) return Usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--run-dir") {
        config.run_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        return Usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return Usage("malformed number");
  }
  if (!have_workload) return Usage("no workload");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

#ifndef __OPTIMIZE__
  std::cerr << "speedbench: refusing to measure an unoptimised build\n";
  return 3;
#endif
  std::cout << "# stamp nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << __VERSION__ << "\" build_type=" << SPEEDBENCH_BUILD_TYPE
            << " commit=" << commit << "\n"
            << "# run workload=" << config.workload << " seed=" << config.seed
            << " seconds=" << config.seconds << " trace=" << config.trace << "\n";

  Outcome out;
  try {
    if (config.workload == "flow_table2") {
      out = RunFlowTable2(config);
    } else if (config.workload == "mc_validate") {
      out = RunMcValidate(config);
    } else if (config.workload == "daemon_sweep") {
      out = RunDaemonSweep(config);
    } else if (config.workload == "opt_search") {
      out = RunOptSearch(config);
    } else {
      return Usage("unknown workload " + config.workload);
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    ++out.failed;
    out.problems.push_back(std::string("workload threw: ") + e.what());
  }

  const Tail tail = TailOf(out.op_ms);
  std::map<std::string, Metric> reported;
  if (config.trace) {
    for (const MetricSpec& m : kPerLayer) reported[m.name] = {m.name, 0, m.unit};
    for (const Metric& m : out.layer) {
      const auto it = reported.find(m.name);
      if (it == reported.end() || it->second.unit != m.unit) {
        out.problems.push_back("unlisted per-layer metric " + m.name);
      } else {
        it->second.value = m.value;
      }
    }
  } else {
    const double values[] = {out.work_per_s, Median(out.op_ms), tail.value,
                             out.setup_s, PeakRssMb()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      reported[kEndToEnd[i].name] = {kEndToEnd[i].name, values[i], kEndToEnd[i].unit};
    }
    out.Info("op_tail_percentile", tail.percentile, "%");
    out.Info("op_samples", static_cast<double>(tail.samples), "count");
  }
  out.Info("error_rate",
           out.attempted == 0 ? 1.0
                              : static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted),
           "ratio");
  // Every figure the workload recorded, whether or not the JSON carries it.
  for (const std::vector<Metric>* group : {&out.info, &out.layer}) {
    for (const Metric& m : *group) {
      std::cout << "metric " << m.name << " " << Number(m.value) << " " << m.unit << "\n";
    }
  }
  for (const std::string& p : out.problems) std::cout << "CHECK FAILED: " << p << "\n";
  for (const auto& [name, m] : reported) {
    if (!std::isfinite(m.value)) out.problems.push_back("non-finite metric " + name);
  }
  const bool correct = out.problems.empty() && out.failed == 0 && out.attempted > 0;

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : reported) {
    json << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
         << (std::isfinite(m.value) ? Number(m.value) : "0")
         << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace speedbench

int main(int argc, char** argv) { return speedbench::Main(argc, argv); }
