// Load generator for the speedmask analysis daemon (src/service).
//
// Starts an in-process daemon on a private socket and drives it through the
// client library, measuring what the service tentpole promises:
//
//   1. cold-vs-warm latency — every unique request once (all cache misses),
//      then the same set repeated (all content-addressed cache hits); the
//      warm p50 must be >= 10x lower than the cold p50.
//   2. concurrency byte-identity — one client runs a request sequence, then
//      --threads=N clients (default 8) run the same sequence concurrently
//      against fresh cache keys; every result must be byte-identical to the
//      single-client baseline.
//   3. backpressure — a 1-worker/capacity-1 daemon is saturated with a slow
//      request; concurrent submissions must be answered "overloaded" while
//      the accepted request still completes.
//   4. graceful shutdown — the shutdown request is acknowledged only after
//      accepted work drained, and the daemon exits cleanly.
//
// Usage: service_load [--smoke] [--threads=N] [--json=PATH]
//
// Latency numbers go to stderr and the JSON dump (--json=BENCH_service.json
// in CI); stdout carries the deterministic pass/fail summary. Exits
// non-zero when any of the four gates fails.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_runner.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "util/timer.h"

namespace sm {
namespace {

struct LatencyStats {
  std::size_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
};

LatencyStats Summarize(std::vector<double> ms) {
  LatencyStats s;
  s.count = ms.size();
  if (ms.empty()) return s;
  std::sort(ms.begin(), ms.end());
  s.p50_ms = ms[(ms.size() - 1) / 2];
  s.p99_ms = ms[(ms.size() - 1) * 99 / 100];
  double total = 0;
  for (double v : ms) total += v;
  s.mean_ms = total / static_cast<double>(ms.size());
  return s;
}

Json ToJson(const LatencyStats& s) {
  Json obj = Json::MakeObject();
  obj.Set("count", s.count);
  obj.Set("p50_ms", s.p50_ms);
  obj.Set("p99_ms", s.p99_ms);
  obj.Set("mean_ms", s.mean_ms);
  return obj;
}

std::vector<ServiceRequest> BuildRequestSet(bool smoke, double guard) {
  const std::vector<std::string> circuits =
      smoke ? std::vector<std::string>{"i1", "cmb", "x2", "cu"}
            : std::vector<std::string>{"i1",   "cmb",  "x2",  "cu",
                                       "alu2", "frg1", "C432"};
  std::vector<ServiceRequest> requests;
  for (const std::string& name : circuits) {
    ServiceRequest r;
    r.method = ServiceMethod::kAnalyzeSpcf;
    r.circuit_name = name;
    r.guard = guard;
    requests.push_back(r);
  }
  // A couple of full-flow requests so the warm path also covers the
  // heavyweight method.
  for (const std::string name : {"i1", "cmb"}) {
    ServiceRequest r;
    r.method = ServiceMethod::kSynthesizeMasking;
    r.circuit_name = name;
    r.guard = guard;
    requests.push_back(r);
  }
  return requests;
}

// Runs `requests` in order on one fresh connection; returns "status\n" or
// the result bytes per request, and appends each latency.
std::vector<std::string> RunSequence(const std::string& socket,
                                     const std::vector<ServiceRequest>& requests,
                                     std::vector<double>* latencies_ms) {
  ServiceClient client(socket);
  std::vector<std::string> results;
  results.reserve(requests.size());
  for (const ServiceRequest& r : requests) {
    WallTimer timer;
    const ServiceResponse response = client.Call(r);
    if (latencies_ms != nullptr) latencies_ms->push_back(timer.Millis());
    results.push_back(response.ok() ? response.result_json
                                    : response.status + ": " + response.error);
  }
  return results;
}

bool RunOverloadProbe(bool smoke, Json* report) {
  ServerOptions options;
  options.listen_address =
      "/tmp/speedmask_load_ovl_" + std::to_string(::getpid()) + ".sock";
  options.num_workers = 1;
  options.queue_capacity = 1;
  SpeedmaskServer server(options);
  server.Start();

  // Occupy the single admission slot with a slow Monte-Carlo request.
  ServiceRequest slow;
  slow.method = ServiceMethod::kEstimateYield;
  slow.circuit_name = "cu";
  slow.trials = smoke ? 20000 : 100000;
  std::string slow_status;
  std::thread slow_thread([&] {
    ServiceClient client(options.listen_address);
    slow_status = client.Call(slow).status;
  });

  // Wait until the daemon reports the request in flight.
  ServiceClient probe(options.listen_address);
  for (int i = 0; i < 500; ++i) {
    const ServiceResponse stats = probe.Stats();
    const Json doc = Json::Parse(stats.result_json);
    if (doc.GetUint64("queue_depth", 0) >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Everything submitted now must bounce: the queue is full.
  std::size_t overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest r;
    r.method = ServiceMethod::kAnalyzeSpcf;
    r.circuit_name = "x2";
    r.guard = 0.17 + 0.01 * i;  // unique keys: no cache short-circuit
    if (probe.Call(r).status == "overloaded") ++overloaded;
  }

  // Graceful shutdown must still complete the accepted slow request.
  const ServiceResponse shutdown_ack = probe.Shutdown();
  server.Wait();
  slow_thread.join();

  const bool ok =
      overloaded >= 1 && slow_status == "ok" && shutdown_ack.ok();
  Json obj = Json::MakeObject();
  obj.Set("overloaded_responses", overloaded);
  obj.Set("accepted_request_status", slow_status);
  obj.Set("shutdown_ack", shutdown_ack.status);
  obj.Set("ok", ok);
  *report = std::move(obj);
  return ok;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseBenchArgs(argc, argv);
  const int clients = opts.threads == 1 ? 8 : opts.threads;

  ServerOptions options;
  options.listen_address =
      "/tmp/speedmask_load_" + std::to_string(::getpid()) + ".sock";
  options.num_workers = 2;
  options.queue_capacity = 64;
  SpeedmaskServer server(options);
  server.Start();

  // ---- Phase 1: cold vs warm cache latency -------------------------------
  const std::vector<ServiceRequest> requests = BuildRequestSet(opts.smoke, 0.1);
  std::vector<double> cold_ms;
  RunSequence(options.listen_address, requests, &cold_ms);
  std::vector<double> warm_ms;
  WallTimer warm_timer;
  const int warm_rounds = opts.smoke ? 5 : 20;
  for (int round = 0; round < warm_rounds; ++round) {
    RunSequence(options.listen_address, requests, &warm_ms);
  }
  const double warm_seconds = warm_timer.Seconds();
  const LatencyStats cold = Summarize(cold_ms);
  const LatencyStats warm = Summarize(warm_ms);
  const double speedup = warm.p50_ms > 0 ? cold.p50_ms / warm.p50_ms : 0;
  const double warm_rps =
      warm_seconds > 0 ? static_cast<double>(warm_ms.size()) / warm_seconds : 0;
  const bool speedup_ok = speedup >= 10.0;

  // ---- Phase 2: 1-vs-N client byte-identity ------------------------------
  // Fresh guard ⇒ fresh cache keys, so the concurrent clients race through
  // cold computes on warm managers, the worst case for determinism.
  const std::vector<ServiceRequest> identity_requests =
      BuildRequestSet(opts.smoke, 0.13);
  const std::vector<std::string> baseline =
      RunSequence(options.listen_address, identity_requests, nullptr);
  std::vector<std::vector<std::string>> per_client(
      static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> threads;
    threads.reserve(per_client.size());
    for (std::size_t c = 0; c < per_client.size(); ++c) {
      threads.emplace_back([&, c] {
        // Different guard per run would change results; same sequence, own
        // connection. Cache may or may not hit depending on interleaving —
        // the bytes must not care.
        per_client[c] =
            RunSequence(options.listen_address, identity_requests, nullptr);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  bool identity_ok = true;
  for (const auto& results : per_client) {
    identity_ok = identity_ok && results == baseline;
  }

  // ---- Phase 3: stats + graceful shutdown of the main daemon -------------
  std::string stats_json;
  std::string shutdown_status;
  {
    ServiceClient client(options.listen_address);
    stats_json = client.Stats().result_json;
    shutdown_status = client.Shutdown().status;
  }
  server.Wait();
  const bool shutdown_ok = shutdown_status == "ok";

  // ---- Phase 4: backpressure on a saturated daemon -----------------------
  Json overload_report = Json::MakeObject();
  const bool overload_ok = RunOverloadProbe(opts.smoke, &overload_report);

  const bool all_ok = speedup_ok && identity_ok && shutdown_ok && overload_ok;

  std::cout << "service_load: " << requests.size() << " unique requests, "
            << clients << " concurrent clients\n"
            << "warm-cache speedup >= 10x : "
            << (speedup_ok ? "PASS" : "FAIL") << "\n"
            << "1-vs-" << clients << "-client byte-identity : "
            << (identity_ok ? "PASS" : "FAIL") << "\n"
            << "graceful shutdown         : "
            << (shutdown_ok ? "PASS" : "FAIL") << "\n"
            << "overload backpressure     : "
            << (overload_ok ? "PASS" : "FAIL") << "\n";

  std::cerr << "cold: p50 " << cold.p50_ms << " ms, p99 " << cold.p99_ms
            << " ms over " << cold.count << " requests\n"
            << "warm: p50 " << warm.p50_ms << " ms, p99 " << warm.p99_ms
            << " ms over " << warm.count << " requests (" << warm_rps
            << " req/s)\n"
            << "cold/warm p50 speedup: " << speedup << "x\n";

  if (!opts.json_path.empty()) {
    Json doc = Json::MakeObject();
    doc.Set("bench", "service_load");
    doc.Set("smoke", opts.smoke);
    doc.Set("clients", clients);
    doc.Set("unique_requests", requests.size());
    doc.Set("cold", ToJson(cold));
    doc.Set("warm", ToJson(warm));
    doc.Set("speedup_p50", speedup);
    doc.Set("warm_requests_per_second", warm_rps);
    doc.Set("identity_ok", identity_ok);
    doc.Set("shutdown_ok", shutdown_ok);
    doc.Set("overload", std::move(overload_report));
    doc.Set("server_stats", Json::Parse(stats_json));
    doc.Set("ok", all_ok);
    std::ofstream out(opts.json_path);
    if (!out) {
      std::cerr << "cannot write " << opts.json_path << "\n";
      return 1;
    }
    out << doc.Dump() << "\n";
  }

  return all_ok ? 0 : 1;
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
