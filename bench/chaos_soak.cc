// Chaos-injection soak for the analysis daemon (src/service, faults
// injected by a service/chaos.h proxy).
//
// Topology: client -> ChaosProxy -> one in-process daemon. The client talks
// to the deterministic fault-injecting proxy with a read timeout; the
// daemon is reachable only through it. Mid-stream, the harness kills the
// daemon outright and restarts it on the same socket — on top of the
// proxy's frame drops, delays, truncations, corruptions and disconnects.
//
// Gates (stdout PASS/FAIL, non-zero exit on any failure):
//
//   1. terminal outcomes — every request of the soak stream reaches exactly
//      one terminal outcome within its retry budget: an ok response or a
//      typed error (non-empty canonical code). No hangs (every blocking
//      read is bounded), no untyped errors, no exhausted retry budgets.
//   2. byte identity — every ok outcome's result bytes are identical to the
//      calm run (same requests against an unproxied daemon).
//   3. faults actually injected — the proxy reports a non-zero fault count
//      and the kill/restart really happened; a soak that tested nothing
//      does not pass.
//   4. deadline wedge gate — a slow request with a 100 ms deadline against
//      a cancellation-enabled daemon must abort in well under half its full
//      compute time and answer code "deadline_exceeded"; the worker must
//      answer a follow-up request normally (no wedge, manager reusable).
//   5. planted regression — the same probe against a daemon with
//      enable_cancellation=false must demonstrably FAIL gate 4's latency
//      bound (the worker grinds to completion, wedged for the full compute
//      time). This proves the gate actually detects the wedge it claims to.
//   6. post-soak health — after the stream drains, a stats round trip to
//      the daemon (direct, bypassing the proxy) completes in under 1
//      second: no worker is left wedged or leaking.
//
// Usage: chaos_soak [--smoke] [--json=PATH]   (--json=BENCH_chaos.json in CI)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_runner.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "util/timer.h"

namespace sm {
namespace {

// Client read timeout through the proxy: a dropped frame costs one timeout
// and a retry. Every request of the set computes in well under this, cold.
constexpr int kReadTimeoutMs = 1'500;

std::string SockPath(const std::string& tag) {
  return "/tmp/speedmask_chaos_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

std::vector<ServiceRequest> BuildRequestSet() {
  std::vector<ServiceRequest> requests;
  for (const char* name : {"i1", "cmb", "x2", "cu"}) {
    ServiceRequest r;
    r.method = ServiceMethod::kAnalyzeSpcf;
    r.circuit_name = name;
    r.guard = 0.11;
    requests.push_back(r);
  }
  for (const std::string name : {"i1", "x2"}) {
    ServiceRequest r;
    r.method = ServiceMethod::kSynthesizeMasking;
    r.circuit_name = name;
    r.guard = 0.11;
    requests.push_back(r);
  }
  return requests;
}

// ---- Gate 1/2/3: the chaos stream ----------------------------------------

struct Outcome {
  enum Kind { kOk, kTypedError, kNoTerminal } kind = kNoTerminal;
  bool bytes_match = false;
  std::string code;
  int attempts = 0;
};

// Drives one request to a terminal outcome through the proxy, reconnecting
// on transport errors and backing off on those and on retryable typed
// errors. The client read timeout bounds every blocking read, so a lost
// frame costs one timeout, never a hang.
Outcome DriveRequest(const std::string& address,
                     const ServiceRequest& request,
                     const std::string& expected_bytes,
                     std::unique_ptr<ServiceClient>* client) {
  constexpr int kMaxAttempts = 30;
  Outcome out;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    out.attempts = attempt + 1;
    ServiceResponse response;
    try {
      if (*client == nullptr) {
        *client = std::make_unique<ServiceClient>(
            address, ClientOptions{kReadTimeoutMs});
      }
      response = (*client)->Call(request);
    } catch (const std::exception&) {
      // Severed / timed-out / corrupted transport, or the daemon is down
      // mid-restart: fresh connection, retry.
      client->reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      continue;
    }
    if (response.ok()) {
      out.kind = Outcome::kOk;
      out.bytes_match = response.result_json == expected_bytes;
      return out;
    }
    if (response.retryable() || response.status == "overloaded" ||
        response.status == "shutting_down") {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      continue;
    }
    // Non-retryable failure: terminal iff it carries a canonical code
    // (an untyped error keeps kind == kNoTerminal and fails gate 1).
    if (!response.code.empty()) {
      out.kind = Outcome::kTypedError;
      out.code = response.code;
    }
    return out;
  }
  return out;  // retry budget exhausted: kNoTerminal
}

struct SoakReport {
  std::size_t stream_len = 0;
  std::size_t ok_outcomes = 0;
  std::size_t typed_errors = 0;
  std::size_t no_terminal = 0;
  std::size_t byte_mismatches = 0;
  std::uint64_t attempts_total = 0;
  bool restart_done = false;
  bool terminal_ok = false;
  bool identity_ok = false;
  bool faults_ok = false;
  double stream_seconds = 0;
  ChaosCounters chaos;
  std::string server_stats_json;
  double post_stats_seconds = 0;
  bool post_stats_ok = false;
};

SoakReport RunChaosStream(bool smoke,
                          const std::vector<ServiceRequest>& unique_requests,
                          const std::vector<std::string>& expected) {
  SoakReport rep;

  // The daemon: private socket, 1 worker (the soak runs on CI-sized hosts;
  // chaos coverage, not throughput, is the point).
  ServerOptions server_options;
  server_options.listen_address = SockPath("daemon");
  server_options.num_workers = 1;
  server_options.queue_capacity = 16;
  auto server = std::make_unique<SpeedmaskServer>(server_options);
  server->Start();

  // Probabilities are per frame and deliberately modest: each request
  // crosses the proxy twice (request + response), the stream crosses
  // hundreds of frames, so every fault kind fires multiple times per soak
  // (counters are gated below).
  ChaosOptions chaos_options;
  chaos_options.seed = 20260809;
  chaos_options.drop_probability = 0.02;
  chaos_options.delay_probability = 0.06;
  chaos_options.truncate_probability = 0.02;
  chaos_options.corrupt_probability = 0.02;
  chaos_options.disconnect_probability = 0.02;
  chaos_options.delay_ms = 15;
  chaos_options.listen_address = SockPath("proxy");
  chaos_options.backend_address = server_options.listen_address;
  ChaosProxy proxy(chaos_options);
  proxy.Start();

  const std::size_t stream_len = smoke ? 36 : 120;
  rep.stream_len = stream_len;

  // Kill/restart controller: partway through the stream, the daemon goes
  // away entirely (drain + destroy), stays dead briefly, then a fresh
  // daemon rebinds the same socket. The proxy bridges per connection, so
  // while the daemon is dead it refuses every bridge and the client's
  // retries see closed connections; new exchanges after the restart reach
  // the new daemon.
  std::atomic<std::size_t> stream_pos{0};
  std::atomic<bool> stream_done{false};
  std::thread killer([&] {
    while (stream_pos.load() < stream_len / 3 && !stream_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server->Shutdown();
    server->Wait();
    server.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server = std::make_unique<SpeedmaskServer>(server_options);
    server->Start();
    rep.restart_done = true;
  });

  WallTimer stream_timer;
  std::unique_ptr<ServiceClient> client;
  for (std::size_t i = 0; i < stream_len; ++i) {
    const std::size_t u = i % unique_requests.size();
    const Outcome out =
        DriveRequest(proxy.address(), unique_requests[u], expected[u], &client);
    rep.attempts_total += static_cast<std::uint64_t>(out.attempts);
    switch (out.kind) {
      case Outcome::kOk:
        ++rep.ok_outcomes;
        if (!out.bytes_match) ++rep.byte_mismatches;
        break;
      case Outcome::kTypedError:
        ++rep.typed_errors;
        break;
      case Outcome::kNoTerminal:
        ++rep.no_terminal;
        break;
    }
    stream_pos.store(i + 1);
  }
  rep.stream_seconds = stream_timer.Seconds();
  stream_done.store(true);
  killer.join();
  client.reset();

  rep.chaos = proxy.SnapshotCounters();

  rep.terminal_ok = rep.no_terminal == 0;
  rep.identity_ok = rep.byte_mismatches == 0 && rep.ok_outcomes > 0;
  rep.faults_ok = rep.chaos.faults() > 0 && rep.restart_done;

  // Gate 6: direct stats round trip to the daemon, bypassing the proxy.
  // Fast and ok ⇔ no worker is wedged on abandoned chaos work.
  {
    WallTimer timer;
    bool ok = false;
    try {
      ServiceClient direct(server_options.listen_address,
                           ClientOptions{/*read_timeout_ms=*/2'000});
      const ServiceResponse stats = direct.Stats();
      ok = stats.ok();
      rep.server_stats_json = stats.result_json;
    } catch (const std::exception&) {
      ok = false;
    }
    rep.post_stats_seconds = timer.Seconds();
    rep.post_stats_ok = ok && rep.post_stats_seconds < 1.0;
  }

  proxy.Shutdown();
  server->Shutdown();
  server->Wait();
  return rep;
}

// ---- Gate 4/5: deadline wedge gate + planted no-cancellation regression --

struct DeadlineProbe {
  double full_compute_ms = 0;   // the probe request, run without a deadline
  double probe_ms = 0;          // same work, 100 ms deadline
  double wedge_bound_ms = 0;    // gate: probe_ms must stay under this
  std::string status;
  std::string code;
  bool followup_ok = false;     // worker answers normally after the abort
  bool gate_pass = false;
};

// Measures how long a daemon stays busy on a slow request whose 100 ms
// deadline expired. With cancellation the kernels abort at the next
// checkpoint; without it the worker is wedged for the full compute.
DeadlineProbe RunDeadlineProbe(bool enable_cancellation, bool smoke,
                               const std::string& tag) {
  DeadlineProbe probe;
  ServerOptions options;
  options.listen_address = SockPath("deadline_" + tag);
  options.num_workers = 1;
  options.enable_cancellation = enable_cancellation;
  SpeedmaskServer server(options);
  server.Start();
  ServiceClient client(options.listen_address);

  ServiceRequest slow;
  slow.method = ServiceMethod::kEstimateYield;
  slow.circuit_name = "cu";
  slow.guard = 0.31;
  slow.trials = smoke ? 150'000 : 400'000;

  // Calibrate: the full compute must dwarf the deadline, or the wedge is
  // not observable. Scale trials until it takes >= target (fresh guard per
  // round so the result cache never short-circuits the measurement).
  const double target_ms = smoke ? 1'500 : 3'000;
  for (int round = 0; round < 3; ++round) {
    WallTimer timer;
    client.Call(slow);
    probe.full_compute_ms = timer.Millis();
    if (probe.full_compute_ms >= target_ms) break;
    const double scale =
        target_ms * 1.5 / std::max(probe.full_compute_ms, 1.0);
    slow.trials = static_cast<std::uint64_t>(
        static_cast<double>(slow.trials) * std::min(scale, 50.0));
    slow.guard += 1e-4;
  }

  // The probe proper: identical work (fresh cache key via guard), 100 ms
  // deadline. The daemon is idle, so the deadline expires mid-compute, not
  // in the queue.
  slow.guard += 1e-4;
  slow.deadline_ms = 100;
  WallTimer timer;
  const ServiceResponse response = client.Call(slow);
  probe.probe_ms = timer.Millis();
  probe.status = response.status;
  probe.code = response.code;

  // The worker that just aborted must answer the next request normally.
  ServiceRequest small;
  small.method = ServiceMethod::kAnalyzeSpcf;
  small.circuit_name = "i1";
  small.guard = 0.12;
  probe.followup_ok = client.Call(small).ok();

  client.Shutdown();
  server.Wait();

  probe.wedge_bound_ms = std::max(1'000.0, probe.full_compute_ms / 2);
  probe.gate_pass = probe.probe_ms <= probe.wedge_bound_ms &&
                    probe.code == "deadline_exceeded" && probe.followup_ok;
  return probe;
}

Json ToJson(const ChaosCounters& c) {
  Json obj = Json::MakeObject();
  obj.Set("connections", c.connections);
  obj.Set("frames_forwarded", c.frames_forwarded);
  obj.Set("drops", c.drops);
  obj.Set("delays", c.delays);
  obj.Set("truncations", c.truncations);
  obj.Set("corruptions", c.corruptions);
  obj.Set("disconnects", c.disconnects);
  return obj;
}

Json ToJson(const DeadlineProbe& p) {
  Json obj = Json::MakeObject();
  obj.Set("full_compute_ms", p.full_compute_ms);
  obj.Set("probe_ms", p.probe_ms);
  obj.Set("wedge_bound_ms", p.wedge_bound_ms);
  obj.Set("status", p.status);
  obj.Set("code", p.code);
  obj.Set("followup_ok", p.followup_ok);
  obj.Set("gate_pass", p.gate_pass);
  return obj;
}

int Main(int argc, char** argv) {
  const BenchOptions opts = ParseBenchArgs(argc, argv);

  // Calm run: the same request set against an unproxied daemon produces the
  // expected bytes every chaos-run success must match (results are
  // deterministic cold/warm/cached, so the calm daemon is the oracle for
  // the restarted one too).
  const std::vector<ServiceRequest> unique_requests = BuildRequestSet();
  std::vector<std::string> expected;
  {
    ServerOptions options;
    options.listen_address = SockPath("calm");
    options.num_workers = 1;
    SpeedmaskServer server(options);
    server.Start();
    ServiceClient client(options.listen_address);
    for (const ServiceRequest& r : unique_requests) {
      const ServiceResponse response = client.Call(r);
      if (!response.ok()) {
        std::cerr << "calm run failed: " << response.error << "\n";
        return 1;
      }
      expected.push_back(response.result_json);
    }
    client.Shutdown();
    server.Wait();
  }

  const SoakReport soak = RunChaosStream(opts.smoke, unique_requests, expected);
  const DeadlineProbe with_cancel =
      RunDeadlineProbe(/*enable_cancellation=*/true, opts.smoke, "on");
  const DeadlineProbe planted =
      RunDeadlineProbe(/*enable_cancellation=*/false, opts.smoke, "off");
  // The planted regression must FAIL the wedge gate — that failure is what
  // proves the gate detects a daemon that cannot cancel.
  const bool regression_detected = !planted.gate_pass;

  const bool all_ok = soak.terminal_ok && soak.identity_ok && soak.faults_ok &&
                      soak.post_stats_ok && with_cancel.gate_pass &&
                      regression_detected;

  std::cout << "chaos_soak: " << soak.stream_len << " requests, "
            << soak.ok_outcomes << " ok / " << soak.typed_errors
            << " typed errors / " << soak.no_terminal << " non-terminal\n"
            << "terminal outcomes (no hangs, typed errors only) : "
            << (soak.terminal_ok ? "PASS" : "FAIL") << "\n"
            << "ok-outcome byte identity vs calm run            : "
            << (soak.identity_ok ? "PASS" : "FAIL") << "\n"
            << "faults injected + daemon kill/restart           : "
            << (soak.faults_ok ? "PASS" : "FAIL") << "\n"
            << "post-soak stats round trip < 1 s                : "
            << (soak.post_stats_ok ? "PASS" : "FAIL") << "\n"
            << "deadline wedge gate (cancellation on)           : "
            << (with_cancel.gate_pass ? "PASS" : "FAIL") << "\n"
            << "planted no-cancellation regression detected     : "
            << (regression_detected ? "PASS" : "FAIL") << "\n";

  std::cerr << "stream: " << soak.stream_seconds << " s, "
            << soak.attempts_total << " attempts for " << soak.stream_len
            << " requests\n"
            << "chaos faults: " << soak.chaos.faults() << "\n"
            << "deadline probe (on):  full " << with_cancel.full_compute_ms
            << " ms, aborted in " << with_cancel.probe_ms << " ms (bound "
            << with_cancel.wedge_bound_ms << " ms), code="
            << with_cancel.code << "\n"
            << "deadline probe (off): full " << planted.full_compute_ms
            << " ms, wedged for " << planted.probe_ms << " ms (bound "
            << planted.wedge_bound_ms << " ms), code=" << planted.code
            << "\n"
            << "post-soak stats round trip: " << soak.post_stats_seconds
            << " s\n";

  if (!opts.json_path.empty()) {
    Json doc = Json::MakeObject();
    doc.Set("bench", "chaos_soak");
    doc.Set("smoke", opts.smoke);
    doc.Set("stream_len", soak.stream_len);
    doc.Set("ok_outcomes", soak.ok_outcomes);
    doc.Set("typed_errors", soak.typed_errors);
    doc.Set("no_terminal", soak.no_terminal);
    doc.Set("byte_mismatches", soak.byte_mismatches);
    doc.Set("attempts_total", soak.attempts_total);
    doc.Set("stream_seconds", soak.stream_seconds);
    doc.Set("restart_done", soak.restart_done);
    doc.Set("terminal_ok", soak.terminal_ok);
    doc.Set("identity_ok", soak.identity_ok);
    doc.Set("faults_ok", soak.faults_ok);
    doc.Set("post_stats_seconds", soak.post_stats_seconds);
    doc.Set("post_stats_ok", soak.post_stats_ok);
    doc.Set("chaos_proxy", ToJson(soak.chaos));
    doc.Set("deadline_probe_cancellation_on", ToJson(with_cancel));
    doc.Set("deadline_probe_cancellation_off", ToJson(planted));
    doc.Set("regression_detected", regression_detected);
    if (!soak.server_stats_json.empty()) {
      doc.Set("server_stats", Json::Parse(soak.server_stats_json));
    }
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
