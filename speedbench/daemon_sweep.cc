// daemon_sweep: an in-process SpeedmaskServer with 2 workers on a Unix
// socket and 4 closed-loop clients acting as designers running sweeps. Each
// client sends its next request only once the previous one is answered.
//
// Each client walks a fixed 24-request cycle, starting 6 requests apart:
//    6 exact repeats of a warm set computed in set-up (cache hits; the set
//      includes the large sparc_exu_ecl),
//   12 estimate_yield, one per point of a 3-circuit × 4-σ grid, each with a
//      fresh MC seed (every point reruns the full flow today),
//    3 synthesize_masking, 2 inject_campaign and 1 analyze_spcf.
// The kinds sit at fixed, evenly spread slots, so every stretch of the run
// has the same mix; the seed shuffles which grid point, warm request or
// circuit fills each slot, and draws the MC and injection seeds. Every miss
// carries a parameter no other request of the run has, so hits and misses
// are known in advance and checked against the cache counters.
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "service/client.h"
#include "service/server.h"
#include "speedbench.h"
#include "suite/paper_suite.h"

namespace speedbench {
namespace {

const char* const kMissCircuits[] = {"C432", "C2670", "sparc_ifu_dec"};
const double kSigmas[] = {0.03, 0.05, 0.08, 0.10};
constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr std::uint64_t kYieldTrials = 1000;

sm::ServiceRequest Request(sm::ServiceMethod method, const std::string& circuit) {
  sm::ServiceRequest r;
  r.method = method;
  r.circuit_name = circuit;
  return r;
}

// Requests computed before timing starts; the hits of the run repeat them.
std::vector<sm::ServiceRequest> WarmSet(std::uint64_t seed) {
  using M = sm::ServiceMethod;
  std::vector<sm::ServiceRequest> warm;
  sm::ServiceRequest r = Request(M::kEstimateYield, "sparc_exu_ecl");
  r.trials = kYieldTrials;
  r.seed = DeriveSeed(seed, 10);
  warm.push_back(r);
  r = Request(M::kEstimateYield, "C2670");
  r.trials = kYieldTrials;
  r.sigma = 0.08;
  r.seed = DeriveSeed(seed, 11);
  warm.push_back(r);
  warm.push_back(Request(M::kSynthesizeMasking, "sparc_ifu_dec"));
  warm.push_back(Request(M::kAnalyzeSpcf, "sparc_exu_ecl"));
  r = Request(M::kInjectCampaign, "C432");
  r.seed = DeriveSeed(seed, 12);
  warm.push_back(r);
  r = Request(M::kEstimateYield, "sparc_ifu_dec");
  r.trials = kYieldTrials;
  r.sigma = 0.03;
  r.seed = DeriveSeed(seed, 13);
  warm.push_back(r);
  return warm;
}

// The request kind of each slot of the cycle: H hit, Y estimate_yield,
// S synthesize_masking, I inject_campaign, P analyze_spcf.
constexpr char kCycle[] = "HYSYHYIYHYSYHYPYHYSYHYIY";
constexpr std::uint64_t kCycleLength = sizeof(kCycle) - 1;

// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<std::size_t> Shuffled(std::size_t n, std::uint64_t seed, std::uint64_t stream) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[DeriveSeed(seed, (stream << 8) + i) % i]);
  }
  return order;
}

struct Planned {
  sm::ServiceRequest request;
  bool hit = false;
  std::size_t warm_index = 0;
};

// Request number `k` of client `client`: a pure function of its arguments.
Planned PlanRequest(std::uint64_t seed, const std::vector<sm::ServiceRequest>& warm,
                    int client, std::uint64_t k) {
  using M = sm::ServiceMethod;
  const std::uint64_t slot = k + static_cast<std::uint64_t>(client) * 6;
  const std::uint64_t cycle = slot / kCycleLength;
  const std::uint64_t pos = slot % kCycleLength;
  const char kind = kCycle[pos];
  // Which occurrence of its kind this slot is within the cycle.
  std::size_t nth = 0;
  for (std::uint64_t i = 0; i < pos; ++i) nth += kCycle[i] == kind ? 1 : 0;
  const std::uint64_t stream =
      ((static_cast<std::uint64_t>(client) << 24) + cycle) * 8 + (kind & 7);
  // Distinct across clients and requests; keeps every miss a distinct key.
  const std::uint64_t unique = static_cast<std::uint64_t>(client) + kClients * k;
  const std::size_t circuits = std::size(kMissCircuits);
  Planned p;
  switch (kind) {
    case 'H':
      p.hit = true;
      p.warm_index = Shuffled(warm.size(), seed, stream)[nth];
      p.request = warm[p.warm_index];
      break;
    case 'Y': {
      const std::size_t point = Shuffled(circuits * std::size(kSigmas), seed, stream)[nth];
      p.request = Request(M::kEstimateYield, kMissCircuits[point % circuits]);
      p.request.trials = kYieldTrials;
      p.request.sigma = kSigmas[point / circuits];
      p.request.seed = DeriveSeed(seed, (1ull << 40) + unique);
      break;
    }
    case 'S':
      p.request = Request(M::kSynthesizeMasking,
                          kMissCircuits[Shuffled(circuits, seed, stream)[nth]]);
      p.request.guard = 0.07 + 1e-5 * static_cast<double>(unique % 2000);
      break;
    case 'I':
      p.request = Request(M::kInjectCampaign, kMissCircuits[Shuffled(2, seed, stream)[nth]]);
      p.request.seed = DeriveSeed(seed, (1ull << 41) + unique);
      break;
    default:
      p.request = Request(M::kAnalyzeSpcf,
                          kMissCircuits[(cycle + static_cast<std::uint64_t>(client)) % circuits]);
      p.request.guard = 0.07 + 1e-5 * static_cast<double>(unique % 2000);
      break;
  }
  return p;
}

// The analysis the daemon's worker runs for `request`, in process and with
// a flow-owned manager, encoded by the same protocol encoders.
std::string DirectCompute(const sm::ServiceRequest& request, const sm::Library& lib,
                          Tracer& tr) {
  using M = sm::ServiceMethod;
  const auto direct = tr.Open("svc.direct");
  const sm::Network circuit = sm::ResolveCircuit(request);
  if (request.method == M::kAnalyzeSpcf) {
    const auto s = tr.Open("svc.direct.flow");
    const sm::TechMapResult mapped = sm::DecomposeAndMap(circuit, lib);
    const sm::TimingInfo timing = sm::AnalyzeTiming(mapped.netlist);
    sm::BddManagerOptions mgr_options;
    mgr_options.node_limit = sm::ServerOptions{}.bdd_node_limit;
    sm::BddManager mgr(static_cast<int>(circuit.NumInputs()), mgr_options);
    sm::SpcfOptions spcf_options;
    spcf_options.algorithm = request.algorithm;
    spcf_options.guard_band = request.guard;
    const sm::SpcfResult spcf = sm::ComputeSpcf(mgr, mapped.netlist, timing, spcf_options);
    return sm::EncodeSpcfResult(circuit.name(), mgr, mapped.netlist, timing, spcf);
  }
  sm::FlowOptions flow_options;
  flow_options.spcf.guard_band = request.guard;
  flow_options.synth = sm::SynthOptionsForEffort(static_cast<int>(request.effort));
  sm::FlowResult flow = [&] {
    const auto s = tr.Open("svc.direct.flow");
    return sm::RunMaskingFlow(circuit, lib, flow_options);
  }();
  if (request.method == M::kSynthesizeMasking) return sm::EncodeFlowResult(flow);
  if (request.method == M::kEstimateYield) {
    sm::YieldMcOptions yield_options;
    yield_options.trials = request.trials;
    yield_options.threads = 1;
    yield_options.seed = request.seed;
    yield_options.model.sigma = request.sigma;
    yield_options.guard_band = request.guard;
    return sm::EncodeYieldResult(flow, sm::EstimateTimingYield(flow, yield_options));
  }
  sm::InjectOptions inject_options;
  inject_options.strategy = request.strategy;
  inject_options.fault_kind = request.fault;
  inject_options.max_sites = request.sites;
  inject_options.vectors_per_site = request.vectors;
  inject_options.delta_fraction = request.delta_fraction;
  inject_options.seed = request.seed;
  inject_options.threads = 1;
  return sm::EncodeInjectResult(flow, request,
                                sm::RunFaultInjectionCampaign(flow, inject_options));
}

struct Daemon {
  std::unique_ptr<sm::SpeedmaskServer> server;
  ~Daemon() {
    if (server != nullptr) {
      server->Shutdown();
      server->Wait();
    }
  }
};

// One answered request as a client saw it.
struct Sample {
  Planned planned;
  double ms = 0;
  sm::ServiceResponse response;
};

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0;
};

// Runs the closed loop for `seconds`; `next` holds each client's next
// request number and is advanced.
Phase RunPhase(const std::string& address, std::uint64_t seed,
               const std::vector<sm::ServiceRequest>& warm, double seconds,
               bool traced, std::vector<std::uint64_t>& next) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::string> errors(kClients);
  sm::WallTimer wall;
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          sm::ServiceClient client(address);
          Tracer tracer(traced);
          while (wall.Seconds() < seconds) {
            Sample s;
            s.planned = PlanRequest(seed, warm, c, next[c]++);
            sm::WallTimer timer;
            {
              const auto span = tracer.Open(s.planned.hit ? "svc.call.hit" : "svc.call.miss");
              s.response = client.Call(s.planned.request);
            }
            s.ms = timer.Millis();
            per_client[c].push_back(std::move(s));
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
  }
  Phase phase;
  phase.wall_s = wall.Seconds();
  for (int c = 0; c < kClients; ++c) {
    if (!errors[c].empty()) throw std::runtime_error("client failed: " + errors[c]);
    for (Sample& s : per_client[c]) phase.samples.push_back(std::move(s));
  }
  return phase;
}

}  // namespace

std::string DaemonPlanText(std::uint64_t seed, std::size_t requests_per_client) {
  const std::vector<sm::ServiceRequest> warm = WarmSet(seed);
  std::ostringstream text;
  for (const sm::ServiceRequest& r : warm) text << "warm " << sm::SerializeRequest(r) << "\n";
  for (int c = 0; c < kClients; ++c) {
    for (std::uint64_t k = 0; k < requests_per_client; ++k) {
      const Planned p = PlanRequest(seed, warm, c, k);
      text << "client" << c << (p.hit ? " hit " : " miss ")
           << sm::SerializeRequest(p.request) << "\n";
    }
  }
  return text.str();
}

Outcome RunDaemonSweep(const RunConfig& config) {
  Outcome out;
  const std::string address =
      config.run_dir + "/speedbench-" + std::to_string(::getpid()) + ".sock";
  // Set-up brings up a daemon and primes its cache with the warm set, the
  // requests the run's hits repeat. Each repetition starts cold, so the warm
  // bytes must come out the same every time.
  const std::vector<sm::ServiceRequest> warm = WarmSet(config.seed);
  std::vector<std::string> warm_bytes;
  const auto daemon = RepeatedSetup(3, &out.setup_s, [&] {
    auto d = std::make_unique<Daemon>();
    sm::ServerOptions options;
    options.listen_address = address;
    options.num_workers = kWorkers;
    d->server = std::make_unique<sm::SpeedmaskServer>(options);
    d->server->Start();
    if (!sm::WaitForServer(address, 30)) throw std::runtime_error("daemon did not start");
    sm::ServiceClient client(address);
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const sm::ServiceResponse response = client.Call(warm[i]);
      out.Check(response.ok(), "warm request failed: " + response.error);
      if (warm_bytes.size() == i) warm_bytes.push_back(response.result_json);
      out.Check(response.result_json == warm_bytes[i],
                "a cold daemon answered a warm request with other bytes");
    }
    return d;
  });
  sm::SpeedmaskServer& server = *daemon->server;
  // Priming computes each warm request once: exactly warm.size() misses.
  out.Layer("svc.warm_misses", static_cast<double>(server.SnapshotStats().cache.misses),
            "count");
  const sm::Library lib = sm::Lsi10kLike();
  {
    sm::WallTimer timer;
    for (const char* name : {"C432", "C2670", "sparc_ifu_dec", "sparc_exu_ecl"}) {
      (void)sm::GenerateCircuit(sm::PaperCircuitByName(name).spec);
    }
    out.Layer("suite.generate_s", timer.Seconds(), "s");
  }

  std::vector<std::uint64_t> next(kClients, 0);
  std::vector<Sample> all;
  std::vector<double> hit_ms, miss_ms;
  double untraced_wall = 0, traced_wall = 0;
  std::size_t untraced_requests = 0, traced_requests = 0;
  for (const bool traced : {false, true}) {
    if (traced && !config.trace) break;
    const double budget = config.trace ? config.seconds / 2 : config.seconds;
    const sm::ServiceStatsSnapshot before = server.SnapshotStats();
    Phase phase = RunPhase(address, config.seed, warm, budget, traced, next);
    const sm::ServiceStatsSnapshot after = server.SnapshotStats();
    std::uint64_t hits = 0, misses = 0;
    for (Sample& s : phase.samples) {
      ++out.attempted;
      const bool ok = s.response.ok();
      if (!ok) ++out.failed;
      out.Check(ok, "request failed: " + s.response.status + " " + s.response.error);
      if (s.planned.hit) {
        ++hits;
        out.Check(s.response.result_json == warm_bytes[s.planned.warm_index],
                  "cache hit bytes differ from the computed response");
      } else {
        ++misses;
      }
      // Hits and misses form two modes three orders of magnitude apart; the
      // end-to-end latency is that of computed requests, hits stand apart.
      if (!traced) {
        (s.planned.hit ? hit_ms : miss_ms).push_back(s.ms);
        if (!s.planned.hit) out.op_ms.push_back(s.ms);
      }
      all.push_back(std::move(s));
    }
    out.Check(after.cache.hits - before.cache.hits == hits &&
                  after.cache.misses - before.cache.misses == misses,
              "cache hits/misses differ from the planned repeats");
    if (traced) {
      traced_wall = phase.wall_s;
      traced_requests = phase.samples.size();
    } else {
      untraced_wall = phase.wall_s;
      untraced_requests = phase.samples.size();
    }
  }
  out.work_per_s = static_cast<double>(untraced_requests) / untraced_wall;
  out.Info("svc.rps", out.work_per_s, "1/s");
  const auto latency = [&](const std::string& name, const std::vector<double>& ms) {
    const Tail tail = TailOf(ms);
    out.Info(name + "_p50_ms", Median(ms), "ms");
    out.Info(name + "_tail_ms", tail.value, "ms");
    out.Info(name + "_tail_percentile", tail.percentile, "%");
    out.Info(name + "_samples", static_cast<double>(tail.samples), "count");
  };
  latency("svc.hit", hit_ms);
  latency("svc.miss", miss_ms);
  const sm::ServiceStatsSnapshot stats = server.SnapshotStats();
  out.Info("svc.cache_hits", static_cast<double>(stats.cache.hits), "count");
  out.Info("svc.cache_misses", static_cast<double>(stats.cache.misses), "count");

  // Byte-identity: the first miss of each method is recomputed in process.
  Tracer tracer(config.trace);
  double sampled_daemon_ms = 0;
  bool seen[sm::kNumServiceMethods] = {};
  for (const Sample& s : all) {
    const int method = static_cast<int>(s.planned.request.method);
    if (s.planned.hit || seen[method] || !s.response.ok()) continue;
    seen[method] = true;
    ++out.attempted;
    try {
      const std::string bytes = DirectCompute(s.planned.request, lib, tracer);
      const bool same = bytes == s.response.result_json;
      if (!same) ++out.failed;
      out.Check(same, std::string("daemon bytes differ from in-process ") +
                          sm::ToString(s.planned.request.method));
      sampled_daemon_ms += s.ms;
    } catch (const std::exception& e) {
      ++out.failed;
      out.Check(false, std::string("in-process recompute threw: ") + e.what());
    }
  }
  if (!config.trace) return out;

  const std::size_t direct_n = tracer.Count("svc.direct");
  const double direct_ms = 1e3 * tracer.Total("svc.direct");
  out.Info("svc.direct_compute_ms", direct_ms / static_cast<double>(direct_n), "ms");
  out.Info("svc.overhead_ms",
           (sampled_daemon_ms - direct_ms) / static_cast<double>(direct_n), "ms");
  out.Layer("svc.direct_pct", 100.0 * direct_ms / sampled_daemon_ms, "%");
  out.Layer("svc.overhead_pct", 100.0 * (1 - direct_ms / sampled_daemon_ms), "%");
  out.Layer("svc.flow_share",
            tracer.Total("svc.direct.flow") / tracer.Total("svc.direct"), "ratio");

  // Resolve cost (ResolveCircuit + RequestCacheKey), paid on every request.
  double resolve_hit_ms = 0;
  for (const sm::ServiceRequest& r : warm) {
    sm::WallTimer timer;
    constexpr int kReps = 5;
    for (int i = 0; i < kReps; ++i) {
      const sm::Network circuit = sm::ResolveCircuit(r);
      (void)sm::RequestCacheKey(r, circuit);
    }
    const double ms = timer.Millis() / kReps;
    resolve_hit_ms += ms / static_cast<double>(warm.size());
    out.Info("svc.resolve_ms." + r.circuit_name + "." + sm::ToString(r.method), ms, "ms");
  }
  // Hits draw the warm set uniformly, so compare with the mean hit latency.
  const double mean_hit_ms =
      std::accumulate(hit_ms.begin(), hit_ms.end(), 0.0) / static_cast<double>(hit_ms.size());
  out.Layer("svc.resolve_pct", 100.0 * resolve_hit_ms / mean_hit_ms, "%");
  out.Layer("svc.cache_hit_ratio",
            static_cast<double>(stats.cache.hits) /
                static_cast<double>(stats.cache.hits + stats.cache.misses),
            "ratio");
  out.Layer("svc.manager_gc_runs", static_cast<double>(stats.manager_gc_runs), "count");
  const double untraced_rps = static_cast<double>(untraced_requests) / untraced_wall;
  const double traced_rps = static_cast<double>(traced_requests) / traced_wall;
  out.Layer("trace.overhead_pct", 100.0 * (untraced_rps / traced_rps - 1), "%");
  return out;
}

}  // namespace speedbench
