// Persistent speedmask analysis daemon.
//
// One process owns the expensive state every one-shot entry point rebuilds
// from scratch — warm per-worker BddManagers (unique table + op cache
// persist across requests) and a content-addressed result cache — and
// serves analysis requests over a Unix domain socket or a TCP listener
// (address.h picks the transport from the listen_address spec; protocol.h
// over framing.h either way).
//
// Architecture:
//
//   accept thread ── one reader thread per connection
//        │                 │ parse, resolve circuit, hash
//        │                 ├─ cache hit ──────────────► reply (no worker)
//        │                 ├─ queue full ─────────────► reply "overloaded"
//        │                 └─ admit ──► bounded queue ─► worker pool
//        │                                 (util/thread_pool, one persistent
//        │                                  WorkerContext per thread)
//
// Backpressure: at most queue_capacity analysis requests are outstanding
// (queued + in flight); everything beyond that is answered immediately with
// status "overloaded" — memory use is bounded no matter how fast clients
// submit. Per-request deadlines: a request whose deadline_ms elapsed while
// it waited is answered "timeout" instead of computing a result nobody is
// waiting for. Graceful shutdown: a "shutdown" request (or Shutdown())
// stops admission, drains every accepted request to completion, answers the
// shutdown request, then closes all connections and stops the threads.
//
// Determinism: result bytes are produced by the protocol.h encoders from
// semantic values only, so a request's result is byte-identical whether it
// was computed cold, by a warm worker, or replayed from the cache, and for
// any number of concurrent clients.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "liblib/library.h"
#include "service/address.h"
#include "service/latency_ring.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sm {

struct ServerOptions {
  // Unix socket path or "host:port" (service/address.h). A TCP port of 0
  // asks the kernel for a free port; address() reports the effective one
  // after Start().
  std::string listen_address = "/tmp/speedmask.sock";
  int num_workers = 2;
  // Maximum analysis requests outstanding (queued + executing) before new
  // ones are answered "overloaded".
  std::size_t queue_capacity = 64;
  std::size_t cache_entries = 512;
  std::size_t cache_bytes = 64u << 20;
  std::size_t max_frame_bytes = 16u << 20;
  // SO_SNDTIMEO on accepted sockets: a client that submits requests but
  // never reads responses is abandoned (write_failures counter) after this
  // long instead of wedging a worker thread forever. 0 disables.
  int write_timeout_ms = 10'000;
  std::size_t bdd_node_limit = 8'000'000;
  // A worker manager holding more live nodes than this is garbage-collected
  // before its next request. Nothing is registered between requests, so the
  // collection reclaims everything while keeping the manager itself warm —
  // allocated node capacity, the surviving op cache and its work counters
  // all persist (bounds daemon memory under a stream of ever-different
  // circuits without the old destroy-and-rebuild).
  std::size_t manager_gc_nodes = 1'000'000;
  // Escape hatch: a manager still above this many live nodes *after* a
  // collection (i.e. something kept roots registered) is rebuilt. With the
  // GC path this should never fire; the manager_resets stat counts it.
  std::size_t manager_reset_nodes = 4'000'000;
  // Cooperative mid-flight cancellation: thread a CancelToken (deadline +
  // work budget + client-disconnect cancel) through every analysis into the
  // BDD/MC/injection/optimizer kernels, so an expired deadline aborts the
  // computation and answers "timeout"/"deadline_exceeded" instead of
  // finishing work nobody is waiting for. Exists as an option only so the
  // chaos harness can plant the no-cancellation regression and demonstrate
  // the wedge it causes — production keeps it on.
  bool enable_cancellation = true;
};

struct ServiceStatsSnapshot {
  std::uint64_t requests_total = 0;
  std::uint64_t by_method[kNumServiceMethods] = {};
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;
  // Analyses aborted mid-flight by the cancel token (deadline, budget, or
  // client disconnect); a subset also counts under timeouts/errors by its
  // terminal status.
  std::uint64_t cancelled = 0;
  // Deadline found expired by the post-compute re-check — the computation
  // finished (and warmed the cache) but too late to be worth sending.
  std::uint64_t deadline_after_compute = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t write_failures = 0;
  ResultCache::Stats cache;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  int workers = 0;
  std::uint64_t manager_resets = 0;
  std::size_t manager_nodes = 0;  // live nodes across worker managers
  std::uint64_t manager_gc_runs = 0;  // collections across workers
  // Batched-simulation telemetry accumulated over estimate_yield and
  // inject_campaign requests (stats-only: the cached result encoders never
  // see these, so result bytes stay identical cold/warm/batched).
  std::uint64_t sim_words_simulated = 0;  // 64-lane engine runs
  std::uint64_t sim_lanes_simulated = 0;  // trial transitions packed
  // Per-worker warm-manager telemetry, indexed by worker slot.
  std::vector<std::size_t> worker_nodes;
  std::vector<std::uint64_t> worker_gc_runs;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t latency_samples = 0;
  double uptime_seconds = 0;

  // The "stats" method's result object.
  std::string ToResultJson() const;
};

class SpeedmaskServer {
 public:
  explicit SpeedmaskServer(ServerOptions options);
  ~SpeedmaskServer();

  SpeedmaskServer(const SpeedmaskServer&) = delete;
  SpeedmaskServer& operator=(const SpeedmaskServer&) = delete;

  // Binds the listener and spawns the accept thread and worker pool. Throws
  // std::runtime_error when the socket cannot be created.
  void Start();

  // Blocks until a shutdown request (or Shutdown()) has fully drained the
  // daemon, then joins every thread. Idempotent.
  void Wait();

  // Programmatic equivalent of a "shutdown" request: stop admission, drain
  // accepted work, stop. Safe to call from any thread; returns once
  // drained. Does not join threads (Wait does).
  void Shutdown();

  // The address clients should connect to. Equals listen_address except for
  // a TCP ":0" spec, where the kernel-assigned port is filled in by Start().
  const std::string& address() const {
    return effective_address_.empty() ? options_.listen_address
                                      : effective_address_;
  }

  ServiceStatsSnapshot SnapshotStats();

 private:
  struct Connection;
  struct WorkerContext;

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     const std::string& payload);
  void RunAnalysis(std::shared_ptr<Connection> conn, ServiceRequest request,
                   Network circuit, std::uint64_t key, double deadline_ms,
                   WallTimer received);
  std::string ComputeResult(WorkerContext& ctx, const ServiceRequest& request,
                            const Network& circuit, const CancelToken* cancel);

  WorkerContext* AcquireWorker();
  void ReleaseWorker(WorkerContext* ctx);

  void SendResponse(const std::shared_ptr<Connection>& conn,
                    const ServiceResponse& response);
  void FinishRequest();
  void RecordLatency(double ms);
  bool IsStopped();
  void StopListening();
  void CloseAllConnections();

  const ServerOptions options_;
  const Library library_;
  ResultCache cache_;

  ServiceAddress listen_parsed_;
  std::string effective_address_;
  int listen_fd_ = -1;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;

  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::weak_ptr<Connection>> connections_;

  std::mutex worker_mutex_;
  std::condition_variable worker_cv_;
  std::vector<std::unique_ptr<WorkerContext>> worker_contexts_;
  std::vector<WorkerContext*> free_workers_;

  // Outstanding admitted analysis requests (queued + executing).
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t pending_ = 0;

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool started_ = false;
  bool stopped_ = false;
  bool joined_ = false;
  std::atomic<bool> draining_{false};

  // Counters (relaxed atomics; exactness across threads is not required
  // beyond each counter being individually consistent).
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> by_method_[kNumServiceMethods] = {};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_after_compute_{0};
  std::atomic<std::uint64_t> rejected_shutting_down_{0};
  std::atomic<std::uint64_t> write_failures_{0};
  std::atomic<std::uint64_t> manager_resets_{0};
  std::atomic<std::uint64_t> sim_words_{0};
  std::atomic<std::uint64_t> sim_lanes_{0};

  LatencyRing latency_ring_;

  WallTimer uptime_;
};

}  // namespace sm
