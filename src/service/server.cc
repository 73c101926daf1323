#include "service/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "bdd/bdd.h"
#include "harness/inject.h"
#include "harness/optimize.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "service/framing.h"
#include "service/json.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "util/check.h"

namespace sm {

namespace {

// A failed response: status and code both derived from `code`.
ServiceResponse Failure(std::uint64_t id, ErrorCode code, std::string error) {
  return ServiceResponse{id, StatusFor(code), "", std::move(error),
                         ToString(code)};
}

}  // namespace

// One accepted client connection. The reader thread and any worker finishing
// a job for this client share the fd; write_mutex serializes whole frames.
struct SpeedmaskServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  // Wakes a blocked reader with EOF without invalidating the fd for
  // writers that still hold a shared_ptr.
  void ForceClose() { ::shutdown(fd, SHUT_RDWR); }

  // ---- In-flight cancellation -------------------------------------------
  // Workers register their request's token while computing; the reader
  // thread cancels every registered token when the client vanishes, so a
  // disconnect aborts the work mid-kernel instead of computing into a dead
  // socket. Tokens registered after the client is known gone are cancelled
  // at registration (the reader thread has already exited by then).

  void RegisterCancel(CancelToken* token) {
    std::lock_guard<std::mutex> lock(cancel_mutex);
    if (client_gone) {
      token->Cancel();
      return;
    }
    in_flight.push_back(token);
  }

  void UnregisterCancel(CancelToken* token) {
    std::lock_guard<std::mutex> lock(cancel_mutex);
    std::erase(in_flight, token);
  }

  void CancelInFlight() {
    std::lock_guard<std::mutex> lock(cancel_mutex);
    client_gone = true;
    for (CancelToken* token : in_flight) token->Cancel();
  }

  const int fd;
  std::mutex write_mutex;
  std::mutex cancel_mutex;
  std::vector<CancelToken*> in_flight;
  bool client_gone = false;
};

// Per-worker persistent state: warm BddManagers keyed by variable count.
// Only one job uses a context at a time (contexts are checked out of a free
// list), so no locking is needed inside.
struct SpeedmaskServer::WorkerContext {
  BddManager& ManagerFor(int num_vars, const ServerOptions& options,
                         std::atomic<std::uint64_t>& resets) {
    auto it = managers.find(num_vars);
    if (it != managers.end() &&
        it->second->NumNodes() > options.manager_gc_nodes) {
      // Memory manager v2: collect instead of destroying. No roots are
      // registered between requests, so the sweep reclaims every node of
      // the finished request while the manager itself — allocated slot
      // capacity, surviving op-cache entries, work counters — stays warm.
      it->second->GarbageCollect();
      if (it->second->NumNodes() > options.manager_reset_nodes) {
        // Only reachable if something left roots registered across
        // requests; rebuild rather than let the manager pin that memory.
        Retire(it);
        it = managers.end();
        resets.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (it == managers.end()) {
      // Bound the number of distinct widths a worker keeps warm.
      if (managers.size() >= 8) {
        while (!managers.empty()) Retire(managers.begin());
        resets.fetch_add(1, std::memory_order_relaxed);
      }
      it = managers
               .emplace(num_vars, std::make_unique<BddManager>(
                                      num_vars, options.bdd_node_limit))
               .first;
    }
    return *it->second;
  }

  void DropManager(int num_vars) {
    const auto it = managers.find(num_vars);
    if (it != managers.end()) Retire(it);
  }

  // Loss-free recovery after a cancelled request: the abort unwound through
  // the flow's RAII root scopes, so nothing is registered — detach the
  // token and sweep the dead intermediates. The manager stays warm
  // (capacity, op cache, counters) and the next request on it produces
  // byte-identical results to a fresh manager, which cancel_test gates.
  void RecoverManager(int num_vars) {
    const auto it = managers.find(num_vars);
    if (it == managers.end()) return;
    it->second->SetCancelToken(nullptr);
    it->second->GarbageCollect();
  }

  std::size_t TotalNodes() const {
    std::size_t total = 0;
    for (const auto& [vars, mgr] : managers) total += mgr->NumNodes();
    return total;
  }

  std::uint64_t TotalGcRuns() const {
    std::uint64_t total = retired_gc_runs;
    for (const auto& [vars, mgr] : managers) total += mgr->Stats().gc_runs;
    return total;
  }

  void Publish() {
    published_nodes.store(TotalNodes(), std::memory_order_relaxed);
    published_gc_runs.store(TotalGcRuns(), std::memory_order_relaxed);
  }

  std::map<int, std::unique_ptr<BddManager>> managers;
  // Counters of managers dropped by a retire/rebuild, so the cumulative
  // per-worker stats survive the manager they were accrued in.
  std::uint64_t retired_gc_runs = 0;
  // Published after every job so stats can read without racing the worker.
  std::atomic<std::size_t> published_nodes{0};
  std::atomic<std::uint64_t> published_gc_runs{0};

 private:
  void Retire(std::map<int, std::unique_ptr<BddManager>>::iterator it) {
    retired_gc_runs += it->second->Stats().gc_runs;
    managers.erase(it);
  }
};

SpeedmaskServer::SpeedmaskServer(ServerOptions options)
    : options_(std::move(options)),
      library_(Lsi10kLike()),
      cache_(options_.cache_entries, options_.cache_bytes) {
  SM_REQUIRE(options_.num_workers >= 1 && options_.num_workers <= 256,
             "num_workers out of range: " << options_.num_workers);
  SM_REQUIRE(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  listen_parsed_ = ParseServiceAddress(options_.listen_address);
}

SpeedmaskServer::~SpeedmaskServer() {
  try {
    Shutdown();
    Wait();
  } catch (...) {
    // Destructors must not throw; the process is going down anyway.
  }
}

void SpeedmaskServer::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    SM_REQUIRE(!started_, "server already started");
    started_ = true;
  }

  listen_fd_ = BindAndListen(listen_parsed_, /*backlog=*/128,
                             &effective_address_);

  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    worker_contexts_.push_back(std::make_unique<WorkerContext>());
    free_workers_.push_back(worker_contexts_.back().get());
  }
  // Spawned and assigned under state_mutex_: a Shutdown reached through the
  // accept loop sets stopped_ under the same mutex, so Wait, which reads
  // accept_thread_ once it sees stopped_, is ordered after this assignment.
  std::lock_guard<std::mutex> lock(state_mutex_);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void SpeedmaskServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down: server is stopping
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    // TCP_NODELAY for TCP peers, and a bound on blocking response writes: a
    // client that never reads fails its sends with EAGAIN (-> FrameError)
    // instead of wedging a worker.
    TuneAcceptedSocket(fd, listen_parsed_.kind, options_.write_timeout_ms);
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conn_mutex_);
    std::erase_if(connections_, [](const std::weak_ptr<Connection>& w) {
      return w.expired();
    });
    connections_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { HandleConnection(conn); });
  }
}

void SpeedmaskServer::HandleConnection(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = ReadFrame(conn->fd, options_.max_frame_bytes);
    } catch (const FrameError& e) {
      // Garbage or oversized framing: the byte stream cannot be resynced.
      // Best-effort error reply, then drop the connection.
      try {
        SendResponse(conn, Failure(0, ErrorCode::kInvalidRequest, e.what()));
      } catch (...) {
      }
      break;
    }
    if (!payload.has_value()) break;  // clean EOF
    try {
      HandleRequest(conn, *payload);
    } catch (const FrameError&) {
      break;  // reply write failed: peer is gone
    }
    if (IsStopped()) return;  // server stop, not a client death: no cancel
  }
  // The client is gone (EOF, garbage framing, or a failed reply write):
  // nobody is waiting for this connection's in-flight analyses, so abort
  // them mid-kernel rather than compute into a dead socket. A server stop
  // returns above instead — drained work must complete, so a graceful
  // shutdown answers every accepted request.
  conn->CancelInFlight();
}

bool SpeedmaskServer::IsStopped() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stopped_;
}

void SpeedmaskServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                    const std::string& payload) {
  WallTimer received;
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  ServiceRequest request;
  try {
    request = ParseRequest(payload);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, Failure(0, ErrorCode::kInvalidRequest, e.what()));
    return;
  }
  by_method_[static_cast<int>(request.method)].fetch_add(
      1, std::memory_order_relaxed);

  if (request.method == ServiceMethod::kStats) {
    const ServiceStatsSnapshot stats = SnapshotStats();
    SendResponse(conn,
                 ServiceResponse{request.id, "ok", stats.ToResultJson(), "", ""});
    return;
  }
  if (request.method == ServiceMethod::kShutdown) {
    Shutdown();  // returns once every accepted request has completed
    SendResponse(conn, ServiceResponse{request.id, "ok", "", "", ""});
    CloseAllConnections();
    return;
  }

  // A draining daemon answers "shutting_down" (code unavailable), which a
  // client may retry once the daemon is back.
  const auto reject_draining = [&] {
    rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, Failure(request.id, ErrorCode::kUnavailable,
                               "daemon is draining"));
  };
  if (draining_.load()) {
    reject_draining();
    return;
  }

  // Resolve + hash on the connection thread: cache hits then bypass the
  // queue entirely and cost no worker time.
  Network circuit("");
  std::uint64_t key = 0;
  try {
    circuit = ResolveCircuit(request);
    key = RequestCacheKey(request, circuit);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn,
                 Failure(request.id, ErrorCode::kInvalidCircuit, e.what()));
    return;
  }
  if (std::optional<std::string> hit = cache_.Get(key)) {
    ok_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, ServiceResponse{request.id, "ok", *hit, "", ""});
    RecordLatency(received.Millis());
    return;
  }

  // Admission control: bounded outstanding work, explicit overload reply.
  // Draining is rechecked under the lock Shutdown() drains on, so a request
  // that raced the drain start is rejected as draining, not as overload.
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (draining_.load()) {
      reject_draining();
      return;
    }
    if (pending_ >= options_.queue_capacity) {
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      SendResponse(conn, Failure(request.id, ErrorCode::kOverloaded,
                                 "queue full (" +
                                     std::to_string(options_.queue_capacity) +
                                     " outstanding requests)"));
      return;
    }
    ++pending_;
  }

  const double deadline_ms = request.deadline_ms;
  pool_->Submit([this, conn, request = std::move(request),
                 circuit = std::move(circuit), key, deadline_ms,
                 received]() mutable {
    RunAnalysis(std::move(conn), std::move(request), std::move(circuit), key,
                deadline_ms, received);
  });
}

void SpeedmaskServer::RunAnalysis(std::shared_ptr<Connection> conn,
                                  ServiceRequest request, Network circuit,
                                  std::uint64_t key, double deadline_ms,
                                  WallTimer received) {
  ServiceResponse response{request.id, "", "", "", ""};
  if (deadline_ms > 0 && received.Millis() > deadline_ms) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    response = Failure(request.id, ErrorCode::kDeadlineExceeded,
                       "deadline of " + JsonNumberToString(deadline_ms) +
                           " ms expired in queue");
  } else {
    // The request's cancel token: armed with whatever remains of the
    // deadline after the queue wait, the request's work budget, and wired
    // to the connection so a client disconnect aborts the kernels
    // mid-flight. enable_cancellation=false (the chaos harness's planted
    // regression) computes with no token, exactly the pre-cancellation
    // wedge behavior.
    CancelToken token;
    if (deadline_ms > 0) token.SetDeadlineAfterMs(deadline_ms - received.Millis());
    if (request.work_budget > 0) token.SetWorkBudget(request.work_budget);
    const bool use_token = options_.enable_cancellation;
    // RAII: unregisters from the connection on every exit path below,
    // before `token` dies with this frame.
    struct CancelScope {
      Connection* conn;
      CancelToken* token;
      ~CancelScope() {
        if (conn != nullptr) conn->UnregisterCancel(token);
      }
    } cancel_scope{use_token ? conn.get() : nullptr, &token};
    if (cancel_scope.conn != nullptr) cancel_scope.conn->RegisterCancel(&token);

    WorkerContext* ctx = AcquireWorker();
    const int num_vars = static_cast<int>(circuit.NumInputs());
    try {
      response.result_json =
          ComputeResult(*ctx, request, circuit, use_token ? &token : nullptr);
      response.status = "ok";
    } catch (const CancelledError& e) {
      // Mid-flight abort: typed reply, then sweep the warm manager back to
      // a clean reusable state — the daemon survives and stays warm.
      ctx->RecoverManager(num_vars);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      response = Failure(request.id, e.code(), e.what());
    } catch (const BddOverflowError& e) {
      // The manager hit its node limit; drop it so the next request for
      // this width starts from a clean table instead of a full one.
      ctx->DropManager(num_vars);
      response = Failure(request.id, ErrorCode::kResourceExhausted, e.what());
    } catch (const std::exception& e) {
      response = Failure(request.id, ErrorCode::kInternal, e.what());
    }
    ctx->Publish();
    ReleaseWorker(ctx);
    if (response.ok()) {
      // Cache before the deadline re-check: a finished result is correct
      // whenever it completed, and the next identical request hits it.
      cache_.Put(key, response.result_json);
      if (deadline_ms > 0 && received.Millis() > deadline_ms) {
        // The deadline expired *during* compute (or cancellation was
        // disabled and never fired): report deadline_exceeded rather than
        // hand back a result the client has long stopped waiting for.
        deadline_after_compute_.fetch_add(1, std::memory_order_relaxed);
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        response = Failure(request.id, ErrorCode::kDeadlineExceeded,
                           "deadline of " + JsonNumberToString(deadline_ms) +
                               " ms expired during compute");
      } else {
        ok_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (response.status == "timeout") {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  try {
    SendResponse(conn, response);
  } catch (const FrameError&) {
    // Client vanished before its answer; the work still warmed the cache.
  }
  RecordLatency(received.Millis());
  FinishRequest();
}

std::string SpeedmaskServer::ComputeResult(WorkerContext& ctx,
                                           const ServiceRequest& request,
                                           const Network& circuit,
                                           const CancelToken* cancel) {
  // Attaches the request token to the warm per-worker manager for the
  // compute and always detaches before returning/unwinding — the token
  // lives on the RunAnalysis stack, the manager across requests.
  struct ManagerTokenGuard {
    BddManager* mgr = nullptr;
    void Attach(BddManager& m, const CancelToken* token) {
      if (token == nullptr) return;
      mgr = &m;
      mgr->SetCancelToken(token);
    }
    ~ManagerTokenGuard() {
      if (mgr != nullptr) mgr->SetCancelToken(nullptr);
    }
  } token_guard;

  switch (request.method) {
    case ServiceMethod::kAnalyzeSpcf: {
      const TechMapResult mapped = DecomposeAndMap(circuit, library_);
      const TimingInfo timing = AnalyzeTiming(mapped.netlist);
      BddManager& mgr = ctx.ManagerFor(
          static_cast<int>(circuit.NumInputs()), options_, manager_resets_);
      token_guard.Attach(mgr, cancel);
      SpcfOptions spcf_options;
      spcf_options.algorithm = request.algorithm;
      spcf_options.guard_band = request.guard;
      const SpcfResult spcf =
          ComputeSpcf(mgr, mapped.netlist, timing, spcf_options);
      return EncodeSpcfResult(circuit.name(), mgr, mapped.netlist, timing,
                              spcf);
    }
    case ServiceMethod::kSynthesizeMasking:
    case ServiceMethod::kEstimateYield:
    case ServiceMethod::kInjectCampaign: {
      FlowOptions flow_options = FlowOptionsFor(
          request.guard, static_cast<int>(request.effort), request.scope);
      flow_options.cancel = cancel;
      BddManager& mgr = ctx.ManagerFor(
          static_cast<int>(circuit.NumInputs()), options_, manager_resets_);
      token_guard.Attach(mgr, cancel);
      flow_options.reuse_manager = &mgr;
      const FlowResult flow = RunMaskingFlow(circuit, library_, flow_options);
      if (request.method == ServiceMethod::kSynthesizeMasking) {
        return EncodeFlowResult(flow);
      }
      if (request.method == ServiceMethod::kEstimateYield) {
        YieldMcOptions yield_options;
        yield_options.trials = request.trials;
        yield_options.threads = 1;  // workers are already the parallel axis
        yield_options.seed = request.seed;
        yield_options.model.sigma = request.sigma;
        yield_options.guard_band = request.guard;
        yield_options.cancel = cancel;
        const YieldMcResult yield = EstimateTimingYield(flow, yield_options);
        sim_words_.fetch_add(yield.words_simulated, std::memory_order_relaxed);
        sim_lanes_.fetch_add(yield.lanes_simulated, std::memory_order_relaxed);
        return EncodeYieldResult(flow, yield);
      }
      InjectOptions inject_options;
      inject_options.strategy = request.strategy;
      inject_options.fault_kind = request.fault;
      inject_options.max_sites = request.sites;
      inject_options.vectors_per_site = request.vectors;
      inject_options.delta_fraction = request.delta_fraction;
      inject_options.seed = request.seed;
      inject_options.threads = 1;  // workers are already the parallel axis
      inject_options.cancel = cancel;
      const InjectionCampaignResult campaign =
          RunFaultInjectionCampaign(flow, inject_options);
      sim_words_.fetch_add(campaign.words_simulated,
                           std::memory_order_relaxed);
      sim_lanes_.fetch_add(campaign.lanes_simulated,
                           std::memory_order_relaxed);
      return EncodeInjectResult(flow, request, campaign);
    }
    case ServiceMethod::kOptimizeMasking: {
      // The closed-loop Pareto search runs whole flows with their own
      // managers (candidates evaluate in parallel only across requests
      // here — workers are already the parallel axis), so the warm
      // per-worker manager is not involved.
      OptimizerOptions opt_options;
      opt_options.target_yield = request.target_yield;
      opt_options.population = request.population;
      opt_options.generations = request.generations;
      opt_options.seed = request.seed;
      opt_options.threads = 1;
      opt_options.cancel = cancel;
      OptEvalConfig eval_config;
      eval_config.yield_trials = request.trials;
      eval_config.sigma = request.sigma;
      eval_config.yield_seed = request.seed;
      eval_config.cancel = cancel;
      InProcessEvaluator evaluator(circuit, library_, eval_config);
      const OptimizeResult result =
          RunMaskingOptimizer(evaluator, opt_options);
      return EncodeParetoFrontJson(circuit.name(), opt_options, result);
    }
    case ServiceMethod::kStats:
    case ServiceMethod::kShutdown:
      break;
  }
  SM_UNREACHABLE("non-analysis method in ComputeResult");
}

SpeedmaskServer::WorkerContext* SpeedmaskServer::AcquireWorker() {
  std::unique_lock<std::mutex> lock(worker_mutex_);
  worker_cv_.wait(lock, [this] { return !free_workers_.empty(); });
  WorkerContext* ctx = free_workers_.back();
  free_workers_.pop_back();
  return ctx;
}

void SpeedmaskServer::ReleaseWorker(WorkerContext* ctx) {
  {
    std::lock_guard<std::mutex> lock(worker_mutex_);
    free_workers_.push_back(ctx);
  }
  worker_cv_.notify_one();
}

void SpeedmaskServer::SendResponse(const std::shared_ptr<Connection>& conn,
                                   const ServiceResponse& response) {
  const std::string payload = SerializeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  try {
    WriteFrame(conn->fd, payload);
  } catch (const FrameError&) {
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

void SpeedmaskServer::FinishRequest() {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    SM_CHECK(pending_ > 0, "pending underflow");
    --pending_;
  }
  drain_cv_.notify_all();
}

void SpeedmaskServer::RecordLatency(double ms) {
  latency_ring_.Record(ms);
}

void SpeedmaskServer::Shutdown() {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true)) {
    StopListening();
  }
  // Drain: every admitted request completes and is answered.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopped_ = true;
  }
  state_cv_.notify_all();
}

void SpeedmaskServer::StopListening() {
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the accept loop
  }
}

void SpeedmaskServer::CloseAllConnections() {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& weak : connections_) {
    if (auto conn = weak.lock()) conn->ForceClose();
  }
}

void SpeedmaskServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (!started_) return;
    state_cv_.wait(lock, [this] { return stopped_; });
    if (joined_) return;
    joined_ = true;
  }
  CloseAllConnections();
  if (accept_thread_.joinable()) accept_thread_.join();
  // A connection accepted just before draining_ was set may have been
  // registered after the CloseAllConnections above. Now that the accept
  // thread is joined, every registration is visible; close again so no
  // reader thread stays blocked in ReadFrame on an idle client.
  CloseAllConnections();
  // No new connection threads can start now (accept loop is gone); join the
  // existing ones. Their blocked reads were woken by ForceClose above.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  pool_.reset();  // drains (nothing pending) and joins the workers
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (listen_parsed_.kind == AddressKind::kUnixSocket) {
    ::unlink(listen_parsed_.path.c_str());
  }
}

ServiceStatsSnapshot SpeedmaskServer::SnapshotStats() {
  ServiceStatsSnapshot s;
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumServiceMethods; ++i) {
    s.by_method[i] = by_method_[i].load(std::memory_order_relaxed);
  }
  s.ok = ok_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_after_compute =
      deadline_after_compute_.load(std::memory_order_relaxed);
  s.rejected_shutting_down =
      rejected_shutting_down_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  s.cache = cache_.SnapshotStats();
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    s.queue_depth = pending_;
  }
  s.queue_capacity = options_.queue_capacity;
  s.workers = options_.num_workers;
  s.manager_resets = manager_resets_.load(std::memory_order_relaxed);
  s.sim_words_simulated = sim_words_.load(std::memory_order_relaxed);
  s.sim_lanes_simulated = sim_lanes_.load(std::memory_order_relaxed);
  for (const auto& ctx : worker_contexts_) {
    const std::size_t nodes =
        ctx->published_nodes.load(std::memory_order_relaxed);
    const std::uint64_t gc_runs =
        ctx->published_gc_runs.load(std::memory_order_relaxed);
    s.manager_nodes += nodes;
    s.manager_gc_runs += gc_runs;
    s.worker_nodes.push_back(nodes);
    s.worker_gc_runs.push_back(gc_runs);
  }
  {
    const LatencyRing::Percentiles lat = latency_ring_.Snapshot();
    s.latency_samples = lat.samples;
    s.p50_ms = lat.p50_ms;
    s.p99_ms = lat.p99_ms;
  }
  s.uptime_seconds = uptime_.Seconds();
  return s;
}

std::string ServiceStatsSnapshot::ToResultJson() const {
  Json obj = Json::MakeObject();
  obj.Set("requests_total", requests_total);
  Json methods = Json::MakeObject();
  for (int i = 0; i < kNumServiceMethods; ++i) {
    methods.Set(ToString(static_cast<ServiceMethod>(i)), by_method[i]);
  }
  obj.Set("requests_by_method", std::move(methods));
  obj.Set("ok", ok);
  obj.Set("errors", errors);
  obj.Set("overloaded", overloaded);
  obj.Set("timeouts", timeouts);
  obj.Set("cancelled", cancelled);
  obj.Set("deadline_after_compute", deadline_after_compute);
  obj.Set("rejected_shutting_down", rejected_shutting_down);
  obj.Set("write_failures", write_failures);
  Json cache_obj = Json::MakeObject();
  cache_obj.Set("hits", cache.hits);
  cache_obj.Set("misses", cache.misses);
  cache_obj.Set("evictions", cache.evictions);
  cache_obj.Set("entries", cache.entries);
  cache_obj.Set("bytes", cache.bytes);
  obj.Set("cache", std::move(cache_obj));
  obj.Set("queue_depth", queue_depth);
  obj.Set("queue_capacity", queue_capacity);
  obj.Set("workers", workers);
  obj.Set("manager_resets", manager_resets);
  obj.Set("manager_nodes", manager_nodes);
  obj.Set("manager_gc_runs", manager_gc_runs);
  Json sim = Json::MakeObject();
  sim.Set("words_simulated", sim_words_simulated);
  sim.Set("lanes_simulated", sim_lanes_simulated);
  obj.Set("batch_sim", std::move(sim));
  Json worker_arr = Json::MakeArray();
  for (std::size_t i = 0; i < worker_nodes.size(); ++i) {
    Json w = Json::MakeObject();
    w.Set("nodes", worker_nodes[i]);
    w.Set("gc_runs", worker_gc_runs[i]);
    worker_arr.Append(std::move(w));
  }
  obj.Set("worker_managers", std::move(worker_arr));
  Json latency = Json::MakeObject();
  latency.Set("p50_ms", p50_ms);
  latency.Set("p99_ms", p99_ms);
  latency.Set("samples", latency_samples);
  obj.Set("latency", std::move(latency));
  obj.Set("uptime_seconds", uptime_seconds);
  return obj.Dump();
}

}  // namespace sm
