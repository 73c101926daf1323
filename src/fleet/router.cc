#include "fleet/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "service/framing.h"
#include "service/json.h"
#include "service/protocol.h"
#include "util/hash.h"
#include "util/timer.h"

namespace sm {

// One accepted client connection. The reader thread owns everything; the
// shard clients are per connection so concurrent client connections never
// serialize on a shared upstream socket.
struct FleetRouter::Connection {
  explicit Connection(int fd_in, std::size_t num_shards)
      : fd(fd_in), shard_clients(num_shards) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void ForceClose() { ::shutdown(fd, SHUT_RDWR); }

  const int fd;
  // Lazily connected, one per shard, reconnected on transport failure.
  std::vector<std::unique_ptr<ServiceClient>> shard_clients;
};

FleetRouter::FleetRouter(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.shards, options_.vnodes_per_shard),
      listen_parsed_(ParseServiceAddress(options_.listen_address)),
      drained_(options_.shards.size(), false),
      unhealthy_(options_.shards.size(), false) {}

FleetRouter::~FleetRouter() {
  Shutdown();
  Wait();
}

void FleetRouter::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) return;
    started_ = true;
  }
  listen_fd_ = BindAndListen(listen_parsed_, /*backlog=*/128,
                             &effective_address_);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void FleetRouter::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    TuneAcceptedSocket(fd, listen_parsed_.kind, options_.write_timeout_ms);
    auto conn = std::make_shared<Connection>(fd, options_.shards.size());
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { HandleConnection(conn); });
  }
}

void FleetRouter::HandleConnection(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = ReadFrame(conn->fd, options_.max_frame_bytes);
    } catch (const FrameError& e) {
      // Unsyncable garbage from the client: best-effort error, then drop.
      try {
        WriteFrame(conn->fd,
                   SerializeResponse(ServiceResponse{
                       0, "error", "", e.what(),
                       ToString(ErrorCode::kInvalidRequest)}));
      } catch (...) {
      }
      break;
    }
    if (!payload.has_value()) break;  // clean EOF
    std::string response;
    bool shutdown_after = false;
    try {
      response = RouteRequest(*conn, *payload, &shutdown_after);
    } catch (const std::exception& e) {
      response = SerializeResponse(ServiceResponse{
          0, "error", "", e.what(), ToString(ErrorCode::kInternal)});
    }
    try {
      WriteFrame(conn->fd, response);
    } catch (const FrameError&) {
      break;  // client vanished
    }
    if (shutdown_after || draining_.load()) {
      if (shutdown_after) Shutdown();
      break;
    }
  }
}

std::string FleetRouter::RouteRequest(Connection& conn,
                                      const std::string& payload,
                                      bool* shutdown_after) {
  WallTimer received;
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  // Intercepted methods need the parsed request; everything else only needs
  // a routing key. A payload the router cannot parse is still forwarded —
  // the shard produces the exact error bytes a direct daemon would.
  ServiceRequest request;
  bool parsed = true;
  try {
    request = ParseRequest(payload);
  } catch (const std::exception&) {
    parsed = false;
  }

  if (parsed && request.method == ServiceMethod::kStats) {
    return SerializeResponse(
        ServiceResponse{request.id, "ok", AggregateStatsJson(), "", ""});
  }
  if (parsed && request.method == ServiceMethod::kShutdown) {
    ShutdownFleet();  // every shard drains its accepted work first
    *shutdown_after = true;
    return SerializeResponse(ServiceResponse{request.id, "ok", "", "", ""});
  }

  const std::uint64_t key = RoutingKey(payload);
  const std::string response = ForwardWithFailover(conn, key, payload);
  latency_ring_.Record(received.Millis());
  return response;
}

std::uint64_t FleetRouter::RoutingKey(const std::string& payload) {
  // Memo key: the circuit spec text itself (name or inline BLIF), so a
  // repeated circuit skips both BLIF parsing and network hashing.
  std::string memo_key;
  ServiceRequest request;
  try {
    request = ParseRequest(payload);
    memo_key = request.circuit_blif.empty() ? "n:" + request.circuit_name
                                            : "b:" + request.circuit_blif;
  } catch (const std::exception&) {
    // Unparseable request: deterministic placement by raw payload bytes.
    Hasher h;
    h.AddBytes(payload);
    return h.Digest();
  }
  {
    std::lock_guard<std::mutex> lock(key_mutex_);
    const auto it = key_cache_.find(memo_key);
    if (it != key_cache_.end()) {
      key_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  key_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t key = 0;
  try {
    // The structural circuit key — NOT RequestCacheKey: two methods (or two
    // guard bands) over the same circuit must land on the same shard to
    // share its warm manager.
    key = HashNetwork(ResolveCircuit(request));
  } catch (const std::exception&) {
    // Unknown circuit name / bad BLIF: still deterministic, and the shard
    // reports the actual error to the client.
    Hasher h;
    h.AddBytes(memo_key);
    key = h.Digest();
  }
  {
    std::lock_guard<std::mutex> lock(key_mutex_);
    if (key_cache_.size() >= options_.key_cache_entries) key_cache_.clear();
    key_cache_.emplace(std::move(memo_key), key);
  }
  return key;
}

std::vector<bool> FleetRouter::ExcludedShards(
    const std::vector<bool>& tried) const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  std::vector<bool> excluded(drained_.size());
  for (std::size_t i = 0; i < drained_.size(); ++i) {
    excluded[i] = tried[i] || drained_[i] || unhealthy_[i];
  }
  return excluded;
}

std::string FleetRouter::ForwardWithFailover(Connection& conn,
                                             std::uint64_t key,
                                             const std::string& payload) {
  // Shards this request already tried. Drained/unhealthy marks are reread on
  // every attempt: during a rolling restart a shard restored while this
  // request was replaying must be pickable again.
  std::vector<bool> tried(options_.shards.size(), false);
  for (;;) {
    int shard = -1;
    try {
      shard = ring_.PickExcluding(key, ExcludedShards(tried));
    } catch (const std::invalid_argument&) {
      // Retryable by the taxonomy: shards come back (probe clears the
      // unhealthy mark, RestoreShard undrains), so the client should back
      // off and resubmit rather than treat this as a permanent failure.
      return SerializeResponse(ServiceResponse{
          0, "error", "", "no shard available (all drained or unreachable)",
          ToString(ErrorCode::kUnavailable)});
    }
    std::string response;
    try {
      response = ExchangeWithShard(conn, shard, payload);
    } catch (const std::exception&) {
      // Transport-level failure even after one reconnect: the shard is
      // gone. Mark it and replay on the surviving ring — the client still
      // gets exactly one response.
      {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        unhealthy_[static_cast<std::size_t>(shard)] = true;
      }
      failovers_.fetch_add(1, std::memory_order_relaxed);
      tried[static_cast<std::size_t>(shard)] = true;
      continue;
    }
    // A shard drained between our routing decision and its admission
    // answers "shutting_down"; replay on the rest of the ring. (Response
    // bytes are only inspected, never modified — "ok"/"error"/"overloaded"
    // pass through verbatim.)
    try {
      if (ParseResponse(response).status == "shutting_down") {
        replays_.fetch_add(1, std::memory_order_relaxed);
        tried[static_cast<std::size_t>(shard)] = true;
        continue;
      }
    } catch (const std::exception&) {
      // Unparseable response: pass it through, the client decides.
    }
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }
}

std::string FleetRouter::ExchangeWithShard(Connection& conn, int shard,
                                           const std::string& payload) {
  auto& client = conn.shard_clients[static_cast<std::size_t>(shard)];
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (client == nullptr) {
      client = std::make_unique<ServiceClient>(
          options_.shards[static_cast<std::size_t>(shard)],
          ClientOptions{options_.shard_read_timeout_ms});
    }
    try {
      std::string response = client->Exchange(payload);
      std::lock_guard<std::mutex> lock(shard_mutex_);
      unhealthy_[static_cast<std::size_t>(shard)] = false;
      return response;
    } catch (const FrameError&) {
      // Stale connection (shard restarted since we connected): reconnect
      // once and replay — the restarted shard recomputes or cache-hits.
      client.reset();
      if (attempt == 1) throw;
    }
  }
  throw FrameError("unreachable");
}

void FleetRouter::DrainShard(int shard) {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  drained_.at(static_cast<std::size_t>(shard)) = true;
}

void FleetRouter::RestoreShard(int shard) {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  drained_.at(static_cast<std::size_t>(shard)) = false;
  unhealthy_.at(static_cast<std::size_t>(shard)) = false;
}

bool FleetRouter::IsDrained(int shard) const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return drained_.at(static_cast<std::size_t>(shard));
}

bool FleetRouter::ProbeShard(int shard) {
  bool healthy = false;
  try {
    ServiceClient probe(options_.shards.at(static_cast<std::size_t>(shard)),
                        ClientOptions{options_.shard_read_timeout_ms});
    healthy = probe.Stats().ok();
  } catch (const std::exception&) {
    healthy = false;
  }
  std::lock_guard<std::mutex> lock(shard_mutex_);
  unhealthy_[static_cast<std::size_t>(shard)] = !healthy;
  return healthy;
}

std::string FleetRouter::AggregateStatsJson() {
  Json obj = Json::MakeObject();

  Json router = Json::MakeObject();
  router.Set("requests_total",
             requests_total_.load(std::memory_order_relaxed));
  router.Set("forwarded", forwarded_.load(std::memory_order_relaxed));
  router.Set("replays", replays_.load(std::memory_order_relaxed));
  router.Set("failovers", failovers_.load(std::memory_order_relaxed));
  Json key_cache = Json::MakeObject();
  key_cache.Set("hits", key_cache_hits_.load(std::memory_order_relaxed));
  key_cache.Set("misses", key_cache_misses_.load(std::memory_order_relaxed));
  router.Set("routing_key_cache", std::move(key_cache));
  router.Set("shards", ring_.num_shards());
  const LatencyRing::Percentiles lat = latency_ring_.Snapshot();
  Json latency = Json::MakeObject();
  latency.Set("p50_ms", lat.p50_ms);
  latency.Set("p99_ms", lat.p99_ms);
  latency.Set("samples", lat.samples);
  router.Set("latency", std::move(latency));
  obj.Set("router", std::move(router));

  // Per-shard probe + fleet rollup. Rollup latency percentiles take the
  // worst shard (percentiles do not compose; per-shard numbers are in the
  // shard entries for anything finer).
  std::uint64_t fleet_requests = 0, fleet_ok = 0, fleet_errors = 0;
  std::uint64_t fleet_overloaded = 0, fleet_timeouts = 0;
  std::uint64_t fleet_cache_hits = 0, fleet_cache_misses = 0;
  std::uint64_t fleet_workers = 0, fleet_manager_nodes = 0;
  double fleet_p50 = 0, fleet_p99 = 0;
  int healthy_shards = 0;

  Json shard_arr = Json::MakeArray();
  for (int s = 0; s < ring_.num_shards(); ++s) {
    Json entry = Json::MakeObject();
    entry.Set("address", options_.shards[static_cast<std::size_t>(s)]);
    entry.Set("drained", IsDrained(s));
    Json stats_json;  // null when the probe fails
    bool healthy = false;
    try {
      ServiceClient probe(options_.shards[static_cast<std::size_t>(s)],
                          ClientOptions{options_.shard_read_timeout_ms});
      const ServiceResponse r = probe.Stats();
      if (r.ok()) {
        stats_json = Json::Parse(r.result_json);
        healthy = true;
      }
    } catch (const std::exception&) {
    }
    {
      std::lock_guard<std::mutex> lock(shard_mutex_);
      unhealthy_[static_cast<std::size_t>(s)] = !healthy;
    }
    if (healthy) {
      ++healthy_shards;
      fleet_requests += stats_json.GetUint64("requests_total", 0);
      fleet_ok += stats_json.GetUint64("ok", 0);
      fleet_errors += stats_json.GetUint64("errors", 0);
      fleet_overloaded += stats_json.GetUint64("overloaded", 0);
      fleet_timeouts += stats_json.GetUint64("timeouts", 0);
      fleet_workers += stats_json.GetUint64("workers", 0);
      fleet_manager_nodes += stats_json.GetUint64("manager_nodes", 0);
      if (const Json* cache = stats_json.Find("cache")) {
        fleet_cache_hits += cache->GetUint64("hits", 0);
        fleet_cache_misses += cache->GetUint64("misses", 0);
      }
      if (const Json* lat_obj = stats_json.Find("latency")) {
        fleet_p50 = std::max(fleet_p50, lat_obj->GetDouble("p50_ms", 0));
        fleet_p99 = std::max(fleet_p99, lat_obj->GetDouble("p99_ms", 0));
      }
    }
    entry.Set("healthy", healthy);
    entry.Set("stats", std::move(stats_json));
    shard_arr.Append(std::move(entry));
  }
  obj.Set("shards", std::move(shard_arr));

  Json fleet = Json::MakeObject();
  fleet.Set("healthy_shards", healthy_shards);
  fleet.Set("requests_total", fleet_requests);
  fleet.Set("ok", fleet_ok);
  fleet.Set("errors", fleet_errors);
  fleet.Set("overloaded", fleet_overloaded);
  fleet.Set("timeouts", fleet_timeouts);
  Json fleet_cache = Json::MakeObject();
  fleet_cache.Set("hits", fleet_cache_hits);
  fleet_cache.Set("misses", fleet_cache_misses);
  fleet.Set("cache", std::move(fleet_cache));
  fleet.Set("workers", fleet_workers);
  fleet.Set("manager_nodes", fleet_manager_nodes);
  fleet.Set("p50_ms_worst", fleet_p50);
  fleet.Set("p99_ms_worst", fleet_p99);
  obj.Set("fleet", std::move(fleet));

  return obj.Dump();
}

void FleetRouter::ShutdownFleet() {
  for (int s = 0; s < ring_.num_shards(); ++s) {
    try {
      ServiceClient client(options_.shards[static_cast<std::size_t>(s)],
                           ClientOptions{options_.shard_read_timeout_ms});
      client.Shutdown();  // returns once the shard drained
    } catch (const std::exception&) {
      // Already down — that is the goal state.
    }
  }
}

void FleetRouter::StopListeningLocked() {
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the accept loop
  }
}

void FleetRouter::Shutdown() {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true)) {
    StopListeningLocked();
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopped_ = true;
  }
  state_cv_.notify_all();
}

void FleetRouter::Wait() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (!started_) return;
    state_cv_.wait(lock, [this] { return stopped_; });
    if (joined_) return;
    joined_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& weak : connections_) {
      if (auto conn = weak.lock()) conn->ForceClose();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connections registered while we were closing are visible now that the
  // accept thread is joined; close again so no reader stays blocked.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& weak : connections_) {
      if (auto conn = weak.lock()) conn->ForceClose();
    }
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (listen_parsed_.kind == AddressKind::kUnixSocket) {
    ::unlink(listen_parsed_.path.c_str());
  }
}

}  // namespace sm
