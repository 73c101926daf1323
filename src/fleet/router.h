// Front-end router for a fleet of speedmask analysis shards.
//
// Listens on one address (Unix path or host:port, service/address.h) and
// forwards every analysis request to one of N shard daemons, chosen by
// consistent-hashing the request circuit's structural fingerprint
// (util/hash.h HashNetwork — the same network hash the shards' result
// caches key on). Repeated analyses of one circuit therefore always land on
// the same shard, hitting its warm BddManagers and result cache, and the
// placement is a pure function of the shard list — any identically
// configured router routes identically.
//
//   clients ──► router accept thread ── reader thread per connection
//                    │ parse, resolve circuit, hash (memoized per circuit)
//                    │ ring.Pick(sm_hash) ──► shard client (lazy, per
//                    │                        connection, per shard)
//                    └─ stats/shutdown ──► fan out to every shard
//
// Byte identity through the hop: the router never re-serializes an
// analysis request or response — the raw request frame payload is
// forwarded verbatim and the shard's raw response payload is returned
// verbatim (ServiceClient::Exchange), so a client sees the identical bytes
// it would get talking to a single daemon directly.
//
// Failover/replay: a shard that fails at the transport level (FrameError;
// the router reconnects once first) is marked unhealthy and the request is
// replayed on the surviving ring; a shard answering "shutting_down"
// (drained mid-request) triggers the same replay. Either way the client
// receives exactly one response. Analysis methods are deterministic and
// content-cached, so a replay that duplicates work on a new shard is
// harmless. "overloaded" responses pass through untouched — backpressure
// is per shard, and the client's retry policy owns that loop.
//
// Drain protocol (graceful shard restart): DrainShard(i) removes the shard
// from routing; the supervisor then shuts the shard down (its own drain
// answers all accepted work), restarts it, and calls RestoreShard(i) — no
// request is dropped and none is answered twice.
//
// The router intercepts two methods instead of forwarding: "stats" answers
// with an aggregated fleet document (router counters + per-shard probe +
// rollup; see AggregateStats) and "shutdown" drains every shard, answers,
// then shuts the router down.
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

#include "fleet/ring.h"
#include "service/address.h"
#include "service/client.h"
#include "service/latency_ring.h"

namespace sm {

struct RouterOptions {
  // Unix socket path or "host:port"; ":0" picks a free TCP port (address()
  // reports the effective one after Start()).
  std::string listen_address = "/tmp/speedmask_router.sock";
  // Shard daemon addresses, in ring order. At least one required.
  std::vector<std::string> shards;
  int vnodes_per_shard = 64;
  std::size_t max_frame_bytes = 16u << 20;
  int write_timeout_ms = 10'000;
  // SO_RCVTIMEO on every upstream shard connection (forward, probe, stats,
  // fleet shutdown). A shard that accepts the forwarded frame and then
  // wedges — instead of dying, which the reconnect path already handles —
  // times out as a FrameError, which marks the shard unhealthy and replays
  // the request on the surviving ring. 0 disables (a wedged shard then
  // blocks that client connection indefinitely).
  int shard_read_timeout_ms = 0;
  // Memoized circuit-spec -> sm_hash entries (routing skips re-parsing a
  // repeated inline BLIF); the map is cleared when it exceeds this bound.
  std::size_t key_cache_entries = 1024;
};

class FleetRouter {
 public:
  // Throws std::invalid_argument on an empty shard list, a malformed
  // address, or duplicate shard addresses.
  explicit FleetRouter(RouterOptions options);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Binds the listener and spawns the accept thread. Throws
  // std::runtime_error when the address cannot be bound. Does not contact
  // the shards — connections are opened lazily per client connection.
  void Start();

  // Blocks until Shutdown() (or a routed "shutdown" request) completes,
  // then joins all threads. Idempotent.
  void Wait();

  // Stops accepting, closes client connections. Does NOT shut the shards
  // down (the supervisor owns their lifecycle); a "shutdown" *request* does.
  void Shutdown();

  // Effective listen address (kernel port filled in for TCP ":0").
  const std::string& address() const {
    return effective_address_.empty() ? options_.listen_address
                                      : effective_address_;
  }

  int num_shards() const { return ring_.num_shards(); }

  // Drain protocol. Index is into options.shards. Draining an already
  // drained shard (or restoring a live one) is a no-op.
  void DrainShard(int shard);
  void RestoreShard(int shard);
  bool IsDrained(int shard) const;

  // One stats round trip to the shard; true on success. A successful probe
  // clears the shard's unhealthy mark, a failed one sets it.
  bool ProbeShard(int shard);

  // The aggregated "stats" result object (also served to clients): router
  // counters, one entry per shard (address, drained, healthy, that shard's
  // own stats result or null when unreachable) and a fleet rollup.
  std::string AggregateStatsJson();

 private:
  struct Connection;

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  // Returns the response payload bytes for one request payload. Sets
  // *shutdown_after when the request was a fleet shutdown — the caller
  // finishes writing the reply, then shuts the router down.
  std::string RouteRequest(Connection& conn, const std::string& payload,
                           bool* shutdown_after);
  std::string ForwardWithFailover(Connection& conn, std::uint64_t key,
                                  const std::string& payload);
  std::string ExchangeWithShard(Connection& conn, int shard,
                                const std::string& payload);
  std::uint64_t RoutingKey(const std::string& payload);
  // Shards not to route to: `tried` plus every drained or unhealthy one.
  std::vector<bool> ExcludedShards(const std::vector<bool>& tried) const;
  void ShutdownFleet();  // forwards "shutdown" to every shard
  void StopListeningLocked();

  const RouterOptions options_;
  const HashRing ring_;

  ServiceAddress listen_parsed_;
  std::string effective_address_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::weak_ptr<Connection>> connections_;

  mutable std::mutex shard_mutex_;
  std::vector<bool> drained_;
  std::vector<bool> unhealthy_;

  std::mutex key_mutex_;
  std::map<std::string, std::uint64_t> key_cache_;

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool started_ = false;
  bool stopped_ = false;
  bool joined_ = false;
  std::atomic<bool> draining_{false};

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> key_cache_hits_{0};
  std::atomic<std::uint64_t> key_cache_misses_{0};

  LatencyRing latency_ring_;
};

}  // namespace sm
