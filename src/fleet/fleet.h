// In-process fleet supervisor: N warm analysis shards + one router.
//
// SpeedmaskFleet owns N SpeedmaskServer shards (each with its own worker
// pool, warm BddManagers and result cache) and a FleetRouter in front of
// them. Start() brings the shards up first — on derived per-shard
// addresses — then points the router at their effective addresses, so one
// object gives tests, the bench and `speedmask_cli fleet` a whole sharded
// deployment with deterministic topology.
//
// Shard addressing: by default shard i listens on a Unix socket derived
// from the fleet's base path ("<base>.s<i>.sock"); a TCP router listen
// address derives TCP shards on kernel-assigned ports of the same host.
// Explicit shard_addresses override both.
//
// Graceful restart (RestartShard): drain the shard at the router (no new
// requests route to it), shut it down (its own drain completes every
// accepted request — nothing in flight is dropped), start a fresh server
// on the same address, restore it at the router. Requests arriving during
// the window are served by the surviving shards via the router's
// consistent-hash exclusion, so clients never notice beyond a cold cache
// on the restarted shard.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "service/server.h"

namespace sm {

// Shards per in-process fleet: at least 1, at most this many (each shard is
// a whole daemon with its own worker pool).
inline constexpr int kMaxFleetShards = 64;

// Parses a `--shards` value: an integer in [1, kMaxFleetShards]; throws
// std::invalid_argument otherwise.
int ParseShardCount(const std::string& value);

struct FleetOptions {
  // Router listen address (Unix path or host:port; ":0" = free TCP port).
  std::string listen_address = "/tmp/speedmask_fleet.sock";
  int num_shards = 2;
  // Explicit shard addresses (must match num_shards when non-empty);
  // default derives them from listen_address as documented above.
  std::vector<std::string> shard_addresses;
  // Per-shard server knobs (listen_address inside is ignored).
  ServerOptions shard_options;
  int vnodes_per_shard = 64;
};

class SpeedmaskFleet {
 public:
  // Throws std::invalid_argument on num_shards outside [1, kMaxFleetShards]
  // or a shard_addresses size mismatch.
  explicit SpeedmaskFleet(FleetOptions options);
  ~SpeedmaskFleet();

  SpeedmaskFleet(const SpeedmaskFleet&) = delete;
  SpeedmaskFleet& operator=(const SpeedmaskFleet&) = delete;

  // Starts every shard, then the router. Throws std::runtime_error when a
  // listener cannot be bound.
  void Start();

  // Drains the router and every shard, then joins all threads. Idempotent.
  void Shutdown();

  // Blocks until the router finished (a routed "shutdown" request drains
  // the shards first), then tears everything down.
  void Wait();

  // Router address clients connect to (effective, after Start).
  const std::string& address() const { return router_->address(); }

  int num_shards() const { return static_cast<int>(shard_addresses_.size()); }
  // Effective address of shard i — bench/tests use it to talk to a shard
  // directly (bypassing the router) for identity comparisons.
  const std::string& shard_address(int i) const {
    return shards_.at(static_cast<std::size_t>(i))->address();
  }

  FleetRouter& router() { return *router_; }

  // Graceful rolling restart of shard i; see file comment. Returns once
  // the fresh shard is serving again.
  void RestartShard(int i);

 private:
  std::unique_ptr<SpeedmaskServer> MakeShard(int i);

  const FleetOptions options_;
  std::vector<std::string> shard_addresses_;  // configured (pre-effective)
  std::vector<std::unique_ptr<SpeedmaskServer>> shards_;
  std::unique_ptr<FleetRouter> router_;
  bool started_ = false;
};

}  // namespace sm
