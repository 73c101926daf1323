#include "fleet/fleet.h"

#include <stdexcept>

#include "service/address.h"
#include "service/client.h"
#include "util/strings.h"

namespace sm {

namespace {

// "<base>.s<i>.sock" for a Unix base; "host:0" (kernel-assigned port) for a
// TCP base. Explicit shard addresses bypass this.
std::string DeriveShardAddress(const ServiceAddress& base, int shard) {
  if (base.kind == AddressKind::kUnixSocket) {
    std::string stem = base.path;
    const std::string suffix = ".sock";
    if (stem.size() > suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      stem.resize(stem.size() - suffix.size());
    }
    return stem + ".s" + std::to_string(shard) + ".sock";
  }
  return base.host + ":0";
}

}  // namespace

int ParseShardCount(const std::string& value) {
  return ParseBoundedInt("--shards", value, 1, kMaxFleetShards);
}

SpeedmaskFleet::SpeedmaskFleet(FleetOptions options)
    : options_(std::move(options)) {
  if (options_.num_shards < 1 || options_.num_shards > kMaxFleetShards) {
    throw std::invalid_argument("fleet needs 1 to " +
                                std::to_string(kMaxFleetShards) +
                                " shards, got " +
                                std::to_string(options_.num_shards));
  }
  if (!options_.shard_addresses.empty()) {
    if (static_cast<int>(options_.shard_addresses.size()) !=
        options_.num_shards) {
      throw std::invalid_argument("shard_addresses size != num_shards");
    }
    shard_addresses_ = options_.shard_addresses;
  } else {
    const ServiceAddress base = ParseServiceAddress(options_.listen_address);
    for (int i = 0; i < options_.num_shards; ++i) {
      shard_addresses_.push_back(DeriveShardAddress(base, i));
    }
  }
}

SpeedmaskFleet::~SpeedmaskFleet() { Shutdown(); }

std::unique_ptr<SpeedmaskServer> SpeedmaskFleet::MakeShard(int i) {
  ServerOptions o = options_.shard_options;
  o.listen_address = shard_addresses_.at(static_cast<std::size_t>(i));
  return std::make_unique<SpeedmaskServer>(std::move(o));
}

void SpeedmaskFleet::Start() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(MakeShard(i));
    shards_.back()->Start();
    // Pin the effective address (kernel-assigned TCP port) so the router —
    // and any later RestartShard — target the same endpoint.
    shard_addresses_[static_cast<std::size_t>(i)] = shards_.back()->address();
  }
  RouterOptions r;
  r.listen_address = options_.listen_address;
  r.shards = shard_addresses_;
  r.vnodes_per_shard = options_.vnodes_per_shard;
  r.max_frame_bytes = options_.shard_options.max_frame_bytes;
  r.write_timeout_ms = options_.shard_options.write_timeout_ms;
  router_ = std::make_unique<FleetRouter>(std::move(r));
  router_->Start();
}

void SpeedmaskFleet::RestartShard(int i) {
  auto& shard = shards_.at(static_cast<std::size_t>(i));
  // 1. Stop routing to the shard; in-flight and racing requests that still
  //    reach it are either drained to completion (answered) or answered
  //    "shutting_down" and replayed by the router on the surviving ring.
  router_->DrainShard(i);
  // 2. The shard's own drain answers every accepted request before Wait
  //    returns — nothing is dropped.
  shard->Shutdown();
  shard->Wait();
  // 3. Fresh server on the same address; warm state starts cold, results
  //    stay byte-identical by the determinism contract.
  shard = MakeShard(i);
  shard->Start();
  WaitForServer(shard->address(), /*timeout_seconds=*/10.0);
  router_->RestoreShard(i);
}

void SpeedmaskFleet::Shutdown() {
  if (!started_) return;
  if (router_ != nullptr) {
    router_->Shutdown();
    router_->Wait();
  }
  for (auto& shard : shards_) {
    shard->Shutdown();
    shard->Wait();
  }
}

void SpeedmaskFleet::Wait() {
  if (router_ != nullptr) router_->Wait();
  Shutdown();
}

}  // namespace sm
