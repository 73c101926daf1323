#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/ring.h"
#include "fleet/router.h"
#include "service/address.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/hash.h"
#include "util/timer.h"

namespace sm {
namespace {

std::string TestSocket(const char* tag) {
  return "/tmp/speedmask_fleet_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Deterministic key stream for ring property tests.
std::vector<std::uint64_t> TestKeys(std::size_t n) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  std::uint64_t x = 2009;
  for (std::size_t i = 0; i < n; ++i) {
    x = HashMix64(x + i);
    keys.push_back(x);
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Hash ring properties
// ---------------------------------------------------------------------------

TEST(HashRing, DeterministicAcrossInstances) {
  const std::vector<std::string> shards = {"s0", "s1", "s2"};
  const HashRing a(shards, 64);
  const HashRing b(shards, 64);
  for (const std::uint64_t key : TestKeys(1000)) {
    EXPECT_EQ(a.Pick(key), b.Pick(key));
  }
}

TEST(HashRing, PickExcludingEqualsRingWithoutTheShard) {
  const std::vector<std::string> all = {"s0", "s1", "s2", "s3"};
  const HashRing full(all, 48);
  for (int removed = 0; removed < 4; ++removed) {
    std::vector<std::string> rest;
    for (int s = 0; s < 4; ++s) {
      if (s != removed) rest.push_back(all[static_cast<std::size_t>(s)]);
    }
    const HashRing subring(rest, 48);
    std::vector<bool> excluded(4, false);
    excluded[static_cast<std::size_t>(removed)] = true;
    for (const std::uint64_t key : TestKeys(1000)) {
      const std::string& via_exclusion =
          all[static_cast<std::size_t>(full.PickExcluding(key, excluded))];
      const std::string& via_subring =
          rest[static_cast<std::size_t>(subring.Pick(key))];
      EXPECT_EQ(via_exclusion, via_subring);
    }
  }
}

TEST(HashRing, JoinMovesOnlyKeysOntoTheNewShard) {
  // Monotone/minimal remapping: adding a shard must only move keys TO the
  // new shard — every key not claimed by it keeps its old placement.
  const HashRing before({"s0", "s1", "s2"}, 64);
  const HashRing after({"s0", "s1", "s2", "s3"}, 64);
  std::size_t moved = 0;
  const std::vector<std::uint64_t> keys = TestKeys(4000);
  for (const std::uint64_t key : keys) {
    const int now = after.Pick(key);
    if (now == 3) {
      ++moved;
    } else {
      EXPECT_EQ(now, before.Pick(key)) << "key moved between old shards";
    }
  }
  // The new shard claims roughly 1/4 of the keys — and not none of them.
  EXPECT_GT(moved, keys.size() / 10);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(HashRing, LeaveRemapsOnlyTheDepartedShardsKeys) {
  const HashRing before({"s0", "s1", "s2", "s3"}, 64);
  const HashRing after({"s0", "s1", "s2"}, 64);
  for (const std::uint64_t key : TestKeys(4000)) {
    const int was = before.Pick(key);
    if (was != 3) {
      EXPECT_EQ(after.Pick(key), was);
    }
  }
}

TEST(HashRing, VirtualNodesBalanceLoad) {
  const HashRing ring({"s0", "s1", "s2", "s3"}, 128);
  std::map<int, std::size_t> counts;
  const std::vector<std::uint64_t> keys = TestKeys(20000);
  for (const std::uint64_t key : keys) ++counts[ring.Pick(key)];
  for (int s = 0; s < 4; ++s) {
    const double share =
        static_cast<double>(counts[s]) / static_cast<double>(keys.size());
    EXPECT_GT(share, 0.12) << "shard " << s << " underloaded";
    EXPECT_LT(share, 0.40) << "shard " << s << " overloaded";
  }
}

TEST(HashRing, RejectsDegenerateConfigurations) {
  EXPECT_THROW(HashRing({}, 64), std::invalid_argument);
  EXPECT_THROW(HashRing({"a", "a"}, 64), std::invalid_argument);
  EXPECT_THROW(HashRing({"a"}, 0), std::invalid_argument);
  EXPECT_THROW(HashRing({"a"}, kMaxVnodesPerShard + 1),
               std::invalid_argument);
  const HashRing ring({"a", "b"}, 8);
  EXPECT_THROW(ring.PickExcluding(1, {true, true}), std::invalid_argument);
  EXPECT_THROW(ring.PickExcluding(1, {true}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Router end to end
// ---------------------------------------------------------------------------

TEST(Fleet, RouterPreservesResponseBytes) {
  // Baseline: a plain single daemon.
  ServerOptions solo_options;
  solo_options.listen_address = TestSocket("solo");
  solo_options.num_workers = 1;
  SpeedmaskServer solo(solo_options);
  solo.Start();
  std::string expected_spcf, expected_error;
  {
    ServiceClient client(solo_options.listen_address);
    const ServiceResponse r = client.AnalyzeSpcf("i1");
    ASSERT_TRUE(r.ok()) << r.error;
    expected_spcf = r.result_json;
    expected_error = client.AnalyzeSpcf("no_such_circuit").error;
    EXPECT_TRUE(client.Shutdown().ok());
  }
  solo.Wait();

  FleetOptions options;
  options.listen_address = TestSocket("e2e");
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();
  {
    ServiceClient client(fleet.address());
    const ServiceResponse via_router = client.AnalyzeSpcf("i1");
    ASSERT_TRUE(via_router.ok()) << via_router.error;
    EXPECT_EQ(via_router.result_json, expected_spcf);
    // Error responses pass through byte-inspected but unmodified too.
    const ServiceResponse err = client.AnalyzeSpcf("no_such_circuit");
    EXPECT_EQ(err.status, "error");
    EXPECT_EQ(err.error, expected_error);
    // Direct to either shard: same bytes, router or not.
    for (int s = 0; s < fleet.num_shards(); ++s) {
      ServiceClient direct(fleet.shard_address(s));
      const ServiceResponse r = direct.AnalyzeSpcf("i1");
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.result_json, expected_spcf) << "shard " << s;
    }
  }
  fleet.Shutdown();
}

TEST(Fleet, RoutingIsShardAffine) {
  // The same circuit always lands on the same shard, so the second request
  // is a cache hit *somewhere* — exactly one shard saw both requests.
  FleetOptions options;
  options.listen_address = TestSocket("affine");
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();
  {
    ServiceClient client(fleet.address());
    ASSERT_TRUE(client.AnalyzeSpcf("i1").ok());
    ASSERT_TRUE(client.AnalyzeSpcf("i1").ok());
    const Json stats = Json::Parse(client.Stats().result_json);
    const Json* fleet_obj = stats.Find("fleet");
    ASSERT_NE(fleet_obj, nullptr);
    EXPECT_GE(fleet_obj->Find("cache")->GetUint64("hits", 0), 1u);
    // Exactly one shard handled both analysis requests.
    std::uint64_t shards_with_requests = 0;
    for (const Json& entry : stats.Find("shards")->AsArray()) {
      const Json* shard_stats = entry.Find("stats");
      ASSERT_NE(shard_stats, nullptr);
      const std::uint64_t analyses =
          shard_stats->Find("requests_by_method")
              ->GetUint64("analyze_spcf", 0);
      if (analyses > 0) {
        ++shards_with_requests;
        EXPECT_EQ(analyses, 2u);
      }
    }
    EXPECT_EQ(shards_with_requests, 1u);
  }
  fleet.Shutdown();
}

TEST(Fleet, AggregatedStatsShape) {
  FleetOptions options;
  options.listen_address = TestSocket("stats");
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();
  {
    ServiceClient client(fleet.address());
    ASSERT_TRUE(client.AnalyzeSpcf("i1").ok());
    const ServiceResponse stats_response = client.Stats();
    ASSERT_TRUE(stats_response.ok());
    const Json doc = Json::Parse(stats_response.result_json);

    const Json* router = doc.Find("router");
    ASSERT_NE(router, nullptr);
    EXPECT_GE(router->GetUint64("forwarded", 0), 1u);
    EXPECT_EQ(router->GetUint64("shards", 0), 2u);
    ASSERT_NE(router->Find("latency"), nullptr);
    EXPECT_GE(router->Find("latency")->GetUint64("samples", 0), 1u);

    const Json* shards = doc.Find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->AsArray().size(), 2u);
    for (const Json& entry : shards->AsArray()) {
      EXPECT_TRUE(entry.Find("healthy")->AsBool());
      EXPECT_FALSE(entry.Find("drained")->AsBool());
      EXPECT_FALSE(entry.Find("stats")->is_null());
      // Per-shard latency percentiles ride along in the shard document.
      EXPECT_NE(entry.Find("stats")->Find("latency"), nullptr);
    }

    const Json* rollup = doc.Find("fleet");
    ASSERT_NE(rollup, nullptr);
    EXPECT_EQ(rollup->GetUint64("healthy_shards", 0), 2u);
    EXPECT_GE(rollup->GetUint64("requests_total", 0), 1u);
    EXPECT_EQ(rollup->GetUint64("workers", 0), 2u);  // 2 shards x 1 worker
    ASSERT_NE(rollup->Find("cache"), nullptr);
  }
  fleet.Shutdown();
}

TEST(Fleet, GracefulShardRestartUnderLiveStream) {
  FleetOptions options;
  options.listen_address = TestSocket("roll");
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();

  constexpr int kRequests = 16;
  std::vector<std::string> statuses;
  std::vector<std::string> bodies;
  std::thread streamer([&] {
    ServiceClient client(fleet.address());
    for (int i = 0; i < kRequests; ++i) {
      ServiceRequest r;
      r.method = ServiceMethod::kAnalyzeSpcf;
      r.circuit_name = (i % 2 == 0) ? "i1" : "cmb";
      r.guard = 0.1;
      const ServiceResponse response = client.Call(r);
      statuses.push_back(response.status);
      bodies.push_back(response.result_json);
    }
  });
  // Roll both shards while the stream runs.
  fleet.RestartShard(0);
  fleet.RestartShard(1);
  streamer.join();

  // Zero drops, zero "shutting_down" leaks to the client: the router
  // replays drained-shard answers on the surviving ring.
  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(statuses[static_cast<std::size_t>(i)], "ok") << "request " << i;
  }
  // Byte identity held across the restarts: every repeat of a circuit
  // matches its first answer (restarted shards recompute identical bytes).
  for (int i = 2; i < kRequests; ++i) {
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)],
              bodies[static_cast<std::size_t>(i % 2)])
        << "request " << i;
  }
  fleet.Shutdown();
}

TEST(Fleet, DrainedShardReceivesNoNewRequests) {
  FleetOptions options;
  options.listen_address = TestSocket("drain");
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();
  fleet.router().DrainShard(0);
  EXPECT_TRUE(fleet.router().IsDrained(0));
  {
    ServiceClient client(fleet.address());
    // Both circuits answer fine even though only shard 1 may serve them.
    ASSERT_TRUE(client.AnalyzeSpcf("i1").ok());
    ASSERT_TRUE(client.AnalyzeSpcf("cmb").ok());
    const Json stats = Json::Parse(client.Stats().result_json);
    const Json::Array& shards = stats.Find("shards")->AsArray();
    EXPECT_EQ(shards[0]
                  .Find("stats")
                  ->Find("requests_by_method")
                  ->GetUint64("analyze_spcf", 0),
              0u);
    EXPECT_EQ(shards[1]
                  .Find("stats")
                  ->Find("requests_by_method")
                  ->GetUint64("analyze_spcf", 0),
              2u);
  }
  fleet.router().RestoreShard(0);
  EXPECT_FALSE(fleet.router().IsDrained(0));
  fleet.Shutdown();
}

TEST(Fleet, ShutdownRequestDrainsWholeFleet) {
  FleetOptions options;
  options.listen_address = TestSocket("shut");
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();
  const std::string shard0 = fleet.shard_address(0);
  {
    ServiceClient client(fleet.address());
    ASSERT_TRUE(client.AnalyzeSpcf("i1").ok());
    EXPECT_TRUE(client.Shutdown().ok());
  }
  fleet.Wait();
  // The shards were drained and stopped by the routed shutdown.
  EXPECT_THROW(ServiceClient{shard0}, std::runtime_error);
}

TEST(Fleet, RouterOverTcpShards) {
  // A TCP listen address derives TCP shards on kernel-assigned ports; the
  // whole fleet speaks host:port end to end.
  FleetOptions options;
  options.listen_address = "127.0.0.1:0";
  options.num_shards = 2;
  options.shard_options.num_workers = 1;
  SpeedmaskFleet fleet(options);
  fleet.Start();
  ASSERT_NE(fleet.address(), "127.0.0.1:0");
  EXPECT_EQ(ParseServiceAddress(fleet.shard_address(0)).kind,
            AddressKind::kTcp);
  {
    ServiceClient client(fleet.address());
    const ServiceResponse r = client.AnalyzeSpcf("i1");
    ASSERT_TRUE(r.ok()) << r.error;
  }
  fleet.Shutdown();
}

// ---------------------------------------------------------------------------
// Failover on shards dying mid-exchange
// ---------------------------------------------------------------------------

// A shard impostor that accepts real connections and then misbehaves: either
// writes exactly half of a valid response frame and closes (a daemon dying
// mid-send), or reads requests and never answers at all (a wedged daemon).
class MisbehavingShard {
 public:
  enum class Mode { kHalfFrame, kNeverReplies };

  MisbehavingShard(const std::string& path, Mode mode) : mode_(mode) {
    std::string effective;
    listen_fd_ = BindAndListen(ParseServiceAddress(path), 8, &effective);
    thread_ = std::thread([this] { Loop(); });
  }

  ~MisbehavingShard() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    const int active = active_fd_.exchange(-1);
    if (active >= 0) ::shutdown(active, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }

  int connections() const { return connections_.load(); }

 private:
  void Loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      connections_.fetch_add(1);
      active_fd_.store(fd);
      try {
        while (ReadFrame(fd, 16u << 20).has_value()) {
          if (mode_ == Mode::kHalfFrame) {
            const std::string frame = EncodeFrame(SerializeResponse(
                ServiceResponse{1, "ok", "{\"bogus\":true}", "", ""}));
            [[maybe_unused]] const ssize_t n =
                ::write(fd, frame.data(), frame.size() / 2);
            break;  // die mid-response
          }
          // kNeverReplies: swallow the request, keep the peer waiting.
        }
      } catch (const FrameError&) {
      }
      if (active_fd_.exchange(-1) >= 0) ::close(fd);
    }
  }

  const Mode mode_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<int> active_fd_{-1};
  std::atomic<int> connections_{0};
};

// The router hashes the circuit onto the shard *address* ring, so which
// shard serves "i1" is a pure function of the address strings. To plant the
// impostor on i1's path, choose the impostor's and the real daemon's socket
// paths together, trying pairs until the ring {impostor, real} routes i1 to
// the impostor. Varying the impostor's path alone is not enough: when one of
// the real daemon's virtual nodes sits just past i1's key (which depends on
// the pid in the path), almost no impostor path lands in between, and even
// thousands of candidates can all miss. With both paths fresh, each pair
// routes to the impostor with probability about 1/2, so 64 pairs all miss
// with probability about 2^-64.
struct PlantedPaths {
  std::string fake;
  std::string real;
};

PlantedPaths PlantOnCircuitPath(const char* tag, int vnodes) {
  ServiceRequest probe;
  probe.method = ServiceMethod::kAnalyzeSpcf;
  probe.circuit_name = "i1";
  const std::uint64_t key = HashNetwork(ResolveCircuit(probe));
  for (int i = 0; i < 64; ++i) {
    const std::string prefix = std::string(tag) + "_" + std::to_string(i);
    PlantedPaths paths{TestSocket((prefix + "_fake").c_str()),
                       TestSocket((prefix + "_real").c_str())};
    if (HashRing({paths.fake, paths.real}, vnodes).Pick(key) == 0) {
      return paths;
    }
  }
  return {};
}

TEST(Fleet, FailoverWhenShardDiesMidResponseFrame) {
  RouterOptions ro;
  ro.listen_address = TestSocket("half_router");
  const PlantedPaths paths = PlantOnCircuitPath("half", ro.vnodes_per_shard);
  ASSERT_FALSE(paths.fake.empty());
  ServerOptions real_options;
  real_options.listen_address = paths.real;
  real_options.num_workers = 1;
  SpeedmaskServer real(real_options);
  real.Start();

  std::string expected;
  {
    ServiceClient direct(real_options.listen_address);
    const ServiceResponse r = direct.AnalyzeSpcf("i1");
    ASSERT_TRUE(r.ok()) << r.error;
    expected = r.result_json;
  }

  MisbehavingShard fake(paths.fake, MisbehavingShard::Mode::kHalfFrame);
  ro.shards = {paths.fake, paths.real};
  FleetRouter router(ro);
  router.Start();
  {
    ServiceClient client(router.address());
    // The routed shard dies after half a response frame — twice (the router
    // reconnects once before giving up on a shard). The client must still
    // receive exactly one complete response with the true result bytes,
    // never the impostor's truncated frame.
    const ServiceResponse r = client.AnalyzeSpcf("i1");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.result_json, expected);
  }
  EXPECT_GE(fake.connections(), 1);
  router.Shutdown();
  router.Wait();
  {
    ServiceClient direct(real_options.listen_address);
    EXPECT_TRUE(direct.Shutdown().ok());
  }
  real.Wait();
}

TEST(Fleet, FailoverWhenShardAcceptsButNeverReplies) {
  RouterOptions ro;
  ro.listen_address = TestSocket("hung_router");
  const PlantedPaths paths = PlantOnCircuitPath("hung", ro.vnodes_per_shard);
  ASSERT_FALSE(paths.fake.empty());
  ServerOptions real_options;
  real_options.listen_address = paths.real;
  real_options.num_workers = 1;
  SpeedmaskServer real(real_options);
  real.Start();

  // The upstream read timeout is what makes a wedged shard a *bounded*
  // failure: without it this test would hang, not fail. It also bounds the
  // healthy shard's compute+reply, so it must comfortably exceed a cold
  // AnalyzeSpcf on a loaded single-core CI box — 200 ms flaked there.
  ro.shard_read_timeout_ms = 2000;
  MisbehavingShard hung(paths.fake, MisbehavingShard::Mode::kNeverReplies);
  ro.shards = {paths.fake, paths.real};
  FleetRouter router(ro);
  router.Start();
  {
    ServiceClient client(router.address());
    WallTimer timer;
    const ServiceResponse r = client.AnalyzeSpcf("i1");
    ASSERT_TRUE(r.ok()) << r.error;
    // Two timed-out attempts on the wedged shard (2 x 2 s) plus the real
    // compute; far under a wedge, generous for loaded CI.
    EXPECT_LT(timer.Millis(), 10'000);
  }
  EXPECT_GE(hung.connections(), 1);
  router.Shutdown();
  router.Wait();
  {
    ServiceClient direct(real_options.listen_address);
    EXPECT_TRUE(direct.Shutdown().ok());
  }
  real.Wait();
}

TEST(Fleet, AllShardsUnreachableYieldsTypedUnavailable) {
  const std::string fake_path = TestSocket("allfake");
  MisbehavingShard fake(fake_path, MisbehavingShard::Mode::kHalfFrame);
  RouterOptions ro;
  ro.listen_address = TestSocket("allfake_router");
  ro.shards = {fake_path};
  FleetRouter router(ro);
  router.Start();
  {
    ServiceClient client(router.address());
    const ServiceResponse r = client.AnalyzeSpcf("i1");
    EXPECT_EQ(r.status, "error");
    EXPECT_EQ(r.code, "unavailable");
    EXPECT_TRUE(r.retryable());
    EXPECT_NE(r.error.find("no shard available"), std::string::npos);
  }
  router.Shutdown();
  router.Wait();
}

// The CLI's --shards and --vnodes parsers, and the bounds behind them.
// Large values are checked here only: no fleet or ring is started.
TEST(Fleet, ShardAndVnodeCountsAreBounded) {
  EXPECT_EQ(ParseShardCount("1"), 1);
  EXPECT_EQ(ParseShardCount("2"), 2);
  EXPECT_EQ(ParseShardCount("64"), kMaxFleetShards);
  for (const char* bad : {"0", "-1", "65", "100000", "2x", "", "99999999999"}) {
    EXPECT_THROW(ParseShardCount(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(ParseVnodeCount("1"), 1);
  EXPECT_EQ(ParseVnodeCount("64"), 64);
  EXPECT_EQ(ParseVnodeCount("4096"), kMaxVnodesPerShard);
  for (const char* bad : {"0", "4097", "1000000", "64k", ""}) {
    EXPECT_THROW(ParseVnodeCount(bad), std::invalid_argument) << bad;
  }
  try {
    ParseShardCount("2x");
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad --shards value: 2x"),
              std::string::npos)
        << e.what();
  }
}

TEST(Fleet, RejectsDegenerateOptions) {
  for (const int shards : {0, kMaxFleetShards + 1}) {
    FleetOptions o;
    o.num_shards = shards;
    EXPECT_THROW(SpeedmaskFleet{o}, std::invalid_argument) << shards;
  }
  {
    FleetOptions o;
    o.num_shards = 2;
    o.shard_addresses = {TestSocket("only_one")};
    EXPECT_THROW(SpeedmaskFleet{o}, std::invalid_argument);
  }
  {
    RouterOptions o;
    o.shards = {};
    EXPECT_THROW(FleetRouter{o}, std::invalid_argument);
  }
  {
    RouterOptions o;
    o.shards = {"/tmp/a.sock", "/tmp/a.sock"};  // duplicate ring ids
    EXPECT_THROW(FleetRouter{o}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace sm
