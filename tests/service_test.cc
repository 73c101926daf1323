#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "network/blif.h"
#include "service/address.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/latency_ring.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "variation/monte_carlo.h"

namespace sm {
namespace {

std::string TestSocket(const char* tag) {
  return "/tmp/speedmask_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Framing, RoundTripInMemory) {
  const std::string payload = "{\"id\":1}";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  std::string decoded;
  const std::size_t consumed =
      DecodeFrame(frame, kDefaultMaxFramePayload, &decoded);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded, payload);
}

TEST(Framing, EmptyPayloadAndBackToBackFrames) {
  const std::string two = EncodeFrame("") + EncodeFrame("xy");
  std::string decoded;
  std::size_t consumed = DecodeFrame(two, kDefaultMaxFramePayload, &decoded);
  EXPECT_EQ(consumed, kFrameHeaderBytes);
  EXPECT_EQ(decoded, "");
  consumed = DecodeFrame(std::string_view(two).substr(consumed),
                         kDefaultMaxFramePayload, &decoded);
  EXPECT_EQ(consumed, kFrameHeaderBytes + 2);
  EXPECT_EQ(decoded, "xy");
}

TEST(Framing, TruncatedPrefixAsksForMore) {
  const std::string frame = EncodeFrame("hello");
  std::string decoded;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, cut),
                          kDefaultMaxFramePayload, &decoded),
              0u)
        << "cut=" << cut;
  }
}

TEST(Framing, GarbageMagicThrows) {
  std::string frame = EncodeFrame("hello");
  frame[0] = 'X';
  std::string decoded;
  EXPECT_THROW(DecodeFrame(frame, kDefaultMaxFramePayload, &decoded),
               FrameError);
  // An HTTP probe must be rejected on its first 8 bytes, not interpreted as
  // a length.
  EXPECT_THROW(
      DecodeFrame("GET / HTTP/1.1\r\n", kDefaultMaxFramePayload, &decoded),
      FrameError);
}

TEST(Framing, OversizedDeclaredLengthThrows) {
  const std::string frame = EncodeFrame("0123456789");
  std::string decoded;
  EXPECT_THROW(DecodeFrame(frame, /*max_payload=*/9, &decoded), FrameError);
  EXPECT_NO_THROW(DecodeFrame(frame, /*max_payload=*/10, &decoded));
}

TEST(Framing, FdRoundTripAndEofSemantics) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  WriteFrame(fds[0], "one");
  WriteFrame(fds[0], "two");
  EXPECT_EQ(ReadFrame(fds[1]).value(), "one");
  EXPECT_EQ(ReadFrame(fds[1]).value(), "two");

  // Clean close at a frame boundary → nullopt, not an error.
  ::close(fds[0]);
  EXPECT_EQ(ReadFrame(fds[1]), std::nullopt);
  ::close(fds[1]);
}

TEST(Framing, WriteToClosedPeerThrowsInsteadOfSigpipe) {
  // Regression: writes used to raise SIGPIPE (default disposition: kill the
  // whole daemon) when the client disconnected before its response was
  // written. They must surface as FrameError instead.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // Large payload so even a buffered first send eventually hits EPIPE.
  const std::string payload(1u << 20, 'x');
  EXPECT_THROW(
      {
        WriteFrame(fds[0], payload);
        WriteFrame(fds[0], payload);
      },
      FrameError);
  ::close(fds[0]);
}

TEST(Framing, SendTimeoutSurfacesAsFrameError) {
  // A peer that stops reading fills the socket buffer; with SO_SNDTIMEO set
  // (as the server does on accepted fds) the blocked send must expire into
  // a FrameError rather than wedge the writer forever.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  timeval tv{};
  tv.tv_usec = 100'000;  // 100 ms
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)), 0);
  const std::string payload(8u << 20, 'x');  // far beyond any socket buffer
  EXPECT_THROW(WriteFrame(fds[0], payload), FrameError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Framing, MidFrameEofThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string frame = EncodeFrame("payload");
  // Send only half the frame, then close.
  const std::string half = frame.substr(0, frame.size() / 2);
  ASSERT_EQ(::send(fds[0], half.data(), half.size(), 0),
            static_cast<ssize_t>(half.size()));
  ::close(fds[0]);
  EXPECT_THROW(ReadFrame(fds[1]), FrameError);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, DumpIsCanonicalAndParseRoundTrips) {
  Json obj = Json::MakeObject();
  obj.Set("name", "i1");
  obj.Set("count", std::uint64_t{1024});
  obj.Set("frac", 0.25);
  obj.Set("flag", true);
  Json arr = Json::MakeArray();
  arr.Append(1.0);
  arr.Append("x\n");
  obj.Set("items", std::move(arr));

  const std::string text = obj.Dump();
  // Insertion order, integral doubles printed as integers, control chars
  // escaped.
  EXPECT_EQ(text,
            "{\"name\":\"i1\",\"count\":1024,\"frac\":0.25,\"flag\":true,"
            "\"items\":[1,\"x\\n\"]}");

  const Json parsed = Json::Parse(text);
  EXPECT_EQ(parsed.GetString("name"), "i1");
  EXPECT_EQ(parsed.GetUint64("count", 0), 1024u);
  EXPECT_EQ(parsed.GetDouble("frac", 0), 0.25);
  EXPECT_EQ(parsed.Dump(), text);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(Json::Parse(""), JsonError);
  EXPECT_THROW(Json::Parse("{"), JsonError);
  EXPECT_THROW(Json::Parse("{\"a\":}"), JsonError);
  EXPECT_THROW(Json::Parse("[1,]"), JsonError);
  EXPECT_THROW(Json::Parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::Parse("\"raw\ncontrol\""), JsonError);
}

TEST(Json, Uint64RejectsValuesAtOrAbove2To64) {
  // Regression: 2^64 itself passed the old `>` bound (the literal rounds to
  // exactly 2^64) and the cast was undefined behavior.
  EXPECT_THROW(Json::Parse("18446744073709551616").AsUint64(), JsonError);
  EXPECT_THROW(Json::Parse("1e300").AsUint64(), JsonError);
  EXPECT_THROW(Json::Parse("-1").AsUint64(), JsonError);
  EXPECT_THROW(Json::Parse("1.5").AsUint64(), JsonError);
  // Largest double below 2^64 is fine.
  EXPECT_EQ(Json::Parse("18446744073709549568").AsUint64(),
            18446744073709549568ull);
  EXPECT_EQ(Json::Parse("0").AsUint64(), 0ull);
}

TEST(Json, StringEscapesRoundTrip) {
  const Json parsed = Json::Parse("\"a\\u0041\\n\\\"\\\\\"");
  EXPECT_EQ(parsed.AsString(), "aA\n\"\\");
}

TEST(Json, EscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Json, EscapeHandlesAllControlChars) {
  EXPECT_EQ(JsonEscape("a\tb\rc\bd\fe"), "a\\tb\\rc\\bd\\fe");
  // Control characters without a shorthand escape become \u00XX — RFC 8259
  // forbids them raw inside strings.
  EXPECT_EQ(JsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
  // 0x20 and above pass through untouched.
  EXPECT_EQ(JsonEscape(" ~"), " ~");
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(ResultCache, LruEvictionOrderAndAccounting) {
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20);
  cache.Put(1, "one");
  cache.Put(2, "two");
  EXPECT_EQ(cache.Get(1).value(), "one");  // 1 is now most recent
  cache.Put(3, "three");                   // evicts 2, the LRU entry
  EXPECT_EQ(cache.Get(2), std::nullopt);
  EXPECT_EQ(cache.Get(1).value(), "one");
  EXPECT_EQ(cache.Get(3).value(), "three");

  const ResultCache::Stats stats = cache.SnapshotStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, std::string("one").size() + 5);
}

TEST(ResultCache, ByteBudgetEvictsAndHugeValuesAreSkipped) {
  ResultCache cache(/*max_entries=*/100, /*max_bytes=*/10);
  cache.Put(1, "aaaa");  // 4 bytes
  cache.Put(2, "bbbb");  // 8 bytes total
  cache.Put(3, "cccc");  // 12 > 10 → evict key 1
  EXPECT_EQ(cache.Get(1), std::nullopt);
  EXPECT_EQ(cache.Get(2).value(), "bbbb");

  // A value larger than the whole budget is not cached at all.
  cache.Put(4, std::string(64, 'x'));
  EXPECT_EQ(cache.Get(4), std::nullopt);
  EXPECT_EQ(cache.Get(2).value(), "bbbb");  // and nothing was evicted for it
}

TEST(ResultCache, PutRefreshesExistingKey) {
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20);
  cache.Put(1, "one");
  cache.Put(2, "two");
  cache.Put(1, "uno");  // refresh: 1 becomes MRU, value replaced
  cache.Put(3, "three");
  EXPECT_EQ(cache.Get(2), std::nullopt);  // 2 was the LRU
  EXPECT_EQ(cache.Get(1).value(), "uno");
}

TEST(ResultCache, ZeroEntriesDisables) {
  ResultCache cache(/*max_entries=*/0);
  cache.Put(1, "one");
  EXPECT_EQ(cache.Get(1), std::nullopt);
  EXPECT_EQ(cache.SnapshotStats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(Protocol, RequestRoundTrip) {
  ServiceRequest r;
  r.id = 42;
  r.method = ServiceMethod::kEstimateYield;
  r.circuit_name = "cu";
  r.guard = 0.15;
  r.trials = 123;
  r.sigma = 0.07;
  r.seed = 7;
  r.deadline_ms = 250;
  const ServiceRequest back = ParseRequest(SerializeRequest(r));
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.method, ServiceMethod::kEstimateYield);
  EXPECT_EQ(back.circuit_name, "cu");
  EXPECT_EQ(back.guard, 0.15);
  EXPECT_EQ(back.trials, 123u);
  EXPECT_EQ(back.sigma, 0.07);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.deadline_ms, 250);
}

TEST(Protocol, ParseRequestRejectsMalformed) {
  EXPECT_THROW(ParseRequest("not json"), std::exception);
  EXPECT_THROW(ParseRequest("{\"id\":1,\"method\":\"nope\"}"), std::exception);
  // Analysis without a circuit.
  EXPECT_THROW(ParseRequest("{\"id\":1,\"method\":\"analyze_spcf\"}"),
               std::exception);
  // Both circuit sources at once.
  EXPECT_THROW(
      ParseRequest("{\"id\":1,\"method\":\"analyze_spcf\","
                   "\"circuit_name\":\"i1\",\"circuit_blif\":\".model m\"}"),
      std::exception);
  // Guard out of range.
  EXPECT_THROW(
      ParseRequest("{\"id\":1,\"method\":\"analyze_spcf\","
                   "\"circuit_name\":\"i1\",\"guard\":1.5}"),
      std::exception);
}

TEST(Protocol, ResponseSplicesResultVerbatim) {
  ServiceResponse r;
  r.id = 7;
  r.status = "ok";
  r.result_json = "{\"x\":1}";
  EXPECT_EQ(SerializeResponse(r),
            "{\"id\":7,\"status\":\"ok\",\"result\":{\"x\":1}}");
  const ServiceResponse back = ParseResponse(SerializeResponse(r));
  EXPECT_EQ(back.id, 7u);
  EXPECT_TRUE(back.ok());
  EXPECT_EQ(back.result_json, r.result_json);
}

TEST(Protocol, CacheKeyIdentifiesSameWork) {
  ServiceRequest by_name;
  by_name.method = ServiceMethod::kAnalyzeSpcf;
  by_name.circuit_name = "i1";
  by_name.guard = 0.1;
  const Network net = ResolveCircuit(by_name);

  // Identity is structural: the same BLIF text resolved by two different
  // requests lands on the same key (that is the cross-client cache hit),
  // regardless of which field carried the circuit.
  ServiceRequest by_blif;
  by_blif.method = ServiceMethod::kAnalyzeSpcf;
  by_blif.circuit_blif = WriteBlifString(ReadBlifString(WriteBlifString(net)));
  by_blif.guard = 0.1;
  ServiceRequest by_blif2 = by_blif;
  by_blif2.id = 17;  // a different client, same work
  const Network net2 = ResolveCircuit(by_blif);
  const Network net3 = ResolveCircuit(by_blif2);
  EXPECT_EQ(RequestCacheKey(by_blif, net2), RequestCacheKey(by_blif2, net3));

  // A restructured netlist (here: the BLIF writer's buffer insertion for
  // renamed POs) is different work — gate counts and delays differ — so the
  // key must move.
  EXPECT_NE(RequestCacheKey(by_name, net), RequestCacheKey(by_blif, net2));

  // Any parameter the result depends on moves the key.
  ServiceRequest other = by_name;
  other.guard = 0.2;
  EXPECT_NE(RequestCacheKey(by_name, net), RequestCacheKey(other, net));
  other = by_name;
  other.method = ServiceMethod::kSynthesizeMasking;
  EXPECT_NE(RequestCacheKey(by_name, net), RequestCacheKey(other, net));
  other = by_name;
  other.algorithm = SpcfAlgorithm::kNodeBased;
  EXPECT_NE(RequestCacheKey(by_name, net), RequestCacheKey(other, net));

  // The request id must NOT affect the key (it is per-connection bookkeeping).
  other = by_name;
  other.id = 999;
  EXPECT_EQ(RequestCacheKey(by_name, net), RequestCacheKey(other, net));
}

// ---------------------------------------------------------------------------
// End-to-end daemon
// ---------------------------------------------------------------------------

TEST(Service, DaemonMatchesDirectFlowByteForByte) {
  ServerOptions options;
  options.listen_address = TestSocket("e2e");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  {
    ServiceClient client(options.listen_address);

    // analyze_spcf vs a direct harness computation.
    const ServiceResponse spcf = client.AnalyzeSpcf("cmb", 0.1);
    ASSERT_TRUE(spcf.ok()) << spcf.error;
    {
      const Network ti = GenerateCircuit(PaperCircuitByName("cmb").spec);
      const Library lib = Lsi10kLike();
      const TechMapResult mapped = DecomposeAndMap(ti, lib);
      const TimingInfo timing = AnalyzeTiming(mapped.netlist);
      SpcfOptions so;
      so.guard_band = 0.1;
      so.algorithm = SpcfAlgorithm::kShortPathBased;
      BddManager mgr(static_cast<int>(mapped.netlist.NumInputs()));
      const SpcfResult direct = ComputeSpcf(mgr, mapped.netlist, timing, so);
      EXPECT_EQ(spcf.result_json,
                EncodeSpcfResult("cmb", mgr, mapped.netlist, timing, direct));
    }

    // synthesize_masking vs a direct flow run.
    const ServiceResponse flow = client.SynthesizeMasking("cmb", 0.1);
    ASSERT_TRUE(flow.ok()) << flow.error;
    {
      const Network ti = GenerateCircuit(PaperCircuitByName("cmb").spec);
      const Library lib = Lsi10kLike();  // must outlive the FlowResult
      FlowOptions fo;
      fo.spcf.guard_band = 0.1;
      const FlowResult direct = RunMaskingFlow(ti, lib, fo);
      EXPECT_EQ(flow.result_json, EncodeFlowResult(direct));
    }

    // estimate_yield vs a direct flow + Monte-Carlo run.
    const ServiceResponse yield = client.EstimateYield("cmb", 0.1, 500, 0.05);
    ASSERT_TRUE(yield.ok()) << yield.error;
    {
      const Network ti = GenerateCircuit(PaperCircuitByName("cmb").spec);
      const Library lib = Lsi10kLike();  // must outlive the FlowResult
      FlowOptions fo;
      fo.spcf.guard_band = 0.1;
      const FlowResult direct = RunMaskingFlow(ti, lib, fo);
      YieldMcOptions yo;
      yo.trials = 500;
      yo.threads = 1;
      yo.seed = 2009;
      yo.model.sigma = 0.05;
      yo.guard_band = 0.1;
      const YieldMcResult mc = EstimateTimingYield(direct, yo);
      EXPECT_EQ(yield.result_json, EncodeYieldResult(direct, mc));
    }

    // A repeat of the first request is a cache hit with identical bytes.
    const ServiceResponse again = client.AnalyzeSpcf("cmb", 0.1);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.result_json, spcf.result_json);
    const Json stats = Json::Parse(client.Stats().result_json);
    EXPECT_GE(stats.Find("cache")->GetUint64("hits", 0), 1u);

    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();
}

TEST(Service, ErrorsComeBackTyped) {
  ServerOptions options;
  options.listen_address = TestSocket("err");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  {
    ServiceClient client(options.listen_address);

    // Unknown circuit name → error response, daemon keeps serving.
    const ServiceResponse bad = client.AnalyzeSpcf("no_such_circuit");
    EXPECT_EQ(bad.status, "error");
    EXPECT_FALSE(bad.error.empty());

    // Malformed BLIF → error response.
    const ServiceResponse bad_blif =
        client.AnalyzeSpcf(".model broken\n.nonsense\n", 0.1,
                           SpcfAlgorithm::kShortPathBased, /*is_blif=*/true);
    EXPECT_EQ(bad_blif.status, "error");

    // An already-expired deadline → timeout without compute.
    ServiceRequest expired;
    expired.method = ServiceMethod::kAnalyzeSpcf;
    expired.circuit_name = "x2";
    expired.guard = 0.19;  // unique key — must not hit the cache
    expired.deadline_ms = 0.000001;
    const ServiceResponse late = client.Call(expired);
    EXPECT_EQ(late.status, "timeout");

    // The daemon survived all of it.
    EXPECT_TRUE(client.AnalyzeSpcf("i1").ok());
    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();
}

TEST(Service, InvalidYieldAndOptimizeParametersAreRejectedBeforeAdmission) {
  // Each of these passes the generic checks but would only trip a kernel
  // precondition after a full flow; the parser must answer invalid_request
  // before the request reaches a worker.
  ServiceRequest zero_trials;
  zero_trials.method = ServiceMethod::kEstimateYield;
  zero_trials.circuit_name = "cmb";
  zero_trials.trials = 0;
  ServiceRequest negative_sigma = zero_trials;
  negative_sigma.trials = 100;
  negative_sigma.sigma = -0.05;
  ServiceRequest optimize_zero_sigma;
  optimize_zero_sigma.method = ServiceMethod::kOptimizeMasking;
  optimize_zero_sigma.circuit_name = "cmb";
  optimize_zero_sigma.sigma = 0;
  const ServiceRequest bad[] = {zero_trials, negative_sigma,
                                optimize_zero_sigma};
  for (const ServiceRequest& r : bad) {
    EXPECT_THROW(ParseRequest(SerializeRequest(r)), std::invalid_argument);
  }

  ServerOptions options;
  options.listen_address = TestSocket("badparam");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  {
    ServiceClient client(options.listen_address);
    for (const ServiceRequest& r : bad) {
      const ServiceResponse response = client.Call(r);
      EXPECT_EQ(response.status, "error");
      EXPECT_EQ(response.code, "invalid_request") << response.error;
    }
    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();
  // Rejected by the parser: no analysis was admitted, so no method counted.
  const ServiceStatsSnapshot stats = server.SnapshotStats();
  EXPECT_EQ(stats.by_method[static_cast<int>(ServiceMethod::kEstimateYield)],
            0u);
  EXPECT_EQ(
      stats.by_method[static_cast<int>(ServiceMethod::kOptimizeMasking)], 0u);
}

TEST(Service, OverloadAndGracefulDrain) {
  ServerOptions options;
  options.listen_address = TestSocket("ovl");
  options.num_workers = 1;
  options.queue_capacity = 1;
  SpeedmaskServer server(options);
  server.Start();

  // Saturate the single slot with a slow request on its own connection.
  std::string slow_status;
  std::thread slow_thread([&] {
    ServiceClient slow(options.listen_address);
    slow_status = slow.EstimateYield("cu", 0.1, 20000, 0.05).status;
  });

  ServiceClient probe(options.listen_address);
  for (int i = 0; i < 500; ++i) {
    const Json stats = Json::Parse(probe.Stats().result_json);
    if (stats.GetUint64("queue_depth", 0) >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::size_t overloaded = 0;
  for (int i = 0; i < 3; ++i) {
    ServiceRequest r;
    r.method = ServiceMethod::kAnalyzeSpcf;
    r.circuit_name = "x2";
    r.guard = 0.21 + 0.01 * i;  // unique keys bypass the cache
    if (probe.Call(r).status == "overloaded") ++overloaded;
  }
  EXPECT_GE(overloaded, 1u);

  // Shutdown is acknowledged only after the accepted request drained.
  EXPECT_TRUE(probe.Shutdown().ok());
  server.Wait();
  slow_thread.join();
  EXPECT_EQ(slow_status, "ok");

  const ServiceStatsSnapshot stats = server.SnapshotStats();
  EXPECT_GE(stats.overloaded, overloaded);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Graceful shutdown under live load: several clients stream cold requests
// while Shutdown() drains the daemon. Every request gets exactly one
// response — "ok" if it was admitted before the drain, "shutting_down"
// after — and never "overloaded"; the read timeout turns a lost or withheld
// answer into a test failure instead of a hang.
TEST(Service, ShutdownUnderLiveStreamAnswersEveryRequestOnce) {
  ServerOptions options;
  options.listen_address = TestSocket("live");
  options.num_workers = 2;
  SpeedmaskServer server(options);
  server.Start();

  constexpr int kClients = 4;
  constexpr int kMaxRequests = 2000;  // per client; ends with the drain
  const char* const circuits[] = {"i1", "cmb", "x2"};
  std::vector<std::atomic<int>> answered(kClients);
  std::vector<std::atomic<bool>> finished(kClients);
  std::vector<std::vector<std::string>> statuses(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.emplace_back([&, c] {
      try {
        ServiceClient client(options.listen_address,
                             ClientOptions{/*read_timeout_ms=*/10'000});
        for (int i = 0; i < kMaxRequests; ++i) {
          ServiceRequest r;
          r.id = static_cast<std::uint64_t>(i + 1);
          r.method = ServiceMethod::kAnalyzeSpcf;
          r.circuit_name = circuits[i % 3];
          r.guard = 0.1 + 1e-5 * (c * kMaxRequests + i);  // all cold
          const ServiceResponse response = client.Call(r);
          if (response.id != r.id) {
            failures[c] = "response id " + std::to_string(response.id) +
                          " for request " + std::to_string(r.id);
            break;
          }
          statuses[c].push_back(response.status);
          answered[c].fetch_add(1);
          if (response.status != "ok") break;
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
      finished[c].store(true);
    });
  }
  // Drain once every stream is connected and under way.
  for (int c = 0; c < kClients; ++c) {
    while (answered[c].load() < 3 && !finished[c].load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  server.Shutdown();
  for (std::thread& t : streams) t.join();
  server.Wait();

  std::size_t ok = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
    ASSERT_FALSE(statuses[c].empty()) << "client " << c;
    // The stream ran into the drain: its last answer is the refusal and
    // every answer before it is a computed result.
    EXPECT_EQ(statuses[c].back(), "shutting_down") << "client " << c;
    for (std::size_t i = 0; i + 1 < statuses[c].size(); ++i) {
      EXPECT_EQ(statuses[c][i], "ok") << "client " << c << " request " << i;
    }
    ok += statuses[c].size() - 1;
  }
  const ServiceStatsSnapshot stats = server.SnapshotStats();
  EXPECT_EQ(stats.overloaded, 0u);
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.rejected_shutting_down, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Service, WarmManagerSurvivesGcInsteadOfReset) {
  // Force the memory-manager-v2 path on every request: with the threshold at
  // one node, any manager that has served a request is over it, so the next
  // request for the same width garbage-collects the warm manager in place.
  // Before the mark-and-sweep collector this situation destroyed and rebuilt
  // the manager (counted by manager_resets) — assert that no longer happens.
  ServerOptions options;
  options.listen_address = TestSocket("warm");
  options.num_workers = 1;
  options.manager_gc_nodes = 1;
  SpeedmaskServer server(options);
  server.Start();
  std::string warm_bytes;
  {
    ServiceClient client(options.listen_address);
    const ServiceResponse cold = client.AnalyzeSpcf("cmb", 0.1);
    ASSERT_TRUE(cold.ok()) << cold.error;
    // A different guard band is a cache miss, so the same worker's warm
    // manager computes it — after being collected on the way in.
    const ServiceResponse warm = client.AnalyzeSpcf("cmb", 0.15);
    ASSERT_TRUE(warm.ok()) << warm.error;
    warm_bytes = warm.result_json;

    // The stats method exposes the per-worker warm-manager telemetry.
    const Json stats = Json::Parse(client.Stats().result_json);
    EXPECT_EQ(stats.GetUint64("manager_resets", 99), 0u);
    EXPECT_GE(stats.GetUint64("manager_gc_runs", 0), 1u);
    const Json* workers = stats.Find("worker_managers");
    ASSERT_TRUE(workers != nullptr && workers->is_array());
    ASSERT_EQ(workers->AsArray().size(), 1u);
    const Json& w = workers->AsArray()[0];
    EXPECT_GE(w.GetUint64("gc_runs", 0), 1u);
    EXPECT_GE(w.GetUint64("nodes", 0), 1u);  // terminal is always live

    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();

  // Same story through the typed snapshot: the worker's manager was
  // collected at least once and never torn down.
  const ServiceStatsSnapshot snap = server.SnapshotStats();
  EXPECT_EQ(snap.manager_resets, 0u);
  EXPECT_GE(snap.manager_gc_runs, 1u);
  ASSERT_EQ(snap.worker_gc_runs.size(), 1u);
  EXPECT_GE(snap.worker_gc_runs[0], 1u);

  // The GC is structure-neutral: a fresh daemon computing only the second
  // request cold produces byte-identical result bytes.
  ServerOptions cold_options;
  cold_options.listen_address = TestSocket("warm_cold");
  cold_options.num_workers = 1;
  SpeedmaskServer cold_server(cold_options);
  cold_server.Start();
  {
    ServiceClient client(cold_options.listen_address);
    const ServiceResponse cold = client.AnalyzeSpcf("cmb", 0.15);
    ASSERT_TRUE(cold.ok()) << cold.error;
    EXPECT_EQ(cold.result_json, warm_bytes);
    EXPECT_TRUE(client.Shutdown().ok());
  }
  cold_server.Wait();
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(Retry, BackoffIsDeterministicJitteredAndCapped) {
  const RetryPolicy policy;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const double d = RetryBackoffMs(policy, attempt);
    // Pure function of (policy, attempt): the schedule replays exactly.
    EXPECT_EQ(d, RetryBackoffMs(policy, attempt));
    const double base = std::min(
        policy.initial_backoff_ms * std::pow(policy.multiplier, attempt),
        policy.max_backoff_ms);
    EXPECT_GE(d, base * (1.0 - policy.jitter_fraction));
    EXPECT_LE(d, base * (1.0 + policy.jitter_fraction));
  }

  // Without jitter the schedule is exactly exponential-with-cap.
  RetryPolicy exact;
  exact.jitter_fraction = 0;
  EXPECT_DOUBLE_EQ(RetryBackoffMs(exact, 0), 25.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(exact, 1), 50.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(exact, 2), 100.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(exact, 20), 2000.0);  // capped

  // Different seeds de-synchronize the jitter (the whole point of it).
  RetryPolicy other;
  other.seed = 7;
  bool any_differs = false;
  for (int attempt = 0; attempt < 10; ++attempt) {
    any_differs = any_differs || RetryBackoffMs(other, attempt) !=
                                     RetryBackoffMs(policy, attempt);
  }
  EXPECT_TRUE(any_differs);
}

TEST(Retry, ValidatesArguments) {
  RetryPolicy policy;
  EXPECT_THROW(RetryBackoffMs(policy, -1), std::invalid_argument);
  policy.jitter_fraction = 1.5;
  EXPECT_THROW(RetryBackoffMs(policy, 0), std::invalid_argument);
}

TEST(Service, CallWithRetryRidesOutOverload) {
  ServerOptions options;
  options.listen_address = TestSocket("rty");
  options.num_workers = 1;
  options.queue_capacity = 1;
  SpeedmaskServer server(options);
  server.Start();

  // Saturate the single slot with a slow request on its own connection.
  std::string slow_status;
  std::thread slow_thread([&] {
    ServiceClient slow(options.listen_address);
    slow_status = slow.EstimateYield("cu", 0.1, 20000, 0.05).status;
  });
  ServiceClient probe(options.listen_address);
  for (int i = 0; i < 500; ++i) {
    const Json stats = Json::Parse(probe.Stats().result_json);
    if (stats.GetUint64("queue_depth", 0) >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Every attempt lands while the daemon is saturated: the retry budget is
  // exhausted and the LAST response comes back, still "overloaded".
  ServiceRequest r;
  r.method = ServiceMethod::kAnalyzeSpcf;
  r.circuit_name = "x2";
  r.guard = 0.27;  // unique key — must not hit the cache
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 1;
  policy.jitter_fraction = 0;
  EXPECT_EQ(probe.CallWithRetry(r, policy).status, "overloaded");

  EXPECT_TRUE(probe.Shutdown().ok());
  server.Wait();
  slow_thread.join();
  EXPECT_EQ(slow_status, "ok");
  // All three attempts reached the daemon (the retry really re-sent).
  EXPECT_GE(server.SnapshotStats().overloaded, 3u);
}

TEST(Service, ConnectWithRetryWaitsForTheSocket) {
  // A socket nobody serves: the budget runs out and the last error escapes.
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_ms = 1;
  fast.jitter_fraction = 0;
  EXPECT_THROW(ServiceClient::ConnectWithRetry(TestSocket("nobody"), fast),
               std::runtime_error);

  // A daemon that binds late: the client rides out the refused connections.
  ServerOptions options;
  options.listen_address = TestSocket("late");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.Start();
  });
  RetryPolicy patient;
  patient.max_attempts = 100;
  patient.initial_backoff_ms = 10;
  patient.multiplier = 1;
  std::unique_ptr<ServiceClient> client =
      ServiceClient::ConnectWithRetry(options.listen_address, patient);
  EXPECT_TRUE(client->AnalyzeSpcf("i1").ok());
  EXPECT_TRUE(client->Shutdown().ok());
  server.Wait();
  starter.join();
}

// ---------------------------------------------------------------------------
// Injection campaign method
// ---------------------------------------------------------------------------

TEST(Protocol, InjectRequestRoundTripAndCacheKey) {
  ServiceRequest r;
  r.id = 9;
  r.method = ServiceMethod::kInjectCampaign;
  r.circuit_name = "cmb";
  r.guard = 0.1;
  r.strategy = FaultSiteStrategy::kAdversarial;
  r.fault = FaultKind::kTransient;
  r.sites = 7;
  r.vectors = 9;
  r.delta_fraction = 0.5;
  r.seed = 42;
  const ServiceRequest back = ParseRequest(SerializeRequest(r));
  EXPECT_EQ(back.method, ServiceMethod::kInjectCampaign);
  EXPECT_EQ(back.strategy, FaultSiteStrategy::kAdversarial);
  EXPECT_EQ(back.fault, FaultKind::kTransient);
  EXPECT_EQ(back.sites, 7u);
  EXPECT_EQ(back.vectors, 9u);
  EXPECT_EQ(back.delta_fraction, 0.5);
  EXPECT_EQ(back.seed, 42u);

  // Every campaign parameter is part of the work's identity.
  const Network net = ResolveCircuit(r);
  for (auto mutate : std::vector<void (*)(ServiceRequest&)>{
           [](ServiceRequest& q) {
             q.strategy = FaultSiteStrategy::kRandomGates;
           },
           [](ServiceRequest& q) { q.fault = FaultKind::kPermanentDelta; },
           [](ServiceRequest& q) { q.sites = 8; },
           [](ServiceRequest& q) { q.vectors = 10; },
           [](ServiceRequest& q) { q.delta_fraction = 1.0; },
           [](ServiceRequest& q) { q.seed = 43; }}) {
    ServiceRequest other = r;
    mutate(other);
    EXPECT_NE(RequestCacheKey(r, net), RequestCacheKey(other, net));
  }
}

TEST(Service, InjectCampaignMatchesDirectAndCaches) {
  ServerOptions options;
  options.listen_address = TestSocket("inj");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  {
    ServiceClient client(options.listen_address);
    const ServiceResponse resp = client.InjectCampaign(
        "cmb", 0.1, FaultSiteStrategy::kExhaustiveSpeedPaths, /*sites=*/4,
        /*vectors=*/4);
    ASSERT_TRUE(resp.ok()) << resp.error;

    // Byte-for-byte against a direct in-process run of the same campaign.
    {
      const Network ti = GenerateCircuit(PaperCircuitByName("cmb").spec);
      const Library lib = Lsi10kLike();  // must outlive the FlowResult
      FlowOptions fo;
      fo.spcf.guard_band = 0.1;
      const FlowResult direct = RunMaskingFlow(ti, lib, fo);
      InjectOptions io;
      io.max_sites = 4;
      io.vectors_per_site = 4;
      const InjectionCampaignResult campaign =
          RunFaultInjectionCampaign(direct, io);
      EXPECT_EQ(campaign.escapes, 0u);
      ServiceRequest request;
      request.method = ServiceMethod::kInjectCampaign;
      request.circuit_name = "cmb";
      request.guard = 0.1;
      request.sites = 4;
      request.vectors = 4;
      EXPECT_EQ(resp.result_json,
                EncodeInjectResult(direct, request, campaign));
    }

    // A repeat is answered from the cache with identical bytes.
    const ServiceResponse again = client.InjectCampaign(
        "cmb", 0.1, FaultSiteStrategy::kExhaustiveSpeedPaths, 4, 4);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.result_json, resp.result_json);
    const Json stats = Json::Parse(client.Stats().result_json);
    EXPECT_GE(stats.Find("cache")->GetUint64("hits", 0), 1u);
    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();
}

TEST(Service, RequestsAfterShutdownAreRejected) {
  ServerOptions options;
  options.listen_address = TestSocket("post");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  {
    ServiceClient client(options.listen_address);
    EXPECT_TRUE(client.AnalyzeSpcf("i1").ok());
    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();
  // The socket is gone: connecting again must fail.
  EXPECT_THROW(ServiceClient{options.listen_address}, std::runtime_error);
}

// ---------------------------------------------------------------------------
// Service addresses (service/address.h)
// ---------------------------------------------------------------------------

TEST(ServiceAddress, ParsesUnixPaths) {
  const ServiceAddress abs = ParseServiceAddress("/tmp/speedmask.sock");
  EXPECT_EQ(abs.kind, AddressKind::kUnixSocket);
  EXPECT_EQ(abs.path, "/tmp/speedmask.sock");
  EXPECT_EQ(abs.ToString(), "/tmp/speedmask.sock");

  // Colon-free specs are relative socket paths, and a '/' always wins over
  // a ':' (paths may contain colons).
  EXPECT_EQ(ParseServiceAddress("speedmask.sock").kind,
            AddressKind::kUnixSocket);
  const ServiceAddress colon_path = ParseServiceAddress("/tmp/a:b/x.sock");
  EXPECT_EQ(colon_path.kind, AddressKind::kUnixSocket);
  EXPECT_EQ(colon_path.path, "/tmp/a:b/x.sock");
}

TEST(ServiceAddress, ParsesHostPort) {
  const ServiceAddress a = ParseServiceAddress("localhost:7421");
  EXPECT_EQ(a.kind, AddressKind::kTcp);
  EXPECT_EQ(a.host, "localhost");
  EXPECT_EQ(a.port, 7421);
  EXPECT_EQ(a.ToString(), "localhost:7421");

  const ServiceAddress ephemeral = ParseServiceAddress("127.0.0.1:0");
  EXPECT_EQ(ephemeral.kind, AddressKind::kTcp);
  EXPECT_EQ(ephemeral.port, 0);
}

TEST(ServiceAddress, MalformedSpecsThrowWithClearMessages) {
  const auto expect_invalid = [](const std::string& spec,
                                 const std::string& fragment) {
    try {
      ParseServiceAddress(spec);
      FAIL() << "expected std::invalid_argument for \"" << spec << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message for \"" << spec << "\" was: " << e.what();
    }
  };
  expect_invalid("", "empty address");
  expect_invalid(":7421", "empty host");
  expect_invalid("localhost:", "empty port");
  expect_invalid("localhost:http", "non-numeric port");
  expect_invalid("localhost:70000", "out of range");
  expect_invalid("::1:80", "more than one ':'");
}

TEST(ServiceAddress, ClientAndWaitForServerRejectMalformedAddresses) {
  EXPECT_THROW(ServiceClient{"host:bad_port"}, std::invalid_argument);
  EXPECT_THROW(WaitForServer("host:bad_port", 0.01), std::invalid_argument);
}

TEST(ServiceAddress, TcpServerRoundTrip) {
  ServerOptions options;
  options.listen_address = "127.0.0.1:0";  // kernel-assigned port
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  // The effective address carries the real port.
  ASSERT_NE(server.address(), "127.0.0.1:0");
  ASSERT_TRUE(WaitForServer(server.address(), 5.0));
  {
    ServiceClient client(server.address());
    const ServiceResponse response = client.AnalyzeSpcf("i1");
    ASSERT_TRUE(response.ok()) << response.error;
    // Transport must not change result bytes: same request over a Unix
    // socket daemon answers identically.
    ServerOptions unix_options;
    unix_options.listen_address = TestSocket("tcp_cmp");
    unix_options.num_workers = 1;
    SpeedmaskServer unix_server(unix_options);
    unix_server.Start();
    {
      ServiceClient unix_client(unix_options.listen_address);
      const ServiceResponse unix_response = unix_client.AnalyzeSpcf("i1");
      ASSERT_TRUE(unix_response.ok());
      EXPECT_EQ(unix_response.result_json, response.result_json);
      EXPECT_TRUE(unix_client.Shutdown().ok());
    }
    unix_server.Wait();
    EXPECT_TRUE(client.Shutdown().ok());
  }
  server.Wait();
}

// ---------------------------------------------------------------------------
// Latency ring (service/latency_ring.h)
// ---------------------------------------------------------------------------

TEST(LatencyRing, PercentilesOverPartialAndFullWindows) {
  LatencyRing ring(8);
  EXPECT_EQ(ring.Snapshot().samples, 0u);
  ring.Record(5.0);
  EXPECT_DOUBLE_EQ(ring.Snapshot().p50_ms, 5.0);
  for (int i = 1; i <= 100; ++i) ring.Record(static_cast<double>(i));
  const LatencyRing::Percentiles p = ring.Snapshot();
  EXPECT_EQ(p.samples, 101u);
  // Window holds the last 8 samples (93..100); p50 is the 4th of 8.
  EXPECT_GE(p.p50_ms, 93.0);
  EXPECT_LE(p.p99_ms, 100.0);
  EXPECT_GE(p.p99_ms, p.p50_ms);
}

TEST(LatencyRing, SnapshotUnderConcurrentWritersSeesOnlyRealSamples) {
  // Writers store doubles whose bit patterns would be detectably torn if a
  // snapshot could observe half-written values: every valid sample is
  // 1000 + k for k in [0, 64). Readers snapshot continuously and assert
  // every value is exactly one of the written ones.
  LatencyRing ring(64);
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ring.Record(1000.0 + static_cast<double>((w * 16 + i) % 64));
        ++i;
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 2000; ++i) {
      const LatencyRing::Percentiles p = ring.Snapshot();
      const auto is_real = [](double v) {
        return v == 0.0 ||  // unwritten slot in a warming ring
               (v >= 1000.0 && v < 1064.0 && v == std::floor(v));
      };
      if (!is_real(p.p50_ms) || !is_real(p.p99_ms)) bad.store(true);
    }
  });
  reader.join();
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_FALSE(bad.load());
  const LatencyRing::Percentiles final_p = ring.Snapshot();
  EXPECT_GE(final_p.samples, 64u);
  EXPECT_GE(final_p.p99_ms, final_p.p50_ms);
}

// ---------------------------------------------------------------------------
// Result cache eviction ordering
// ---------------------------------------------------------------------------

TEST(ResultCacheEviction, ByteBoundEvictsLeastRecentFirst) {
  // 3-entry / 100-byte cache: inserting a 60-byte value on top of two
  // 30-byte ones must evict exactly the least recently used entry.
  ResultCache cache(/*max_entries=*/3, /*max_bytes=*/100);
  cache.Put(1, std::string(30, 'a'));
  cache.Put(2, std::string(30, 'b'));
  ASSERT_TRUE(cache.Get(1).has_value());  // refresh: key 2 is now LRU
  cache.Put(3, std::string(60, 'c'));     // 120 bytes > 100: evict key 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  const ResultCache::Stats stats = cache.SnapshotStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 90u);
}

TEST(ResultCacheEviction, EntryBoundEvictsInRecencyOrder) {
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20);
  cache.Put(1, "one");
  cache.Put(2, "two");
  cache.Put(3, "three");  // evicts 1 (oldest)
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(ResultCacheEviction, ConcurrentMixedSizeInsertsKeepInvariants) {
  // Hammer a small cache from several threads with values of very different
  // sizes, interleaved with hits. Afterwards the byte and entry bounds must
  // hold, every surviving entry must be readable, and the counters must be
  // consistent — no lost bytes, no double-evictions, no torn values.
  constexpr std::size_t kMaxEntries = 16;
  constexpr std::size_t kMaxBytes = 4096;
  ResultCache cache(kMaxEntries, kMaxBytes);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>((t * 37 + i) % 64);
        // Sizes from 1 byte to ~1.5 KiB, deterministic per key so a hit
        // can be validated against what any writer would have stored.
        const std::size_t size = 1 + (key * 24) % 1536;
        if (i % 3 == 0) {
          const auto hit = cache.Get(key);
          if (hit.has_value()) {
            // Value must be exactly what some writer put for this key —
            // same size, same fill byte — never a mix of two inserts.
            EXPECT_EQ(hit->size(), size);
            EXPECT_EQ(hit->find_first_not_of(
                          static_cast<char>('a' + (key % 26))),
                      std::string::npos);
          }
        } else {
          cache.Put(key,
                    std::string(size, static_cast<char>('a' + (key % 26))));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const ResultCache::Stats stats = cache.SnapshotStats();
  EXPECT_LE(stats.entries, kMaxEntries);
  EXPECT_LE(stats.bytes, kMaxBytes);
  // Recount by probing every possible key: surviving entries must agree
  // with the stats snapshot.
  std::size_t live = 0, live_bytes = 0;
  for (std::uint64_t key = 0; key < 64; ++key) {
    if (const auto hit = cache.Get(key)) {
      ++live;
      live_bytes += hit->size();
      EXPECT_EQ(hit->size(), 1 + (key * 24) % 1536);
    }
  }
  EXPECT_EQ(live, stats.entries);
  EXPECT_EQ(live_bytes, stats.bytes);
}

}  // namespace
}  // namespace sm
