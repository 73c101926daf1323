// End-to-end cancellation and the typed failure taxonomy (util/cancel.h):
// token semantics, BDD kernel abort + warm-manager recovery, server deadline
// paths (mid-flight abort, post-compute re-check, work budgets), the
// loss-free cancellation regression (a cancelled request resubmitted without
// a deadline produces fresh-daemon bytes), and the client read timeout
// against a daemon that accepts and never replies.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "service/address.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace sm {
namespace {

std::string TestSocket(const char* tag) {
  return "/tmp/speedmask_cancel_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// CancelToken and the error taxonomy
// ---------------------------------------------------------------------------

TEST(CancelToken, FreshTokenIsClean) {
  CancelToken token;
  EXPECT_EQ(token.Status(), ErrorCode::kOk);
  EXPECT_NO_THROW(token.Check());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.RemainingMs() > 1e18);  // no deadline: unbounded
}

TEST(CancelToken, CancelTripsWithCancelledCode) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Status(), ErrorCode::kCancelled);
  try {
    token.Check();
    FAIL() << "Check() must throw after Cancel()";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

TEST(CancelToken, ExpiredDeadlineTrips) {
  CancelToken token;
  token.SetDeadlineAfterMs(-5);  // clamped to "already expired"
  EXPECT_EQ(token.Status(), ErrorCode::kDeadlineExceeded);
  EXPECT_THROW(token.Check(), CancelledError);

  CancelToken future;
  future.SetDeadlineAfterMs(60'000);
  EXPECT_EQ(future.Status(), ErrorCode::kOk);
  EXPECT_GT(future.RemainingMs(), 0);
  EXPECT_LE(future.RemainingMs(), 60'000);
}

TEST(CancelToken, WorkBudgetTripsWithResourceExhausted) {
  CancelToken token;
  token.SetWorkBudget(100);
  token.ConsumeWork(100);  // consumed == budget: still inside
  EXPECT_EQ(token.Status(), ErrorCode::kOk);
  token.ConsumeWork(1);
  EXPECT_EQ(token.Status(), ErrorCode::kResourceExhausted);
  try {
    token.Check();
    FAIL() << "Check() must throw once the budget is exceeded";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
  EXPECT_EQ(token.work_consumed(), 101u);
}

TEST(CancelToken, ExplicitCancelOutranksDeadlineAndBudget) {
  CancelToken token;
  token.SetDeadlineAfterMs(-1);
  token.SetWorkBudget(1);
  token.ConsumeWork(10);
  token.Cancel();
  EXPECT_EQ(token.Status(), ErrorCode::kCancelled);
}

TEST(ErrorTaxonomy, StringRoundTripAndRetryability) {
  // One row per code: its wire name, the response status the daemon pairs
  // it with, and whether a client may blindly resubmit.
  struct Row {
    ErrorCode code;
    const char* name;
    const char* status;
    bool retryable;
  };
  constexpr Row kRows[] = {
      {ErrorCode::kOk, "", "ok", false},
      {ErrorCode::kCancelled, "cancelled", "error", false},
      {ErrorCode::kDeadlineExceeded, "deadline_exceeded", "timeout", false},
      {ErrorCode::kResourceExhausted, "resource_exhausted", "error", false},
      {ErrorCode::kInvalidCircuit, "invalid_circuit", "error", false},
      {ErrorCode::kInvalidRequest, "invalid_request", "error", false},
      {ErrorCode::kOverloaded, "overloaded", "overloaded", true},
      {ErrorCode::kUnavailable, "unavailable", "shutting_down", true},
      {ErrorCode::kInternal, "internal", "error", false},
  };
  static_assert(std::size(kRows) ==
                    static_cast<std::size_t>(ErrorCode::kInternal) + 1,
                "one row per ErrorCode");
  for (const Row& row : kRows) {
    EXPECT_STREQ(ToString(row.code), row.name);
    EXPECT_EQ(ErrorCodeFromString(row.name), row.code) << row.name;
    EXPECT_STREQ(StatusFor(row.code), row.status) << row.name;
    EXPECT_EQ(IsRetryableError(row.code), row.retryable) << row.name;
  }
  EXPECT_THROW(ErrorCodeFromString("no_such_code"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BDD kernel: stride abort mid-recursion, warm recovery
// ---------------------------------------------------------------------------

// Grinds the ITE counter past several stride boundaries. Returns the last
// result so the work is not optimized away.
BddManager::Ref Grind(BddManager& mgr, int rounds) {
  BddManager::Ref acc = mgr.False();
  for (int i = 0; i < rounds; ++i) {
    const int n = mgr.num_vars();
    acc = mgr.Or(acc, mgr.And(mgr.Var(i % n), mgr.NotVar((i * 7 + 1) % n)));
    acc = mgr.Xor(acc, mgr.Var((i * 3 + 2) % n));
  }
  return acc;
}

TEST(BddCancel, CheckpointChecksToken) {
  BddManager mgr(8);
  CancelToken token;
  token.Cancel();
  mgr.SetCancelToken(&token);
  EXPECT_THROW(mgr.Checkpoint(), CancelledError);
  mgr.SetCancelToken(nullptr);
  EXPECT_NO_THROW(mgr.Checkpoint());
}

TEST(BddCancel, WorkBudgetAbortsMidRecursionAndManagerRecovers) {
  BddManager mgr(24);
  CancelToken token;
  token.SetWorkBudget(1);  // first stride check trips
  mgr.SetCancelToken(&token);
  bool threw = false;
  try {
    Grind(mgr, 20'000);
  } catch (const CancelledError& e) {
    threw = true;
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
  ASSERT_TRUE(threw) << "20k small ops must cross an 8192-recursion stride";
  EXPECT_GT(token.work_consumed(), 0u);

  // Loss-free recovery: detach + collect, then the same manager must agree
  // with a fresh one on a nontrivial function (partially built nodes from
  // the aborted recursion are unrooted garbage, not corruption).
  mgr.SetCancelToken(nullptr);
  mgr.GarbageCollect();
  BddManager fresh(24);
  const BddManager::Ref warm = Grind(mgr, 500);
  const BddManager::Ref cold = Grind(fresh, 500);
  EXPECT_EQ(mgr.SatCount(warm), fresh.SatCount(cold));
}

TEST(BddCancel, UntouchedTokenCostsNothing) {
  BddManager mgr(16);
  CancelToken token;  // no deadline, no budget, not cancelled
  mgr.SetCancelToken(&token);
  const BddManager::Ref f = Grind(mgr, 5'000);
  mgr.SetCancelToken(nullptr);
  BddManager fresh(16);
  EXPECT_EQ(mgr.SatCount(f), fresh.SatCount(Grind(fresh, 5'000)));
}

// ---------------------------------------------------------------------------
// Protocol: work_budget and code on the wire
// ---------------------------------------------------------------------------

TEST(CancelProtocol, WorkBudgetSerializedOnlyWhenSet) {
  ServiceRequest r;
  r.id = 7;
  r.method = ServiceMethod::kAnalyzeSpcf;
  r.circuit_name = "i1";
  const std::string without = SerializeRequest(r);
  EXPECT_EQ(without.find("work_budget"), std::string::npos);
  r.work_budget = 1234;
  const std::string with = SerializeRequest(r);
  EXPECT_NE(with.find("work_budget"), std::string::npos);
  EXPECT_EQ(ParseRequest(with).work_budget, 1234u);
  EXPECT_EQ(ParseRequest(without).work_budget, 0u);
}

TEST(CancelProtocol, ResponseCodeOmittedWhenEmpty) {
  ServiceResponse ok{3, "ok", "{\"x\":1}", "", ""};
  const std::string ok_bytes = SerializeResponse(ok);
  EXPECT_EQ(ok_bytes.find("\"code\""), std::string::npos);
  EXPECT_EQ(ParseResponse(ok_bytes).code, "");

  ServiceResponse err{4, "error", "", "too slow",
                      ToString(ErrorCode::kDeadlineExceeded)};
  const ServiceResponse round = ParseResponse(SerializeResponse(err));
  EXPECT_EQ(round.code, "deadline_exceeded");
  EXPECT_FALSE(round.retryable());

  ServiceResponse busy{5, "error", "", "try later",
                       ToString(ErrorCode::kUnavailable)};
  EXPECT_TRUE(ParseResponse(SerializeResponse(busy)).retryable());
}

// ---------------------------------------------------------------------------
// Server: deadlines, budgets, and the loss-free regression
// ---------------------------------------------------------------------------

ServiceRequest SlowYield(double guard) {
  ServiceRequest r;
  r.method = ServiceMethod::kEstimateYield;
  r.circuit_name = "cu";
  r.guard = guard;
  r.trials = 60'000;  // ≳ 1 s of Monte-Carlo on CI hardware
  return r;
}

TEST(ServerCancel, DeadlineAbortsMidFlightAndWorkerRecovers) {
  ServerOptions options;
  options.listen_address = TestSocket("deadline");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  ServiceClient client(options.listen_address);

  ServiceRequest slow = SlowYield(0.27);
  slow.deadline_ms = 60;
  WallTimer timer;
  const ServiceResponse aborted = client.Call(slow);
  const double elapsed_ms = timer.Millis();
  EXPECT_EQ(aborted.status, "timeout");
  EXPECT_EQ(aborted.code, "deadline_exceeded");
  EXPECT_TRUE(aborted.result_json.empty());
  // Mid-flight abort, not a full compute: well under the uncancelled
  // duration (≈ 1 s+); generous bound to stay robust on loaded CI.
  EXPECT_LT(elapsed_ms, 900);

  // The same worker (there is only one) must answer normally afterwards.
  ServiceRequest small;
  small.method = ServiceMethod::kAnalyzeSpcf;
  small.circuit_name = "i1";
  small.guard = 0.1;
  EXPECT_TRUE(client.Call(small).ok());

  const Json stats = Json::Parse(client.Stats().result_json);
  EXPECT_GE(stats.GetUint64("cancelled", 0), 1u);
  EXPECT_EQ(client.Shutdown().status, "ok");
  server.Wait();
}

TEST(ServerCancel, WorkBudgetAnswersResourceExhausted) {
  ServerOptions options;
  options.listen_address = TestSocket("budget");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  ServiceClient client(options.listen_address);

  ServiceRequest slow = SlowYield(0.28);
  slow.work_budget = 500;  // trips long before 60k trials complete
  const ServiceResponse response = client.Call(slow);
  EXPECT_EQ(response.status, "error");
  EXPECT_EQ(response.code, "resource_exhausted");
  EXPECT_FALSE(response.retryable());

  EXPECT_EQ(client.Shutdown().status, "ok");
  server.Wait();
}

TEST(ServerCancel, LossFreeCancellationRegression) {
  // A cancelled request leaves no trace: resubmitting it without the
  // deadline on the SAME daemon (same warm manager that aborted mid-flight)
  // must produce bytes identical to a fresh daemon computing it cold.
  ServiceRequest slow = SlowYield(0.29);

  std::string fresh_bytes;
  {
    ServerOptions options;
    options.listen_address = TestSocket("lossfree_fresh");
    options.num_workers = 1;
    SpeedmaskServer server(options);
    server.Start();
    ServiceClient client(options.listen_address);
    const ServiceResponse r = client.Call(slow);
    ASSERT_TRUE(r.ok()) << r.error;
    fresh_bytes = r.result_json;
    client.Shutdown();
    server.Wait();
  }

  ServerOptions options;
  options.listen_address = TestSocket("lossfree_warm");
  options.num_workers = 1;
  SpeedmaskServer server(options);
  server.Start();
  ServiceClient client(options.listen_address);

  ServiceRequest doomed = slow;
  doomed.deadline_ms = 60;
  const ServiceResponse aborted = client.Call(doomed);
  EXPECT_EQ(aborted.code, "deadline_exceeded");

  // deadline_ms is an execution constraint, not content: the resubmit has
  // the same cache key, but nothing was cached for it (the abort discarded
  // the work), so this recomputes on the just-recovered manager.
  const ServiceResponse redo = client.Call(slow);
  ASSERT_TRUE(redo.ok()) << redo.error;
  EXPECT_EQ(redo.result_json, fresh_bytes);

  client.Shutdown();
  server.Wait();
}

TEST(ServerCancel, PostComputeRecheckAnswersDeadlineExceeded) {
  // Satellite: even with mid-flight cancellation disabled, a deadline found
  // expired AFTER the compute is answered "timeout"/"deadline_exceeded"
  // instead of shipping a stale result — and is counted separately.
  ServerOptions options;
  options.listen_address = TestSocket("recheck");
  options.num_workers = 1;
  options.enable_cancellation = false;  // force the post-compute path
  SpeedmaskServer server(options);
  server.Start();
  ServiceClient client(options.listen_address);

  ServiceRequest slow = SlowYield(0.30);
  slow.deadline_ms = 60;  // expires mid-compute; nothing aborts it
  const ServiceResponse response = client.Call(slow);
  EXPECT_EQ(response.status, "timeout");
  EXPECT_EQ(response.code, "deadline_exceeded");
  EXPECT_TRUE(response.result_json.empty());

  const Json stats = Json::Parse(client.Stats().result_json);
  EXPECT_GE(stats.GetUint64("deadline_after_compute", 0), 1u);
  EXPECT_GE(stats.GetUint64("timeouts", 0), 1u);
  EXPECT_EQ(stats.GetUint64("cancelled", 0), 0u);

  // The late result still warmed the cache: the identical request without a
  // deadline is now a cache hit and must return the full result.
  const ServiceResponse cached = client.Call(SlowYield(0.30));
  EXPECT_TRUE(cached.ok());
  EXPECT_FALSE(cached.result_json.empty());

  client.Shutdown();
  server.Wait();
}

// ---------------------------------------------------------------------------
// Client: read timeout against a daemon that accepts and never replies
// ---------------------------------------------------------------------------

TEST(ClientTimeout, HungDaemonRaisesFrameErrorNotAHang) {
  const std::string path = TestSocket("hung");
  std::string effective;
  const int listen_fd = BindAndListen(ParseServiceAddress(path), 4, &effective);
  ASSERT_GE(listen_fd, 0);

  // Accepts, reads the request, never writes a byte back.
  std::atomic<bool> stop{false};
  std::thread hung([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[512];
    while (!stop.load() && ::read(fd, buf, sizeof(buf)) > 0) {
    }
    ::close(fd);
  });

  {
    ClientOptions client_options;
    client_options.read_timeout_ms = 200;
    ServiceClient client(path, client_options);
    WallTimer timer;
    try {
      client.Stats();
      FAIL() << "a never-replying daemon must raise FrameError";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
    }
    // Bounded by the timeout, not by test-runner patience.
    EXPECT_LT(timer.Millis(), 5'000);
  }  // closes the client connection so the hung thread's read returns

  stop.store(true);
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  hung.join();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace sm
