// Blocking client for the speedmask analysis daemon.
//
// One ServiceClient owns one connection — a Unix socket or a TCP stream,
// chosen by the address spec (service/address.h: a path or "host:port") —
// and issues one request at a time (Call blocks until the matching response
// frame arrives — the daemon answers cache hits and backpressure rejections
// out of order with respect to *other* connections, but each connection's
// own replies come back in request order for the methods this client
// issues serially). Convenience wrappers fill in protocol defaults; request
// ids increment per client unless the caller sets one explicitly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/protocol.h"

namespace sm {

// Exponential backoff with deterministic jitter for retrying transient
// daemon failures ("overloaded" responses and refused connections). The
// jitter is seeded via Rng::ForStream(seed, attempt), so a given policy's
// schedule is reproducible — tests assert the exact delays.
struct RetryPolicy {
  int max_attempts = 5;          // total tries, first one included
  double initial_backoff_ms = 25;
  double multiplier = 2.0;
  double max_backoff_ms = 2000;
  // Delay is scaled by a factor uniform in [1 - j, 1 + j); keeps retry
  // bursts from re-synchronizing against a saturated daemon.
  double jitter_fraction = 0.25;
  std::uint64_t seed = 2009;
};

// Backoff before retry number `attempt` (0-based): min(initial · mult^a,
// max), jittered. Pure function of (policy, attempt).
double RetryBackoffMs(const RetryPolicy& policy, int attempt);

struct ClientOptions {
  // SO_RCVTIMEO on the connection: a daemon that accepts but never replies
  // (wedged worker, half-dead host) makes the blocked read fail with a
  // FrameError ("frame read timed out") after this long instead of hanging
  // the caller forever. 0 (the default) blocks indefinitely — the
  // pre-timeout behavior, right for in-process servers under test where the
  // daemon is known alive.
  int read_timeout_ms = 0;
};

class ServiceClient {
 public:
  // Connects immediately; throws std::runtime_error when the daemon is not
  // reachable at `address` (a Unix socket path or "host:port") and
  // std::invalid_argument when the address itself is malformed.
  explicit ServiceClient(const std::string& address,
                         const ClientOptions& options = {});
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // Sends `request` (assigning the next id when request.id == 0) and blocks
  // for the response. Throws FrameError/ParseError on transport or protocol
  // corruption (FrameError too when the daemon closes without answering);
  // service-level failures come back as response.status.
  ServiceResponse Call(ServiceRequest request);

  // Like Call, but re-sends while the daemon answers "overloaded", sleeping
  // RetryBackoffMs between attempts (the request id is assigned once, so
  // every retry is the same request). Returns the last response — still
  // "overloaded" when the budget ran out; other statuses return
  // immediately.
  ServiceResponse CallWithRetry(ServiceRequest request,
                                const RetryPolicy& policy = {});

  // Connects, retrying refused connections on the same backoff schedule.
  // Throws std::runtime_error when the daemon stays unreachable for all
  // max_attempts tries — campaign submissions survive a daemon that is
  // briefly down or still binding its socket.
  static std::unique_ptr<ServiceClient> ConnectWithRetry(
      const std::string& address, const RetryPolicy& policy = {},
      const ClientOptions& options = {});

  // Convenience wrappers. `circuit` is a built-in paper-circuit name unless
  // `is_blif` is set, in which case it is inline BLIF text.
  ServiceResponse AnalyzeSpcf(const std::string& circuit, double guard = 0.1,
                              SpcfAlgorithm algorithm =
                                  SpcfAlgorithm::kShortPathBased,
                              bool is_blif = false);
  ServiceResponse SynthesizeMasking(const std::string& circuit,
                                    double guard = 0.1, bool is_blif = false);
  ServiceResponse EstimateYield(const std::string& circuit, double guard,
                                std::uint64_t trials, double sigma,
                                std::uint64_t seed = 2009,
                                bool is_blif = false);
  ServiceResponse InjectCampaign(
      const std::string& circuit, double guard = 0.1,
      FaultSiteStrategy strategy = FaultSiteStrategy::kExhaustiveSpeedPaths,
      std::uint64_t sites = 0, std::uint64_t vectors = 24,
      std::uint64_t seed = 2009, bool is_blif = false);
  ServiceResponse Stats();
  // Returns once the daemon has drained all accepted work and acknowledged.
  ServiceResponse Shutdown();

 private:
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
};

// Polls connect() until the daemon answers or `timeout_seconds` elapses.
// Returns false on timeout — used by tools that fork the daemon. Accepts
// both address forms; throws std::invalid_argument on a malformed address.
bool WaitForServer(const std::string& address, double timeout_seconds);

}  // namespace sm
