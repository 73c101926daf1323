#include "service/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "service/address.h"
#include "service/framing.h"
#include "util/check.h"
#include "util/rng.h"

namespace sm {

namespace {

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

double RetryBackoffMs(const RetryPolicy& policy, int attempt) {
  SM_REQUIRE(attempt >= 0, "attempt must be non-negative, got " << attempt);
  SM_REQUIRE(policy.jitter_fraction >= 0 && policy.jitter_fraction <= 1,
             "jitter_fraction must be in [0, 1], got "
                 << policy.jitter_fraction);
  const double base =
      std::min(policy.initial_backoff_ms * std::pow(policy.multiplier, attempt),
               policy.max_backoff_ms);
  Rng rng = Rng::ForStream(policy.seed, static_cast<std::uint64_t>(attempt));
  const double jitter =
      1.0 + policy.jitter_fraction * (2.0 * rng.Uniform() - 1.0);
  return base * jitter;
}

ServiceClient::ServiceClient(const std::string& address,
                             const ClientOptions& options) {
  fd_ = ConnectToAddress(ParseServiceAddress(address));
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to speedmask daemon at " +
                             address + ": " + std::strerror(errno));
  }
  if (options.read_timeout_ms > 0) {
    // Bound every blocking read: a wedged daemon surfaces as FrameError
    // ("frame read timed out", via ReadExact's EAGAIN path) instead of
    // hanging this thread until the daemon is killed.
    struct timeval tv;
    tv.tv_sec = options.read_timeout_ms / 1000;
    tv.tv_usec = (options.read_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

ServiceResponse ServiceClient::Call(ServiceRequest request) {
  if (request.id == 0) request.id = next_id_++;
  WriteFrame(fd_, SerializeRequest(request));
  const std::optional<std::string> response = ReadFrame(fd_);
  if (!response.has_value()) {
    throw FrameError("daemon closed the connection without answering");
  }
  return ParseResponse(*response);
}

ServiceResponse ServiceClient::CallWithRetry(ServiceRequest request,
                                             const RetryPolicy& policy) {
  SM_REQUIRE(policy.max_attempts > 0, "max_attempts must be positive");
  if (request.id == 0) request.id = next_id_++;  // identical id on retries
  ServiceResponse response;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    response = Call(request);
    if (response.status != "overloaded") return response;
    if (attempt + 1 < policy.max_attempts) {
      SleepMs(RetryBackoffMs(policy, attempt));
    }
  }
  return response;
}

std::unique_ptr<ServiceClient> ServiceClient::ConnectWithRetry(
    const std::string& address, const RetryPolicy& policy,
    const ClientOptions& options) {
  SM_REQUIRE(policy.max_attempts > 0, "max_attempts must be positive");
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_unique<ServiceClient>(address, options);
    } catch (const std::runtime_error&) {
      if (attempt + 1 >= policy.max_attempts) throw;
    }
    SleepMs(RetryBackoffMs(policy, attempt));
  }
}

ServiceResponse ServiceClient::AnalyzeSpcf(const std::string& circuit,
                                           double guard,
                                           SpcfAlgorithm algorithm,
                                           bool is_blif) {
  ServiceRequest r;
  r.method = ServiceMethod::kAnalyzeSpcf;
  (is_blif ? r.circuit_blif : r.circuit_name) = circuit;
  r.guard = guard;
  r.algorithm = algorithm;
  return Call(std::move(r));
}

ServiceResponse ServiceClient::SynthesizeMasking(const std::string& circuit,
                                                 double guard, bool is_blif) {
  ServiceRequest r;
  r.method = ServiceMethod::kSynthesizeMasking;
  (is_blif ? r.circuit_blif : r.circuit_name) = circuit;
  r.guard = guard;
  return Call(std::move(r));
}

ServiceResponse ServiceClient::EstimateYield(const std::string& circuit,
                                             double guard,
                                             std::uint64_t trials,
                                             double sigma, std::uint64_t seed,
                                             bool is_blif) {
  ServiceRequest r;
  r.method = ServiceMethod::kEstimateYield;
  (is_blif ? r.circuit_blif : r.circuit_name) = circuit;
  r.guard = guard;
  r.trials = trials;
  r.sigma = sigma;
  r.seed = seed;
  return Call(std::move(r));
}

ServiceResponse ServiceClient::InjectCampaign(
    const std::string& circuit, double guard, FaultSiteStrategy strategy,
    std::uint64_t sites, std::uint64_t vectors, std::uint64_t seed,
    bool is_blif) {
  ServiceRequest r;
  r.method = ServiceMethod::kInjectCampaign;
  (is_blif ? r.circuit_blif : r.circuit_name) = circuit;
  r.guard = guard;
  r.strategy = strategy;
  r.sites = sites;
  r.vectors = vectors;
  r.seed = seed;
  return Call(std::move(r));
}

ServiceResponse ServiceClient::Stats() {
  ServiceRequest r;
  r.method = ServiceMethod::kStats;
  return Call(std::move(r));
}

ServiceResponse ServiceClient::Shutdown() {
  ServiceRequest r;
  r.method = ServiceMethod::kShutdown;
  return Call(std::move(r));
}

bool WaitForServer(const std::string& address, double timeout_seconds) {
  const ServiceAddress parsed = ParseServiceAddress(address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    const int fd = ConnectToAddress(parsed);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace sm
