// Cooperative cancellation and the service's canonical failure taxonomy.
//
// A CancelToken bundles the three ways an analysis may be told to stop
// early — an external cancel (the client hung up), a wall-clock deadline
// (the request's deadline_ms), and a work budget (an explicit cap on
// compute units) — behind one cheap polling interface. Long-running kernels
// poll it at their natural safe points: the BDD manager at Checkpoint() and
// every few thousand ITE recursions, the Monte-Carlo and injection engines
// per trial, the optimizer per generation. Check() aborts by throwing a
// CancelledError carrying the canonical ErrorCode, which unwinds through
// the kernels' RAII root scopes and surfaces at the service layer as a
// typed response (status + code) instead of a wedged worker.
//
// Thread model: configuration (SetDeadlineAfterMs, SetWorkBudget) happens
// before the token is shared. After that, any thread may Cancel() and any
// thread may poll Status()/Check()/ConsumeWork() — all cross-thread state
// is atomic. Polling methods are const so kernels can take the token as
// `const CancelToken*` through const options structs; work accounting uses
// mutable atomics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sm {

// Canonical error codes of the analysis service. Wire form is the
// snake_case name (ToString); responses carry it in the "code" field so
// clients dispatch on a closed vocabulary instead of parsing messages.
enum class ErrorCode {
  kOk,                 // not an error; never serialized
  kCancelled,          // caller cancelled (e.g. client disconnected)
  kDeadlineExceeded,   // request deadline_ms elapsed
  kResourceExhausted,  // BDD node limit or work budget exceeded
  kInvalidCircuit,     // unknown circuit name or unparseable BLIF
  kInvalidRequest,     // malformed request json / fields
  kOverloaded,         // admission queue full (retryable)
  kUnavailable,        // daemon draining (retryable)
  kInternal,           // anything else
};

const char* ToString(ErrorCode code);
// Accepts the snake_case names ToString emits ("" maps to kOk); throws
// std::invalid_argument on anything else.
ErrorCode ErrorCodeFromString(const std::string& name);

// Whether a client may blindly resubmit the identical request. Transient
// conditions (overloaded, unavailable) are retryable; deterministic
// failures (invalid circuit/request, resource exhaustion) are not, and
// deadline/cancel outcomes are the caller's own decision.
bool IsRetryableError(ErrorCode code);

// The response status that goes with `code` on the wire: "timeout" for
// kDeadlineExceeded, "overloaded" for kOverloaded, "shutting_down" for
// kUnavailable (a draining daemon), "ok" for kOk and "error" for every
// other code. The daemon derives every failure status from its code here,
// so the two fields of a response never disagree.
const char* StatusFor(ErrorCode code);

// Thrown by CancelToken::Check() — and by kernels polling a token — when
// the computation must stop. code() says why in canonical terms.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Arms the wall-clock deadline `ms` milliseconds from now (steady clock;
  // ms <= 0 arms an already-expired deadline). Call before sharing.
  void SetDeadlineAfterMs(double ms);
  // Caps the total work charged via ConsumeWork at `units` (0 = no cap).
  // Call before sharing.
  void SetWorkBudget(std::uint64_t units) {
    work_budget_.store(units, std::memory_order_relaxed);
  }

  // External cancellation; sticky. Safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Charges `units` against the work budget (no check; pair with Check).
  void ConsumeWork(std::uint64_t units) const {
    work_consumed_.fetch_add(units, std::memory_order_relaxed);
  }
  std::uint64_t work_consumed() const {
    return work_consumed_.load(std::memory_order_relaxed);
  }

  // kOk while the computation may continue; otherwise the first tripped
  // condition in severity order: cancelled, deadline, budget.
  ErrorCode Status() const;

  // Throws CancelledError when Status() != kOk; otherwise a no-op.
  void Check() const;

  // Milliseconds until the deadline (negative once expired); +infinity
  // when no deadline is armed.
  double RemainingMs() const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<std::uint64_t> work_budget_{0};
  mutable std::atomic<std::uint64_t> work_consumed_{0};
};

}  // namespace sm
