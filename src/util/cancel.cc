#include "util/cancel.h"

#include <limits>

namespace sm {

const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kResourceExhausted:
      return "resource_exhausted";
    case ErrorCode::kInvalidCircuit:
      return "invalid_circuit";
    case ErrorCode::kInvalidRequest:
      return "invalid_request";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kUnavailable:
      return "unavailable";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "internal";
}

ErrorCode ErrorCodeFromString(const std::string& name) {
  if (name.empty()) return ErrorCode::kOk;
  if (name == "cancelled") return ErrorCode::kCancelled;
  if (name == "deadline_exceeded") return ErrorCode::kDeadlineExceeded;
  if (name == "resource_exhausted") return ErrorCode::kResourceExhausted;
  if (name == "invalid_circuit") return ErrorCode::kInvalidCircuit;
  if (name == "invalid_request") return ErrorCode::kInvalidRequest;
  if (name == "overloaded") return ErrorCode::kOverloaded;
  if (name == "unavailable") return ErrorCode::kUnavailable;
  if (name == "internal") return ErrorCode::kInternal;
  throw std::invalid_argument("unknown error code: " + name);
}

bool IsRetryableError(ErrorCode code) {
  return code == ErrorCode::kOverloaded || code == ErrorCode::kUnavailable;
}

const char* StatusFor(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kDeadlineExceeded:
      return "timeout";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kUnavailable:
      return "shutting_down";
    case ErrorCode::kCancelled:
    case ErrorCode::kResourceExhausted:
    case ErrorCode::kInvalidCircuit:
    case ErrorCode::kInvalidRequest:
    case ErrorCode::kInternal:
      return "error";
  }
  return "error";
}

void CancelToken::SetDeadlineAfterMs(double ms) {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(ms > 0 ? ms : 0));
  has_deadline_.store(true, std::memory_order_release);
}

ErrorCode CancelToken::Status() const {
  if (cancelled_.load(std::memory_order_relaxed)) {
    return ErrorCode::kCancelled;
  }
  if (has_deadline_.load(std::memory_order_acquire) &&
      std::chrono::steady_clock::now() >= deadline_) {
    return ErrorCode::kDeadlineExceeded;
  }
  const std::uint64_t budget = work_budget_.load(std::memory_order_relaxed);
  if (budget > 0 &&
      work_consumed_.load(std::memory_order_relaxed) > budget) {
    return ErrorCode::kResourceExhausted;
  }
  return ErrorCode::kOk;
}

void CancelToken::Check() const {
  switch (Status()) {
    case ErrorCode::kOk:
      return;
    case ErrorCode::kCancelled:
      throw CancelledError(ErrorCode::kCancelled, "request cancelled");
    case ErrorCode::kDeadlineExceeded:
      throw CancelledError(ErrorCode::kDeadlineExceeded,
                           "request deadline exceeded");
    default:
      throw CancelledError(ErrorCode::kResourceExhausted,
                           "request work budget exhausted");
  }
}

double CancelToken::RemainingMs() const {
  if (!has_deadline_.load(std::memory_order_acquire)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::chrono::duration<double, std::milli>(
             deadline_ - std::chrono::steady_clock::now())
      .count();
}

}  // namespace sm
