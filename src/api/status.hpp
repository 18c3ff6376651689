// Status / Result<T> error handling for the service facade.
//
// The research layers below (core/, loc/, ...) throw std::invalid_argument
// on malformed inputs, which is fine for a bench harness but not for a
// long-running service where one bad request must not take down the
// process.  Every iup::api entry point validates its inputs and returns a
// Status (or Result<T>) instead; exceptions never cross the api boundary.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace iup::api {

enum class StatusCode {
  kOk,
  kInvalidArgument,     ///< malformed request (shape mismatch, empty set,
                        ///< non-finite RSS, ...)
  kNotFound,            ///< unknown site / evicted snapshot version
  kFailedPrecondition,  ///< valid request, wrong engine state (duplicate
                        ///< site, missing deployment, ...)
  kInternal,            ///< a lower layer failed unexpectedly
  kUnavailable,         ///< transient: retry may succeed (circuit breaker
                        ///< open, injected fault, solver outage)
  kDeadlineExceeded,    ///< the work ran past its deadline; any commit was
                        ///< aborted, the last-good version keeps serving
  kResourceExhausted,   ///< a bounded resource is full (observation
                        ///< buffer at capacity, ...)
  kDataLoss,            ///< durable state is corrupt beyond the recovery
                        ///< rules (mid-WAL CRC mismatch, checkpoint
                        ///< section damage, version gap on replay)
};

constexpr std::string_view to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kDataLoss: return "DATA_LOSS";
  }
  return "UNKNOWN";
}

/// Inverse of to_string(StatusCode): the code whose name is `name`, or
/// nullopt for anything else (including "UNKNOWN").  Exists so logs and
/// wire formats can round-trip codes; tests enumerate every code through
/// it.
constexpr std::optional<StatusCode> status_code_from_string(
    std::string_view name) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded,
        StatusCode::kResourceExhausted, StatusCode::kDataLoss}) {
    if (to_string(code) == name) return code;
  }
  return std::nullopt;
}

class Status {
 public:
  /// Default construction is success, so `return {};` reads as "ok".
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_argument(std::string message) {
    return {StatusCode::kInvalidArgument, std::move(message)};
  }
  static Status not_found(std::string message) {
    return {StatusCode::kNotFound, std::move(message)};
  }
  static Status failed_precondition(std::string message) {
    return {StatusCode::kFailedPrecondition, std::move(message)};
  }
  static Status internal(std::string message) {
    return {StatusCode::kInternal, std::move(message)};
  }
  static Status unavailable(std::string message) {
    return {StatusCode::kUnavailable, std::move(message)};
  }
  static Status deadline_exceeded(std::string message) {
    return {StatusCode::kDeadlineExceeded, std::move(message)};
  }
  static Status resource_exhausted(std::string message) {
    return {StatusCode::kResourceExhausted, std::move(message)};
  }
  static Status data_loss(std::string message) {
    return {StatusCode::kDataLoss, std::move(message)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string to_string() const {
    std::string out{api::to_string(code_)};
    if (!message_.empty()) out += ": " + message_;
    return out;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or the Status explaining why there is none.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::internal("Result constructed from an OK status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// The held value; throws std::logic_error when !ok() (reaching for the
  /// value of a failed Result is a caller bug, not a data error).
  const T& value() const& {
    ensure_ok();
    return *value_;
  }
  T& value() & {
    ensure_ok();
    return *value_;
  }
  /// On a temporary the value is moved out and returned by value, so
  /// `for (auto c : engine.reference_cells(site).value())` iterates a
  /// vector that lives as long as the loop, not one inside the destroyed
  /// Result.
  T value() && {
    ensure_ok();
    return std::move(*value_);
  }

  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

  const T& operator*() const& { return value(); }
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }

 private:
  void ensure_ok() const {
    if (!ok()) {
      throw std::logic_error("Result::value on error: " + status_.to_string());
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace iup::api
