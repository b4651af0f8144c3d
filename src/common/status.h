// Typed operation results for the client-facing API.
//
// Every wire response in the CAS protocol carries a StatusCode instead of
// the seed-era `bool ok + std::string error`: machine-readable outcomes are
// what retry logic, replication, and metrics key on — string matching is
// not an error model. The canonical human-readable message for each code
// lives in ONE table here (status_message), so the serving frontend
// (server::CasServer) and the client SDK can never drift apart in what
// they call the same failure.
//
// Status  = code + optional detail message (empty -> canonical message).
// Result<T> = Status or a value; the small expected<> stand-in used by the
// client SDK where an operation either yields a payload or a typed error.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.h"

namespace sinclave {

/// Wire-stable outcome codes (serialized as u8 — append only, never
/// renumber; unknown codes decode as kInternal on old peers).
enum class StatusCode : std::uint8_t {
  kOk = 0,
  // Singleton-retrieval outcomes.
  kUnknownSession = 1,
  kNotSingleton = 2,
  kNoSignerKey = 3,
  kBadSignature = 4,
  kWrongSigner = 5,
  kBaseHashMismatch = 6,
  // Attested-exchange outcomes.
  kTokenUnknown = 7,
  kTokenReused = 8,
  /// Reserved: nothing answers it since the attested exchange keeps no
  /// session; the value stays so it is never reused.
  kSessionNotAttested = 9,
  kAttestationRejected = 10,
  // Protocol-level outcomes (any command).
  kMalformedRequest = 11,
  kUnsupportedVersion = 12,
  kUnknownCommand = 13,
  kInternal = 14,
  /// Transient: the service exists but cannot answer right now (shutting
  /// down, overloaded, backend briefly gone). The only retryable code.
  kUnavailable = 15,
  /// The request's deadline expired before the server could finish it
  /// (queue wait, or too little budget left to cover the backend stall).
  /// Deliberately NOT retryable: an expired deadline means the caller's
  /// time budget is gone — retrying the same doomed request is exactly
  /// the storm deadlines exist to stop. Re-issue with a fresh budget.
  kDeadlineExceeded = 16,
  /// Replicated-cluster routing: this node is a follower and the request
  /// needs the leader (writes: singleton retrieval, token spend, policy
  /// install). Deliberately NOT retryable by blind repetition — the
  /// detail carries a leader hint ("leader=ADDR") and CasClient re-routes
  /// to it immediately, with no backoff sleep. Reads (get_policy,
  /// introspect) are served by any replica and never see this code.
  kNotLeader = 17,
};

/// Stable kebab-case identifier (logs, JSON, tests).
const char* to_string(StatusCode code);

/// Map a wire status byte onto the enum. Bytes beyond the last code this
/// build knows decode as kInternal — the documented contract for old
/// peers meeting codes appended later. Decoders must route every wire
/// status byte through this (never a bare static_cast): an
/// out-of-enum value would otherwise flow into switch statements that
/// assume the enum is exhaustive.
StatusCode status_code_from_wire(std::uint8_t code);

/// Canonical human-readable message for a code — the single source every
/// caller draws from (the wire carries only the code and extra detail).
const char* status_message(StatusCode code);

/// Canonical detail composers for statuses that carry a structured hint.
/// Clients parse these back out, so the format fragments are part of the
/// wire contract: they are composed and parsed HERE only —
/// tools/lint_invariants.py confines the format literals to status.cpp the
/// same way it confines the canonical message table.
///
/// Detail for a load-shed kUnavailable: "service unavailable
/// (retry-after-ms=N)". Clients that find the hint pace their next retry
/// by it instead of their own backoff.
std::string retry_after_detail(std::chrono::milliseconds retry_after);
/// Extract the retry-after hint from a detail string; nullopt when absent.
std::optional<std::chrono::milliseconds> parse_retry_after(
    std::string_view detail);
/// Detail for kDeadlineExceeded naming the phase that overran
/// ("queue-wait", "backend-stall", "client-budget").
std::string deadline_phase_detail(const char* phase);
/// Detail for a client-side circuit-breaker fast-fail (kUnavailable
/// without any wire attempt).
std::string breaker_open_detail();
/// Detail for kNotLeader carrying the current leader's address:
/// "not the cluster leader (leader=ADDR)". An empty address (election in
/// progress, leader unknown) omits the hint entirely.
std::string not_leader_detail(const std::string& leader_address);
/// Extract the leader address from a kNotLeader detail; nullopt when the
/// hint is absent or empty.
std::optional<std::string> parse_leader_hint(std::string_view detail);

/// True for codes a client may retry without changing the request.
constexpr bool is_retryable(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

/// True for codes that describe the protocol exchange itself rather than
/// a verification outcome. These are the only codes a refused handshake
/// may show an unauthenticated peer: SecureServer::handle turns every
/// other hook refusal into the generic rejection (the one rule, on the
/// server; the client reads the reply's Status like any command's),
/// keeping the handshake oracle-free. kNotLeader qualifies, with its
/// leader hint: "go to the
/// leader" is public routing topology, and a follower must bounce an
/// attested handshake before spending its one-time token. kUnavailable
/// ("could not commit your spend, retry") says nothing about the token
/// either, and as the generic rejection, which is terminal, every
/// failover blip would lose a credential. A reused token still answers
/// the generic rejection.
constexpr bool is_protocol_level(StatusCode code) {
  return code == StatusCode::kMalformedRequest ||
         code == StatusCode::kUnsupportedVersion ||
         code == StatusCode::kUnknownCommand ||
         code == StatusCode::kNotLeader ||
         code == StatusCode::kUnavailable;
}

/// A typed outcome: code plus an optional detail message. `message()`
/// falls back to the canonical text so callers always have something to
/// print, and the wire never has to carry the common case.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string detail;  // optional; empty -> status_message(code)

  Status() = default;
  explicit Status(StatusCode c) : code(c) {}
  Status(StatusCode c, std::string d) : code(c), detail(std::move(d)) {}

  bool ok() const { return code == StatusCode::kOk; }
  bool retryable() const { return is_retryable(code); }
  std::string message() const {
    return detail.empty() ? status_message(code) : detail;
  }

  friend bool operator==(const Status&, const Status&) = default;
};

/// Either a value or a non-ok Status. The invariant "ok implies value" is
/// enforced at construction: an ok() Result can only be built from a value,
/// and value() on an error Result throws (programming error, not a wire
/// condition).
template <typename T>
class Result {
 public:
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    if (status_.ok())
      throw Error("result: ok status requires a value");
  }
  Result(StatusCode code) : Result(Status(code)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    require();
    return *value_;
  }
  T& value() & {
    require();
    return *value_;
  }
  T&& value() && {
    require();
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  void require() const {
    if (!value_.has_value())
      throw Error("result: value() on error status (" +
                  std::string(to_string(status_.code)) + ")");
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace sinclave
