#include "common/status.h"

namespace sinclave {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kUnknownSession:
      return "unknown-session";
    case StatusCode::kNotSingleton:
      return "not-singleton";
    case StatusCode::kNoSignerKey:
      return "no-signer-key";
    case StatusCode::kBadSignature:
      return "bad-signature";
    case StatusCode::kWrongSigner:
      return "wrong-signer";
    case StatusCode::kBaseHashMismatch:
      return "base-hash-mismatch";
    case StatusCode::kTokenUnknown:
      return "token-unknown";
    case StatusCode::kTokenReused:
      return "token-reused";
    case StatusCode::kSessionNotAttested:
      return "session-not-attested";
    case StatusCode::kAttestationRejected:
      return "attestation-rejected";
    case StatusCode::kMalformedRequest:
      return "malformed-request";
    case StatusCode::kUnsupportedVersion:
      return "unsupported-version";
    case StatusCode::kUnknownCommand:
      return "unknown-command";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kNotLeader:
      return "not-leader";
  }
  return "unknown";
}

StatusCode status_code_from_wire(std::uint8_t code) {
  return code <= static_cast<std::uint8_t>(StatusCode::kNotLeader)
             ? static_cast<StatusCode>(code)
             : StatusCode::kInternal;
}

const char* status_message(StatusCode code) {
  // The texts for the retrieval outcomes are the seed-era `cas::errors`
  // strings verbatim.
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kUnknownSession:
      return "unknown session";
    case StatusCode::kNotSingleton:
      return "session is not configured for singleton enclaves";
    case StatusCode::kNoSignerKey:
      return "no signer key uploaded for this session";
    case StatusCode::kBadSignature:
      return "common sigstruct signature invalid";
    case StatusCode::kWrongSigner:
      return "common sigstruct from unexpected signer";
    case StatusCode::kBaseHashMismatch:
      return "common sigstruct does not match session base hash";
    case StatusCode::kTokenUnknown:
      return "token unknown";
    case StatusCode::kTokenReused:
      return "token already spent";
    case StatusCode::kSessionNotAttested:
      return "session not attested";
    case StatusCode::kAttestationRejected:
      return "attestation rejected";
    case StatusCode::kMalformedRequest:
      return "malformed request";
    case StatusCode::kUnsupportedVersion:
      return "unsupported protocol version";
    case StatusCode::kUnknownCommand:
      return "unknown command";
    case StatusCode::kInternal:
      return "internal error";
    case StatusCode::kUnavailable:
      return "service unavailable";
    case StatusCode::kDeadlineExceeded:
      return "deadline exceeded";
    case StatusCode::kNotLeader:
      return "not the cluster leader";
  }
  return "internal error";
}

std::string retry_after_detail(std::chrono::milliseconds retry_after) {
  return std::string(status_message(StatusCode::kUnavailable)) +
         " (retry-after-ms=" + std::to_string(retry_after.count()) + ")";
}

std::optional<std::chrono::milliseconds> parse_retry_after(
    std::string_view detail) {
  constexpr std::string_view kKey = "retry-after-ms=";
  const auto pos = detail.find(kKey);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view rest = detail.substr(pos + kKey.size());
  std::int64_t value = 0;
  std::size_t digits = 0;
  while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
    value = value * 10 + (rest[digits] - '0');
    ++digits;
    if (value > 86'400'000) return std::nullopt;  // cap: one day is absurd
  }
  if (digits == 0) return std::nullopt;
  return std::chrono::milliseconds(value);
}

std::string deadline_phase_detail(const char* phase) {
  return std::string(status_message(StatusCode::kDeadlineExceeded)) + " in " +
         phase;
}

std::string breaker_open_detail() {
  return std::string(status_message(StatusCode::kUnavailable)) +
         " (circuit breaker open)";
}

std::string not_leader_detail(const std::string& leader_address) {
  std::string detail = status_message(StatusCode::kNotLeader);
  if (!leader_address.empty())
    detail += " (leader=" + leader_address + ")";
  return detail;
}

std::optional<std::string> parse_leader_hint(std::string_view detail) {
  constexpr std::string_view kKey = "leader=";
  const auto pos = detail.find(kKey);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view rest = detail.substr(pos + kKey.size());
  const auto end = rest.find(')');
  if (end != std::string_view::npos) rest = rest.substr(0, end);
  // An address is a short printable endpoint name; anything else (empty,
  // absurdly long, control bytes) is a hostile or corrupt detail — no hint.
  if (rest.empty() || rest.size() > 256) return std::nullopt;
  for (const char c : rest)
    if (c < 0x21 || c > 0x7e) return std::nullopt;
  return std::string(rest);
}

}  // namespace sinclave
