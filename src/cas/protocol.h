// Wire protocol between enclaves/starters and the CAS verifier service.
//
// One client endpoint, the node's address, serves three commands:
//  * kGetInstance (nothing secret flows here): the untrusted starter
//    requests an attestation token + on-demand SigStruct for a session
//    ("Singleton Page Retrieval", Fig. 7c),
//  * kAttest: the enclave runtime — or, in the attack, the TEE
//    impersonator — offers the secure channel's handshake record
//    (net/secure_channel.h) around an AttestPayload: a quote bound to the
//    channel and (in SinClave mode) its attestation token. The reply's
//    acceptance carries the application configuration, sealed to the
//    channel,
//  * kIntrospect: metrics and recent traces.
//
// Framing (protocol v1): every message travels inside a versioned
// Envelope
//
//     magic u32 | version u16 | command u8 | flags u8 | request_id u64
//     | payload (u32-length-prefixed)
//
// and every response payload leads with a typed Status (StatusCode u8 +
// optional detail string) instead of the seed-era `bool ok + string error`.
// Version rules: a server answers frames of its own major version in kind;
// frames with a HIGHER version get a well-formed current-version response
// carrying kUnsupportedVersion (the payload layout of the Status prefix is
// frozen, so future clients can always decode the refusal). Frames without
// the envelope magic and undecodable payloads get kMalformedRequest,
// unknown commands kUnknownCommand — always inside a v1 envelope; a
// frontend never answers a parse failure with a dropped or garbage reply.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "common/status.h"
#include "core/instance_page.h"
#include "quote/quote.h"
#include "sgx/sigstruct.h"

namespace sinclave::cas {

// --- envelope ---------------------------------------------------------------

/// First four bytes of every enveloped frame.
inline constexpr std::uint32_t kEnvelopeMagic = 0xC0A5E4F1u;
/// Current protocol version spoken by this build.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Wire commands (u8; append only).
enum class Command : std::uint8_t {
  /// Singleton retrieval (token + on-demand SigStruct).
  kGetInstance = 1,
  /// Reserved: the retired config fetch of the attested exchange (the
  /// handshake answer carries the configuration now). Never reused.
  kGetConfig = 2,
  /// The attested exchange: the secure channel's handshake record.
  kAttest = 3,
  /// Observability introspection — metrics snapshot, recent traces,
  /// slow-request log.
  kIntrospect = 4,
  // Inter-CAS replication traffic (cas/replication.h). These ride ONLY
  // v2 envelopes on the dedicated `<address>.raft` endpoint — a v1 client
  // endpoint receiving one answers kUnknownCommand, and a v1 client
  // hitting the raft endpoint answers kUnsupportedVersion, so the v1
  // surface is untouched.
  /// Raft leader election: RequestVote.
  kVoteRequest = 5,
  /// Raft log replication + heartbeat: AppendEntries.
  kAppendEntries = 6,
  /// Raft snapshot transfer for lagging/compacted followers.
  kInstallSnapshot = 7,
};

/// Stable name for logs/metrics ("get-instance", ...).
const char* to_string(Command command);

struct Envelope {
  std::uint16_t version = kProtocolVersion;
  Command command = Command::kGetInstance;
  std::uint64_t request_id = 0;
  Bytes payload;

  Bytes serialize() const;
  static Envelope deserialize(ByteView data);
  /// Cheap sniff: does this frame start with the envelope magic?
  static bool matches(ByteView data);

  /// Response envelope echoing this request's command and id.
  Envelope reply(Bytes response_payload) const;

  /// The cleartext header's command and request id.
  struct Header {
    Command command = Command::kGetInstance;
    std::uint64_t request_id = 0;
  };
  /// Cheap header peek without decoding (or validating) the payload —
  /// what the event-driven frontend counts a request under and stamps
  /// into its TraceContext at accept time, before any worker touches the
  /// frame. Nullopt for non-envelope/truncated frames.
  static std::optional<Header> peek(ByteView data);
};

// --- messages ---------------------------------------------------------------

/// Application configuration: everything the paper lists as
/// behaviour-determining yet unmeasured — program selection, arguments,
/// environment, secrets, the filesystem key and the expected filesystem
/// state ("completeness").
struct AppConfig {
  std::string program;
  std::vector<std::string> args;
  std::map<std::string, std::string> env;
  std::map<std::string, Bytes> secrets;
  Bytes fs_key;              // 32-byte volume key (empty: no volume)
  Hash256 fs_manifest_root;  // expected volume manifest (ignored if no key)

  Bytes serialize() const;
  static AppConfig deserialize(ByteView data);

  friend bool operator==(const AppConfig&, const AppConfig&) = default;
};

/// Starter -> CAS (envelope payload of kGetInstance).
struct InstanceRequest {
  std::string session_name;
  sgx::SigStruct common_sigstruct;

  Bytes serialize() const;
  static InstanceRequest deserialize(ByteView data);
};

/// CAS -> starter (kGetInstance). Typed status; credential fields are
/// meaningful only when status.ok(). Defaults to kInternal — like the
/// seed's `bool ok = false`, a response must be explicitly marked ok.
struct InstanceResponse {
  Status status{StatusCode::kInternal};
  core::AttestationToken token;
  Hash256 verifier_id;  // hash of the CAS identity key the enclave must pin
  sgx::SigStruct singleton_sigstruct;

  bool ok() const { return status.ok(); }

  Bytes serialize() const;  // Status-prefixed
  static InstanceResponse deserialize(ByteView data);
};

/// The client payload of a kAttest handshake record: what the enclave
/// offers the verifier through the secure channel.
struct AttestPayload {
  std::string session_name;
  quote::Quote quote;
  /// Present in SinClave (singleton) mode only.
  std::optional<core::AttestationToken> token;

  Bytes serialize() const;
  static AttestPayload deserialize(ByteView data);
};

/// CAS -> client (kAttest). The acceptance is the secure channel's
/// `share | signature | sealed answer`, whose sealed plaintext is the
/// policy's AppConfig; meaningful only when status.ok(). Every refusal —
/// shed, deadline, wrong version, not leader, rejected quote — is the
/// Status. Defaults to kInternal (must be explicitly marked ok).
struct AttestResponse {
  Status status{StatusCode::kInternal};
  Bytes acceptance;

  bool ok() const { return status.ok(); }

  Bytes serialize() const;  // Status-prefixed
  static AttestResponse deserialize(ByteView data);
};

/// How an IntrospectResponse's metrics snapshot is rendered.
enum class MetricsFormat : std::uint8_t {
  kJson = 0,
  kPrometheus = 1,
  kText = 2,
};

/// Client -> CAS (envelope payload of kIntrospect).
/// An EMPTY payload is valid and means "all defaults" — a debugging
/// client can poke the endpoint with a bare envelope.
struct IntrospectRequest {
  /// Most recent completed traces to return (bounded server-side).
  std::uint32_t max_traces = 8;
  bool include_slow = true;
  MetricsFormat format = MetricsFormat::kJson;

  Bytes serialize() const;
  static IntrospectRequest deserialize(ByteView data);
};

/// One completed trace on the wire: the span tree flattened in start
/// order, offsets relative to the trace start (absolute steady-clock
/// timestamps are meaningless across processes).
struct TraceReport {
  std::uint64_t trace_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::int64_t duration_ns = 0;

  struct Phase {
    std::string name;
    std::uint32_t depth = 0;
    std::int64_t offset_ns = 0;  // from trace start
    std::int64_t duration_ns = 0;
  };
  std::vector<Phase> phases;

  void write(ByteWriter& w) const;
  static TraceReport read(ByteReader& r);
};

/// CAS -> client. Metrics/traces meaningful only when status.ok().
struct IntrospectResponse {
  Status status{StatusCode::kInternal};
  /// Registry snapshot rendered in the requested MetricsFormat.
  std::string metrics;
  /// Most recent completed traces, newest first.
  std::vector<TraceReport> traces;
  /// Retained slow-request log, oldest first (empty if not requested).
  std::vector<TraceReport> slow_traces;

  bool ok() const { return status.ok(); }

  Bytes serialize() const;
  static IntrospectResponse deserialize(ByteView data);
};

// --- shared frontend glue ---------------------------------------------------

/// The client endpoint's commands, one handler each.
struct FrameHandlers {
  std::function<InstanceResponse(const InstanceRequest&)> get_instance{};
  std::function<IntrospectResponse(const IntrospectRequest&)> introspect{};
  /// kAttest: the envelope payload is the secure channel's handshake
  /// record, handed over undecoded.
  std::function<AttestResponse(ByteView record)> attest{};
};

/// Serve one client-endpoint frame: decode the envelope, version-check,
/// and dispatch its command to `handlers`, answering in the command's
/// response shape; `status`, when given, receives the answer's code (the
/// serving frontend's per-command metrics come from it). Never throws on
/// malformed input — deserializer exceptions (and frames without the
/// envelope magic) become kMalformedRequest answers, handler exceptions
/// kInternal.
Bytes serve_client_frame(ByteView raw, const FrameHandlers& handlers,
                         StatusCode* status = nullptr);

/// Answer `raw` with a blanket refusal (a shed, an expired deadline): the
/// frame served as by serve_client_frame, every command answering
/// `status` in its own shape, so refusals are as typed and parseable as
/// served answers, at frame-decode cost only — and a refused kAttest
/// never reaches the handshake hook.
Bytes refuse_client_frame(ByteView raw, const Status& status,
                          StatusCode* answered = nullptr);

/// The AttestPayload a kAttest handshake record offers — the client
/// payload the secure channel hands its hook — or nullopt, never an
/// exception, when the bytes are not one.
std::optional<AttestPayload> parse_attest_payload(ByteView client_payload);

}  // namespace sinclave::cas
