// Attestation-bindable secure channel (the RA-TLS / wireguard stand-in).
//
// Handshake, record version 3 (client = enclave runtime, starter tool, or
// the attacker's impersonator; server = the verifier/CAS):
//
//   client -> server : marker | u8 version (3) | client X25519 share
//                      (32 bytes) | opaque client payload
//   server -> client : ok | u64 session id | server X25519 share (32
//                      bytes) | Ed25519 signature over T (64 bytes) |
//                      opaque server payload
//                 or : rejected | u8 code [| str detail]
//
// Every variable-length field is length-prefixed (common/serial.h). A
// signature of any length but 64 bytes fails the identity check.
//
// A rejection's code is protocol-level (is_protocol_level) or the generic
// kAttestationRejected. Only kNotLeader appends a detail, its leader hint
// (at most kMaxRejectDetail bytes): every other record ends at the code,
// so the generic rejection reveals no token state, and a client that
// stops reading after the code still parses every record.
//
//   T = SHA-256(version || session id || client share || server share ||
//               client payload || server payload)
//
// The server refuses another version (kUnsupportedVersion; version 2 was
// the same record signed with RSA) or a share of another length
// (kMalformedRequest) before its handshake hook runs, so such a peer never
// reaches quote verification. Both sides derive AES-256 AEAD traffic keys
// from the X25519 secret and T via HKDF. The *server* is authenticated by
// its Ed25519 identity key's signature over T (clients check it against
// the expected verifier identity — for SinClave singletons, against the
// identity baked into the measured instance page), which also covers the
// session id and the server payload. The *client* is authenticated at a
// higher layer: its payload typically carries an SGX quote whose
// REPORTDATA must commit to the client's X25519 share. That commitment —
// and how the paper's attack forges it via a report server — is the crux
// of §3.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "crypto/aead.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/x25519.h"
#include "net/sim_network.h"

namespace sinclave {
class ByteReader;  // common/serial.h
}

namespace sinclave::net {

/// Longest detail a handshake rejection carries (or a client keeps).
inline constexpr std::size_t kMaxRejectDetail = 256;

/// The value an attested client must place in its report's REPORTDATA:
/// SHA-256 of the client's X25519 share, zero padded to 64 bytes.
FixedBytes<64> channel_binding(ByteView client_dh_public);

/// Transport record kinds on the secure endpoint. Frontends split their
/// per-command metrics on this — it needs no session keys (the record type
/// byte is cleartext framing, the payloads stay encrypted).
enum class RecordType : std::uint8_t { kHandshake, kData, kUnknown };
RecordType classify_record(ByteView raw);

/// Cleartext session id of a data record (the id is transport framing,
/// not payload — only the payload is encrypted). Nullopt for handshakes,
/// truncated frames, or non-data records. Lets the event-driven frontend
/// stamp the session into a TraceContext at accept time, before any
/// worker decrypts anything.
std::optional<std::uint64_t> peek_session_id(ByteView raw);

/// Thrown by SecureClient::connect when the server's handshake signature
/// does not verify under the pinned identity (or is not 64 bytes) — an
/// active attack, never a routine rejection. A distinct type so callers
/// (the client SDK) can keep it loud without matching message strings.
class IdentityMismatchError : public Error {
 public:
  IdentityMismatchError()
      : Error("secure channel: server identity mismatch") {}
};

/// Thrown by SecureClient::call when the server answered the data record
/// with a typed rejection status — e.g. kSessionNotAttested when the
/// session was closed server-side between two calls. Distinct from the
/// generic Error so callers can branch on the code without string
/// matching.
class RecordRejectedError : public Error {
 public:
  explicit RecordRejectedError(StatusCode code)
      : Error(std::string("secure channel: request rejected: ") +
              status_message(code)),
        code_(code) {}
  StatusCode code() const { return code_; }

 private:
  StatusCode code_;
};

/// Server half. Owns per-session traffic keys; plug `handle` into
/// SimNetwork::listen.
///
/// Thread-safe and contention-striped: handle() may be called from many
/// dispatcher threads at once. Sessions live in a striped hash table
/// (kStripes shards, each with its own mutex) behind shared_ptr, with a
/// per-session lock serializing only records of that one session. ALL
/// handshake crypto — the HandshakeHook (quote verification, the
/// expensive part), the X25519 ladders, transcript hashing, HKDF, and the
/// Ed25519 identity signature — runs with no SecureServer lock held (the
/// debug lock-rank detector asserts it); a session is published to its
/// stripe only after its keys are fully derived. So hooks and request
/// handlers MAY call back into this SecureServer (close_session,
/// open_sessions, stats), and a HandshakeHook may even re-enter handle().
/// Only a RequestHandler must not re-enter handle(): it runs under its
/// session's lock.
class SecureServer {
 public:
  /// Session-table stripes: independent sessions hash to different
  /// stripes, so their table lookups never contend on one mutex.
  static constexpr std::size_t kStripes = 16;

  /// A handshake acceptance: the payload sent back to the client, and what
  /// the hook established about the peer (for the CAS, the policy session
  /// the quote attested for) — kept by the session, and dying with it.
  struct Accepted {
    Bytes payload;
    std::string peer{};
  };
  /// Decides whether to accept a handshake. Receives the client's payload
  /// and X25519 share; returns the acceptance to send, or nullopt
  /// to reject the session. On rejection the hook may set `reject_status`
  /// to a protocol-level status (kUnsupportedVersion, kMalformedRequest,
  /// kNotLeader with its leader hint) — it rides the rejection record so
  /// well-behaved clients learn how to remediate or where to go;
  /// verification failures should leave the generic default (no oracle
  /// for unauthenticated peers).
  using HandshakeHook = std::function<std::optional<Accepted>(
      ByteView client_payload, ByteView client_dh_public,
      Status* reject_status)>;
  /// Handles one decrypted request, with the `peer` its session's
  /// handshake established; the return value is encrypted back.
  using RequestHandler = std::function<Bytes(
      std::uint64_t session_id, const std::string& peer, ByteView plaintext)>;

  SecureServer(const crypto::Ed25519KeyPair* identity, crypto::Drbg rng,
               HandshakeHook on_handshake, RequestHandler on_request);

  /// Raw transport entry point.
  Bytes handle(ByteView raw);

  /// Terminate a session (e.g. after config delivery). Safe to call from
  /// inside a hook or request handler. A data record racing the close
  /// either completes normally (it entered its session before the close)
  /// or receives a typed kSessionNotAttested rejection — never a torn
  /// decrypt (keys are shared_ptr-owned and outlive in-flight records).
  void close_session(std::uint64_t session_id);

  std::size_t open_sessions() const {
    return open_count_.load(std::memory_order_relaxed);
  }

  /// Sweep ONE stripe (round-robin cursor) for sessions whose last
  /// activity is at least `idle_ttl` old, reaping each like
  /// close_session would (typed kSessionNotAttested for any later
  /// record). One stripe per call keeps each sweep's stripe-lock hold
  /// bounded, so a periodic TimerWheel caller never stalls the serving
  /// path behind a full-table scan. Returns the number reaped; no-op
  /// (returns 0) when idle_ttl is not positive.
  std::size_t sweep_idle(std::chrono::nanoseconds idle_ttl);

  /// Contention observability for the serving layer's metrics.
  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t handshakes_rejected = 0;
    /// Lock acquisitions (session-table stripes + handshake DRBG stripes)
    /// that found their target busy: the residual cross-session
    /// contention of the striped design.
    std::uint64_t stripe_collisions = 0;
    /// Most sessions ever simultaneously open.
    std::uint64_t sessions_high_water = 0;
    std::uint64_t open_sessions = 0;
    /// Sessions reaped by the idle-TTL sweep.
    std::uint64_t sessions_expired = 0;
  };
  Stats stats() const;

 private:
  struct Session {
    // Per-session lock: serializes records *of this session* (counter
    // discipline demands it); records of different sessions never share a
    // lock. The AEAD contexts and cached ADs are immutable after
    // construction. Ranked above the stripe lock: the request handler
    // runs under this lock and may call close_session (stripe).
    Mutex m{LockRank::kSecureSession, "net.secure_session"};
    crypto::Aead c2s;
    crypto::Aead s2c;
    Bytes ad_c2s;  // per-session associated data, built once per session
    Bytes ad_s2c;
    const std::string peer;  // the handshake hook's Accepted::peer
    std::uint64_t recv_counter GUARDED_BY(m) = 0;
    std::uint64_t send_counter GUARDED_BY(m) = 0;
    /// Set by close_session without taking `m` (close must not block on —
    /// or deadlock with — a handler calling close for its own session).
    std::atomic<bool> closed{false};
    /// steady_clock ns of the last record served (stamped at publish,
    /// then per data record). Atomic so the idle sweep can read it under
    /// only the stripe lock — taking the session lock there would invert
    /// the stripe < session rank order.
    std::atomic<std::int64_t> last_activity_ns{0};

    Session(crypto::Aead c2s_in, crypto::Aead s2c_in, Bytes ad_c2s_in,
            Bytes ad_s2c_in, std::string peer_in)
        : c2s(std::move(c2s_in)),
          s2c(std::move(s2c_in)),
          ad_c2s(std::move(ad_c2s_in)),
          ad_s2c(std::move(ad_s2c_in)),
          peer(std::move(peer_in)) {}
  };

  struct Stripe {
    mutable Mutex m{LockRank::kSecureStripe, "net.secure_stripe"};
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions
        GUARDED_BY(m);
  };

  Stripe& stripe_for(std::uint64_t session_id) {
    return stripes_[session_id % kStripes];
  }
  // Stripe locking uses ContendedMutexLock(stripe.m, stripe_collisions_)
  // inline: it counts contended acquisitions for stats() while keeping
  // the acquisition visible to thread-safety analysis.

  Bytes handle_handshake(ByteReader& r);
  Bytes handle_data(ByteReader& r);

  const crypto::Ed25519KeyPair* identity_;
  crypto::DrbgPool rng_;
  HandshakeHook on_handshake_;
  RequestHandler on_request_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> next_session_{1};

  std::atomic<std::uint64_t> open_count_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> handshakes_rejected_{0};
  std::atomic<std::uint64_t> stripe_collisions_{0};
  std::atomic<std::uint64_t> sessions_high_water_{0};
  std::atomic<std::uint64_t> sessions_expired_{0};
  std::atomic<std::uint64_t> sweep_cursor_{0};
};

/// Client half.
class SecureClient {
 public:
  explicit SecureClient(crypto::Drbg rng);

  /// The 32-byte X25519 share, available before connecting so callers can
  /// bind it into a report (channel_binding()).
  const Bytes& dh_public() const { return dh_public_; }

  /// Run the handshake. `expected_server` pins the server identity: a
  /// signature over the transcript that does not verify under it throws
  /// IdentityMismatchError (this is the check SinClave roots in the
  /// instance page). Returns the server's handshake payload;
  /// nullopt when the server rejected the session — `reject_status`, when
  /// given, then carries the typed rejection (kAttestationRejected unless
  /// the record named a protocol-level code; a detail only for
  /// kNotLeader). A rejection derives no keys: the client may retry.
  std::optional<Bytes> connect(SimNetwork::Connection connection,
                               const crypto::Ed25519PublicKey& expected_server,
                               ByteView client_payload,
                               Status* reject_status = nullptr);

  /// Encrypted round trip; only valid after a successful connect. Throws
  /// RecordRejectedError when the server rejected the record with a typed
  /// status (e.g. the session was closed server-side), Error for generic
  /// rejections and authentication failures (torn session).
  Bytes call(ByteView plaintext);

  bool connected() const { return session_.has_value(); }

 private:
  struct Session {
    SimNetwork::Connection connection;
    std::uint64_t id;
    crypto::Aead c2s;
    crypto::Aead s2c;
    Bytes ad_c2s;  // per-session associated data, built once at connect
    Bytes ad_s2c;
    std::uint64_t send_counter = 0;
    std::uint64_t recv_counter = 0;
  };

  crypto::X25519Bytes scalar_;
  Bytes dh_public_;
  std::optional<Session> session_;
};

}  // namespace sinclave::net
