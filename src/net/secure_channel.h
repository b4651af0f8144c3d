// Attestation-bindable secure channel (the RA-TLS / wireguard stand-in).
//
// One exchange, record version 5 (client = enclave runtime, starter tool,
// or the attacker's impersonator; server = the verifier/CAS). The channel
// owns the two messages; the caller carries them — for the CAS, as the
// payload of a kAttest envelope and of its reply (cas/protocol.h):
//
//   record     (client -> server) : u8 version (5) | client X25519 share
//                                   (32 bytes) | opaque client payload
//   acceptance (server -> client) : server X25519 share (32 bytes) |
//                                   Ed25519 signature over T (64 bytes) |
//                                   sealed answer
//
// Every variable-length field is length-prefixed (common/serial.h). A
// signature of any length but 64 bytes fails the identity check.
//
//   H = SHA-256(version || client share || server share || client payload)
//   T = SHA-256(H || sealed answer)
//
// The answer is whatever the server's handshake hook decided to release
// (for the CAS, the configuration of the policy the quote was checked
// against), AEAD-sealed under the server-to-client key that HKDF derives
// from the X25519 secret and H. So it travels in the server's first and
// only flight, like TLS 1.3 application data in the server's first flight
// (RFC 8446 §2), and no session outlives the exchange: the server keeps
// no state per client.
//
// A refusal is no acceptance but a Status, which the carrier delivers in
// its own framing (for the CAS, the reply envelope's Status prefix). It
// is protocol-level (is_protocol_level) or the generic
// kAttestationRejected, and only kNotLeader keeps a detail, its leader
// hint: the generic refusal reveals no token state. The server refuses
// another version (kUnsupportedVersion; version 4 framed the same fields
// behind a marker byte with its own rejection records, version 3 was a
// two-round-trip handshake with a session id and data records after it)
// or a share of another length (kMalformedRequest) before its handshake
// hook runs, so such a peer never reaches quote verification. The
// *server* is authenticated by its Ed25519 identity key's signature over
// T (clients check it against the expected verifier identity — for
// SinClave singletons, against the identity baked into the measured
// instance page), which covers both shares, the client payload and the
// sealed answer. The *client* is authenticated at a higher layer: its
// payload typically carries an SGX quote whose REPORTDATA must commit to
// the client's X25519 share. That commitment — and how the paper's attack
// forges it via a report server — is the crux of §3; only the holder of
// the matching X25519 scalar can open the answer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/x25519.h"

namespace sinclave::net {

/// The value an attested client must place in its report's REPORTDATA:
/// SHA-256 of the client's X25519 share, zero padded to 64 bytes.
FixedBytes<64> channel_binding(ByteView client_dh_public);

/// Thrown by SecureClient::finish when an acceptance is not authentic: it
/// does not parse, its signature does not verify under the pinned
/// identity (or is not 64 bytes), or its sealed answer does not open — an
/// active attack, never a routine refusal. A distinct type so callers
/// (the client SDK) can keep it loud without matching message strings.
class IdentityMismatchError : public Error {
 public:
  IdentityMismatchError()
      : Error("secure channel: server identity mismatch") {}
};

/// Server half: hand it each record, carry back what it returns.
///
/// Stateless between exchanges and thread-safe: handle() may be called
/// from many dispatcher threads at once. ALL exchange crypto — the
/// HandshakeHook (quote verification, the expensive part), the X25519
/// ladders, transcript hashing, HKDF, sealing the answer and the Ed25519
/// identity signature — runs with no lock held (the debug lock-rank
/// detector asserts it); the only shared state is the striped DRBG pool
/// the server's X25519 scalar comes from and relaxed counters. So a hook
/// may call back into this SecureServer (stats, even handle()).
class SecureServer {
 public:
  /// Decides whether to accept a handshake. Receives the client's payload
  /// and X25519 share; returns the answer to seal back, or the refusal.
  /// A protocol-level refusal (kMalformedRequest, kNotLeader with its
  /// leader hint, ...) reaches the peer as is, so well-behaved clients
  /// learn how to remediate or where to go; any other becomes the generic
  /// kAttestationRejected (no oracle for unauthenticated peers).
  using HandshakeHook =
      std::function<Result<Bytes>(ByteView client_payload,
                                  ByteView client_dh_public)>;

  SecureServer(const crypto::Ed25519KeyPair* identity, crypto::Drbg rng,
               HandshakeHook on_handshake);

  /// Answer one client record: the acceptance, or the refusal. Never
  /// throws on hostile input.
  Result<Bytes> handle(ByteView record);

  /// Exchange counters, exported as CasService's channel_* series.
  struct Stats {
    /// Handshakes accepted (answered with a sealed answer).
    std::uint64_t sessions_opened = 0;
    std::uint64_t handshakes_rejected = 0;
    /// Handshake DRBG-stripe leases that found their first stripe busy
    /// (crypto::DrbgPool): the residual cross-handshake contention.
    std::uint64_t stripe_collisions = 0;
    /// Most handshakes ever in flight at once.
    std::uint64_t sessions_high_water = 0;
    /// Handshakes in flight now (past the shape check, not yet answered).
    std::uint64_t open_sessions = 0;
  };
  Stats stats() const;

 private:
  /// The record's answer before counting and the peer_refusal rule.
  Result<Bytes> answer_record(ByteView record);
  Result<Bytes> accept(ByteView client_dh, ByteView client_payload);

  const crypto::Ed25519KeyPair* identity_;
  crypto::DrbgPool rng_;
  HandshakeHook on_handshake_;
  /// Numbers each handshake for its trace (obs::TraceContext::session_id);
  /// never on the wire.
  std::atomic<std::uint64_t> next_session_{1};

  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> handshakes_rejected_{0};
  std::atomic<std::uint64_t> sessions_high_water_{0};
};

/// Client half.
class SecureClient {
 public:
  explicit SecureClient(crypto::Drbg rng);

  /// The 32-byte X25519 share, available before the exchange so callers
  /// can bind it into a report (channel_binding()).
  const Bytes& dh_public() const { return dh_public_; }

  /// The record that offers `client_payload` under this share. A refusal
  /// changes nothing on either side: the same record may be sent again.
  Bytes offer(ByteView client_payload) const;

  /// Open the server's acceptance of the record offer(`client_payload`)
  /// built. `expected_server` pins the server identity: an acceptance
  /// that does not parse, whose signature over the transcript does not
  /// verify under it, or whose sealed answer does not open throws
  /// IdentityMismatchError (the signature check is what SinClave roots in
  /// the instance page). Returns the opened answer.
  Bytes finish(const crypto::Ed25519PublicKey& expected_server,
               ByteView client_payload, ByteView acceptance) const;

 private:
  crypto::X25519Bytes scalar_;
  Bytes dh_public_;
};

}  // namespace sinclave::net
