#include "net/secure_channel.h"

#include <algorithm>
#include <array>
#include <optional>

#include "common/error.h"
#include "common/mutex.h"
#include "common/serial.h"
#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "crypto/sha256.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace sinclave::net {

namespace {

/// Handshake record version, the record's first byte: 5 since the record
/// rides the CAS envelope's kAttest command (4 framed it behind a marker
/// byte, 3 returned a session id for data records, 2 carried an RSA
/// signature). Every older record reads as another version and is refused
/// typed.
constexpr std::uint8_t kHandshakeVersion = 5;

/// DRBG stripes for handshake randomness (crypto::DrbgPool).
constexpr std::size_t kRngStripes = 8;

/// The answer key seals exactly one message, so its nonce is constant.
constexpr std::array<std::uint8_t, crypto::kAeadNonceSize> kAnswerNonce{};

/// H: SHA-256 of every field before the answer, each length-prefixed. The
/// answer key derives from it, so a relay that rewrites a share or the
/// client payload leaves the client a key that cannot open the answer.
Hash256 hello_hash(ByteView client_share, ByteView server_share,
                   ByteView client_payload) {
  ByteWriter w;
  w.u8(kHandshakeVersion);
  w.bytes(client_share);
  w.bytes(server_share);
  w.bytes(client_payload);
  return crypto::sha256(w.data());
}

/// T: SHA-256 of the whole exchange, H then the sealed answer. The server
/// signs it, so a relay that rewrites any field fails the identity check.
Hash256 transcript_hash(const Hash256& hello, ByteView sealed_answer) {
  ByteWriter w;
  w.raw(hello.view());
  w.bytes(sealed_answer);
  return crypto::sha256(w.data());
}

/// The server-to-client key that seals the answer.
crypto::Aead answer_key(const crypto::X25519Bytes& shared_secret,
                        const Hash256& hello) {
  const ByteView secret{shared_secret.data(), shared_secret.size()};
  return crypto::Aead(crypto::hkdf(to_bytes("sinclave-channel"), secret,
                                   concat({to_bytes("s2c"), hello.view()}),
                                   32));
}

crypto::X25519Bytes to_share(ByteView bytes) {
  if (bytes.size() != crypto::kX25519Bytes)
    throw Error("secure channel: an X25519 share is 32 bytes");
  crypto::X25519Bytes share;
  std::copy(bytes.begin(), bytes.end(), share.begin());
  return share;
}

/// Counts one handshake in flight for its lifetime, and the high water.
class InFlight {
 public:
  InFlight(std::atomic<std::uint64_t>& count,
           std::atomic<std::uint64_t>& high_water)
      : count_(count) {
    obs::atomic_fetch_max(
        high_water, count_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  ~InFlight() { count_.fetch_sub(1, std::memory_order_relaxed); }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

 private:
  std::atomic<std::uint64_t>& count_;
};

/// What a refusal may tell an unauthenticated peer: a protocol-level code,
/// else the generic kAttestationRejected; a detail only for kNotLeader.
Status peer_refusal(const Status& status) {
  if (!is_protocol_level(status.code))
    return Status(StatusCode::kAttestationRejected);
  if (status.code != StatusCode::kNotLeader) return Status(status.code);
  return status;
}

}  // namespace

FixedBytes<64> channel_binding(ByteView client_dh_public) {
  const Hash256 h = crypto::sha256(client_dh_public);
  return FixedBytes<64>::from_view(h.view());  // zero padded to 64 bytes
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

SecureServer::SecureServer(const crypto::Ed25519KeyPair* identity,
                           crypto::Drbg rng, HandshakeHook on_handshake)
    : identity_(identity),
      rng_(std::move(rng), "secure-server", kRngStripes),
      on_handshake_(std::move(on_handshake)) {
  if (identity_ == nullptr) throw Error("secure server: identity required");
  if (!on_handshake_) throw Error("secure server: handshake hook required");
}

Result<Bytes> SecureServer::handle(ByteView record) {
  Result<Bytes> answer = answer_record(record);
  if (answer.ok()) {
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    return answer;
  }
  handshakes_rejected_.fetch_add(1, std::memory_order_relaxed);
  return peer_refusal(answer.status());
}

Result<Bytes> SecureServer::answer_record(ByteView record) {
  // The record's shape is checked before the hook runs: a peer speaking
  // another version, or sending a share of another length, never reaches
  // quote verification or a token spend.
  Bytes client_dh;
  Bytes client_payload;
  try {
    ByteReader r(record);
    if (r.u8() != kHandshakeVersion) return StatusCode::kUnsupportedVersion;
    client_dh = r.bytes();
    client_payload = r.bytes();
    r.expect_done();
  } catch (const ParseError&) {
    return StatusCode::kMalformedRequest;
  }
  if (client_dh.size() != crypto::kX25519Bytes)
    return StatusCode::kMalformedRequest;
  try {
    return accept(client_dh, client_payload);
  } catch (const Error&) {
    // Small-order X25519 shares or hook-level deserializer failures are
    // the generic refusal, never an exception escaping into (and killing
    // futures on) a frontend worker thread.
    return StatusCode::kAttestationRejected;
  }
}

Result<Bytes> SecureServer::accept(ByteView client_dh,
                                   ByteView client_payload) {
  const InFlight in_flight(in_flight_, sessions_high_water_);
  // Number the handshake for any active trace, so the phases below are
  // attributable to it.
  obs::TraceScope::set_session(
      next_session_.fetch_add(1, std::memory_order_relaxed));

  // The quote-verification hook — the expensive part of every attested
  // handshake — runs with no lock held: N racing handshakes verify N
  // quotes on N cores.
  lockrank::assert_none_held("handshake quote verification");
  Result<Bytes> answer = [&] {
    static obs::Phase& p_verify =
        obs::Tracer::instance().phase("quote_verify");
    obs::Span span(p_verify);
    return on_handshake_(client_payload, client_dh);
  }();
  if (!answer.ok()) return answer;

  // All key-establishment crypto stays outside every lock too. The DRBG
  // lease is held only for the 32-byte scalar draw; both ladders, the
  // hashes, the HKDF expansion, the seal and the Ed25519 identity
  // signature run lock-free.
  crypto::X25519Bytes server_share;
  crypto::X25519Bytes secret;
  {
    static obs::Phase& p_dh = obs::Tracer::instance().phase("dh_derive");
    obs::Span span(p_dh);
    crypto::X25519Bytes scalar;
    {
      auto lease = rng_.lease();
      lease.rng().generate(scalar.data(), scalar.size());
    }
    lockrank::assert_none_held("handshake key derivation");
    server_share = crypto::x25519_public(scalar);
    secret = crypto::x25519(scalar, to_share(client_dh));
  }
  const ByteView server_pub{server_share.data(), server_share.size()};
  Hash256 hello;
  const crypto::Aead key = [&] {
    static obs::Phase& p_hkdf = obs::Tracer::instance().phase("hkdf");
    obs::Span span(p_hkdf);
    hello = hello_hash(client_dh, server_pub, client_payload);
    return answer_key(secret, hello);
  }();
  Bytes sealed;
  {
    static obs::Phase& p_seal = obs::Tracer::instance().phase("record_seal");
    obs::Span span(p_seal);
    sealed = key.seal(kAnswerNonce, *answer, {});
  }
  crypto::Ed25519Signature signature;
  {
    static obs::Phase& p_sign =
        obs::Tracer::instance().phase("identity_sign");
    obs::Span span(p_sign);
    signature = identity_->sign(transcript_hash(hello, sealed).view());
  }

  ByteWriter w;
  w.bytes(server_pub);
  w.bytes(ByteView{signature.data(), signature.size()});
  w.bytes(sealed);
  return std::move(w).take();
}

SecureServer::Stats SecureServer::stats() const {
  Stats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.handshakes_rejected =
      handshakes_rejected_.load(std::memory_order_relaxed);
  s.stripe_collisions = rng_.collisions();
  s.sessions_high_water =
      sessions_high_water_.load(std::memory_order_relaxed);
  s.open_sessions = in_flight_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

SecureClient::SecureClient(crypto::Drbg rng) {
  rng.generate(scalar_.data(), scalar_.size());
  const crypto::X25519Bytes share = crypto::x25519_public(scalar_);
  dh_public_.assign(share.begin(), share.end());
}

Bytes SecureClient::offer(ByteView client_payload) const {
  ByteWriter w;
  w.u8(kHandshakeVersion);
  w.bytes(dh_public_);
  w.bytes(client_payload);
  return std::move(w).take();
}

Bytes SecureClient::finish(const crypto::Ed25519PublicKey& expected_server,
                           ByteView client_payload,
                           ByteView acceptance) const {
  try {
    ByteReader r(acceptance);
    const Bytes server_pub = r.bytes();
    const Bytes signature = r.bytes();
    const Bytes sealed = r.bytes();
    r.expect_done();
    // Server authentication: the expected verifier must have signed the
    // whole exchange. A mismatch — including a signature that is not 64
    // bytes — is an active attack, not a routine refusal -> throw.
    const Hash256 hello = hello_hash(dh_public_, server_pub, client_payload);
    if (expected_server.verify(transcript_hash(hello, sealed).view(),
                               signature)) {
      const crypto::X25519Bytes secret =
          crypto::x25519(scalar_, to_share(server_pub));
      if (std::optional<Bytes> answer =
              answer_key(secret, hello).open(kAnswerNonce, sealed, {}))
        return std::move(*answer);
    }
  } catch (const Error&) {
    // An acceptance that does not parse, or whose share is no usable
    // X25519 point, is no more the pinned verifier's than a bad signature.
  }
  throw IdentityMismatchError();
}

}  // namespace sinclave::net
