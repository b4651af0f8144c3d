#include "net/secure_channel.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/hkdf.h"
#include "crypto/sha256.h"
#include "obs/trace.h"

namespace sinclave::net {

namespace {

constexpr std::uint8_t kMsgHandshake = 0;
constexpr std::uint8_t kMsgData = 1;

/// Handshake record version, the byte after the marker: 3 since the
/// identity signature is Ed25519 (2 carried an RSA one). The first-format
/// record had no version byte: its share's u32 length (256) put 0x00
/// there, so it reads as version 0 and is refused typed.
constexpr std::uint8_t kHandshakeVersion = 3;

constexpr std::uint8_t kStatusRejected = 0;
constexpr std::uint8_t kStatusOk = 1;

/// DRBG stripes for handshake randomness (crypto::DrbgPool).
constexpr std::size_t kRngStripes = 8;

struct TrafficKeys {
  Bytes c2s;
  Bytes s2c;
};

/// SHA-256 of the whole handshake, every field length-prefixed. The server
/// signs it and both traffic keys derive from it, so a relay that rewrites
/// the session id, a share or a payload fails the client's identity check.
Hash256 transcript_hash(std::uint64_t session_id, ByteView client_share,
                        ByteView server_share, ByteView client_payload,
                        ByteView server_payload) {
  ByteWriter w;
  w.u8(kHandshakeVersion);
  w.u64(session_id);
  w.bytes(client_share);
  w.bytes(server_share);
  w.bytes(client_payload);
  w.bytes(server_payload);
  return crypto::sha256(w.data());
}

TrafficKeys derive_keys(const crypto::X25519Bytes& shared_secret,
                        const Hash256& transcript) {
  const ByteView secret{shared_secret.data(), shared_secret.size()};
  TrafficKeys keys;
  keys.c2s = crypto::hkdf(to_bytes("sinclave-channel"), secret,
                          concat({to_bytes("c2s"), transcript.view()}), 32);
  keys.s2c = crypto::hkdf(to_bytes("sinclave-channel"), secret,
                          concat({to_bytes("s2c"), transcript.view()}), 32);
  return keys;
}

crypto::X25519Bytes to_share(ByteView bytes) {
  if (bytes.size() != crypto::kX25519Bytes)
    throw Error("secure channel: an X25519 share is 32 bytes");
  crypto::X25519Bytes share;
  std::copy(bytes.begin(), bytes.end(), share.begin());
  return share;
}

/// Record nonce on the stack: u32(0) || u64(counter), little-endian —
/// byte-identical to the old ByteWriter-built heap nonce, without the
/// per-record allocation.
using NonceBuf = std::array<std::uint8_t, crypto::kAeadNonceSize>;
static_assert(crypto::kAeadNonceSize == 12);

NonceBuf counter_nonce(std::uint64_t counter) {
  NonceBuf nonce{};
  for (int i = 0; i < 8; ++i)
    nonce[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(counter >> (8 * i));
  return nonce;
}

ByteView view(const NonceBuf& nonce) {
  return ByteView{nonce.data(), nonce.size()};
}

/// Per-session associated data: str(direction) || u64(session_id). Built
/// once per session at key derivation and cached (the data path reuses
/// it for every record instead of re-serializing).
Bytes session_ad(std::string_view direction, std::uint64_t session_id) {
  ByteWriter w;
  w.str(direction);
  w.u64(session_id);
  return std::move(w).take();
}

Bytes rejection_record() {
  ByteWriter w;
  w.u8(kStatusRejected);
  return std::move(w).take();
}

/// marker | u8 code [| str detail]; only kNotLeader sends its detail.
Bytes rejection_record(const Status& status) {
  ByteWriter w;
  w.u8(kStatusRejected);
  w.u8(static_cast<std::uint8_t>(status.code));
  if (status.code == StatusCode::kNotLeader &&
      status.detail.size() <= kMaxRejectDetail)
    w.str(status.detail);
  return std::move(w).take();
}

/// A handshake rejection after its marker, whitelisted through
/// is_protocol_level: anything else — a hostile 0 = "ok", bytes outside
/// the enum, no code at all — is the generic rejection, so a rejected
/// handshake never reads as success. Only kNotLeader keeps a detail, and
/// only a whole one: a truncated, oversized or trailed one is dropped.
Status read_rejection(ByteReader& r) {
  const auto code = r.done() ? StatusCode::kAttestationRejected
                             : static_cast<StatusCode>(r.u8());
  if (!is_protocol_level(code)) return Status(StatusCode::kAttestationRejected);
  Status status(code);
  if (code != StatusCode::kNotLeader) return status;
  try {
    std::string detail = r.str();
    if (r.done() && detail.size() <= kMaxRejectDetail)
      status.detail = std::move(detail);
  } catch (const ParseError&) {
  }
  return status;
}

}  // namespace

FixedBytes<64> channel_binding(ByteView client_dh_public) {
  const Hash256 h = crypto::sha256(client_dh_public);
  return FixedBytes<64>::from_view(h.view());  // zero padded to 64 bytes
}

RecordType classify_record(ByteView raw) {
  if (raw.empty()) return RecordType::kUnknown;
  if (raw[0] == kMsgHandshake) return RecordType::kHandshake;
  if (raw[0] == kMsgData) return RecordType::kData;
  return RecordType::kUnknown;
}

std::optional<std::uint64_t> peek_session_id(ByteView raw) {
  // Data record: u8 kMsgData | u64 session_id (LE) | u64 counter | bytes.
  if (raw.size() < 9 || raw[0] != kMsgData) return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i)
    id |= static_cast<std::uint64_t>(raw[1 + i]) << (8 * i);
  return id;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

SecureServer::SecureServer(const crypto::Ed25519KeyPair* identity,
                           crypto::Drbg rng, HandshakeHook on_handshake,
                           RequestHandler on_request)
    : identity_(identity),
      rng_(std::move(rng), "secure-server", kRngStripes),
      on_handshake_(std::move(on_handshake)),
      on_request_(std::move(on_request)) {
  if (identity_ == nullptr) throw Error("secure server: identity required");
  if (!on_handshake_ || !on_request_)
    throw Error("secure server: hooks required");
}

Bytes SecureServer::handle(ByteView raw) {
  try {
    ByteReader r(raw);
    const std::uint8_t type = r.u8();
    if (type == kMsgHandshake) return handle_handshake(r);
    if (type == kMsgData) return handle_data(r);
    return rejection_record();
  } catch (const Error&) {
    // Not just ParseError: small-order X25519 shares or hook-level
    // deserializer failures must answer a clean rejection, never escape
    // into (and kill futures on) a frontend worker thread.
    return rejection_record();
  }
}

Bytes SecureServer::handle_handshake(ByteReader& r) {
  const auto refuse = [this](const Status& status) {
    handshakes_rejected_.fetch_add(1, std::memory_order_relaxed);
    return rejection_record(status);
  };
  // The record's shape is checked before the hook runs: a peer speaking
  // another version, or sending a share of another length, never reaches
  // quote verification or a token spend.
  if (r.u8() != kHandshakeVersion)
    return refuse(Status(StatusCode::kUnsupportedVersion));
  const Bytes client_dh = r.bytes();
  if (client_dh.size() != crypto::kX25519Bytes)
    return refuse(Status(StatusCode::kMalformedRequest));
  const Bytes client_payload = r.bytes();
  r.expect_done();

  const std::uint64_t session_id =
      next_session_.fetch_add(1, std::memory_order_relaxed);
  // Bind the freshly-allocated session into any active trace so the
  // handshake phases below are attributable to it.
  obs::TraceScope::set_session(session_id);

  // The quote-verification hook — the expensive part of every attested
  // handshake — runs with no lock held: N racing handshakes verify N
  // quotes on N cores.
  lockrank::assert_none_held("handshake quote verification");
  Status reject_status(StatusCode::kAttestationRejected);
  std::optional<Accepted> accepted;
  {
    static obs::Phase& p_verify =
        obs::Tracer::instance().phase("quote_verify");
    obs::Span span(p_verify);
    accepted = on_handshake_(client_payload, client_dh, &reject_status);
  }
  if (!accepted.has_value()) return refuse(reject_status);

  // All key-establishment crypto stays outside every lock too. The DRBG
  // lease is held only for the 32-byte scalar draw; both ladders, the
  // transcript hash, the HKDF expansion, and the Ed25519 identity
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
  Hash256 transcript;
  TrafficKeys keys;
  {
    static obs::Phase& p_hkdf = obs::Tracer::instance().phase("hkdf");
    obs::Span span(p_hkdf);
    transcript = transcript_hash(session_id, client_dh, server_pub,
                                 client_payload, accepted->payload);
    keys = derive_keys(secret, transcript);
  }
  crypto::Ed25519Signature signature;
  {
    static obs::Phase& p_sign =
        obs::Tracer::instance().phase("identity_sign");
    obs::Span span(p_sign);
    signature = identity_->sign(transcript.view());
  }

  // Publish the fully-derived session: the only stripe-lock work on the
  // handshake path is this hash-map insert.
  auto session = std::make_shared<Session>(
      crypto::Aead(keys.c2s), crypto::Aead(keys.s2c),
      session_ad("c2s", session_id), session_ad("s2c", session_id),
      std::move(accepted->peer));
  session->last_activity_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  {
    static obs::Phase& p_publish =
        obs::Tracer::instance().phase("session_publish");
    obs::Span span(p_publish);
    Stripe& stripe = stripe_for(session_id);
    ContendedMutexLock lock(stripe.m, stripe_collisions_);
    stripe.sessions.emplace(session_id, std::move(session));
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t open =
      open_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t seen = sessions_high_water_.load(std::memory_order_relaxed);
  while (open > seen && !sessions_high_water_.compare_exchange_weak(
                            seen, open, std::memory_order_relaxed)) {
  }

  ByteWriter w;
  w.u8(kStatusOk);
  w.u64(session_id);
  w.bytes(server_pub);
  w.bytes(ByteView{signature.data(), signature.size()});
  w.bytes(accepted->payload);
  return std::move(w).take();
}

Bytes SecureServer::handle_data(ByteReader& r) {
  const std::uint64_t session_id = r.u64();
  const std::uint64_t counter = r.u64();
  const Bytes ciphertext = r.bytes();
  r.expect_done();
  obs::TraceScope::set_session(session_id);

  // Stripe lock only for the lookup; the shared_ptr keeps the session
  // (and its keys) alive past any concurrent close_session, so a racing
  // close can never tear a decrypt out from under us.
  std::shared_ptr<Session> session;
  {
    Stripe& stripe = stripe_for(session_id);
    ContendedMutexLock lock(stripe.m, stripe_collisions_);
    const auto it = stripe.sessions.find(session_id);
    if (it != stripe.sessions.end()) session = it->second;
  }
  if (session == nullptr)
    return rejection_record(Status(StatusCode::kSessionNotAttested));
  // Stamp before serving: a session being actively driven never looks
  // idle to the sweep, however long the request handler runs.
  session->last_activity_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);

  // Records of one session serialize on its own lock (the counter
  // discipline needs exactly that); records of other sessions proceed in
  // parallel. Alias first, lock through the alias: thread-safety analysis
  // matches guarded accesses below against the lock expression s.m.
  Session& s = *session;
  MutexLock session_lock(s.m);
  if (s.closed.load(std::memory_order_acquire)) {
    // close_session won the race: deterministic typed rejection.
    return rejection_record(Status(StatusCode::kSessionNotAttested));
  }
  // Strictly increasing counters prevent replay within a session.
  if (counter < s.recv_counter) return rejection_record();
  std::optional<Bytes> plaintext;
  {
    static obs::Phase& p_open = obs::Tracer::instance().phase("record_open");
    obs::Span span(p_open);  // span recording never acquires a lock, so
                             // running under the session lock is fine
    plaintext = s.c2s.open(view(counter_nonce(counter)), ciphertext, s.ad_c2s);
  }
  if (!plaintext.has_value()) return rejection_record();
  s.recv_counter = counter + 1;

  const Bytes response = on_request_(session_id, s.peer, *plaintext);
  const std::uint64_t send_counter = s.send_counter++;
  ByteWriter w;
  w.u8(kStatusOk);
  w.u64(send_counter);
  {
    static obs::Phase& p_seal = obs::Tracer::instance().phase("record_seal");
    obs::Span span(p_seal);
    w.bytes(
        s.s2c.seal(view(counter_nonce(send_counter)), response, s.ad_s2c));
  }
  return std::move(w).take();
}

void SecureServer::close_session(std::uint64_t session_id) {
  std::shared_ptr<Session> session;
  {
    Stripe& stripe = stripe_for(session_id);
    ContendedMutexLock lock(stripe.m, stripe_collisions_);
    const auto it = stripe.sessions.find(session_id);
    if (it == stripe.sessions.end()) return;
    session = std::move(it->second);
    stripe.sessions.erase(it);
  }
  // Flag it closed WITHOUT taking the session lock: a request handler may
  // call close_session for its own session (it holds that lock), and an
  // in-flight record that already entered the session completes normally
  // — the close then applies to every later record.
  session->closed.store(true, std::memory_order_release);
  open_count_.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t SecureServer::sweep_idle(std::chrono::nanoseconds idle_ttl) {
  if (idle_ttl.count() <= 0) return 0;
  const std::int64_t cutoff =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() -
      idle_ttl.count();
  Stripe& stripe =
      stripes_[sweep_cursor_.fetch_add(1, std::memory_order_relaxed) %
               kStripes];
  // Reaped sessions leave the stripe under its lock but are destroyed —
  // AEAD contexts and all — outside it.
  std::vector<std::shared_ptr<Session>> reaped;
  {
    ContendedMutexLock lock(stripe.m, stripe_collisions_);
    for (auto it = stripe.sessions.begin(); it != stripe.sessions.end();) {
      if (it->second->last_activity_ns.load(std::memory_order_relaxed) <=
          cutoff) {
        reaped.push_back(std::move(it->second));
        it = stripe.sessions.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& session : reaped) {
    // Same close discipline as close_session: flag without the session
    // lock; an in-flight record that already entered completes normally,
    // every later record gets the typed kSessionNotAttested rejection.
    session->closed.store(true, std::memory_order_release);
    open_count_.fetch_sub(1, std::memory_order_relaxed);
    sessions_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  return reaped.size();
}

SecureServer::Stats SecureServer::stats() const {
  Stats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.handshakes_rejected =
      handshakes_rejected_.load(std::memory_order_relaxed);
  s.stripe_collisions =
      stripe_collisions_.load(std::memory_order_relaxed) + rng_.collisions();
  s.sessions_high_water =
      sessions_high_water_.load(std::memory_order_relaxed);
  s.open_sessions = open_count_.load(std::memory_order_relaxed);
  s.sessions_expired = sessions_expired_.load(std::memory_order_relaxed);
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

std::optional<Bytes> SecureClient::connect(
    SimNetwork::Connection connection,
    const crypto::Ed25519PublicKey& expected_server, ByteView client_payload,
    Status* reject_status) {
  ByteWriter req;
  req.u8(kMsgHandshake);
  req.u8(kHandshakeVersion);
  req.bytes(dh_public_);
  req.bytes(client_payload);
  const Bytes raw = connection.call(req.data());

  ByteReader r(raw);
  if (r.u8() != kStatusOk) {
    if (reject_status != nullptr) *reject_status = read_rejection(r);
    return std::nullopt;
  }
  const std::uint64_t session_id = r.u64();
  const Bytes server_pub = r.bytes();
  const Bytes signature = r.bytes();
  const Bytes server_payload = r.bytes();
  r.expect_done();

  // Server authentication: the expected verifier must have signed the
  // handshake transcript. A mismatch — including a signature that is not
  // 64 bytes — is an active attack, not a routine rejection -> throw.
  const Hash256 transcript = transcript_hash(
      session_id, dh_public_, server_pub, client_payload, server_payload);
  if (!expected_server.verify(transcript.view(), signature))
    throw IdentityMismatchError();

  const crypto::X25519Bytes secret =
      crypto::x25519(scalar_, to_share(server_pub));
  TrafficKeys keys = derive_keys(secret, transcript);
  session_.emplace(Session{connection, session_id, crypto::Aead(keys.c2s),
                           crypto::Aead(keys.s2c),
                           session_ad("c2s", session_id),
                           session_ad("s2c", session_id), 0, 0});
  return server_payload;
}

Bytes SecureClient::call(ByteView plaintext) {
  if (!session_.has_value()) throw Error("secure channel: not connected");
  Session& s = *session_;

  const std::uint64_t counter = s.send_counter++;
  ByteWriter req;
  req.u8(kMsgData);
  req.u64(s.id);
  req.u64(counter);
  req.bytes(s.c2s.seal(view(counter_nonce(counter)), plaintext, s.ad_c2s));
  const Bytes raw = s.connection.call(req.data());

  ByteReader r(raw);
  if (r.u8() != kStatusOk) {
    // A typed rejection status may ride after the marker (e.g.
    // kSessionNotAttested when the server closed this session); the
    // whitelist mirrors the handshake path — out-of-enum bytes or a
    // hostile "ok" stay the generic rejection.
    if (!r.done()) {
      const auto code = static_cast<StatusCode>(r.u8());
      if (is_protocol_level(code) ||
          code == StatusCode::kSessionNotAttested)
        throw RecordRejectedError(code);
    }
    throw Error("secure channel: request rejected");
  }
  const std::uint64_t resp_counter = r.u64();
  const Bytes ciphertext = r.bytes();
  r.expect_done();
  if (resp_counter < s.recv_counter)
    throw Error("secure channel: replayed response");
  const auto plain =
      s.s2c.open(view(counter_nonce(resp_counter)), ciphertext, s.ad_s2c);
  if (!plain.has_value())
    throw Error("secure channel: response authentication failed");
  s.recv_counter = resp_counter + 1;
  return *plain;
}

}  // namespace sinclave::net
