// Secure-channel exchanges against a LIVE server.
//
// SecureServer::handle is the outermost attacker-facing byte boundary of
// the attested exchange; its contract is total: any byte string answers
// with an acceptance or a refusal and NEVER throws — a thrown record
// would kill a frontend worker thread — and a refusal tells the peer only
// a protocol-level code or the generic kAttestationRejected, with a detail
// only for kNotLeader. The client half faces a malicious server: finish
// on arbitrary acceptance bytes may fail only with IdentityMismatchError.
// And garbage must not corrupt server state: an honest client's exchange
// must still succeed afterwards. A relay that rewrites one field of the
// honest acceptance — the server's share, its Ed25519 signature (a flipped
// bit, S + L, another R, a cut or extended field) or the sealed answer —
// must make finish throw IdentityMismatchError and open nothing.
//
// Mode 4 answered the client with hostile rejection records, which the
// envelope's Status replaced (fuzz_envelope and fuzz_status_details cover
// it); it is retired in place, so the other modes keep their numbers.
#include "harnesses.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "fuzz_util.h"
#include "net/secure_channel.h"

namespace sinclave::fuzz {
namespace {

const crypto::Ed25519KeyPair& server_identity() {
  static const crypto::Ed25519KeyPair key = [] {
    crypto::Drbg rng = crypto::Drbg::from_seed(21, "fuzz-secure-identity");
    return crypto::Ed25519KeyPair::generate(rng);
  }();
  return key;
}

/// Accept-all server: the handshake hook admits every client (quote
/// verification is the protocol_session harness's business) and answers
/// with the client's payload. Fresh per input.
std::unique_ptr<net::SecureServer> make_server(std::uint64_t seed) {
  return std::make_unique<net::SecureServer>(
      &server_identity(), crypto::Drbg::from_seed(seed, "fuzz-secure-rng"),
      [](ByteView payload, ByteView) {
        return Result<Bytes>(Bytes(payload.begin(), payload.end()));
      });
}

/// The acceptance `share | signature | sealed answer`, field by field.
struct Acceptance {
  Bytes share;
  Bytes signature;
  Bytes sealed;

  static Acceptance parse(ByteView raw) {
    ByteReader r(raw);
    Acceptance a;
    a.share = r.bytes();
    a.signature = r.bytes();
    a.sealed = r.bytes();
    r.expect_done();
    require(a.signature.size() == crypto::kEd25519SignatureBytes,
            "honest acceptance carries a signature that is not 64 bytes");
    return a;
  }

  Bytes serialize() const {
    ByteWriter w;
    w.bytes(share);
    w.bytes(signature);
    w.bytes(sealed);
    return std::move(w).take();
  }
};

/// An even `kind` flips one bit of `field`; an odd one cuts it, or extends
/// it with `filler`, by 1..64 bytes.
void mangle(Bytes& field, std::uint8_t kind, std::uint32_t position,
            const Bytes& filler) {
  if (kind % 2 == 0) {
    field[(position / 8) % field.size()] ^=
        static_cast<std::uint8_t>(1u << (position % 8));
    return;
  }
  const std::size_t n = 1 + position % 64;
  if ((position & 0x100) != 0) {
    field.resize(field.size() - std::min(n, field.size()));
  } else {
    const std::size_t size = field.size();
    field.insert(field.end(), filler.begin(),
                 filler.begin() + std::min(n, filler.size()));
    field.resize(size + n);
  }
}

/// The signature rewrites: kind 0 flips one bit, 1 adds L to S, 2
/// replaces R, 3 cuts or extends the field by 1..64 bytes.
void rewrite_signature(Bytes& signature, std::uint8_t kind,
                       std::uint32_t position, const Bytes& filler) {
  switch (kind % 4) {
    case 0:
      mangle(signature, 0, position, filler);
      break;
    case 1: {
      // L, little-endian: S + L < 2^254 fits the 32 bytes.
      static constexpr std::uint8_t kL[32] = {
          0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
          0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
          0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
      unsigned carry = 0;
      for (std::size_t i = 0; i < 32; ++i) {
        const unsigned sum = signature[32 + i] + kL[i] + carry;
        signature[32 + i] = static_cast<std::uint8_t>(sum);
        carry = sum >> 8;
      }
      break;
    }
    case 2:
      std::fill_n(signature.begin(), 32, std::uint8_t{0});
      std::copy_n(filler.begin(), std::min<std::size_t>(filler.size(), 32),
                  signature.begin());
      break;
    default:
      mangle(signature, 1, position, filler);
      break;
  }
}

/// Which field of the acceptance a relay mode rewrites.
enum class Field { kShare, kSignature, kSealed };

/// A relay passes the honest server's acceptance through with one field
/// rewritten. A rewrite must make finish throw IdentityMismatchError and
/// open nothing; one that happens to leave the bytes as they were must
/// still open the honest answer.
void relay_rewriting(FuzzInput& in, Field field, std::uint64_t seed) {
  const std::uint8_t kind = in.u8();
  const std::uint32_t position = in.u32();
  const Bytes filler = in.take(64);
  const auto server = make_server(seed);
  net::SecureClient client(
      crypto::Drbg::from_seed(seed + 1, "fuzz-secure-relayed"));
  const Bytes payload{'c', 'f', 'g'};
  const Result<Bytes> honest = server->handle(client.offer(payload));
  require(honest.ok(), "accept-all server refused an honest record");
  Acceptance a = Acceptance::parse(*honest);
  switch (field) {
    case Field::kShare:
      mangle(a.share, kind, position, filler);
      break;
    case Field::kSignature:
      rewrite_signature(a.signature, kind, position, filler);
      break;
    case Field::kSealed:
      mangle(a.sealed, kind, position, filler);
      break;
  }
  const Bytes relayed = a.serialize();
  const bool changed = relayed != *honest;
  std::optional<Bytes> opened;
  bool mismatch = false;
  try {
    opened = client.finish(server_identity().public_key(), payload, relayed);
  } catch (const net::IdentityMismatchError&) {
    mismatch = true;
  }
  require(mismatch == changed,
          "a rewritten acceptance passed, or an intact one failed");
  require(changed ? !opened.has_value() : opened == payload,
          "client opened an answer from a rewritten acceptance");
}

void honest_exchange(net::SecureServer& server) {
  net::SecureClient client(crypto::Drbg::from_seed(22, "fuzz-secure-client"));
  const Bytes ping{'p', 'i', 'n', 'g'};
  const Result<Bytes> acceptance = server.handle(client.offer(ping));
  require(acceptance.ok(), "honest handshake rejected after garbage");
  require(client.finish(server_identity().public_key(), ping, *acceptance) ==
              ping,
          "honest answer corrupted after garbage");
}

}  // namespace

int run_secure_record(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 6) {
    case 0: {
      // Garbage records straight into handle(): nothing may escape, every
      // refusal keeps the peer rule, nothing stays in flight, and the
      // server survives for an honest client.
      const auto server = make_server(23);
      int rounds = 0;
      while (!in.empty() && rounds++ < 8) {
        const Result<Bytes> answer = server->handle(in.chunk());
        if (answer.ok()) continue;  // a well-formed record, accepted
        const Status& refusal = answer.status();
        require(is_protocol_level(refusal.code) ||
                    refusal.code == StatusCode::kAttestationRejected,
                "refusal code escaped the peer rule");
        require(refusal.detail.empty(), "refusal carried a detail");
      }
      const auto stats = server->stats();
      require(stats.open_sessions == 0 && stats.sessions_high_water <= 1,
              "a handshake stayed in flight after its answer");
      honest_exchange(*server);
      break;
    }
    case 1:
      relay_rewriting(in, Field::kShare, 24);
      break;
    case 2: {
      // Malicious server vs finishing client: arbitrary acceptance bytes.
      // Only the identity check may fail, and nothing opens.
      const Bytes acceptance = in.rest();
      net::SecureClient client(
          crypto::Drbg::from_seed(26, "fuzz-secure-victim"));
      bool mismatch = false;
      try {
        (void)client.finish(server_identity().public_key(), Bytes{},
                            acceptance);
      } catch (const net::IdentityMismatchError&) {
        mismatch = true;
      }
      require(mismatch, "client accepted a forged acceptance");
      break;
    }
    case 3:
      relay_rewriting(in, Field::kSealed, 27);
      break;
    case 4:  // retired
      break;
    case 5:
      relay_rewriting(in, Field::kSignature, 30);
      break;
  }
  return 0;
}

}  // namespace sinclave::fuzz
