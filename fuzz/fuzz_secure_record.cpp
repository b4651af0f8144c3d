// Secure-channel exchanges against a LIVE server.
//
// SecureServer::handle is the outermost attacker-facing byte boundary of
// the attested endpoint; its contract is total: any byte string answers
// with a record (rejection at worst) and NEVER throws — a thrown record
// would kill a frontend worker thread. The client half faces a malicious
// server: connect on arbitrary answer bytes may fail only with the typed
// channel errors, and a hostile rejection record reads as a typed
// rejection — the generic one unless its code is whitelisted, with a
// detail only for a well-formed kNotLeader. And garbage must not corrupt
// server state: an honest client's exchange must still succeed afterwards.
// A relay that rewrites one field of the honest acceptance — the server's
// share, its Ed25519 signature (a flipped bit, S + L, another R, a cut or
// extended field) or the sealed answer — must make connect throw
// IdentityMismatchError and open nothing.
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
#include "net/sim_network.h"

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
      [](ByteView payload, ByteView, Status*) {
        return std::optional<Bytes>(Bytes(payload.begin(), payload.end()));
      });
}

/// The acceptance `ok | share | signature | sealed answer`, field by field.
struct Acceptance {
  std::uint8_t status = 0;
  Bytes share;
  Bytes signature;
  Bytes sealed;

  static Acceptance parse(ByteView raw) {
    ByteReader r(raw);
    Acceptance a;
    a.status = r.u8();
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
    w.u8(status);
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
/// rewritten. A rewrite must make connect throw IdentityMismatchError and
/// open nothing; one that happens to leave the bytes as they were must
/// still open the honest answer.
void relay_rewriting(FuzzInput& in, Field field, std::uint64_t seed) {
  const std::uint8_t kind = in.u8();
  const std::uint32_t position = in.u32();
  const Bytes filler = in.take(64);
  const auto server = make_server(seed);
  net::SimNetwork net;
  bool changed = false;
  net.listen("relay", [&](ByteView raw) {
    const Bytes honest = server->handle(raw);
    Acceptance a = Acceptance::parse(honest);
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
    changed = relayed != honest;
    return relayed;
  });
  net::SecureClient client(
      crypto::Drbg::from_seed(seed + 1, "fuzz-secure-relayed"));
  const Bytes payload{'c', 'f', 'g'};
  std::optional<Bytes> opened;
  bool mismatch = false;
  try {
    opened = client.connect(net.connect("relay"),
                            server_identity().public_key(), payload);
  } catch (const net::IdentityMismatchError&) {
    mismatch = true;
  }
  require(mismatch == changed,
          "a rewritten acceptance passed, or an intact one failed");
  require(changed ? !opened.has_value() : opened == payload,
          "client opened an answer from a rewritten acceptance");
}

void honest_exchange(net::SimNetwork& net, const char* address) {
  net::SecureClient client(crypto::Drbg::from_seed(22, "fuzz-secure-client"));
  const Bytes ping{'p', 'i', 'n', 'g'};
  const auto answer = client.connect(
      net.connect(address), server_identity().public_key(), ping);
  require(answer.has_value(), "honest handshake rejected after garbage");
  require(*answer == ping, "honest answer corrupted after garbage");
}

}  // namespace

int run_secure_record(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 6) {
    case 0: {
      // Garbage records straight into handle(); nothing may escape, every
      // answer is a record, nothing stays in flight, and the server
      // survives for an honest client.
      const auto server = make_server(23);
      net::SimNetwork net;
      net.listen("srv", [&server](ByteView raw) { return server->handle(raw); });
      int rounds = 0;
      while (!in.empty() && rounds++ < 8) {
        const Bytes answer = server->handle(in.chunk());
        require(!answer.empty(), "server answered a record with silence");
      }
      const auto stats = server->stats();
      require(stats.open_sessions == 0 && stats.sessions_high_water <= 1,
              "a handshake stayed in flight after its answer");
      honest_exchange(net, "srv");
      break;
    }
    case 1:
      relay_rewriting(in, Field::kShare, 24);
      break;
    case 2: {
      // Malicious server vs connecting client: arbitrary answer bytes.
      // Typed outcomes only.
      const Bytes response = in.rest();
      net::SimNetwork net;
      net.listen("evil", [&response](ByteView) { return response; });
      net::SecureClient client(
          crypto::Drbg::from_seed(26, "fuzz-secure-victim"));
      try {
        Status reject;
        const auto outcome =
            client.connect(net.connect("evil"),
                           server_identity().public_key(), Bytes{}, &reject);
        if (outcome.has_value())
          require(false, "client accepted a forged handshake");
      } catch (const net::IdentityMismatchError&) {
      } catch (const Error&) {
      }
      break;
    }
    case 3:
      relay_rewriting(in, Field::kSealed, 27);
      break;
    case 4: {
      // Hostile rejection records: the "rejected" marker, then fuzz bytes
      // for the code and whatever follows it.
      const Bytes tail = in.rest();
      Bytes record{0};
      record.insert(record.end(), tail.begin(), tail.end());
      net::SimNetwork net;
      net.listen("refuser", [&record](ByteView) { return record; });
      net::SecureClient client(
          crypto::Drbg::from_seed(29, "fuzz-secure-refused"));
      Status rejected;
      bool accepted = true;
      try {
        accepted = client
                       .connect(net.connect("refuser"),
                                server_identity().public_key(), Bytes{},
                                &rejected)
                       .has_value();
      } catch (const Error&) {
        require(false, "connect threw on a rejection record");
      }
      require(!accepted, "client accepted a rejection record");
      const StatusCode sent = tail.empty()
                                  ? StatusCode::kAttestationRejected
                                  : static_cast<StatusCode>(tail[0]);
      require(rejected.code == (is_protocol_level(sent)
                                    ? sent
                                    : StatusCode::kAttestationRejected),
              "rejection code escaped the whitelist");
      // The detail the record carries when it is exactly one in-bounds
      // string after a kNotLeader code; anything else keeps none.
      std::string whole;
      if (rejected.code == StatusCode::kNotLeader && tail.size() > 1) {
        try {
          ByteReader r(ByteView(tail).subspan(1));
          whole = r.str();
          if (!r.done() || whole.size() > net::kMaxRejectDetail) whole.clear();
        } catch (const ParseError&) {
        }
      }
      require(rejected.detail == whole,
              "rejection detail kept when malformed, or dropped when whole");
      break;
    }
    case 5:
      relay_rewriting(in, Field::kSignature, 30);
      break;
  }
  return 0;
}

}  // namespace sinclave::fuzz
