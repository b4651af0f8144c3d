// Secure-channel record handling against LIVE sessions.
//
// SecureServer::handle is the outermost attacker-facing byte boundary of
// the attested endpoint; its contract is total: any byte string answers
// with a record (rejection at worst) and NEVER throws — a thrown record
// would kill a frontend worker thread. The client half faces a malicious
// server: connect/call on arbitrary response bytes may fail only with the
// typed channel errors, and a hostile rejection record reads as a typed
// rejection — the generic one unless its code is whitelisted, with a
// detail only for a well-formed kNotLeader. And garbage must not corrupt
// server state: an honest client's handshake and round trip must still
// succeed afterwards. A relay that rewrites only the honest acceptance's
// Ed25519 signature (a flipped bit, S + L, another R, a cut or extended
// field) must make connect throw IdentityMismatchError and open nothing.
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
/// verification is the protocol_session harness's business), the request
/// handler echoes. Fresh per input so sessions never leak across runs.
std::unique_ptr<net::SecureServer> make_server(std::uint64_t seed) {
  return std::make_unique<net::SecureServer>(
      &server_identity(), crypto::Drbg::from_seed(seed, "fuzz-secure-rng"),
      [](ByteView, ByteView, Status*) {
        return net::SecureServer::Accepted{};
      },
      [](std::uint64_t, const std::string&, ByteView plaintext) {
        return Bytes(plaintext.begin(), plaintext.end());
      });
}

/// The acceptance `ok | u64 session | share | signature | payload` with its
/// signature field rewritten: kind 0 flips one bit, 1 adds L to S, 2
/// replaces R, 3 cuts or extends the field by 1..64 bytes.
Bytes rewrite_signature(ByteView acceptance, std::uint8_t kind,
                        std::uint32_t position, const Bytes& filler) {
  ByteReader r(acceptance);
  const std::uint8_t status = r.u8();
  const std::uint64_t session_id = r.u64();
  const Bytes share = r.bytes();
  Bytes signature = r.bytes();
  const Bytes payload = r.bytes();
  r.expect_done();
  require(signature.size() == crypto::kEd25519SignatureBytes,
          "honest acceptance carries a signature that is not 64 bytes");
  switch (kind % 4) {
    case 0:
      signature[(position / 8) % 64] ^=
          static_cast<std::uint8_t>(1u << (position % 8));
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
    default: {
      const std::size_t n = 1 + position % 64;
      if ((position & 0x100) != 0) {
        signature.resize(signature.size() - n);
      } else {
        signature.insert(signature.end(), filler.begin(),
                         filler.begin() + std::min(n, filler.size()));
        signature.resize(crypto::kEd25519SignatureBytes + n);
      }
      break;
    }
  }
  ByteWriter w;
  w.u8(status);
  w.u64(session_id);
  w.bytes(share);
  w.bytes(signature);
  w.bytes(payload);
  return std::move(w).take();
}

void honest_round_trip(net::SimNetwork& net, const char* address) {
  net::SecureClient client(crypto::Drbg::from_seed(22, "fuzz-secure-client"));
  const auto accepted = client.connect(
      net.connect(address), server_identity().public_key(), Bytes{});
  require(accepted.has_value(),
          "honest handshake rejected after garbage records");
  const Bytes ping{'p', 'i', 'n', 'g'};
  require(client.call(ping) == ping,
          "honest round trip corrupted after garbage records");
}

}  // namespace

int run_secure_record(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 6) {
    case 0: {
      // Garbage records straight into handle(); nothing may escape, every
      // answer is a record, and the server survives for an honest client.
      const auto server = make_server(23);
      net::SimNetwork net;
      net.listen("srv", [&server](ByteView raw) { return server->handle(raw); });
      int rounds = 0;
      while (!in.empty() && rounds++ < 8) {
        const Bytes record = in.chunk();
        const Bytes answer = server->handle(record);
        require(!answer.empty(), "server answered a record with silence");
        (void)net::classify_record(record);
        (void)net::peek_session_id(record);
      }
      const auto stats = server->stats();
      require(stats.open_sessions == server->open_sessions() &&
                  stats.open_sessions <= stats.sessions_opened,
              "session accounting inconsistent after garbage");
      honest_round_trip(net, "srv");
      break;
    }
    case 1: {
      // Garbage aimed at an ESTABLISHED session: same session id, fuzzed
      // counter/ciphertext. The session must survive (bad records are
      // rejected, not torn) and the honest client must keep working.
      const auto server = make_server(24);
      net::SimNetwork net;
      net.listen("srv", [&server](ByteView raw) { return server->handle(raw); });
      net::SecureClient client(
          crypto::Drbg::from_seed(25, "fuzz-secure-established"));
      const auto accepted = client.connect(
          net.connect("srv"), server_identity().public_key(), Bytes{});
      require(accepted.has_value(), "clean handshake rejected");
      const std::uint64_t session_id = 1;  // first session of a fresh server
      int rounds = 0;
      while (!in.empty() && rounds++ < 8) {
        ByteWriter w;
        w.u8(1);  // kMsgData
        w.u64(session_id);
        w.u64(in.u64());  // fuzzed counter
        w.bytes(in.chunk());
        (void)server->handle(std::move(w).take());
      }
      const Bytes ping{'o', 'k'};
      require(client.call(ping) == ping,
              "forged records broke an established session");
      break;
    }
    case 2: {
      // Malicious server vs connecting client: arbitrary handshake
      // response bytes. Typed outcomes only.
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
    case 3: {
      // Malicious server vs an established client: handshake honestly,
      // then answer the data record with fuzz bytes.
      const Bytes response = in.rest();
      const auto server = make_server(27);
      net::SimNetwork net;
      net.listen("mitm", [&server, &response](ByteView raw) {
        if (net::classify_record(raw) == net::RecordType::kHandshake)
          return server->handle(raw);
        return response;
      });
      net::SecureClient client(
          crypto::Drbg::from_seed(28, "fuzz-secure-mitm"));
      const auto accepted = client.connect(
          net.connect("mitm"), server_identity().public_key(), Bytes{});
      require(accepted.has_value(), "clean handshake rejected");
      try {
        (void)client.call(Bytes{'x'});
        require(false, "client accepted a forged data response");
      } catch (const net::RecordRejectedError&) {
      } catch (const Error&) {
      }
      break;
    }
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
    case 5: {
      // A relay passes the honest server's acceptance through with only
      // its signature rewritten. If the rewrite happens to leave the
      // bytes as they were, the handshake must still succeed.
      const std::uint8_t kind = in.u8();
      const std::uint32_t position = in.u32();
      const Bytes filler = in.take(64);
      const auto server = make_server(30);
      net::SimNetwork net;
      bool changed = false;
      net.listen("relay", [&](ByteView raw) {
        const Bytes honest = server->handle(raw);
        const Bytes relayed =
            rewrite_signature(honest, kind, position, filler);
        changed = relayed != honest;
        return relayed;
      });
      net::SecureClient client(
          crypto::Drbg::from_seed(31, "fuzz-secure-relayed"));
      bool mismatch = false;
      try {
        (void)client.connect(net.connect("relay"),
                             server_identity().public_key(), Bytes{});
      } catch (const net::IdentityMismatchError&) {
        mismatch = true;
      }
      require(mismatch == changed,
              "a rewritten signature passed, or an intact one failed");
      require(client.connected() == !changed,
              "client opened a session on a rewritten signature");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
