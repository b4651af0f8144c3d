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
// succeed afterwards.
#include "harnesses.h"

#include <memory>
#include <optional>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "fuzz_util.h"
#include "net/secure_channel.h"
#include "net/sim_network.h"

namespace sinclave::fuzz {
namespace {

const crypto::RsaKeyPair& server_identity() {
  static const crypto::RsaKeyPair key = [] {
    crypto::Drbg rng = crypto::Drbg::from_seed(21, "fuzz-secure-identity");
    return crypto::RsaKeyPair::generate(rng, 1024);
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

  switch (mode % 5) {
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
  }
  return 0;
}

}  // namespace sinclave::fuzz
