// Tests for the network simulator and the attestation-bindable secure
// channel (server authentication, confidentiality of the sealed answer,
// refusals typed before the hook, carried on the CAS envelope's kAttest).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "cas/protocol.h"
#include "common/error.h"
#include "common/serial.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "net/sim_network.h"

namespace sinclave::net {
namespace {

crypto::Drbg rng(std::uint64_t seed) {
  return crypto::Drbg::from_seed(seed, "net-tests");
}

// --- SimNetwork ---

TEST(SimNetwork, RequestResponse) {
  SimNetwork net;
  net.listen("echo", [](ByteView req) {
    Bytes out{req.begin(), req.end()};
    out.push_back('!');
    return out;
  });
  auto conn = net.connect("echo");
  EXPECT_EQ(conn.call(to_bytes("hi")), to_bytes("hi!"));
  EXPECT_EQ(net.round_trips(), 1u);
}

TEST(SimNetwork, ConnectionRefusedWithoutListener) {
  SimNetwork net;
  EXPECT_THROW(net.connect("nobody"), Error);
}

TEST(SimNetwork, AddressCollisionRejected) {
  SimNetwork net;
  net.listen("a", [](ByteView) { return Bytes{}; });
  EXPECT_THROW(net.listen("a", [](ByteView) { return Bytes{}; }), Error);
}

TEST(SimNetwork, ShutdownBreaksConnections) {
  SimNetwork net;
  net.listen("svc", [](ByteView) { return Bytes{1}; });
  auto conn = net.connect("svc");
  net.shutdown("svc");
  EXPECT_FALSE(net.has_listener("svc"));
  EXPECT_THROW(conn.call(Bytes{}), Error);
}

TEST(SimNetwork, CallAfterNetworkDestructionThrows) {
  // Regression: a Connection used to hold a raw SimNetwork*, so calling
  // through it after the network died was use-after-free, not an error.
  std::optional<SimNetwork> net;
  net.emplace();
  net->listen("svc", [](ByteView) { return Bytes{1}; });
  auto conn = net->connect("svc");
  EXPECT_EQ(conn.call(Bytes{}), Bytes{1});
  net.reset();
  EXPECT_THROW(conn.call(Bytes{}), Error);
  EXPECT_THROW(conn.async_call(Bytes{}, [](Bytes, std::exception_ptr) {}),
               Error);
}

TEST(SimNetwork, CallRacingShutdownFailsCleanlyNeverDeadlocks) {
  // Regression: clients hammering call() while the listener shuts down
  // must each either get a response or a deterministic Error — and the
  // shutdown drain must terminate.
  SimNetwork net;
  net.listen("svc", [](ByteView) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Bytes{1};
  });
  std::atomic<std::uint64_t> ok{0}, refused{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t)
    clients.emplace_back([&] {
      std::optional<SimNetwork::Connection> conn;
      try {
        conn.emplace(net.connect("svc"));
      } catch (const Error&) {
        refused += 100;  // thread lost the race before its first call
        return;
      }
      for (int i = 0; i < 100; ++i) {
        try {
          conn->call(Bytes{});
          ++ok;
        } catch (const Error&) {
          ++refused;
        }
      }
    });
  // Gate the shutdown on observed successes (not a fixed sleep) so slow
  // CI cannot shut down before any call lands.
  while (ok.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  net.shutdown("svc");  // must not deadlock against the in-flight calls
  for (auto& t : clients) t.join();
  EXPECT_FALSE(net.has_listener("svc"));
  EXPECT_EQ(ok.load() + refused.load(), 400u);
  EXPECT_GT(ok.load(), 0u);       // some calls landed before shutdown
  EXPECT_GT(refused.load(), 0u);  // and the rest failed, deterministically
}

TEST(SimNetwork, VirtualTimeAccounting) {
  LatencyModel lat;
  lat.connect = std::chrono::microseconds(500);
  lat.round_trip = std::chrono::microseconds(200);
  lat.real_sleep = false;
  SimNetwork net(lat);
  net.listen("svc", [](ByteView) { return Bytes{}; });
  auto conn = net.connect("svc");
  conn.call(Bytes{});
  conn.call(Bytes{});
  EXPECT_EQ(net.virtual_time(), std::chrono::microseconds(900));
}

// --- secure channel ---

/// The exchange's answer to `payload`: the payload uppercased, so every
/// client's answer is its own.
Bytes upper(ByteView payload) {
  Bytes out{payload.begin(), payload.end()};
  for (auto& b : out) b = static_cast<std::uint8_t>(std::toupper(b));
  return out;
}

struct ChannelFixture : ::testing::Test {
  ChannelFixture()
      : identity_(crypto::Ed25519KeyPair::generate(setup_rng_)),
        other_identity_(crypto::Ed25519KeyPair::generate(setup_rng_)) {}

  /// Server that accepts every handshake and answers its payload
  /// uppercased. Hooks run concurrently (no server lock wraps them), so
  /// the fixture guards its own capture state.
  void serve() {
    server_ = std::make_unique<SecureServer>(
        &identity_, rng(2), [this](ByteView payload, ByteView) {
          std::lock_guard lock(capture_mutex_);
          last_payload_ = Bytes{payload.begin(), payload.end()};
          return Result<Bytes>(upper(payload));
        });
  }

  /// One exchange carried by hand: offer, handle, finish.
  Bytes exchange(const SecureClient& client, ByteView payload,
                 const crypto::Ed25519PublicKey& expected) {
    const Result<Bytes> acceptance = server_->handle(client.offer(payload));
    if (!acceptance.ok()) throw Error(acceptance.status().message());
    return client.finish(expected, payload, *acceptance);
  }

  /// The kAttest envelope offering `payload` under `client`'s share.
  static Bytes attest_frame(const SecureClient& client, ByteView payload) {
    cas::Envelope env;
    env.command = cas::Command::kAttest;
    env.request_id = 7;
    env.payload = client.offer(payload);
    return env.serialize();
  }

  /// The reply server_ gives `frame` on the CAS client endpoint: the one
  /// frame dispatch with kAttest bound to the channel, as the frontend
  /// binds it.
  Bytes serve_frame(ByteView frame) {
    cas::FrameHandlers handlers;
    handlers.attest = [this](ByteView record) {
      cas::AttestResponse resp;
      Result<Bytes> acceptance = server_->handle(record);
      resp.status = acceptance.status();
      if (acceptance.ok()) resp.acceptance = std::move(acceptance).value();
      return resp;
    };
    return cas::serve_client_frame(frame, handlers);
  }

  static cas::AttestResponse reply_of(ByteView frame) {
    const cas::Envelope env = cas::Envelope::deserialize(frame);
    EXPECT_EQ(env.command, cas::Command::kAttest);
    EXPECT_EQ(env.request_id, 7u);
    return cas::AttestResponse::deserialize(env.payload);
  }

  Bytes last_payload() const {
    std::lock_guard lock(capture_mutex_);
    return last_payload_;
  }

  crypto::Drbg setup_rng_ = rng(1);
  crypto::Ed25519KeyPair identity_;
  crypto::Ed25519KeyPair other_identity_;
  std::unique_ptr<SecureServer> server_;
  mutable std::mutex capture_mutex_;
  Bytes last_payload_;
};

TEST_F(ChannelFixture, ExchangeReturnsTheSealedAnswer) {
  serve();
  SecureClient client(rng(3));
  EXPECT_EQ(exchange(client, to_bytes("client-payload"),
                     identity_.public_key()),
            to_bytes("CLIENT-PAYLOAD"));
  EXPECT_EQ(last_payload(), to_bytes("client-payload"));
  // The server keeps nothing once it has answered.
  const SecureServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.sessions_high_water, 1u);
}

TEST_F(ChannelFixture, ServerIdentityPinningDetectsImpostor) {
  // The server signs with identity_, but the client expects other_identity_
  // — the exact check SinClave roots in the instance page.
  serve();
  SecureClient client(rng(4));
  EXPECT_THROW(exchange(client, {}, other_identity_.public_key()),
               IdentityMismatchError);
}

TEST_F(ChannelFixture, RejectedHandshakeYieldsTheGenericRefusal) {
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(5), [](ByteView, ByteView) {
        return Result<Bytes>(StatusCode::kTokenReused);  // reject all
      });
  SecureClient client(rng(6));
  const Result<Bytes> answer = server_->handle(client.offer({}));
  EXPECT_EQ(answer.status().code, StatusCode::kAttestationRejected);
  EXPECT_EQ(server_->stats().handshakes_rejected, 1u);
}

TEST_F(ChannelFixture, HookRefusalKeepsItsProtocolLevelCode) {
  // A rejecting hook may refuse with a protocol-level code; verification
  // refusals become the generic one.
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(11), [](ByteView, ByteView) {
        return Result<Bytes>(StatusCode::kUnsupportedVersion);
      });
  SecureClient client(rng(12));
  EXPECT_EQ(server_->handle(client.offer({})).status().code,
            StatusCode::kUnsupportedVersion);
}

TEST_F(ChannelFixture, OnlyANotLeaderRejectionCarriesItsDetail) {
  // The leader hint rides a kNotLeader refusal to the client. A detail a
  // hook sets on any other code never leaves the server: the reply's
  // Status ends at the code and an empty detail, so the generic refusal
  // stays oracle-free.
  for (const Status& refusal :
       {Status(StatusCode::kNotLeader, not_leader_detail("x")),
        Status(StatusCode::kAttestationRejected, "token already spent"),
        Status(StatusCode::kUnavailable, "raft: node stopping")}) {
    SCOPED_TRACE(to_string(refusal.code));
    server_ = std::make_unique<SecureServer>(
        &identity_, rng(16),
        [refusal](ByteView, ByteView) { return Result<Bytes>(refusal); });
    SecureClient client(rng(17));
    const Bytes reply = serve_frame(attest_frame(client, {}));
    const cas::AttestResponse resp = reply_of(reply);
    EXPECT_EQ(resp.status.code, refusal.code);
    EXPECT_TRUE(resp.acceptance.empty());
    if (refusal.code == StatusCode::kNotLeader) {
      EXPECT_EQ(resp.status.detail, not_leader_detail("x"));
    } else {
      EXPECT_EQ(resp.status.detail, "");
      // u8 code | u32 0 (no detail) | u32 0 (no acceptance)
      EXPECT_EQ(cas::Envelope::deserialize(reply).payload,
                (Bytes{static_cast<std::uint8_t>(refusal.code), 0, 0, 0, 0,
                       0, 0, 0, 0}));
    }
  }
}

TEST_F(ChannelFixture, RelayRewritingTheHandshakeAnswerIsCaught) {
  // The server signs a hash of the whole exchange, sealed answer
  // included, so an on-path relay that flips one byte of the server's
  // share, of the signature itself, or of the sealed answer (its first or
  // last byte) in the kAttest reply fails the identity check at finish,
  // and the client opens no answer. The reply's acceptance is u32 32 |
  // share | u32 64 | signature | u32 n | sealed, so from its start the
  // share sits at byte 4, the signature's S half at 4 + 32 + 4 + 32 = 72,
  // and the sealed answer at 72 + 32 + 4 = 108.
  serve();
  enum class Flip { kShare, kSignature, kSealedFirst, kSealedLast };
  for (const Flip flip : {Flip::kShare, Flip::kSignature, Flip::kSealedFirst,
                          Flip::kSealedLast}) {
    SCOPED_TRACE(static_cast<int>(flip));
    SecureClient client(rng(14));
    Bytes reply = serve_frame(attest_frame(client, to_bytes("hello")));
    const std::size_t acceptance_at =
        reply.size() - reply_of(reply).acceptance.size();
    const std::size_t at = flip == Flip::kShare         ? acceptance_at + 4
                           : flip == Flip::kSignature   ? acceptance_at + 72
                           : flip == Flip::kSealedFirst ? acceptance_at + 108
                                                        : reply.size() - 1;
    reply[at] ^= 0x01;
    const cas::AttestResponse relayed = reply_of(reply);
    ASSERT_TRUE(relayed.ok());
    std::optional<Bytes> opened;
    EXPECT_THROW(opened = client.finish(identity_.public_key(),
                                        to_bytes("hello"),
                                        relayed.acceptance),
                 IdentityMismatchError);
    EXPECT_FALSE(opened.has_value());
  }
  // The same reply passed through untouched is harmless.
  SecureClient client(rng(14));
  const cas::AttestResponse intact =
      reply_of(serve_frame(attest_frame(client, to_bytes("hello"))));
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(client.finish(identity_.public_key(), to_bytes("hello"),
                          intact.acceptance),
            to_bytes("HELLO"));
}

TEST_F(ChannelFixture, HandshakeShapeIsRefusedBeforeTheHook) {
  // A record of another version, or with a share of another length, is
  // refused typed before the hook runs: it never reaches quote
  // verification or a token spend.
  std::atomic<int> hook_calls{0};
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(15), [&hook_calls](ByteView, ByteView) {
        ++hook_calls;
        return Result<Bytes>(Bytes{});
      });
  const auto handshake = [](std::optional<std::uint8_t> version,
                            std::size_t share_bytes, bool marker = false) {
    ByteWriter w;
    if (marker) w.u8(0);
    if (version.has_value()) w.u8(*version);
    w.bytes(Bytes(share_bytes, 0x42));
    w.bytes(to_bytes("payload"));
    cas::Envelope env;
    env.command = cas::Command::kAttest;
    env.request_id = 7;
    env.payload = std::move(w).take();
    return env.serialize();
  };
  const auto refused = [this](const Bytes& frame) {
    return reply_of(serve_frame(frame)).status.code;
  };
  // The first record format had no version byte: the low byte of its
  // 256-byte share's u32 length sits in the version's place and reads 0.
  EXPECT_EQ(refused(handshake(std::nullopt, 256)),
            StatusCode::kUnsupportedVersion);
  EXPECT_EQ(refused(handshake(1, 32)), StatusCode::kUnsupportedVersion);
  // Version 2 had this very shape but an RSA identity signature, and
  // version 3 an Ed25519 one over a session id and data records after it.
  EXPECT_EQ(refused(handshake(2, 32)), StatusCode::kUnsupportedVersion);
  EXPECT_EQ(refused(handshake(3, 32)), StatusCode::kUnsupportedVersion);
  // Version 4 had these fields behind a marker byte, on its own endpoint.
  EXPECT_EQ(refused(handshake(4, 32)), StatusCode::kUnsupportedVersion);
  EXPECT_EQ(refused(handshake(4, 32, /*marker=*/true)),
            StatusCode::kUnsupportedVersion);
  EXPECT_EQ(refused(handshake(5, 31)), StatusCode::kMalformedRequest);
  EXPECT_EQ(refused(handshake(5, 256)), StatusCode::kMalformedRequest);
  EXPECT_EQ(hook_calls.load(), 0);
  const SecureServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.handshakes_rejected, 8u);
  EXPECT_EQ(stats.sessions_high_water, 0u);
}

TEST_F(ChannelFixture, HostileRejectionStatusCannotReadAsSuccess) {
  // A hostile server answers a kAttest with Status byte 0 (= kOk) and no
  // acceptance, an empty or a garbage one, or with a code outside the
  // enum: none may read as success. The client SDK delivers kInternal or
  // the code as read, or throws IdentityMismatchError, and never a
  // configuration.
  struct Hostile {
    const char* name;
    Bytes payload;  // the reply envelope's payload
    std::optional<StatusCode> delivered;  // nullopt: must throw
  };
  const std::vector<Hostile> replies = {
      {"ok without an acceptance", Bytes{0x00, 0, 0, 0, 0},
       StatusCode::kInternal},
      {"ok with an empty acceptance", Bytes{0x00, 0, 0, 0, 0, 0, 0, 0, 0},
       std::nullopt},
      {"ok with a garbage acceptance",
       Bytes{0x00, 0, 0, 0, 0, 3, 0, 0, 0, 0xde, 0xad, 0xbf}, std::nullopt},
      {"a code outside the enum", Bytes{0xfe, 0, 0, 0, 0, 0, 0, 0, 0},
       StatusCode::kInternal},
      {"the generic refusal", Bytes{10, 0, 0, 0, 0, 0, 0, 0, 0},
       StatusCode::kAttestationRejected},
  };
  for (const Hostile& hostile : replies) {
    SCOPED_TRACE(hostile.name);
    SimNetwork net;
    net.listen("svc", [&hostile](ByteView raw) {
      return cas::Envelope::deserialize(raw)
          .reply(hostile.payload)
          .serialize();
    });
    cas::AttestedChannel channel(
        &net,
        cas::CasClientConfig{.address = "svc", .retry = {.max_attempts = 1}},
        rng(13));
    if (!hostile.delivered.has_value()) {
      EXPECT_THROW((void)channel.attest(identity_.public_key(), {}),
                   IdentityMismatchError);
      continue;
    }
    const Result<cas::AppConfig> got =
        channel.attest(identity_.public_key(), {});
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.status().code, *hostile.delivered);
  }
}

TEST_F(ChannelFixture, EavesdropperSeesNoPlaintext) {
  // Capture both flights like an on-path adversary: the configuration the
  // server releases never appears on the wire.
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(7), [](ByteView, ByteView) {
        return Result<Bytes>(to_bytes("topsecret-config"));
      });
  SecureClient client(rng(8));
  const Bytes record = client.offer({});
  const Result<Bytes> acceptance = server_->handle(record);
  ASSERT_TRUE(acceptance.ok());
  EXPECT_EQ(client.finish(identity_.public_key(), {}, *acceptance),
            to_bytes("topsecret-config"));
  for (const Bytes& flight : {record, *acceptance}) {
    const std::string hay(flight.begin(), flight.end());
    EXPECT_EQ(hay.find("topsecret"), std::string::npos);
  }
}

TEST_F(ChannelFixture, SessionsAreIndependent) {
  // Each client's answer is sealed to its own share: a relay that hands
  // b's acceptance to a is caught like any other rewrite.
  serve();
  SecureClient a(rng(11)), b(rng(12));
  EXPECT_EQ(exchange(a, to_bytes("a"), identity_.public_key()),
            to_bytes("A"));
  EXPECT_EQ(exchange(b, to_bytes("b"), identity_.public_key()),
            to_bytes("B"));

  const Result<Bytes> b_acceptance = server_->handle(b.offer(to_bytes("b")));
  ASSERT_TRUE(b_acceptance.ok());
  EXPECT_THROW(a.finish(identity_.public_key(), to_bytes("b"), *b_acceptance),
               IdentityMismatchError);
  EXPECT_EQ(server_->stats().open_sessions, 0u);
}

TEST_F(ChannelFixture, MalformedRecordsRefusedGracefully) {
  serve();
  EXPECT_EQ(server_->handle(Bytes{}).status().code,
            StatusCode::kMalformedRequest);
  EXPECT_EQ(server_->handle(Bytes{9, 9, 9}).status().code,
            StatusCode::kUnsupportedVersion);
  // A retired data record, and a version-4 handshake behind its marker.
  EXPECT_EQ(server_->handle(Bytes{1, 0, 0}).status().code,
            StatusCode::kUnsupportedVersion);
  EXPECT_EQ(server_->handle(Bytes{0, 4, 0}).status().code,
            StatusCode::kUnsupportedVersion);
  EXPECT_EQ(server_->handle(Bytes{5, 0}).status().code,  // truncated
            StatusCode::kMalformedRequest);
  EXPECT_EQ(server_->stats().handshakes_rejected, 5u);
}

TEST_F(ChannelFixture, ConcurrentExchangesEachGetTheirOwnAnswer) {
  // Many clients running the exchange at once, with no lock to serialize
  // them: every client must open exactly its own answer — run under TSAN
  // in CI, this also asserts the lock-free exchange is race-free.
  serve();
  constexpr int kThreads = 8;
  constexpr int kExchangesPerClient = 3;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SecureClient client(rng(100 + static_cast<std::uint64_t>(t)));
      for (int i = 0; i < kExchangesPerClient; ++i) {
        const Bytes payload = to_bytes("c" + std::to_string(t) + "-" +
                                       std::to_string(i));
        ASSERT_EQ(exchange(client, payload, identity_.public_key()),
                  upper(payload));
        ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kExchangesPerClient);
  const auto stats = server_->stats();
  EXPECT_EQ(stats.sessions_opened,
            static_cast<std::uint64_t>(kThreads * kExchangesPerClient));
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_GE(stats.sessions_high_water, 1u);
  EXPECT_LE(stats.sessions_high_water, static_cast<std::uint64_t>(kThreads));
}

TEST_F(ChannelFixture, HooksMayCallBackIntoTheServer) {
  // The coarse-mutex era forbade hooks from re-entering the SecureServer;
  // with no lock around the hook it may read the server's state — which
  // counts the very handshake in flight — and even run another exchange
  // through handle().
  std::atomic<std::uint64_t> in_flight_seen{0};
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(23), [&](ByteView payload, ByteView) {
        in_flight_seen = server_->stats().open_sessions;
        if (payload.empty()) return Result<Bytes>(to_bytes("inner"));
        SecureClient inner(rng(25));
        return Result<Bytes>(exchange(inner, {}, identity_.public_key()));
      });
  SecureClient client(rng(24));
  EXPECT_EQ(exchange(client, to_bytes("outer"), identity_.public_key()),
            to_bytes("inner"));
  EXPECT_EQ(in_flight_seen.load(), 2u);  // the inner hook saw both
  const SecureServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.sessions_high_water, 2u);
  EXPECT_EQ(stats.open_sessions, 0u);
}

// --- deterministic fault injection ------------------------------------------

TEST(FaultInjection, SameSeedSameSequenceGivesByteIdenticalTrace) {
  // The headline determinism contract: the same plan driven by the same
  // single-threaded call sequence on a fresh network must produce a
  // byte-identical fault trace, equal counters, and the same set of
  // observed typed failures — a chaos run is an experiment, not an
  // anecdote.
  struct Run {
    std::string trace;
    FaultInjector::Stats stats;
    std::uint64_t failures = 0;
    std::uint64_t handled = 0;
  };
  const auto drive = [] {
    SimNetwork net;
    std::atomic<std::uint64_t> handled{0};
    net.listen("svc", [&](ByteView) {
      ++handled;
      return Bytes{42};
    });
    FaultPlan plan;
    plan.seed = 2026;
    auto& faults = plan.per_endpoint["svc"];
    faults.drop_request = 0.25;
    faults.drop_response = 0.2;
    faults.reset = 0.1;
    faults.delay = 0.15;
    faults.delay_amount = std::chrono::microseconds(10);
    net.set_fault_plan(plan);
    auto conn = net.connect("svc");
    Run run;
    for (int i = 0; i < 200; ++i) {
      try {
        (void)conn.call(Bytes{});
      } catch (const Error&) {
        ++run.failures;
      }
    }
    run.trace = net.fault_trace();
    run.stats = net.fault_stats();
    run.handled = handled.load();
    return run;
  };

  const Run a = drive();
  const Run b = drive();
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);  // byte-identical
  EXPECT_EQ(a.stats.ops, 200u);
  EXPECT_EQ(a.stats.ops, b.stats.ops);
  EXPECT_EQ(a.stats.requests_dropped, b.stats.requests_dropped);
  EXPECT_EQ(a.stats.responses_dropped, b.stats.responses_dropped);
  EXPECT_EQ(a.stats.resets, b.stats.resets);
  EXPECT_EQ(a.stats.delays, b.stats.delays);
  EXPECT_EQ(a.failures, b.failures);
  // The injected-fault counters close against the client's observed typed
  // failures: exactly the drops and resets fail the call (delays do not).
  EXPECT_EQ(a.failures, a.stats.requests_dropped + a.stats.resets +
                            a.stats.responses_dropped);
  EXPECT_GT(a.failures, 0u);
  // Request-side faults pre-empt the handler; response drops do not.
  EXPECT_EQ(a.handled, 200u - a.stats.requests_dropped - a.stats.resets);
}

TEST(FaultInjection, DropRequestPreemptsHandlerDropResponseDoesNot) {
  SimNetwork net;
  std::atomic<int> handled{0};
  net.listen("svc", [&](ByteView) {
    ++handled;
    return Bytes{7};
  });
  FaultPlan plan;
  plan.seed = 5;
  plan.per_endpoint["svc"].drop_request = 1.0;
  net.set_fault_plan(plan);
  auto conn = net.connect("svc");
  EXPECT_THROW(conn.call(Bytes{}), Error);
  EXPECT_EQ(handled.load(), 0);  // the handler never saw the request
  EXPECT_EQ(net.fault_stats().requests_dropped, 1u);

  plan.per_endpoint["svc"] = {};
  plan.per_endpoint["svc"].drop_response = 1.0;
  net.set_fault_plan(plan);  // fresh experiment: clock and counters reset
  EXPECT_THROW(conn.call(Bytes{}), Error);
  EXPECT_EQ(handled.load(), 1);  // side effects happened; the answer vanished
  EXPECT_EQ(net.fault_stats().responses_dropped, 1u);

  net.set_fault_plan({});  // heal
  EXPECT_EQ(conn.call(Bytes{}), Bytes{7});
}

TEST(FaultInjection, AsyncFaultsDeliverThroughTheCallbackNeverThrow) {
  SimNetwork net;
  net.listen("svc", [](ByteView) { return Bytes{1}; });
  FaultPlan plan;
  plan.seed = 8;
  plan.per_endpoint["svc"].reset = 1.0;
  net.set_fault_plan(plan);
  auto conn = net.connect("svc");
  std::atomic<int> calls{0};
  std::atomic<bool> failed{false};
  conn.async_call(Bytes{}, [&](Bytes, std::exception_ptr error) {
    ++calls;
    failed = error != nullptr;
  });
  EXPECT_EQ(calls.load(), 1);  // exactly once, never a hang
  EXPECT_TRUE(failed.load());
  EXPECT_EQ(net.fault_stats().resets, 1u);
}

TEST(FaultInjection, CorruptResponseFlipsExactlyOneBit) {
  SimNetwork net;
  const Bytes clean(64, 0x00);
  net.listen("svc", [&](ByteView) { return clean; });
  FaultPlan plan;
  plan.seed = 11;
  plan.per_endpoint["svc"].corrupt_response = 1.0;
  net.set_fault_plan(plan);
  auto conn = net.connect("svc");
  for (int i = 0; i < 16; ++i) {
    const Bytes got = conn.call(Bytes{});
    ASSERT_EQ(got.size(), clean.size());
    int flipped = 0;
    for (std::size_t b = 0; b < got.size(); ++b)
      flipped += std::popcount(
          static_cast<unsigned char>(got[b] ^ clean[b]));
    EXPECT_EQ(flipped, 1) << "op " << i;
  }
  EXPECT_EQ(net.fault_stats().corruptions, 16u);
}

TEST(FaultInjection, WindowsKeyOffTheLogicalClockNotWallTime) {
  SimNetwork net;
  net.listen("svc", [](ByteView) { return Bytes{1}; });
  FaultPlan plan;
  plan.seed = 3;
  FaultWindow window;
  window.from_op = 0;
  window.until_op = 3;
  window.address_prefix = "svc";
  window.faults.drop_request = 1.0;
  plan.windows.push_back(window);
  net.set_fault_plan(plan);
  auto conn = net.connect("svc");
  for (int i = 0; i < 3; ++i) EXPECT_THROW(conn.call(Bytes{}), Error);
  // Logical op 3 falls outside [0, 3): the partition has healed purely by
  // protocol progress — no sleeping, no wall clock.
  EXPECT_EQ(conn.call(Bytes{}), Bytes{1});
  const auto stats = net.fault_stats();
  EXPECT_EQ(stats.requests_dropped, 3u);
  EXPECT_EQ(stats.ops, 4u);
}

TEST(ChannelBinding, CommitsToDhKey) {
  const Bytes key1(32, 1), key2(32, 2);
  const auto b1 = channel_binding(key1);
  const auto b2 = channel_binding(key2);
  EXPECT_NE(b1, b2);
  // First 32 bytes are the hash, rest zero padding.
  EXPECT_EQ(Hash256::from_view(b1.view()), crypto::sha256(key1));
  for (std::size_t i = 32; i < 64; ++i) EXPECT_EQ(b1.data[i], 0);
}

}  // namespace
}  // namespace sinclave::net
