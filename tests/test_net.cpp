// Tests for the network simulator and the attestation-bindable secure
// channel (server authentication, confidentiality of the sealed answer,
// refusals typed before the hook).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

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
  void serve(const std::string& address) {
    server_ = std::make_unique<SecureServer>(
        &identity_, rng(2), [this](ByteView payload, ByteView, Status*) {
          std::lock_guard lock(capture_mutex_);
          last_payload_ = Bytes{payload.begin(), payload.end()};
          return std::optional<Bytes>(upper(payload));
        });
    net_.listen(address, [this](ByteView raw) { return server_->handle(raw); });
  }

  Bytes last_payload() const {
    std::lock_guard lock(capture_mutex_);
    return last_payload_;
  }

  crypto::Drbg setup_rng_ = rng(1);
  crypto::Ed25519KeyPair identity_;
  crypto::Ed25519KeyPair other_identity_;
  SimNetwork net_;
  std::unique_ptr<SecureServer> server_;
  mutable std::mutex capture_mutex_;
  Bytes last_payload_;
};

TEST_F(ChannelFixture, ExchangeReturnsTheSealedAnswer) {
  serve("svc");
  SecureClient client(rng(3));
  const auto answer =
      client.connect(net_.connect("svc"), identity_.public_key(),
                     to_bytes("client-payload"));
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, to_bytes("CLIENT-PAYLOAD"));
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
  serve("svc");
  SecureClient client(rng(4));
  EXPECT_THROW(client.connect(net_.connect("svc"),
                              other_identity_.public_key(), {}),
               IdentityMismatchError);
}

TEST_F(ChannelFixture, RejectedHandshakeYieldsNullopt) {
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(5), [](ByteView, ByteView, Status*) {
        return std::optional<Bytes>{};  // reject all
      });
  net_.listen("svc", [this](ByteView raw) { return server_->handle(raw); });

  SecureClient client(rng(6));
  EXPECT_FALSE(
      client.connect(net_.connect("svc"), identity_.public_key(), {})
          .has_value());
  EXPECT_EQ(server_->stats().handshakes_rejected, 1u);
}

TEST_F(ChannelFixture, RejectionRecordCarriesTypedProtocolStatus) {
  // A rejecting hook may attach a protocol-level code to the rejection
  // record; verification refusals use the generic default.
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(11), [](ByteView, ByteView, Status* reject) {
        *reject = Status(StatusCode::kUnsupportedVersion);
        return std::optional<Bytes>{};
      });
  net_.listen("svc", [this](ByteView raw) { return server_->handle(raw); });

  SecureClient client(rng(12));
  Status status;
  EXPECT_FALSE(client
                   .connect(net_.connect("svc"), identity_.public_key(), {},
                            &status)
                   .has_value());
  EXPECT_EQ(status.code, StatusCode::kUnsupportedVersion);
}

TEST_F(ChannelFixture, OnlyANotLeaderRejectionCarriesItsDetail) {
  // The leader hint rides a kNotLeader rejection to connect. A detail a
  // hook sets on any other code never leaves the server: the record ends
  // at the code byte, so the generic rejection stays oracle-free.
  for (const Status& refusal :
       {Status(StatusCode::kNotLeader, not_leader_detail("x")),
        Status(StatusCode::kAttestationRejected, "token already spent"),
        Status(StatusCode::kUnavailable, "raft: node stopping")}) {
    SCOPED_TRACE(to_string(refusal.code));
    SecureServer server(&identity_, rng(16),
                        [refusal](ByteView, ByteView, Status* reject) {
                          *reject = refusal;
                          return std::optional<Bytes>{};
                        });
    SimNetwork net;
    Bytes answer;
    net.listen("svc",
               [&](ByteView raw) { return answer = server.handle(raw); });
    SecureClient client(rng(17));
    Status status;
    EXPECT_FALSE(client
                     .connect(net.connect("svc"), identity_.public_key(), {},
                              &status)
                     .has_value());
    EXPECT_EQ(status.code, refusal.code);
    if (refusal.code == StatusCode::kNotLeader) {
      EXPECT_EQ(status.detail, not_leader_detail("x"));
    } else {
      EXPECT_EQ(status.detail, "");
      EXPECT_EQ(answer, (Bytes{0x00, static_cast<std::uint8_t>(refusal.code)}));
    }
  }
}

TEST_F(ChannelFixture, RelayRewritingTheHandshakeAnswerIsCaught) {
  // The server signs a hash of the whole exchange, sealed answer
  // included, so an on-path relay that flips one byte of the server's
  // share, of the signature itself, or of the sealed answer (its first or
  // last byte) fails the identity check at connect, and the client opens
  // no answer. The answer is ok | u32 32 | share | u32 64 | signature |
  // u32 n | sealed, so the share starts at byte 5, the signature's S half
  // at byte 1 + 4 + 32 + 4 + 32 = 73, and the sealed answer at byte
  // 73 + 32 + 4 = 109.
  serve("svc");
  enum class Flip { kShare, kSignature, kSealedFirst, kSealedLast };
  for (const Flip flip : {Flip::kShare, Flip::kSignature, Flip::kSealedFirst,
                          Flip::kSealedLast}) {
    const std::string relay =
        "relay-" + std::to_string(static_cast<int>(flip));
    net_.listen(relay, [this, flip](ByteView raw) {
      Bytes answer = server_->handle(raw);
      const std::size_t at = flip == Flip::kShare         ? 5
                             : flip == Flip::kSignature   ? 73
                             : flip == Flip::kSealedFirst ? 109
                                                          : answer.size() - 1;
      answer[at] ^= 0x01;
      return answer;
    });
    SecureClient client(rng(14));
    std::optional<Bytes> opened;
    EXPECT_THROW(opened = client.connect(net_.connect(relay),
                                         identity_.public_key(),
                                         to_bytes("hello")),
                 IdentityMismatchError)
        << relay;
    EXPECT_FALSE(opened.has_value()) << relay;
  }
  // The same relay passing the answer through untouched is harmless.
  SecureClient client(rng(14));
  EXPECT_EQ(client.connect(net_.connect("svc"), identity_.public_key(),
                           to_bytes("hello")),
            std::optional<Bytes>(to_bytes("HELLO")));
}

TEST_F(ChannelFixture, HandshakeShapeIsRefusedBeforeTheHook) {
  // A record of another version, or with a share of another length, is
  // refused typed before the hook runs: it never reaches quote
  // verification or a token spend.
  std::atomic<int> hook_calls{0};
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(15), [&hook_calls](ByteView, ByteView, Status*) {
        ++hook_calls;
        return std::optional<Bytes>(Bytes{});
      });
  const auto handshake = [](std::optional<std::uint8_t> version,
                            std::size_t share_bytes) {
    ByteWriter w;
    w.u8(0);  // handshake marker
    if (version.has_value()) w.u8(*version);
    w.bytes(Bytes(share_bytes, 0x42));
    w.bytes(to_bytes("payload"));
    return std::move(w).take();
  };
  const auto refusal = [](StatusCode code) {
    return Bytes{0x00, static_cast<std::uint8_t>(code)};
  };
  // The first record format had no version byte: the low byte of its
  // 256-byte share's u32 length sits in the version's place and reads 0.
  EXPECT_EQ(server_->handle(handshake(std::nullopt, 256)),
            refusal(StatusCode::kUnsupportedVersion));
  EXPECT_EQ(server_->handle(handshake(1, 32)),
            refusal(StatusCode::kUnsupportedVersion));
  // Version 2 had this very shape but an RSA identity signature, and
  // version 3 an Ed25519 one over a session id and data records after it.
  EXPECT_EQ(server_->handle(handshake(2, 32)),
            refusal(StatusCode::kUnsupportedVersion));
  EXPECT_EQ(server_->handle(handshake(3, 32)),
            refusal(StatusCode::kUnsupportedVersion));
  EXPECT_EQ(server_->handle(handshake(4, 31)),
            refusal(StatusCode::kMalformedRequest));
  EXPECT_EQ(server_->handle(handshake(4, 256)),
            refusal(StatusCode::kMalformedRequest));
  EXPECT_EQ(hook_calls.load(), 0);
  const SecureServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.handshakes_rejected, 6u);
  EXPECT_EQ(stats.sessions_high_water, 0u);
}

TEST_F(ChannelFixture, HostileRejectionStatusCannotReadAsSuccess) {
  // A hostile server answers a handshake with "rejected" + status byte 0
  // (= kOk) or an out-of-enum byte: neither may pass the whitelist — a
  // rejected handshake must never surface an ok (or unknown) status.
  for (const Bytes& wire : {Bytes{0x00, 0x00}, Bytes{0x00, 0xfe}}) {
    SimNetwork net;
    net.listen("svc", [wire](ByteView) { return wire; });
    SecureClient client(rng(13));
    Status status;
    EXPECT_FALSE(client
                     .connect(net.connect("svc"), identity_.public_key(), {},
                              &status)
                     .has_value());
    EXPECT_EQ(status.code, StatusCode::kAttestationRejected);
  }
}

TEST_F(ChannelFixture, EavesdropperSeesNoPlaintext) {
  // Wrap the transport to capture both flights like an on-path adversary:
  // the configuration the server releases never appears on the wire.
  std::vector<Bytes> wire;
  server_ = std::make_unique<SecureServer>(
      &identity_, rng(7), [](ByteView, ByteView, Status*) {
        return std::optional<Bytes>(to_bytes("topsecret-config"));
      });
  net_.listen("svc", [&](ByteView raw) {
    wire.emplace_back(raw.begin(), raw.end());
    Bytes resp = server_->handle(raw);
    wire.push_back(resp);
    return resp;
  });

  SecureClient client(rng(8));
  EXPECT_EQ(client.connect(net_.connect("svc"), identity_.public_key(), {}),
            std::optional<Bytes>(to_bytes("topsecret-config")));
  ASSERT_EQ(wire.size(), 2u);
  for (const Bytes& frame : wire) {
    const std::string hay(frame.begin(), frame.end());
    EXPECT_EQ(hay.find("topsecret"), std::string::npos);
  }
}

TEST_F(ChannelFixture, SessionsAreIndependent) {
  // Each client's answer is sealed to its own share: a relay that hands
  // b's answer to a is caught like any other rewrite.
  serve("svc");
  SecureClient a(rng(11)), b(rng(12));
  EXPECT_EQ(a.connect(net_.connect("svc"), identity_.public_key(),
                      to_bytes("a")),
            std::optional<Bytes>(to_bytes("A")));
  EXPECT_EQ(b.connect(net_.connect("svc"), identity_.public_key(),
                      to_bytes("b")),
            std::optional<Bytes>(to_bytes("B")));

  Bytes b_answer;
  net_.listen("tap", [&](ByteView raw) {
    return b_answer = server_->handle(raw);
  });
  ASSERT_TRUE(b.connect(net_.connect("tap"), identity_.public_key(),
                        to_bytes("b"))
                  .has_value());
  net_.listen("swap", [&](ByteView) { return b_answer; });
  EXPECT_THROW(a.connect(net_.connect("swap"), identity_.public_key(),
                         to_bytes("b")),
               IdentityMismatchError);
  EXPECT_EQ(server_->stats().open_sessions, 0u);
}

TEST_F(ChannelFixture, MalformedFramesRejectedGracefully) {
  serve("svc");
  EXPECT_EQ(server_->handle(Bytes{})[0], 0);
  EXPECT_EQ(server_->handle(Bytes{9, 9, 9})[0], 0);
  EXPECT_EQ(server_->handle(Bytes{1, 0, 0})[0], 0);  // a retired data record
  EXPECT_EQ(server_->handle(Bytes{0, 4, 0})[0], 0);  // truncated handshake
}

TEST_F(ChannelFixture, ConcurrentExchangesEachGetTheirOwnAnswer) {
  // Many clients running the exchange at once, with no lock to serialize
  // them: every client must open exactly its own answer — run under TSAN
  // in CI, this also asserts the lock-free exchange is race-free.
  serve("svc");
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
        const auto answer = client.connect(
            net_.connect("svc"), identity_.public_key(), payload);
        ASSERT_TRUE(answer.has_value());
        ASSERT_EQ(*answer, upper(payload));
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
      &identity_, rng(23), [&](ByteView payload, ByteView, Status*) {
        in_flight_seen = server_->stats().open_sessions;
        if (payload.empty()) return std::optional<Bytes>(to_bytes("inner"));
        SecureClient inner(rng(25));
        SimNetwork loop;
        loop.listen("self", [this](ByteView raw) {
          return server_->handle(raw);
        });
        return inner.connect(loop.connect("self"), identity_.public_key(), {});
      });
  net_.listen("svc", [this](ByteView raw) { return server_->handle(raw); });

  SecureClient client(rng(24));
  EXPECT_EQ(client.connect(net_.connect("svc"), identity_.public_key(),
                           to_bytes("outer")),
            std::optional<Bytes>(to_bytes("inner")));
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
