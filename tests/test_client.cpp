// Tests for the CasClient SDK and the versioned wire envelope:
//  * sync + async retrieval through the typed client,
//  * retry-with-backoff on retryable statuses; typed refusals returned
//    immediately; one retry rule that get_instance, get_instance_async,
//    introspect and the attested handshake all follow,
//  * version negotiation: future-version frames answered with
//    kUnsupportedVersion; frames without the envelope magic, unknown
//    commands and malformed payloads answered typed (never dropped) on
//    every endpoint,
//  * the frontend never leaks deserializer exceptions for hostile frames
//    (network-level truncation/bit-flip fuzz),
//  * the attested channel's typed statuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

namespace sinclave::cas {
namespace {

using namespace std::chrono_literals;

class CasClientTest : public ::testing::Test {
 protected:
  CasClientTest()
      : bed_(workload::TestbedConfig{.seed = 123}),
        image_(core::EnclaveImage::synthetic("client", sgx::kPageSize,
                                             2 * sgx::kPageSize)),
        signer_(&bed_.user_signer()),
        signed_(signer_.sign_sinclave(image_)) {
    Policy p;
    p.session_name = "s";
    p.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    p.require_singleton = true;
    p.base_hash = signed_.base_hash;
    p.config.program = "noop";
    bed_.cas().install_policy(p);
  }

  /// What a fake listener answers once it serves for real: the raw frame,
  /// relayed to the bed's own server.
  Bytes forward_to_bed(ByteView raw) {
    return bed_.network().connect(bed_.cas_address()).call(raw);
  }

  workload::Testbed bed_;
  core::EnclaveImage image_;
  core::Signer signer_;
  core::SinclaveSignedImage signed_;
};

TEST_F(CasClientTest, SyncRetrievalSpeaksV1AndReturnsTypedResult) {
  CasClient client = bed_.make_cas_client();
  const InstanceResult got = client.get_instance("s", signed_.sigstruct);
  ASSERT_TRUE(got.ok()) << got.status.message();
  EXPECT_EQ(got.attempts, 1u);
  EXPECT_FALSE(got.token.is_zero());
  EXPECT_EQ(got.verifier_id, bed_.cas().verifier_id());
  EXPECT_TRUE(got.singleton_sigstruct.signature_valid());
}

TEST_F(CasClientTest, TypedRefusalsAreNotRetried) {
  CasClient client = bed_.make_cas_client(
      RetryPolicy{.max_attempts = 5, .initial_backoff = 1us});
  const InstanceResult got =
      client.get_instance("no-such-session", signed_.sigstruct);
  EXPECT_EQ(got.status.code, StatusCode::kUnknownSession);
  EXPECT_FALSE(got.status.retryable());
  EXPECT_EQ(got.attempts, 1u);  // a typed refusal burns no retry budget
}

TEST_F(CasClientTest, TransportFailureRetriesUpToBudgetThenSurfaces) {
  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "nobody.listens.here",
                                   .retry = {.max_attempts = 3,
                                             .initial_backoff = 1us}});
  const InstanceResult got = client.get_instance("s", signed_.sigstruct);
  EXPECT_EQ(got.status.code, StatusCode::kUnavailable);
  EXPECT_TRUE(got.status.retryable());
  EXPECT_EQ(got.attempts, 3u);
}

TEST_F(CasClientTest, RetryableServerStatusIsRetriedUntilItClears) {
  // A service that answers kUnavailable twice, then serves for real —
  // the brownout a replicated CAS will produce during failover.
  std::atomic<int> calls{0};
  bed_.network().listen("flaky", [&](ByteView raw) {
    if (++calls > 2) return forward_to_bed(raw);
    InstanceResponse resp;
    resp.status = Status(StatusCode::kUnavailable);
    return Envelope::deserialize(raw).reply(resp.serialize()).serialize();
  });

  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "flaky",
                                   .retry = {.max_attempts = 4,
                                             .initial_backoff = 1us}});
  const InstanceResult got = client.get_instance("s", signed_.sigstruct);
  ASSERT_TRUE(got.ok()) << got.status.message();
  EXPECT_EQ(got.attempts, 3u);
  bed_.network().shutdown("flaky");
}

TEST_F(CasClientTest, AsyncRetrievalDeliversTypedResultOnce) {
  CasClient client = bed_.make_cas_client();
  std::mutex mutex;
  std::condition_variable cv;
  int deliveries = 0;
  InstanceResult got;
  client.get_instance_async("s", signed_.sigstruct,
                            [&](const InstanceResult& r) {
                              std::lock_guard lock(mutex);
                              got = r;
                              ++deliveries;
                              cv.notify_all();
                            });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return deliveries > 0; }));
  EXPECT_EQ(deliveries, 1);
  EXPECT_TRUE(got.ok()) << got.status.message();
}

TEST_F(CasClientTest, AsyncDispatchFailureDeliversTypedUnavailable) {
  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "nobody.listens.here",
                                   .retry = {.max_attempts = 2,
                                             .initial_backoff = 0us}});
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<InstanceResult> got;
  client.get_instance_async("s", signed_.sigstruct,
                            [&](const InstanceResult& r) {
                              std::lock_guard lock(mutex);
                              got = r;
                              cv.notify_all();
                            });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return got.has_value(); }));
  EXPECT_EQ(got->status.code, StatusCode::kUnavailable);
  EXPECT_EQ(got->attempts, 2u);  // immediate re-issue consumed the budget
}

// --- version negotiation ----------------------------------------------------

/// Raw-frame helper: send `frame` to the client endpoint and decode the
/// (always well-formed, always enveloped) reply.
InstanceResponse raw_instance_exchange(net::SimNetwork& net,
                                       const std::string& address,
                                       const Bytes& frame,
                                       Envelope* reply_env = nullptr) {
  auto conn = net.connect(address);
  const Envelope env = Envelope::deserialize(conn.call(frame));
  if (reply_env != nullptr) *reply_env = env;
  return InstanceResponse::deserialize(env.payload);
}

// A frame without the envelope magic — a raw seed-era message or a bare
// handshake record included — gets a typed v1 kMalformedRequest, whatever
// command it meant to be.
TEST_F(CasClientTest, NonEnvelopeFramesAnsweredMalformedForEveryCommand) {
  InstanceRequest req;
  req.session_name = "s";
  req.common_sigstruct = signed_.sigstruct;
  Envelope reply;
  const InstanceResponse instance = raw_instance_exchange(
      bed_.network(), bed_.cas_address(), req.serialize(), &reply);
  EXPECT_EQ(instance.status.code, StatusCode::kMalformedRequest);
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.command, Command::kGetInstance);

  // Handshake: a genuine record sent without its kAttest envelope is
  // refused with the typed status before the hook.
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
      signed_.sigstruct, "s");
  ASSERT_TRUE(start.ok()) << start.error;
  net::SecureClient raw_attest(crypto::Drbg::from_seed(11, "raw-attest"));
  AttestPayload payload;
  payload.session_name = "s";
  payload.quote = *bed_.qe().generate_quote(
      bed_.cpu().ereport(start.enclave.id, bed_.qe().target_info(),
                         net::channel_binding(raw_attest.dh_public())));
  payload.token = start.token;
  const InstanceResponse handshake = raw_instance_exchange(
      bed_.network(), bed_.cas_address(),
      raw_attest.offer(payload.serialize()));
  EXPECT_EQ(handshake.status.code, StatusCode::kMalformedRequest);
  EXPECT_EQ(bed_.cas().tokens_used(), 0u);  // nothing was spent
}

TEST_F(CasClientTest, FutureVersionFrameAnsweredUnsupportedVersion) {
  InstanceRequest req;
  req.session_name = "s";
  req.common_sigstruct = signed_.sigstruct;
  Envelope future;
  future.version = kProtocolVersion + 1;
  future.command = Command::kGetInstance;
  future.request_id = 42;
  future.payload = req.serialize();

  Envelope reply;
  const InstanceResponse resp = raw_instance_exchange(
      bed_.network(), bed_.cas_address(), future.serialize(), &reply);
  EXPECT_EQ(resp.status.code, StatusCode::kUnsupportedVersion);
  EXPECT_FALSE(resp.status.retryable());
  // The refusal is a current-version envelope echoing the request id, so
  // the future client can correlate it.
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.request_id, 42u);
}

TEST_F(CasClientTest, UnknownCommandAnsweredTyped) {
  Envelope bogus;
  bogus.command = static_cast<Command>(0x77);
  bogus.request_id = 7;
  bogus.payload = Bytes{1, 2, 3};
  const InstanceResponse resp = raw_instance_exchange(
      bed_.network(), bed_.cas_address(), bogus.serialize());
  EXPECT_EQ(resp.status.code, StatusCode::kUnknownCommand);
}

TEST_F(CasClientTest, ClientSurfacesUnsupportedVersionAsNonRetryable) {
  // A peer that no longer (or does not yet) speak our version: whatever we
  // send, it answers kUnsupportedVersion. The SDK must surface the typed
  // code without burning retries.
  bed_.network().listen("fromthefuture", [](ByteView raw) {
    const Envelope env = Envelope::deserialize(raw);
    InstanceResponse resp;
    resp.status = Status(StatusCode::kUnsupportedVersion);
    return env.reply(resp.serialize()).serialize();
  });
  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "fromthefuture",
                                   .retry = {.max_attempts = 4,
                                             .initial_backoff = 1us}});
  const InstanceResult got = client.get_instance("s", signed_.sigstruct);
  EXPECT_EQ(got.status.code, StatusCode::kUnsupportedVersion);
  EXPECT_EQ(got.attempts, 1u);
  bed_.network().shutdown("fromthefuture");
}

// --- malformed frames at the frontend ---------------------------------------

TEST_F(CasClientTest, MalformedFramesAnsweredTypedAndCounted) {
  // Garbage that is not an envelope, and an envelope whose payload is
  // garbage: both typed v1 answers.
  const InstanceResponse raw = raw_instance_exchange(
      bed_.network(), bed_.cas_address(), Bytes(16, 0xee));
  EXPECT_EQ(raw.status.code, StatusCode::kMalformedRequest);
  Envelope env;
  env.command = Command::kGetInstance;
  env.payload = Bytes(16, 0xee);
  const InstanceResponse enveloped = raw_instance_exchange(
      bed_.network(), bed_.cas_address(), env.serialize());
  EXPECT_EQ(enveloped.status.code, StatusCode::kMalformedRequest);

  const server::ServerMetrics& m = bed_.server().metrics();
  EXPECT_EQ(m.malformed_frames.load(), 2u);
  EXPECT_EQ(m.get_instance.errors.load(), 2u);
}

TEST_F(CasClientTest, NetworkLevelFuzzNeverStrandsACaller) {
  // The worker-thread escape regression: every hostile frame — truncated
  // or bit-flipped — must come back as a well-formed envelope, never
  // strand the round trip or tear down the server. The frontend's workers
  // used to re-throw deserializer exceptions into Completion::fail.
  server::CasServer server(&bed_.cas(), server::CasServerConfig{.workers = 2});
  server.bind(bed_.network(), "fuzzed");

  InstanceRequest req;
  req.session_name = "s";
  req.common_sigstruct = signed_.sigstruct;
  Envelope env;
  env.command = Command::kGetInstance;
  env.request_id = 9;
  env.payload = req.serialize();
  const Bytes wire = env.serialize();

  auto conn = bed_.network().connect("fuzzed");
  auto rng = crypto::Drbg::from_seed(99, "wire-fuzz");
  const auto exchange = [&](const Bytes& frame) {
    const Bytes raw = conn.call(frame);  // must not throw
    (void)InstanceResponse::deserialize(Envelope::deserialize(raw).payload);
  };

  for (std::size_t len = 0; len < wire.size(); len += 13)
    exchange(Bytes(wire.begin(), wire.begin() + static_cast<long>(len)));
  for (int i = 0; i < 100; ++i) {
    Bytes mutated = wire;
    const Bytes pick = rng.generate(8);
    std::uint64_t r = 0;
    for (int b = 0; b < 8; ++b) r = (r << 8) | pick[b];
    mutated[r % mutated.size()] ^=
        static_cast<std::uint8_t>(1u << ((r >> 32) % 8));
    exchange(mutated);
  }

  // The server is still healthy: a clean request succeeds.
  CasClient client(&bed_.network(), CasClientConfig{.address = "fuzzed", .retry = {}});
  EXPECT_TRUE(client.get_instance("s", signed_.sigstruct).ok());
  server.unbind();
}

// --- attested channel -------------------------------------------------------

TEST_F(CasClientTest, AttestedChannelReportsTypedStatuses) {
  AttestedChannel channel(&bed_.network(),
                          CasClientConfig{.address = bed_.cas_address()},
                          crypto::Drbg::from_seed(5, "chan"));

  // A payload with no valid quote: the verifier rejects the handshake —
  // typed, non-retryable, and no config.
  AttestPayload bogus;
  bogus.session_name = "s";
  const Result<AppConfig> attest =
      channel.attest(bed_.cas().identity(), bogus);
  EXPECT_EQ(attest.status().code, StatusCode::kAttestationRejected);
  EXPECT_FALSE(attest.status().retryable());

  // An unreachable verifier is transient.
  AttestedChannel lost(&bed_.network(), CasClientConfig{.address = "cas.gone"},
                       crypto::Drbg::from_seed(6, "chan2"));
  EXPECT_EQ(lost.attest(bed_.cas().identity(), bogus).status().code,
            StatusCode::kUnavailable);
}

TEST_F(CasClientTest, FutureVersionAttestHandshakeRejectedAsUnsupported) {
  // A future-version kAttest envelope cannot be verified by this server;
  // its reply carries the typed protocol-level status so the future
  // client learns to downgrade rather than diagnosing a refused
  // attestation.
  AttestPayload payload;
  payload.session_name = "s";
  net::SecureClient client(crypto::Drbg::from_seed(9, "future-chan"));
  Envelope future;
  future.version = kProtocolVersion + 1;
  future.command = Command::kAttest;
  future.request_id = 5;
  future.payload = client.offer(payload.serialize());
  const auto exchange = [&](const Envelope& env) {
    const Envelope reply = Envelope::deserialize(
        bed_.network().connect(bed_.cas_address()).call(env.serialize()));
    EXPECT_EQ(reply.command, Command::kAttest);
    EXPECT_EQ(reply.request_id, 5u);
    return AttestResponse::deserialize(reply.payload);
  };
  EXPECT_EQ(exchange(future).status.code, StatusCode::kUnsupportedVersion);

  // Verification failures stay the generic rejection — the exchange is
  // not an oracle for why the verifier said no.
  Envelope current = future;
  current.version = kProtocolVersion;
  const AttestResponse generic = exchange(current);
  EXPECT_EQ(generic.status.code, StatusCode::kAttestationRejected);
  EXPECT_EQ(generic.status.detail, "");
  EXPECT_TRUE(generic.acceptance.empty());
}

// --- client resilience: jittered backoff, deadline budget, breaker ----------

TEST(RetryPolicyBackoff, PureReproducibleAndFleetDesynchronized) {
  RetryPolicy policy;
  policy.initial_backoff = 100us;
  policy.max_backoff = 800us;

  // Reproducibility: the schedule is a pure function of (retry, seed).
  for (std::size_t retry = 1; retry <= 6; ++retry) {
    const auto first = policy.backoff_before(retry, 42);
    EXPECT_EQ(first, policy.backoff_before(retry, 42)) << "retry " << retry;
    // Full jitter: uniform in [0, window], window doubling then saturating.
    const auto window =
        std::min(policy.max_backoff, policy.initial_backoff * (1u << (retry - 1)));
    EXPECT_GE(first.count(), 0) << "retry " << retry;
    EXPECT_LE(first, window) << "retry " << retry;
  }

  // Fleet de-synchronization: distinct jitter seeds draw distinct sleeps.
  // (Deterministic — backoff_before is pure, so this can never flake.)
  std::set<std::chrono::microseconds::rep> draws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    draws.insert(policy.backoff_before(4, seed).count());
  EXPECT_GE(draws.size(), 6u)
      << "8 clients retrying in lockstep would re-create the storm";
}

TEST_F(CasClientTest, DeadlineBudgetCutsRetriesBeforeMaxAttempts) {
  // A huge attempt budget against a dead address: the per-operation
  // deadline must stop the retry loop long before max_attempts does.
  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "nobody.listens.here",
                                   .retry = {.max_attempts = 10000,
                                             .initial_backoff = 1ms,
                                             .max_backoff = 1ms,
                                             .jitter_seed = 9,
                                             .deadline = 20ms}});
  const auto start = std::chrono::steady_clock::now();
  const InstanceResult got = client.get_instance("s", signed_.sigstruct);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(got.status.code, StatusCode::kUnavailable);
  EXPECT_GE(got.attempts, 1u);
  EXPECT_LT(got.attempts, 10000u);  // the budget, not the count, ended it
  EXPECT_LT(elapsed, 5s);  // and it ended promptly, not after 10000 sleeps
}

TEST_F(CasClientTest, RetryAfterHintPacesTheNextAttempt) {
  // A shedding server embeds a retry-after hint in its kUnavailable
  // detail; the client must pace by the hint instead of its own (here
  // near-zero) jitter window.
  std::atomic<int> calls{0};
  bed_.network().listen("shedding", [&](ByteView raw) {
    if (++calls > 2) return forward_to_bed(raw);
    InstanceResponse resp;
    resp.status = Status(StatusCode::kUnavailable,
                         retry_after_detail(std::chrono::milliseconds(25)));
    return Envelope::deserialize(raw).reply(resp.serialize()).serialize();
  });

  // Sanity: the hint round-trips through the canonical composer/parser.
  const auto hint =
      parse_retry_after(retry_after_detail(std::chrono::milliseconds(25)));
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, std::chrono::milliseconds(25));

  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "shedding",
                                   .retry = {.max_attempts = 4,
                                             .initial_backoff = 1us,
                                             .max_backoff = 1us}});
  const auto start = std::chrono::steady_clock::now();
  const InstanceResult got = client.get_instance("s", signed_.sigstruct);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.ok()) << got.status.message();
  EXPECT_EQ(got.attempts, 3u);
  // Two hinted sleeps of 25 ms each; jitter alone would have been ~2 us.
  EXPECT_GE(elapsed, 40ms);
  bed_.network().shutdown("shedding");
}

TEST_F(CasClientTest, BreakerOpensFailsFastAndClosesOnAHealthyProbe) {
  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "late",
                                   .retry = {.max_attempts = 1,
                                             .initial_backoff = 1us,
                                             .breaker_threshold = 2,
                                             .breaker_cooldown = 30ms}});
  // Two consecutive transport failures reach the threshold and trip it.
  for (int i = 0; i < 2; ++i) {
    const InstanceResult got = client.get_instance("s", signed_.sigstruct);
    EXPECT_EQ(got.status.code, StatusCode::kUnavailable);
    EXPECT_EQ(got.attempts, 1u);
  }
  EXPECT_EQ(client.stats().breaker_trips, 1u);

  // While open: typed fast-fail, zero wire attempts, counted.
  const InstanceResult fast = client.get_instance("s", signed_.sigstruct);
  EXPECT_EQ(fast.status.code, StatusCode::kUnavailable);
  EXPECT_EQ(fast.attempts, 0u);  // nothing touched the wire
  EXPECT_EQ(fast.status.message(), breaker_open_detail());
  EXPECT_EQ(client.stats().breaker_fast_fails, 1u);

  // The service comes back; after the cooldown the next operation probes
  // the wire, succeeds, and the breaker closes (no further trips).
  bed_.network().listen("late",
                        [&](ByteView raw) { return forward_to_bed(raw); });
  std::this_thread::sleep_for(40ms);
  const InstanceResult probe = client.get_instance("s", signed_.sigstruct);
  ASSERT_TRUE(probe.ok()) << probe.status.message();
  EXPECT_EQ(probe.attempts, 1u);
  const InstanceResult after = client.get_instance("s", signed_.sigstruct);
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(client.stats().breaker_trips, 1u);  // closed cleanly, stayed shut
  bed_.network().shutdown("late");
}

TEST_F(CasClientTest, UndecodableIntrospectReplyIsTypedInternal) {
  // A reply that does not decode is the server's answer, not a transport
  // failure: a typed kInternal after one wire call, never retried.
  std::atomic<int> hits{0};
  bed_.network().listen("garbled", [&](ByteView) {
    ++hits;
    return Bytes(16, 0xee);
  });
  CasClient client(&bed_.network(),
                   CasClientConfig{.address = "garbled",
                                   .cluster = {},
                                   .retry = {.max_attempts = 3,
                                             .initial_backoff = 1us}});
  const IntrospectResponse got = client.introspect();
  EXPECT_EQ(got.status.code, StatusCode::kInternal) << got.status.message();
  EXPECT_EQ(hits.load(), 1);
  bed_.network().shutdown("garbled");
}

// --- one retry rule across every operation ----------------------------------

enum class Op { kGetInstance, kGetInstanceAsync, kIntrospect, kAttest };

const char* op_name(Op op) {
  switch (op) {
    case Op::kGetInstance:
      return "get_instance";
    case Op::kGetInstanceAsync:
      return "get_instance_async";
    case Op::kIntrospect:
      return "introspect";
    case Op::kAttest:
      return "attest";
  }
  return "?";
}

/// One row of scripted answers: `script(n)` is what the fake endpoint
/// answers its n-th call (1-based) — a refusal, or nullopt to forward the
/// frame to the bed. The expectations hold for every operation alike, the
/// attested handshake (AttestedChannel::attest) included.
struct RuleRow {
  const char* name;
  std::function<std::optional<Status>(int)> script;
  StatusCode code;
  std::size_t attempts;  // checked where the result type carries it
  std::size_t hits;      // calls the scripted endpoint saw
  std::uint64_t leader_redirects;
  /// The retry-after hint the script sends, if any: the sync operations
  /// wait it out between the first two calls, the async one does not.
  std::chrono::milliseconds hinted{0};
};

TEST_F(CasClientTest, EveryOperationFollowsTheOneRetryRule) {
  constexpr std::chrono::milliseconds kHint{100};
  const std::string bed = bed_.cas_address();
  const std::vector<RuleRow> rows = {
      {"kUnavailable twice, then served",
       [](int n) -> std::optional<Status> {
         if (n <= 2) return Status(StatusCode::kUnavailable);
         return std::nullopt;
       },
       StatusCode::kOk, 3, 3, 0},
      {"kNotLeader naming the bed",
       [&](int) -> std::optional<Status> {
         return Status(StatusCode::kNotLeader, not_leader_detail(bed));
       },
       StatusCode::kOk, 2, 1, 1},
      {"hintless kNotLeader, no cluster",
       [](int) -> std::optional<Status> {
         return Status(StatusCode::kNotLeader, not_leader_detail(""));
       },
       StatusCode::kNotLeader, 1, 1, 0},
      {"typed refusal",
       [](int) -> std::optional<Status> {
         return Status(StatusCode::kUnsupportedVersion);
       },
       StatusCode::kUnsupportedVersion, 1, 1, 0},
      {"kUnavailable with a retry-after hint",
       [&](int n) -> std::optional<Status> {
         if (n == 1)
           return Status(StatusCode::kUnavailable, retry_after_detail(kHint));
         return std::nullopt;
       },
       StatusCode::kOk, 2, 2, 0, kHint},
  };

  for (const RuleRow& row : rows) {
    for (const Op op : {Op::kGetInstance, Op::kGetInstanceAsync,
                        Op::kIntrospect, Op::kAttest}) {
      SCOPED_TRACE(std::string(row.name) + " via " + op_name(op));
      std::mutex mutex;
      std::vector<std::chrono::steady_clock::time_point> hits;
      bed_.network().listen("scripted", [&](ByteView raw) {
        int n = 0;
        {
          std::lock_guard lock(mutex);
          hits.push_back(std::chrono::steady_clock::now());
          n = static_cast<int>(hits.size());
        }
        const std::optional<Status> refused = row.script(n);
        if (!refused.has_value()) return forward_to_bed(raw);
        return refuse_client_frame(raw, *refused);
      });
      const CasClientConfig config{.address = "scripted",
                                   .retry = {.max_attempts = 3,
                                             .initial_backoff = 1us,
                                             .max_backoff = 1us}};
      CasClient client(&bed_.network(), config);

      StatusCode code = StatusCode::kOk;
      std::optional<std::size_t> attempts;
      std::uint64_t redirects = 0;
      switch (op) {
        case Op::kGetInstance: {
          const InstanceResult got =
              client.get_instance("s", signed_.sigstruct);
          code = got.status.code;
          attempts = got.attempts;
          break;
        }
        case Op::kGetInstanceAsync: {
          std::promise<InstanceResult> delivered;
          client.get_instance_async(
              "s", signed_.sigstruct,
              [&](InstanceResult r) { delivered.set_value(std::move(r)); });
          auto future = delivered.get_future();
          ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
          const InstanceResult got = future.get();
          code = got.status.code;
          attempts = got.attempts;
          break;
        }
        case Op::kIntrospect:
          code = client.introspect().status.code;
          break;
        case Op::kAttest: {
          const auto start = runtime::start_singleton_enclave(
              bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
              signed_.sigstruct, "s");
          ASSERT_TRUE(start.ok()) << start.error;
          AttestedChannel channel(&bed_.network(), config,
                                  crypto::Drbg::from_seed(13, "rule-chan"));
          AttestPayload payload;
          payload.session_name = "s";
          payload.quote = *bed_.qe().generate_quote(bed_.cpu().ereport(
              start.enclave.id, bed_.qe().target_info(),
              net::channel_binding(channel.dh_public())));
          payload.token = start.token;
          code = channel.attest(bed_.cas().identity(), payload).status().code;
          redirects = channel.stats().leader_redirects;
          break;
        }
      }
      bed_.network().shutdown("scripted");
      if (op != Op::kAttest) redirects = client.stats().leader_redirects;

      EXPECT_EQ(code, row.code) << to_string(code);
      if (attempts.has_value()) {
        EXPECT_EQ(*attempts, row.attempts);
      }
      EXPECT_EQ(hits.size(), row.hits);
      EXPECT_EQ(redirects, row.leader_redirects);
      if (row.hinted.count() > 0 && hits.size() >= 2) {
        const auto gap = hits[1] - hits[0];
        if (op == Op::kGetInstanceAsync)
          EXPECT_LT(gap, row.hinted);  // a completion thread never sleeps
        else
          EXPECT_GE(gap, row.hinted);
      }
    }
  }
}


// --- one refusal shape for every command ------------------------------------

/// A follower's replication gate: every write answers kNotLeader naming
/// the leader.
class FollowerGate : public ReplicationGate {
 public:
  Status register_token(const core::AttestationToken&, const std::string&,
                        const sgx::Measurement&) override {
    return refusal();
  }
  Status spend_token(const core::AttestationToken&, const std::string&,
                     const sgx::Measurement&) override {
    return refusal();
  }
  bool ready() const override { return false; }
  Status accepts_writes() const override { return refusal(); }

  static Status refusal() {
    return Status(StatusCode::kNotLeader, not_leader_detail("cas.leader"));
  }
};

TEST_F(CasClientTest, EveryCommandGetsTheSameRefusalShape) {
  // get_instance, introspect and attest against a node that sheds at its
  // admission limit, a follower, and a node that answers in a newer
  // envelope version: each command decodes the same Status through the
  // same reply decoder.
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
      signed_.sigstruct, "s");
  ASSERT_TRUE(start.ok()) << start.error;
  const auto at = [](const std::string& address) {
    return CasClientConfig{.address = address, .retry = {.max_attempts = 1}};
  };
  // One seed, so every channel below holds the same share and the one
  // quote binds them all.
  const auto channel_at = [&](const std::string& address) {
    return AttestedChannel(&bed_.network(), at(address),
                           crypto::Drbg::from_seed(21, "parity-chan"));
  };
  AttestPayload payload;
  payload.session_name = "s";
  payload.quote = *bed_.qe().generate_quote(bed_.cpu().ereport(
      start.enclave.id, bed_.qe().target_info(),
      net::channel_binding(channel_at("cas.any").dh_public())));
  payload.token = start.token;

  struct Answers {
    Status get_instance, introspect, attest;
  };
  const auto ask = [&](const std::string& address) {
    Answers got;
    CasClient client(&bed_.network(), at(address));
    got.get_instance = client.get_instance("s", signed_.sigstruct).status;
    got.introspect = client.introspect().status;
    got.attest =
        channel_at(address).attest(bed_.cas().identity(), payload).status();
    return got;
  };

  {
    // A node at its admission limit: one retrieval parks on the backend
    // stall, so the next three requests are shed.
    server::CasServer node(&bed_.cas(),
                           server::CasServerConfig{
                               .workers = 1,
                               .backend_io = std::chrono::milliseconds(300),
                               .admission_limit = 1,
                               .shed_retry_after =
                                   std::chrono::milliseconds(9)});
    node.bind(bed_.network(), "cas.shedding");
    CasClient parked(&bed_.network(), at("cas.shedding"));
    std::promise<InstanceResult> parked_done;
    parked.get_instance_async(
        "s", signed_.sigstruct,
        [&](InstanceResult r) { parked_done.set_value(std::move(r)); });
    while (node.metrics().requests_in_flight.load() < 1)
      std::this_thread::yield();
    const std::size_t spent = bed_.cas().tokens_used();
    const Answers shed = ask("cas.shedding");
    const Status expected(StatusCode::kUnavailable,
                          retry_after_detail(std::chrono::milliseconds(9)));
    EXPECT_EQ(shed.get_instance, expected);
    EXPECT_EQ(shed.introspect, expected);
    EXPECT_EQ(shed.attest, expected);
    EXPECT_EQ(bed_.cas().tokens_used(), spent);  // the shed attest spent none
    EXPECT_EQ(node.metrics().requests_shed.load(), 3u);
    EXPECT_EQ(node.metrics().get_instance.errors.load(), 1u);
    EXPECT_EQ(node.metrics().introspect.errors.load(), 1u);
    EXPECT_EQ(node.metrics().attest.errors.load(), 1u);
    EXPECT_TRUE(parked_done.get_future().get().ok());
    node.unbind();
  }
  {
    // A follower: the writes — retrieval and the token spend — answer
    // kNotLeader with the leader hint; introspection is a read any
    // replica serves.
    FollowerGate gate;
    bed_.cas().set_replication_gate(&gate);
    server::CasServer node(&bed_.cas(), server::CasServerConfig{.workers = 1});
    node.bind(bed_.network(), "cas.follower");
    const Answers follower = ask("cas.follower");
    node.unbind();
    bed_.cas().set_replication_gate(nullptr);
    EXPECT_EQ(follower.get_instance, FollowerGate::refusal());
    EXPECT_TRUE(follower.introspect.ok()) << follower.introspect.message();
    EXPECT_EQ(follower.attest, FollowerGate::refusal());
    EXPECT_EQ(bed_.cas().tokens_used(), 0u);
  }
  {
    // A node from a newer protocol version refuses ours, in its envelope.
    bed_.network().listen("cas.future", [](ByteView raw) {
      Envelope reply = Envelope::deserialize(
          refuse_client_frame(raw, Status(StatusCode::kUnsupportedVersion)));
      reply.version = kProtocolVersion + 1;
      return reply.serialize();
    });
    const Answers future = ask("cas.future");
    bed_.network().shutdown("cas.future");
    const Status expected(StatusCode::kUnsupportedVersion);
    EXPECT_EQ(future.get_instance, expected);
    EXPECT_EQ(future.introspect, expected);
    EXPECT_EQ(future.attest, expected);
  }
  // The token survived every refusal: the same share still attests.
  EXPECT_TRUE(channel_at(bed_.cas_address())
                  .attest(bed_.cas().identity(), payload)
                  .ok());
}

}  // namespace
}  // namespace sinclave::cas
