// Unit tests for the CAS verifier service: policy persistence, the
// instance (token issuance) endpoint served by a bound server::CasServer
// and reached through cas::CasClient, attestation verdicts, and token
// accounting — without the full runtime stack.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "cas/service.h"
#include "common/serial.h"
#include "core/predictor.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "obs/trace.h"
#include "quote/quoting_enclave.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "sgx/cpu.h"

namespace sinclave::cas {
namespace {

/// Summary of one tracer phase (zero count when it recorded nothing).
obs::LatencyHistogram::Snapshot phase_stats(const char* name) {
  for (const auto& row : obs::Tracer::instance().phase_summaries())
    if (std::string(row.name) == name) return row.stats;
  return {};
}

class CasTest : public ::testing::Test {
 protected:
  CasTest()
      : rng_(crypto::Drbg::from_seed(5, "cas-tests")),
        signer_key_(crypto::RsaKeyPair::generate(rng_, 1024)),
        cas_(&attestation_, crypto::Ed25519KeyPair::generate(rng_),
             crypto::Drbg::from_seed(6, "cas-service")),
        image_(core::EnclaveImage::synthetic("cas-test", sgx::kPageSize,
                                             2 * sgx::kPageSize)),
        signer_(&signer_key_),
        signed_(signer_.sign_sinclave(image_)),
        server_(&cas_, server::CasServerConfig{.workers = 1}) {
    cas_.add_signer_key(signer_key_);
    server_.bind(net_, kAddress);
  }

  static constexpr const char* kAddress = "cas.test";

  Policy singleton_policy(const std::string& name) {
    Policy p;
    p.session_name = name;
    p.expected_signer = crypto::sha256(signer_key_.public_key().modulus_be());
    p.require_singleton = true;
    p.base_hash = signed_.base_hash;
    p.config.program = "x";
    return p;
  }

  /// One retrieval from the server bound at `address`.
  InstanceResult retrieve(const std::string& name,
                          const sgx::SigStruct& common,
                          const std::string& address = kAddress) {
    CasClientConfig config;
    config.address = address;
    return CasClient(&net_, config).get_instance(name, common);
  }
  InstanceResult retrieve(const std::string& name) {
    return retrieve(name, signed_.sigstruct);
  }

  crypto::Drbg rng_;
  crypto::RsaKeyPair signer_key_;
  quote::AttestationService attestation_;
  CasService cas_;
  core::EnclaveImage image_;
  core::Signer signer_;
  core::SinclaveSignedImage signed_;
  net::SimNetwork net_;  // outlives server_, which unbinds from it
  server::CasServer server_;
};

TEST_F(CasTest, VerifierIdIsIdentityHash) {
  // SHA-256 of the 32-byte Ed25519 public key.
  EXPECT_EQ(cas_.verifier_id(), crypto::sha256(cas_.identity().view()));
}

TEST_F(CasTest, InstanceRequestHappyPath) {
  cas_.install_policy(singleton_policy("s"));
  const InstanceResult resp = retrieve("s");
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_EQ(resp.status.code, StatusCode::kOk);
  EXPECT_FALSE(resp.token.is_zero());
  EXPECT_EQ(resp.verifier_id, cas_.verifier_id());
  EXPECT_TRUE(resp.singleton_sigstruct.signature_valid());
  // The on-demand SigStruct matches the prediction for this token.
  core::InstancePage page;
  page.token = resp.token;
  page.verifier_id = resp.verifier_id;
  EXPECT_EQ(resp.singleton_sigstruct.enclave_hash,
            core::MeasurementPredictor::predict(signed_.base_hash, page));
}

TEST_F(CasTest, InstanceRequestUnknownSession) {
  const InstanceResult resp = retrieve("nope");
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kUnknownSession);
  // The human-readable message comes from the shared code->message table.
  EXPECT_EQ(resp.status.message(),
            status_message(StatusCode::kUnknownSession));
  EXPECT_EQ(resp.status.message(), "unknown session");
}

TEST_F(CasTest, InstanceRequestBaselineSessionRefused) {
  Policy p = singleton_policy("base");
  p.require_singleton = false;
  p.base_hash.reset();
  p.expected_mr_enclave = signed_.sigstruct.enclave_hash;
  cas_.install_policy(p);
  const InstanceResult resp = retrieve("base");
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kNotSingleton);
}

TEST_F(CasTest, InstanceRequestNeedsSignerKey) {
  CasService bare(&attestation_, crypto::Ed25519KeyPair::generate(rng_),
                  crypto::Drbg::from_seed(7, "bare"));
  bare.install_policy(singleton_policy("s"));
  server::CasServer bare_server(&bare, server::CasServerConfig{.workers = 1});
  bare_server.bind(net_, "cas.bare");
  const InstanceResult resp = retrieve("s", signed_.sigstruct, "cas.bare");
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kNoSignerKey);
  EXPECT_EQ(resp.status.message(), "no signer key uploaded for this session");
}

TEST_F(CasTest, InstanceRequestRejectsTamperedSigstruct) {
  cas_.install_policy(singleton_policy("s"));
  sgx::SigStruct tampered = signed_.sigstruct;
  tampered.signature[3] ^= 1;
  const InstanceResult resp = retrieve("s", tampered);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kBadSignature);
}

TEST_F(CasTest, InstanceRequestRejectsForeignSigner) {
  cas_.install_policy(singleton_policy("s"));
  auto other_key = crypto::RsaKeyPair::generate(rng_, 1024);
  cas_.add_signer_key(other_key);
  core::Signer other_signer(&other_key);
  const InstanceResult resp =
      retrieve("s", other_signer.sign_sinclave(image_).sigstruct);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kWrongSigner);
}

TEST_F(CasTest, InstanceRequestRejectsWrongBaseImage) {
  cas_.install_policy(singleton_policy("s"));
  core::EnclaveImage other = image_;
  other.code[0] ^= 1;
  const InstanceResult resp =
      retrieve("s", signer_.sign_sinclave(other).sigstruct);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kBaseHashMismatch);
  EXPECT_NE(resp.status.message().find("base hash"), std::string::npos);
}

TEST_F(CasTest, MintBatchMintsDistinctFirstClassCredentials) {
  const Policy policy = singleton_policy("s");
  cas_.install_policy(policy);
  obs::Tracer::instance().reset_phases();
  const auto batch = cas_.mint_batch(policy, signed_.sigstruct, 5);
  ASSERT_EQ(batch.size(), 5u);

  std::set<std::string> tokens;
  for (const auto& cred : batch) {
    EXPECT_FALSE(cred.token.is_zero());
    tokens.insert(cred.token.hex());
    // Every batch member is a full credential: the prediction matches and
    // the SigStruct verifies under the session signer.
    core::InstancePage page;
    page.token = cred.token;
    page.verifier_id = cas_.verifier_id();
    EXPECT_EQ(cred.mr_enclave,
              core::MeasurementPredictor::predict(signed_.base_hash, page));
    EXPECT_EQ(cred.sigstruct.enclave_hash, cred.mr_enclave);
    EXPECT_TRUE(cred.sigstruct.signature_valid());
    EXPECT_EQ(cred.sigstruct.mr_signer(), policy.expected_signer);
  }
  EXPECT_EQ(tokens.size(), 5u);  // no token minted twice
  // One predict and one sign span per credential, inside one mint span.
  EXPECT_EQ(phase_stats("mint").count, 1u);
  EXPECT_EQ(phase_stats("predict").count, 5u);
  EXPECT_EQ(phase_stats("sign").count, 5u);
  // Pure minting: nothing is registered until the serving layer issues.
  EXPECT_EQ(cas_.tokens_outstanding(), 0u);
}

TEST_F(CasTest, MintBatchEdgeCases) {
  const Policy policy = singleton_policy("s");
  cas_.install_policy(policy);
  EXPECT_TRUE(cas_.mint_batch(policy, signed_.sigstruct, 0).empty());
  Policy not_singleton = policy;
  not_singleton.require_singleton = false;
  EXPECT_THROW(cas_.mint_batch(not_singleton, signed_.sigstruct, 1), Error);
}

TEST_F(CasTest, TokensAreUniqueAndTracked) {
  cas_.install_policy(singleton_policy("s"));
  const auto a = retrieve("s");
  const auto b = retrieve("s");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.token, b.token);
  EXPECT_EQ(cas_.tokens_outstanding(), 2u);
  EXPECT_EQ(cas_.tokens_used(), 0u);
}

TEST_F(CasTest, PhasesRecordedForInstanceRequest) {
  cas_.install_policy(singleton_policy("s"));
  obs::Tracer::instance().reset_phases();
  ASSERT_TRUE(retrieve("s").ok());
  const auto total = phase_stats("request_get_instance");
  const auto mint = phase_stats("mint");
  const auto sign = phase_stats("sign");
  const auto predict = phase_stats("predict");
  const auto verify = phase_stats("verify_common");
  const auto policy = phase_stats("policy_load");
  for (const auto& phase : {total, mint, sign, predict, verify, policy})
    EXPECT_EQ(phase.count, 1u);
  EXPECT_GT(sign.sum.count(), 0);
  EXPECT_GT(predict.sum.count(), 0);
  EXPECT_GT(verify.sum.count(), 0);
  // Nested spans: sign and predict inside mint, all inside the root.
  EXPECT_LE(sign.sum + predict.sum, mint.sum);
  EXPECT_LE(mint.sum + verify.sum + policy.sum, total.sum);
}

TEST_F(CasTest, PolicyReplaceTakesEffect) {
  // Installing a policy with the same session name replaces it — the
  // software-update path: the new version's base hash supersedes the old.
  cas_.install_policy(singleton_policy("s"));
  core::EnclaveImage v2 = image_;
  v2.code[0] ^= 0xff;
  v2.isv_svn = 2;
  const auto signed_v2 = signer_.sign_sinclave(v2);
  Policy p2 = singleton_policy("s");
  p2.base_hash = signed_v2.base_hash;
  cas_.install_policy(p2);

  // Old binary refused, new binary accepted.
  EXPECT_FALSE(retrieve("s").ok());
  EXPECT_TRUE(retrieve("s", signed_v2.sigstruct).ok());
}

// --- striped token-spend store ---

TEST(CasTokenStripes, ExactlyOnceSpendUnderCrossStripeRaces) {
  // The token store is sharded by token id. Race many *distinct* tokens
  // (landing on different stripes) spending concurrently, with two racers
  // per token: each token must attest exactly once, and the aggregate
  // accounting (summed across stripes) must balance. Run under TSAN in
  // CI, this also asserts the striped store itself is race-free.
  crypto::Drbg rng = crypto::Drbg::from_seed(77, "token-race");
  crypto::RsaKeyPair signer_key = crypto::RsaKeyPair::generate(rng, 1024);
  quote::AttestationService attestation;
  CasService cas(&attestation, crypto::Ed25519KeyPair::generate(rng),
                 crypto::Drbg::from_seed(78, "token-race-cas"));
  cas.add_signer_key(signer_key);

  sgx::SgxCpu cpu(sgx::SgxCpu::Config{});
  crypto::Drbg qe_rng = crypto::Drbg::from_seed(79, "token-race-qe");
  quote::QuotingEnclave qe(cpu, qe_rng);
  attestation.register_platform(qe.attestation_key());

  const core::EnclaveImage image = core::EnclaveImage::synthetic(
      "race", sgx::kPageSize, 2 * sgx::kPageSize);
  const core::Signer signer(&signer_key);
  const auto signed_image = signer.sign_sinclave(image);

  Policy policy;
  policy.session_name = "race";
  policy.expected_signer =
      crypto::sha256(signer_key.public_key().modulus_be());
  policy.require_singleton = true;
  policy.base_hash = signed_image.base_hash;
  policy.config.program = "noop";
  cas.install_policy(policy);

  net::SimNetwork net;
  server::CasServer server(&cas, server::CasServerConfig{.workers = 2});
  server.bind(net, "cas");
  CasClientConfig retriever_config;
  retriever_config.address = "cas";
  CasClient retriever(&net, retriever_config);

  constexpr int kTokens = 8;
  constexpr int kRacersPerToken = 2;
  struct Attempt {
    std::unique_ptr<AttestedChannel> channel;
    AttestPayload payload;
    int token_index;
  };
  std::vector<Attempt> attempts;
  for (int t = 0; t < kTokens; ++t) {
    const InstanceResult resp =
        retriever.get_instance("race", signed_image.sigstruct);
    ASSERT_TRUE(resp.ok());
    core::InstancePage page;
    page.token = resp.token;
    page.verifier_id = resp.verifier_id;
    const auto enclave = runtime::start_enclave(
        cpu, image, resp.singleton_sigstruct, page);
    ASSERT_TRUE(enclave.ok());
    for (int r = 0; r < kRacersPerToken; ++r) {
      Attempt a;
      a.channel = std::make_unique<AttestedChannel>(
          &net,
          CasClientConfig{.address = "cas", .retry = {.max_attempts = 1}},
          crypto::Drbg::from_seed(
              static_cast<std::uint64_t>(100 + t * kRacersPerToken + r),
              "race-channel"));
      const sgx::Report report =
          cpu.ereport(enclave.id, qe.target_info(),
                      net::channel_binding(a.channel->dh_public()));
      const auto quote = qe.generate_quote(report);
      ASSERT_TRUE(quote.has_value());
      a.payload.session_name = "race";
      a.payload.quote = *quote;
      a.payload.token = resp.token;
      a.token_index = t;
      attempts.push_back(std::move(a));
    }
  }

  std::array<std::atomic<int>, kTokens> accepted{};
  std::atomic<int> rejected{0};
  std::vector<std::thread> racers;
  for (Attempt& a : attempts) {
    racers.emplace_back([&cas, &accepted, &rejected, &a] {
      if (a.channel->attest(cas.identity(), a.payload).ok())
        ++accepted[static_cast<std::size_t>(a.token_index)];
      else
        ++rejected;
    });
  }
  for (auto& t : racers) t.join();

  for (int t = 0; t < kTokens; ++t)
    EXPECT_EQ(accepted[static_cast<std::size_t>(t)].load(), 1)
        << "token " << t << " must attest exactly once";
  EXPECT_EQ(rejected.load(), kTokens * (kRacersPerToken - 1));
  EXPECT_EQ(cas.tokens_used(), static_cast<std::size_t>(kTokens));
  EXPECT_EQ(cas.tokens_outstanding(), 0u);
}

// --- protocol serialization ---

TEST(Protocol, AppConfigRoundTrip) {
  AppConfig c;
  c.program = "prog";
  c.args = {"a", "b"};
  c.env = {{"K", "V"}, {"X", "Y"}};
  c.secrets = {{"s1", Bytes{1, 2, 3}}, {"s2", {}}};
  c.fs_key = Bytes(32, 9);
  c.fs_manifest_root.data[0] = 7;
  EXPECT_EQ(AppConfig::deserialize(c.serialize()), c);
}

TEST(Protocol, EmptyAppConfigRoundTrip) {
  EXPECT_EQ(AppConfig::deserialize(AppConfig{}.serialize()), AppConfig{});
}

TEST(Protocol, InstanceResponseErrorRoundTrip) {
  InstanceResponse r;
  r.status = Status(StatusCode::kUnknownSession, "extra detail");
  const InstanceResponse back = InstanceResponse::deserialize(r.serialize());
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status.code, StatusCode::kUnknownSession);
  EXPECT_EQ(back.status.message(), "extra detail");
}

TEST(Protocol, EnvelopeRoundTrip) {
  Envelope e;
  e.command = Command::kGetInstance;
  e.request_id = 0x1122334455667788ull;
  e.payload = Bytes{1, 2, 3};
  const Envelope back = Envelope::deserialize(e.serialize());
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.command, e.command);
  EXPECT_EQ(back.request_id, e.request_id);
  EXPECT_EQ(back.payload, e.payload);
  EXPECT_TRUE(Envelope::matches(e.serialize()));
}

TEST(Protocol, EnvelopeNeverMatchesRawMessages) {
  // A raw instance request starts with the u32 length of its session
  // name; for the magic to collide the name would have to be ~3.2 GB.
  InstanceRequest req;
  req.session_name = "ordinary-session";
  EXPECT_FALSE(Envelope::matches(req.serialize()));
  EXPECT_FALSE(Envelope::matches(Bytes{1}));
  EXPECT_FALSE(Envelope::matches(Bytes{}));
}

TEST(Protocol, AttestResponseRoundTrip) {
  AttestResponse ok;
  ok.status = Status();
  ok.acceptance = Bytes{1, 2, 3, 9, 9};
  EXPECT_EQ(AttestResponse::deserialize(ok.serialize()).acceptance,
            ok.acceptance);

  // A refusal is its Status alone: no acceptance rides along.
  AttestResponse denied;
  denied.status = Status(StatusCode::kNotLeader, not_leader_detail("n2"));
  denied.acceptance = Bytes{7};
  const AttestResponse back = AttestResponse::deserialize(denied.serialize());
  EXPECT_EQ(back.status, denied.status);
  EXPECT_TRUE(back.acceptance.empty());
}

TEST(Protocol, PolicySerializationRoundTripAllFields) {
  Policy p;
  p.session_name = "sess";
  p.expected_signer.data[1] = 2;
  p.require_singleton = true;
  p.allow_debug = true;
  p.expected_mr_enclave = sgx::Measurement{};
  crypto::Sha256 h;
  h.update(Bytes(64, 1));
  p.base_hash = core::BaseHash{h.export_state(), 4 * sgx::kPageSize,
                               3 * sgx::kPageSize, 1};
  p.config.program = "x";
  const Policy back = Policy::deserialize(p.serialize());
  EXPECT_EQ(back.session_name, p.session_name);
  EXPECT_EQ(back.require_singleton, p.require_singleton);
  EXPECT_EQ(back.allow_debug, p.allow_debug);
  EXPECT_EQ(back.expected_mr_enclave, p.expected_mr_enclave);
  EXPECT_EQ(back.base_hash->state, p.base_hash->state);
  EXPECT_EQ(back.config, p.config);
}

TEST(Protocol, PolicyWithoutOptionalsRoundTrip) {
  Policy p;
  p.session_name = "min";
  const Policy back = Policy::deserialize(p.serialize());
  EXPECT_FALSE(back.expected_mr_enclave.has_value());
  EXPECT_FALSE(back.base_hash.has_value());
}

TEST(Protocol, AttestPayloadTokenOptional) {
  quote::Quote q;
  q.report.identity.isv_prod_id = 3;
  AttestPayload with;
  with.session_name = "s";
  with.quote = q;
  with.token = core::AttestationToken::from_view(Bytes(32, 5));
  const AttestPayload back = AttestPayload::deserialize(with.serialize());
  EXPECT_TRUE(back.token.has_value());
  EXPECT_EQ(*back.token, *with.token);

  AttestPayload without;
  without.session_name = "s";
  without.quote = q;
  EXPECT_FALSE(
      AttestPayload::deserialize(without.serialize()).token.has_value());
}

TEST(Protocol, MalformedBytesThrowParseError) {
  EXPECT_THROW(AppConfig::deserialize(Bytes{1, 2, 3}), ParseError);
  EXPECT_THROW(InstanceRequest::deserialize(Bytes{}), ParseError);
  EXPECT_THROW(AttestPayload::deserialize(Bytes(10, 0xff)), ParseError);
  EXPECT_THROW(AttestResponse::deserialize(Bytes{}), ParseError);
  EXPECT_THROW(Envelope::deserialize(Bytes{}), ParseError);
}

// Fuzz-style regression over every protocol message: all truncation
// lengths plus seeded bit flips. A deserializer faced with hostile bytes
// may succeed (the mutation landed somewhere inert) or throw from the
// Error hierarchy — anything else (foreign exception, crash) is the bug
// class that used to escape the serving frontends' worker threads.
TEST(Protocol, TruncationAndBitFlipFuzzStaysInsideErrorHierarchy) {
  auto rng = crypto::Drbg::from_seed(4242, "protocol-fuzz");
  const auto signer = crypto::RsaKeyPair::generate(rng, 1024);
  const core::EnclaveImage image = core::EnclaveImage::synthetic(
      "fuzz", sgx::kPageSize, 2 * sgx::kPageSize);
  const core::Signer s(&signer);
  const auto signed_image = s.sign_sinclave(image);

  InstanceRequest req;
  req.session_name = "fuzz";
  req.common_sigstruct = signed_image.sigstruct;

  InstanceResponse ok_resp;
  ok_resp.status = Status();
  ok_resp.singleton_sigstruct = signed_image.sigstruct;

  AttestPayload attest;
  attest.session_name = "fuzz";
  attest.token = core::AttestationToken::from_view(Bytes(32, 7));

  AppConfig config;
  config.program = "p";
  config.secrets["k"] = Bytes(16, 3);

  AttestResponse accepted;
  accepted.status = Status();
  accepted.acceptance = Bytes(64, 5);

  Envelope env;
  env.command = Command::kGetInstance;
  env.request_id = 77;
  env.payload = req.serialize();

  struct Target {
    const char* name;
    Bytes wire;
    std::function<void(ByteView)> parse;
  };
  const std::vector<Target> targets = {
      {"envelope", env.serialize(),
       [](ByteView b) { (void)Envelope::deserialize(b); }},
      {"instance-request", req.serialize(),
       [](ByteView b) { (void)InstanceRequest::deserialize(b); }},
      {"instance-response", ok_resp.serialize(),
       [](ByteView b) { (void)InstanceResponse::deserialize(b); }},
      {"attest-payload", attest.serialize(),
       [](ByteView b) { (void)AttestPayload::deserialize(b); }},
      {"attest-response", accepted.serialize(),
       [](ByteView b) { (void)AttestResponse::deserialize(b); }},
      {"app-config", config.serialize(),
       [](ByteView b) { (void)AppConfig::deserialize(b); }},
  };

  const auto must_stay_contained = [](const Target& t, ByteView mutated,
                                      const char* what) {
    try {
      t.parse(mutated);  // success is fine: the mutation may be inert
    } catch (const Error&) {
      // fine: ParseError or another typed library error
    } catch (...) {
      FAIL() << t.name << ": non-Error exception escaped on " << what;
    }
  };

  for (const Target& t : targets) {
    // Every truncation length (caps the quadratic cost on big messages).
    const std::size_t step = t.wire.size() > 512 ? 7 : 1;
    for (std::size_t len = 0; len < t.wire.size(); len += step)
      must_stay_contained(t, ByteView(t.wire.data(), len), "truncation");

    // Seeded single-bit flips.
    for (int i = 0; i < 200; ++i) {
      Bytes mutated = t.wire;
      const Bytes pick = rng.generate(8);
      std::uint64_t r = 0;
      for (int b = 0; b < 8; ++b) r = (r << 8) | pick[b];
      mutated[r % mutated.size()] ^= static_cast<std::uint8_t>(
          1u << ((r >> 32) % 8));
      must_stay_contained(t, mutated, "bit flip");
    }
  }
}

}  // namespace
}  // namespace sinclave::cas
