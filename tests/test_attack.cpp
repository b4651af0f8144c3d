// The paper's §3 attack, reproduced end to end — and §4's defense.
//
// Scenario: a user deploys an interpreter-style enclave ("victim image")
// whose behaviour is decided entirely by unmeasured configuration. The
// adversary controls the host: they can start the victim enclave with any
// configuration source, clone volumes, and run arbitrary untrusted
// software (the TEE impersonator). The user's CAS holds the secrets.
//
//   * Against the BASELINE flow the attack must SUCCEED (stealing the
//     user's secrets without ever running the attested code path).
//   * Against the SINCLAVE flow every variant of the attack must FAIL,
//     with the precise rejection the design predicts.
#include <gtest/gtest.h>

#include "attack/impersonator.h"
#include "attack/report_server.h"
#include "cas/client.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

namespace sinclave {
namespace {

using runtime::RuntimeMode;

class AttackTest : public ::testing::Test {
 protected:
  static constexpr const char* kReportServerAddr = "attacker.report-server";

  AttackTest()
      : bed_(workload::TestbedConfig{.seed = 99, .rsa_bits = 1024}),
        victim_image_(core::EnclaveImage::synthetic(
            "python-interpreter", 4 * sgx::kPageSize, 8 * sgx::kPageSize)),
        attacker_rng_(bed_.child_rng("attacker")) {
    // The interpreter image can run any registered program — including,
    // fatally, the attacker's report server.
    attack::register_report_server(bed_.programs());
    bed_.programs().register_program("user-app", [](runtime::AppContext& ctx) {
      ctx.output = "user app doing user things";
      return 0;
    });

    // The attacker operates their own verifier (trivially possible: CAS is
    // just software; only the *user's* CAS holds the user's secrets).
    attacker_cas_ = std::make_unique<cas::CasService>(
        &bed_.attestation(), crypto::Ed25519KeyPair::generate(attacker_rng_),
        bed_.child_rng("attacker-cas"));
    attacker_cas_->add_signer_key(bed_.user_signer());
    attacker_server_ =
        std::make_unique<server::CasServer>(attacker_cas_.get());
    attacker_server_->bind(bed_.network(), "cas.attacker");
  }

  /// User-side deployment: install the victim session on the user's CAS.
  void deploy_user_session(bool sinclave) {
    const core::Signer signer(&bed_.user_signer());
    cas::Policy policy;
    policy.session_name = "victim-session";
    policy.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    policy.config.program = "user-app";
    policy.config.secrets["db-password"] = to_bytes("hunter2");

    if (sinclave) {
      const core::SinclaveSignedImage si = signer.sign_sinclave(victim_image_);
      user_sigstruct_ = si.sigstruct;
      policy.require_singleton = true;
      policy.base_hash = si.base_hash;
    } else {
      const core::SignedImage si = signer.sign_baseline(victim_image_);
      user_sigstruct_ = si.sigstruct;
      policy.expected_mr_enclave = si.sigstruct.enclave_hash;
    }
    bed_.cas().install_policy(policy);
  }

  /// Attacker-side: configure *their* CAS to turn the victim enclave into
  /// a report server (baseline world: sessions are attacker-installable on
  /// the attacker's own verifier; the enclave can't tell verifiers apart).
  void install_attacker_report_server_policy() {
    cas::Policy policy;
    policy.session_name = "coerced-session";
    policy.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    policy.expected_mr_enclave = user_sigstruct_.enclave_hash;
    policy.config.program = attack::kReportServerProgram;
    policy.config.args = {kReportServerAddr};
    attacker_cas_->install_policy(policy);
  }

  /// Boot the victim enclave as a report server via the attacker's CAS.
  bool boot_report_server(RuntimeMode victim_runtime_mode) {
    const auto enclave =
        runtime::start_enclave(bed_.cpu(), victim_image_, user_sigstruct_);
    if (!enclave.ok()) return false;
    auto rt = bed_.make_runtime(victim_runtime_mode);
    runtime::RunOptions o;
    o.cas_address = "cas.attacker";
    o.cas_identity = attacker_cas_->identity();
    o.session_name = "coerced-session";
    last_boot_ = rt.run(enclave, o);
    return last_boot_.ok;
  }

  workload::Testbed bed_;
  core::EnclaveImage victim_image_;
  crypto::Drbg attacker_rng_;
  std::unique_ptr<cas::CasService> attacker_cas_;
  std::unique_ptr<server::CasServer> attacker_server_;  // dies first
  sgx::SigStruct user_sigstruct_;
  runtime::RunResult last_boot_;
};

// ---------------------------------------------------------------------------
// Phase 1: the attack SUCCEEDS against the baseline (§3.3)
// ---------------------------------------------------------------------------

TEST_F(AttackTest, BaselineEnclaveAcceptsAttackerConfiguration) {
  deploy_user_session(/*sinclave=*/false);
  install_attacker_report_server_policy();
  // The baseline runtime happily fetches config from the attacker's CAS:
  // nothing about the verifier is measured.
  EXPECT_TRUE(boot_report_server(RuntimeMode::kBaseline)) << last_boot_.error;
  EXPECT_TRUE(bed_.network().has_listener(kReportServerAddr));
}

TEST_F(AttackTest, ReportServerSignsArbitraryReportData) {
  deploy_user_session(false);
  install_attacker_report_server_policy();
  ASSERT_TRUE(boot_report_server(RuntimeMode::kBaseline));

  sgx::ReportData chosen;
  for (std::size_t i = 0; i < 64; ++i)
    chosen.data[i] = static_cast<std::uint8_t>(i);
  const sgx::Report report = attack::request_report(
      bed_.network(), kReportServerAddr, bed_.qe().target_info(), chosen);

  // The report carries the VICTIM's genuine measurement with the
  // ATTACKER's report data, and it quotes successfully.
  EXPECT_EQ(report.identity.mr_enclave, user_sigstruct_.enclave_hash);
  EXPECT_EQ(report.report_data, chosen);
  EXPECT_TRUE(bed_.qe().generate_quote(report).has_value());
}

TEST_F(AttackTest, FullBypassStealsSecretsFromBaseline) {
  deploy_user_session(false);
  install_attacker_report_server_policy();
  ASSERT_TRUE(boot_report_server(RuntimeMode::kBaseline));

  attack::TeeImpersonator impersonator(&bed_.network(), &bed_.qe(),
                                       kReportServerAddr,
                                       bed_.child_rng("imp"));
  const auto attempt = impersonator.steal_config(
      bed_.cas_address(), bed_.cas().identity(), "victim-session");

  ASSERT_TRUE(attempt.succeeded()) << attempt.failure;
  EXPECT_EQ(attempt.stolen_config->secrets.at("db-password"),
            to_bytes("hunter2"));
  // The user's CAS believed everything was fine.
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kOk);
}

TEST_F(AttackTest, StolenQuoteWithoutChannelBindingRejected) {
  // A *captured* legitimate quote (bound to someone else's channel key)
  // replayed by the impersonator must fail: the REPORTDATA commits to the
  // DH key of the session it was minted for. This is why the attack needs
  // a report server rather than passive quote theft.
  deploy_user_session(false);
  install_attacker_report_server_policy();
  ASSERT_TRUE(boot_report_server(RuntimeMode::kBaseline));

  // Mint a quote bound to a DIFFERENT channel key (data chosen freely,
  // but not matching the impersonator's handshake key).
  sgx::ReportData foreign_binding;
  foreign_binding.data[0] = 0xcc;
  const sgx::Report report = attack::request_report(
      bed_.network(), kReportServerAddr, bed_.qe().target_info(),
      foreign_binding);
  const auto quote = bed_.qe().generate_quote(report);
  ASSERT_TRUE(quote.has_value());

  // Drive the handshake with that mismatched quote.
  cas::AttestedChannel channel(
      &bed_.network(),
      cas::CasClientConfig{.address = bed_.cas_address(),
                           .retry = {.max_attempts = 1}},
      bed_.child_rng("replayer"));
  cas::AttestPayload payload;
  payload.session_name = "victim-session";
  payload.quote = *quote;
  const Result<cas::AppConfig> accepted =
      channel.attest(bed_.cas().identity(), payload);
  EXPECT_FALSE(accepted.ok());
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kPolicyViolation);
}

TEST_F(AttackTest, ImpersonatorAloneCannotForgeQuotes) {
  // Sanity: without the report server the impersonator fails — the attack
  // genuinely needs the coerced enclave (reports are hardware-MACed).
  deploy_user_session(false);
  attack::TeeImpersonator impersonator(&bed_.network(), &bed_.qe(),
                                       "nothing-listening",
                                       bed_.child_rng("imp2"));
  const auto attempt = impersonator.steal_config(
      bed_.cas_address(), bed_.cas().identity(), "victim-session");
  EXPECT_FALSE(attempt.succeeded());
  EXPECT_EQ(attempt.failure, "report-server-unreachable");
}

TEST_F(AttackTest, DynamicModuleLoadingIsAnEquivalentVector) {
  // §3.2's second vector: not an interpreter, but a fixed server binary
  // with dynamic module loading (Apache httpd modules, NGINX dynamic
  // modules). The *server* program is benign; which module it loads comes
  // from unmeasured configuration — the adversary loads the report server
  // as a "module".
  deploy_user_session(false);

  // The benign server's extension point: load the configured optional
  // module by name (mod_deflate, mod_ssl, ...). The module "registry" is
  // the program registry — dynamically loaded code runs with the server's
  // full privileges, report API included.
  const runtime::ProgramRegistry* registry = &bed_.programs();
  bed_.programs().register_program(
      "web-server", [registry](runtime::AppContext& ctx) -> int {
        const auto module_it = ctx.config->env.find("LoadModule");
        if (module_it == ctx.config->env.end()) {
          ctx.output = "serving without modules";
          return 0;
        }
        const runtime::Program* module = registry->find(module_it->second);
        if (module == nullptr) return 1;
        return (*module)(ctx);  // dynamic code runs inside the enclave
      });

  cas::Policy coerced;
  coerced.session_name = "coerced-module";
  coerced.expected_signer =
      crypto::sha256(bed_.user_signer().public_key().modulus_be());
  coerced.expected_mr_enclave = user_sigstruct_.enclave_hash;
  coerced.config.program = "web-server";
  coerced.config.env["LoadModule"] = attack::kReportServerProgram;
  coerced.config.args = {kReportServerAddr};
  attacker_cas_->install_policy(coerced);

  const auto enclave =
      runtime::start_enclave(bed_.cpu(), victim_image_, user_sigstruct_);
  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  runtime::RunOptions o;
  o.cas_address = "cas.attacker";
  o.cas_identity = attacker_cas_->identity();
  o.session_name = "coerced-module";
  ASSERT_TRUE(rt.run(enclave, o).ok);

  // The "web server" now answers report requests; full bypass follows.
  attack::TeeImpersonator impersonator(&bed_.network(), &bed_.qe(),
                                       kReportServerAddr,
                                       bed_.child_rng("imp-mod"));
  const auto attempt = impersonator.steal_config(
      bed_.cas_address(), bed_.cas().identity(), "victim-session");
  ASSERT_TRUE(attempt.succeeded()) << attempt.failure;
  EXPECT_EQ(attempt.stolen_config->secrets.at("db-password"),
            to_bytes("hunter2"));
}

// ---------------------------------------------------------------------------
// Phase 2: every attack variant FAILS against SinClave (§4.4)
// ---------------------------------------------------------------------------

TEST_F(AttackTest, SinclaveRuntimeRefusesAttackerConfiguration) {
  // Variant (a): boot the common enclave against the attacker's CAS. The
  // SinClave runtime refuses: a common enclave never takes configuration.
  deploy_user_session(/*sinclave=*/true);
  install_attacker_report_server_policy();
  EXPECT_FALSE(boot_report_server(RuntimeMode::kSinclave));
  EXPECT_TRUE(last_boot_.error.starts_with("singleton:")) << last_boot_.error;
  EXPECT_FALSE(bed_.network().has_listener(kReportServerAddr));
}

TEST_F(AttackTest, SinclaveSingletonOnlyTalksToItsVerifier) {
  // Variant (b): the attacker obtains a legitimate token+SigStruct from
  // the USER's CAS, then tries to point the singleton at the attacker CAS
  // to deliver the report-server config. The runtime refuses: the verifier
  // identity in the instance page does not match.
  deploy_user_session(true);
  install_attacker_report_server_policy();

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), victim_image_,
      user_sigstruct_, "victim-session");
  ASSERT_TRUE(start.ok()) << start.error;

  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  runtime::RunOptions o;
  o.cas_address = "cas.attacker";
  o.cas_identity = attacker_cas_->identity();
  o.session_name = "coerced-session";
  const auto result = rt.run(start.enclave, o);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.starts_with(
      "singleton: refusing to talk to unexpected verifier"))
      << result.error;
}

TEST_F(AttackTest, SinclaveCommonEnclaveQuoteRejectedByCas) {
  // Variant (c): suppose the attacker somehow ran a report server in the
  // COMMON enclave (e.g. a hypothetical runtime bug). Its quote still
  // fails at the user's CAS: common MRENCLAVE != any expected singleton
  // measurement, and there is no valid token.
  deploy_user_session(true);
  install_attacker_report_server_policy();
  // Force the report server via the attacker CAS using a BASELINE runtime
  // (modelling a patched/buggy runtime — which would also change
  // MRENCLAVE in reality; this is the attacker's best case).
  ASSERT_TRUE(boot_report_server(RuntimeMode::kBaseline));

  attack::TeeImpersonator impersonator(&bed_.network(), &bed_.qe(),
                                       kReportServerAddr,
                                       bed_.child_rng("imp3"));

  // Without a token: rejected outright.
  auto attempt = impersonator.steal_config(
      bed_.cas_address(), bed_.cas().identity(), "victim-session");
  EXPECT_FALSE(attempt.succeeded());
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kTokenUnknown);

  // With a fresh legitimate token: the quote's MRENCLAVE (common enclave)
  // does not match the token's expected singleton measurement.
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), victim_image_,
      user_sigstruct_, "victim-session");
  ASSERT_TRUE(start.ok());
  attempt = impersonator.steal_config(bed_.cas_address(),
                                      bed_.cas().identity(), "victim-session",
                                      start.token);
  EXPECT_FALSE(attempt.succeeded());
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kMeasurementMismatch);
}

TEST_F(AttackTest, SinclaveTokenCannotBeReused) {
  // Variant (d): replaying the token of a singleton that already attested
  // ("reuse attack" in its purest form).
  deploy_user_session(true);

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), victim_image_,
      user_sigstruct_, "victim-session");
  ASSERT_TRUE(start.ok());

  // Legitimate first attestation consumes the token.
  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  runtime::RunOptions o;
  o.cas_address = bed_.cas_address();
  o.cas_identity = bed_.cas().identity();
  o.session_name = "victim-session";
  ASSERT_TRUE(rt.run(start.enclave, o).ok);

  // Now a replay with the very same (once-valid) token.
  install_attacker_report_server_policy();
  ASSERT_TRUE(boot_report_server(RuntimeMode::kBaseline));
  attack::TeeImpersonator impersonator(&bed_.network(), &bed_.qe(),
                                       kReportServerAddr,
                                       bed_.child_rng("imp4"));
  const auto attempt =
      impersonator.steal_config(bed_.cas_address(), bed_.cas().identity(),
                                "victim-session", start.token);
  EXPECT_FALSE(attempt.succeeded());
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kTokenReused);
}

TEST_F(AttackTest, SinclavePatchedImageRejectedAtTokenIssuance) {
  // Variant (e): the attacker patches the runtime inside the image to
  // remove the singleton checks, then asks the user's CAS for a token.
  // The patched image has a different base enclave -> refused.
  deploy_user_session(true);
  core::EnclaveImage patched = victim_image_;
  patched.code[100] ^= 0xff;
  const core::Signer signer(&bed_.user_signer());
  const auto patched_signed = signer.sign_sinclave(patched);

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), patched,
      patched_signed.sigstruct, "victim-session");
  EXPECT_FALSE(start.ok());
  EXPECT_NE(start.error.find("does not match session base hash"),
            std::string::npos)
      << start.error;
}

TEST_F(AttackTest, LegitimateUserUnaffectedBySinclave) {
  // The defense must not break the honest path.
  deploy_user_session(true);
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), victim_image_,
      user_sigstruct_, "victim-session");
  ASSERT_TRUE(start.ok()) << start.error;
  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  runtime::RunOptions o;
  o.cas_address = bed_.cas_address();
  o.cas_identity = bed_.cas().identity();
  o.session_name = "victim-session";
  const auto result = rt.run(start.enclave, o);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.program_output, "user app doing user things");
}

}  // namespace
}  // namespace sinclave
