// Tests for CAS state sealing and rollback protection — the durability
// half of the singleton guarantee: a CAS restart must not forget which
// tokens were consumed, and the adversarial host must not be able to roll
// the token database back to a pre-consumption snapshot.
#include <gtest/gtest.h>

#include "attack/impersonator.h"
#include "cas/persistence.h"
#include "cas/service.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "workload/testbed.h"

namespace sinclave::cas {
namespace {

// --- seal/unseal primitive ---

class SealTest : public ::testing::Test {
 protected:
  crypto::Drbg rng_ = crypto::Drbg::from_seed(61, "seal-tests");
  Bytes key_ = rng_.generate(32);
  MonotonicCounter counter_;
};

TEST_F(SealTest, RoundTrip) {
  const Bytes state = to_bytes("token-database-contents");
  const Bytes blob = seal_state(key_, counter_, state, rng_);
  Bytes out;
  EXPECT_EQ(unseal_state(key_, counter_, blob, out), UnsealStatus::kOk);
  EXPECT_EQ(out, state);
}

TEST_F(SealTest, SealAdvancesCounter) {
  EXPECT_EQ(counter_.read(), 0u);
  seal_state(key_, counter_, to_bytes("a"), rng_);
  EXPECT_EQ(counter_.read(), 1u);
  seal_state(key_, counter_, to_bytes("b"), rng_);
  EXPECT_EQ(counter_.read(), 2u);
}

TEST_F(SealTest, WrongKeyRejected) {
  const Bytes blob = seal_state(key_, counter_, to_bytes("s"), rng_);
  Bytes out;
  EXPECT_EQ(unseal_state(rng_.generate(32), counter_, blob, out),
            UnsealStatus::kBadSeal);
}

TEST_F(SealTest, TamperedBlobRejected) {
  Bytes blob = seal_state(key_, counter_, to_bytes("s"), rng_);
  blob.back() ^= 1;
  Bytes out;
  EXPECT_EQ(unseal_state(key_, counter_, blob, out), UnsealStatus::kBadSeal);
}

TEST_F(SealTest, MalformedBlobRejected) {
  Bytes out;
  EXPECT_EQ(unseal_state(key_, counter_, Bytes{1, 2}, out),
            UnsealStatus::kMalformed);
}

TEST_F(SealTest, StaleSnapshotRejected) {
  // The rollback attack: keep the older (authentic!) blob, present it
  // after a newer seal happened.
  const Bytes old_blob = seal_state(key_, counter_, to_bytes("old"), rng_);
  const Bytes new_blob = seal_state(key_, counter_, to_bytes("new"), rng_);

  Bytes out;
  EXPECT_EQ(unseal_state(key_, counter_, old_blob, out),
            UnsealStatus::kRolledBack);
  EXPECT_EQ(unseal_state(key_, counter_, new_blob, out), UnsealStatus::kOk);
  EXPECT_EQ(out, to_bytes("new"));
}

TEST_F(SealTest, CounterValueCannotBeForgedInBlob) {
  // Attacker rewrites the bound counter value in an old blob to the
  // current one: the AEAD associated data catches it.
  Bytes old_blob = seal_state(key_, counter_, to_bytes("old"), rng_);
  seal_state(key_, counter_, to_bytes("new"), rng_);
  // Counter field is the first u64 of the blob (little-endian).
  old_blob[0] = static_cast<std::uint8_t>(counter_.read());
  Bytes out;
  EXPECT_EQ(unseal_state(key_, counter_, old_blob, out),
            UnsealStatus::kBadSeal);
}

// --- full CAS restart + rollback scenario ---

class CasRestartTest : public ::testing::Test {
 protected:
  CasRestartTest()
      : bed_(workload::TestbedConfig{.seed = 62, .rsa_bits = 1024}),
        image_(core::EnclaveImage::synthetic("restart", sgx::kPageSize,
                                             sgx::kPageSize)) {
    bed_.programs().register_program("ok",
                                     [](runtime::AppContext&) { return 0; });
    const core::Signer signer(&bed_.user_signer());
    signed_image_ = signer.sign_sinclave(image_);

    Policy policy;
    policy.session_name = "restart-session";
    policy.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    policy.require_singleton = true;
    policy.base_hash = signed_image_.base_hash;
    policy.config.program = "ok";
    bed_.cas().install_policy(policy);
  }

  /// Run the legitimate singleton flow once; returns the consumed token.
  core::AttestationToken attest_once() {
    const auto start = runtime::start_singleton_enclave(
        bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
        signed_image_.sigstruct, "restart-session");
    EXPECT_TRUE(start.ok()) << start.error;
    auto rt = bed_.make_runtime(runtime::RuntimeMode::kSinclave);
    runtime::RunOptions o;
    o.cas_address = bed_.cas_address();
    o.cas_identity = bed_.cas().identity();
    o.session_name = "restart-session";
    EXPECT_TRUE(rt.run(start.enclave, o).ok);
    return start.token;
  }

  workload::Testbed bed_;
  core::EnclaveImage image_;
  core::SinclaveSignedImage signed_image_;
  crypto::Drbg seal_rng_ = crypto::Drbg::from_seed(63, "seal");
  Bytes seal_key_ = seal_rng_.generate(32);
  MonotonicCounter counter_;
};

TEST_F(CasRestartTest, StateSurvivesRestart) {
  const auto token = attest_once();
  EXPECT_EQ(bed_.cas().tokens_used(), 1u);

  // Seal, "restart" (import into the same service), verify the consumed
  // token is still consumed.
  const Bytes blob =
      seal_state(seal_key_, counter_, bed_.cas().export_state(), seal_rng_);
  Bytes state;
  ASSERT_EQ(unseal_state(seal_key_, counter_, blob, state), UnsealStatus::kOk);
  bed_.cas().import_state(state);
  EXPECT_EQ(bed_.cas().tokens_used(), 1u);

  // Replaying the old token after restore still fails.
  attack::TeeImpersonator imp(&bed_.network(), &bed_.qe(), "nowhere",
                              bed_.child_rng("imp"));
  (void)token;  // replay path requires a report server; verdict suffices:
  // direct check through a fresh legitimate enclave with the stale token is
  // covered by test_attack; here assert the database state round-tripped.
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 0u);
}

TEST_F(CasRestartTest, RollbackSnapshotIsRejected) {
  // Adversary snapshots CAS state BEFORE the token is consumed...
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
      signed_image_.sigstruct, "restart-session");
  ASSERT_TRUE(start.ok());
  const Bytes pre_blob =
      seal_state(seal_key_, counter_, bed_.cas().export_state(), seal_rng_);

  // ...the token is consumed and fresh state sealed...
  auto rt = bed_.make_runtime(runtime::RuntimeMode::kSinclave);
  runtime::RunOptions o;
  o.cas_address = bed_.cas_address();
  o.cas_identity = bed_.cas().identity();
  o.session_name = "restart-session";
  ASSERT_TRUE(rt.run(start.enclave, o).ok);
  const Bytes post_blob =
      seal_state(seal_key_, counter_, bed_.cas().export_state(), seal_rng_);

  // ...and at "restart" the host supplies the pre-consumption snapshot.
  Bytes state;
  EXPECT_EQ(unseal_state(seal_key_, counter_, pre_blob, state),
            UnsealStatus::kRolledBack);
  // Only the latest state restores — the token stays consumed.
  ASSERT_EQ(unseal_state(seal_key_, counter_, post_blob, state),
            UnsealStatus::kOk);
  bed_.cas().import_state(state);
  EXPECT_EQ(bed_.cas().tokens_used(), 1u);
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 0u);
}

TEST_F(CasRestartTest, ExportImportPreservesPolicies) {
  const Bytes state = bed_.cas().export_state();
  bed_.cas().import_state(state);
  // Policy still answers instance requests after the round trip.
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
      signed_image_.sigstruct, "restart-session");
  EXPECT_TRUE(start.ok()) << start.error;
}

TEST_F(CasRestartTest, ImportRejectsGarbage) {
  EXPECT_THROW(bed_.cas().import_state(Bytes{1, 2, 3}), ParseError);
}

// --- sealed-state format ---

// A restarted node must unseal what its previous build sealed, so the
// export_state layout — "policies/<name>" -> Policy::serialize() entries in
// name order, then the token table — is pinned to the bytes the
// encrypted-policy-DB implementation exported for this state: three
// out-of-order installs, one of them replaced.
TEST(StateFormat, PolicyOnlyExportMatchesGolden) {
  quote::AttestationService attestation;
  crypto::Drbg key_rng = crypto::Drbg::from_seed(64, "golden-identity");
  CasService cas(&attestation, crypto::Ed25519KeyPair::generate(key_rng),
                 crypto::Drbg::from_seed(65, "golden-cas"));
  const auto policy = [](const std::string& name, const std::string& program) {
    Policy p;
    p.session_name = name;
    p.expected_signer = crypto::sha256(to_bytes("golden-signer"));
    p.config.program = program;
    return p;
  };
  crypto::Sha256 base;
  base.update(Bytes(64, 0xb5));
  Policy singleton = policy("gamma", "app");
  singleton.require_singleton = true;
  singleton.base_hash = core::BaseHash{base.export_state(),
                                       8 * sgx::kPageSize, sgx::kPageSize, 1};
  singleton.config.args = {"--serve"};
  singleton.config.env = {{"MODE", "prod"}};
  singleton.config.secrets = {{"db", to_bytes("hunter2")}};
  singleton.config.fs_key = Bytes(32, 0x42);
  singleton.config.fs_manifest_root = crypto::sha256(to_bytes("manifest"));
  Policy baseline = policy("alpha", "old");
  baseline.expected_mr_enclave = crypto::sha256(to_bytes("common-mr"));
  Policy debug = policy("beta", "dbg");
  debug.allow_debug = true;

  cas.install_policy(singleton);
  cas.install_policy(baseline);
  cas.install_policy(debug);
  baseline.config.program = "new";
  cas.install_policy(baseline);

  const Bytes state = cas.export_state();
  EXPECT_EQ(state.size(), 568u);
  EXPECT_EQ(crypto::sha256(state).hex(),
            "dea4f113888bc980f7993c0e081fa232841fd520d35c07cb96b5621a864d843a");
}

// A replica unseals what the previous build sealed, so the sealed blob —
// counter, nonce, AEAD record — is pinned to hex, not only round-tripped.
// The 140-byte state is eight whole AES blocks and a 12-byte tail.
TEST(StateFormat, SealedBlobMatchesGolden) {
  crypto::Drbg rng = crypto::Drbg::from_seed(66, "golden-seal");
  const Bytes key = rng.generate(32);
  MonotonicCounter counter;
  Bytes state(140);
  for (std::size_t i = 0; i < state.size(); ++i)
    state[i] = static_cast<std::uint8_t>(11 * i + 5);

  EXPECT_EQ(to_hex(seal_state(key, counter, state, rng)),
            "0100000000000000043c03ea479dd1941920a9fb9c00000063da3de7954988b9"
            "6395bb0e54f8cff0c6dfe7f3e0bdb7ee04d1b198da18219941cb75dce14f8796"
            "5df0a759d652c7ac3a38856bdcc523c9dba7647081c02dca95cb2e3d69066e6a"
            "b684cc57b58a6a46899398ecc4e049579a3fa350bd0e91a21e6bbe96911c02f4"
            "c428a3f360b2dae368336ee3c5ff5b345c18a87de567b4f3fed60c9bcae6ce40"
            "870751de60c39fc617f0403722cc05cc163336f1");
}

}  // namespace
}  // namespace sinclave::cas
