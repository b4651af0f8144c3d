// End-to-end integration tests over the full stack (Testbed): baseline and
// SinClave attestation flows, configuration delivery, filesystem
// completeness enforcement, and singleton semantics.
#include <gtest/gtest.h>

#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "workload/testbed.h"

namespace sinclave {
namespace {

using runtime::RuntimeMode;
using workload::Testbed;
using workload::TestbedConfig;

/// Shared fixture: one platform, one victim image, a greeter program that
/// emits its secret (so tests can verify delivery end to end).
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : bed_(TestbedConfig{.seed = 11, .rsa_bits = 1024}) {
    image_ = core::EnclaveImage::synthetic("victim-app", 2 * sgx::kPageSize,
                                           4 * sgx::kPageSize);
    bed_.programs().register_program("greeter", [](runtime::AppContext& ctx) {
      const auto it = ctx.config->secrets.find("greeting");
      if (it == ctx.config->secrets.end()) return 1;
      ctx.output = to_string(it->second);
      return 0;
    });
  }

  cas::Policy base_policy(const std::string& session) {
    cas::Policy p;
    p.session_name = session;
    p.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    p.config.program = "greeter";
    p.config.secrets["greeting"] = to_bytes("hello from " + session);
    return p;
  }

  runtime::RunOptions options(const std::string& session) {
    runtime::RunOptions o;
    o.cas_address = bed_.cas_address();
    o.cas_identity = bed_.cas().identity();
    o.session_name = session;
    return o;
  }

  Testbed bed_;
  core::EnclaveImage image_;
};

// --- baseline flow ---

TEST_F(IntegrationTest, BaselineFlowDeliversConfig) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);

  cas::Policy policy = base_policy("s1");
  policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  bed_.cas().install_policy(policy);

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  ASSERT_TRUE(enclave.ok());
  const auto result = rt.run(enclave, options("s1"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.program_output, "hello from s1");
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kOk);
}

TEST_F(IntegrationTest, BaselineRejectsWrongMeasurement) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);

  cas::Policy policy = base_policy("s2");
  sgx::Measurement wrong = si.sigstruct.enclave_hash;
  wrong.data[0] ^= 1;
  policy.expected_mr_enclave = wrong;
  bed_.cas().install_policy(policy);

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  const auto result = rt.run(enclave, options("s2"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kMeasurementMismatch);
}

TEST_F(IntegrationTest, BaselineRejectsForeignSigner) {
  // Enclave signed by someone other than the policy's signer.
  auto rng = bed_.child_rng("foreign");
  const auto foreign = crypto::RsaKeyPair::generate(rng, 1024);
  const core::Signer signer(&foreign);
  const core::SignedImage si = signer.sign_baseline(image_);

  cas::Policy policy = base_policy("s3");
  policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  bed_.cas().install_policy(policy);

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  const auto result = rt.run(enclave, options("s3"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kSignerMismatch);
}

TEST_F(IntegrationTest, BaselineRejectsDebugEnclaveByDefault) {
  core::EnclaveImage debug_image = image_;
  debug_image.attributes.flags |= sgx::Attributes::kDebug;
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(debug_image);

  cas::Policy policy = base_policy("s4");
  policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  bed_.cas().install_policy(policy);

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave =
      runtime::start_enclave(bed_.cpu(), debug_image, si.sigstruct);
  ASSERT_TRUE(enclave.ok());
  const auto result = rt.run(enclave, options("s4"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(bed_.cas().last_attest_verdict(), Verdict::kAttributesMismatch);
}

TEST_F(IntegrationTest, UnknownSessionRejected) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);
  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  const auto result = rt.run(enclave, options("never-installed"));
  EXPECT_FALSE(result.ok);
}

// --- SinClave singleton flow ---

TEST_F(IntegrationTest, SinclaveFlowDeliversConfig) {
  const core::Signer signer(&bed_.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image_);

  cas::Policy policy = base_policy("t1");
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  bed_.cas().install_policy(policy);

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_, si.sigstruct,
      "t1");
  ASSERT_TRUE(start.ok()) << start.error;
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 1u);

  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  const auto result = rt.run(start.enclave, options("t1"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.program_output, "hello from t1");
  EXPECT_EQ(bed_.cas().tokens_used(), 1u);
}

TEST_F(IntegrationTest, SingletonMeasurementIsUniquePerStart) {
  const core::Signer signer(&bed_.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image_);
  cas::Policy policy = base_policy("t2");
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  bed_.cas().install_policy(policy);

  const auto a = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_, si.sigstruct, "t2");
  const auto b = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_, si.sigstruct, "t2");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(bed_.cpu().identity(a.enclave.id).mr_enclave,
            bed_.cpu().identity(b.enclave.id).mr_enclave);
  EXPECT_NE(a.token, b.token);
}

TEST_F(IntegrationTest, CommonEnclaveCannotAttestInSinclaveMode) {
  const core::Signer signer(&bed_.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image_);
  cas::Policy policy = base_policy("t3");
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  bed_.cas().install_policy(policy);

  // Start the *common* enclave (zero instance page) with the common
  // SigStruct — allowed, but it must refuse to obtain configuration.
  const auto enclave =
      runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  ASSERT_TRUE(enclave.ok());
  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  const auto result = rt.run(enclave, options("t3"));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.starts_with("singleton:")) << result.error;
}

TEST_F(IntegrationTest, RuntimeRefusesUnexpectedVerifier) {
  const core::Signer signer(&bed_.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image_);
  cas::Policy policy = base_policy("t4");
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  bed_.cas().install_policy(policy);

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_, si.sigstruct, "t4");
  ASSERT_TRUE(start.ok());

  // Host claims a different verifier identity.
  auto rng = bed_.child_rng("evil-cas");
  const auto evil_identity = crypto::Ed25519KeyPair::generate(rng);
  runtime::RunOptions o = options("t4");
  o.cas_identity = evil_identity.public_key();

  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  const auto result = rt.run(start.enclave, o);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.starts_with(
      "singleton: refusing to talk to unexpected verifier"))
      << result.error;
}

TEST_F(IntegrationTest, EnclaveConfiguredOnlyOnce) {
  const core::Signer signer(&bed_.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image_);
  cas::Policy policy = base_policy("t5");
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  bed_.cas().install_policy(policy);

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_, si.sigstruct, "t5");
  ASSERT_TRUE(start.ok());
  auto rt = bed_.make_runtime(RuntimeMode::kSinclave);
  ASSERT_TRUE(rt.run(start.enclave, options("t5")).ok);
  const auto second = rt.run(start.enclave, options("t5"));
  EXPECT_FALSE(second.ok);
  EXPECT_TRUE(second.error.starts_with("start: enclave instance was already"))
      << second.error;
}

TEST_F(IntegrationTest, InstanceRequestRejectsForeignSigstruct) {
  const core::Signer signer(&bed_.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image_);
  cas::Policy policy = base_policy("t6");
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  bed_.cas().install_policy(policy);

  // Attacker-modified image => different base enclave => CAS must refuse
  // to mint a token/SigStruct for it.
  core::EnclaveImage patched = image_;
  patched.code[0] ^= 1;
  const core::SinclaveSignedImage evil = signer.sign_sinclave(patched);
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), patched, evil.sigstruct,
      "t6");
  EXPECT_FALSE(start.ok());
  EXPECT_NE(start.error.find("does not match session base hash"),
            std::string::npos)
      << start.error;
}

TEST_F(IntegrationTest, InstanceRequestRejectsBaselineSession) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);
  cas::Policy policy = base_policy("t7");
  policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  bed_.cas().install_policy(policy);

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_, si.sigstruct, "t7");
  EXPECT_FALSE(start.ok());
}

// --- filesystem completeness ---

class VolumeIntegrationTest : public IntegrationTest {
 protected:
  VolumeIntegrationTest() {
    bed_.programs().register_program("reader", [](runtime::AppContext& ctx) {
      if (ctx.volume == nullptr) return 1;
      const auto content = ctx.volume->read_file("data.txt");
      if (!content.has_value()) return 2;
      ctx.output = to_string(*content);
      return 0;
    });
  }

  /// Install a baseline policy with an attached volume; returns host blobs.
  std::map<std::string, Bytes> setup(const std::string& session,
                                     const core::SignedImage& si) {
    auto rng = bed_.child_rng("vol-" + session);
    last_key_ = rng.generate(32);
    fs::EncryptedVolume volume(last_key_, bed_.child_rng("vol-rng-" + session));
    volume.write_file("data.txt", to_bytes("volume-content"));

    cas::Policy policy = base_policy(session);
    policy.expected_mr_enclave = si.sigstruct.enclave_hash;
    policy.config.program = "reader";
    policy.config.fs_key = last_key_;
    policy.config.fs_manifest_root = volume.manifest_root();
    bed_.cas().install_policy(policy);
    return volume.host_export();
  }

  Bytes last_key_;
};

TEST_F(VolumeIntegrationTest, VerifiedVolumeIsReadable) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);
  auto blobs = setup("v1", si);

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  runtime::RunOptions o = options("v1");
  o.volume_blobs = std::move(blobs);
  const auto result = rt.run(enclave, o);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.program_output, "volume-content");
}

TEST_F(VolumeIntegrationTest, TamperedVolumeRejected) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);
  auto blobs = setup("v2", si);
  blobs["data.txt"][16] ^= 1;  // host flips a ciphertext bit

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  runtime::RunOptions o = options("v2");
  o.volume_blobs = std::move(blobs);
  const auto result = rt.run(enclave, o);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.starts_with("volume:")) << result.error;
}

TEST_F(VolumeIntegrationTest, SwappedVolumeRejectedByManifest) {
  // A *consistent but different* volume encrypted under the same key: file
  // integrity passes, the manifest root must still catch it.
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);
  auto blobs = setup("v3", si);

  // Rebuild a second volume under the same key with different content.
  fs::EncryptedVolume other(last_key_, bed_.child_rng("other"));
  other.write_file("data.txt", to_bytes("evil-content"));

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  runtime::RunOptions o = options("v3");
  o.volume_blobs = other.host_export();
  const auto result = rt.run(enclave, o);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.starts_with("volume:")) << result.error;
}

TEST_F(VolumeIntegrationTest, MissingProgramReported) {
  const core::Signer signer(&bed_.user_signer());
  const core::SignedImage si = signer.sign_baseline(image_);
  cas::Policy policy = base_policy("v4");
  policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  policy.config.program = "does-not-exist";
  bed_.cas().install_policy(policy);

  auto rt = bed_.make_runtime(RuntimeMode::kBaseline);
  const auto enclave = runtime::start_enclave(bed_.cpu(), image_, si.sigstruct);
  const auto result = rt.run(enclave, options("v4"));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.starts_with("program: not found")) << result.error;
}

}  // namespace
}  // namespace sinclave
