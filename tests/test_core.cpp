// Tests for the SinClave core: base hash, instance page, signer (both
// paths), verifier-side measurement prediction, and on-demand SigStructs.
// The central property: the verifier's *predicted* MRENCLAVE equals the
// MRENCLAVE the simulated hardware computes for the actually-constructed
// singleton enclave.
#include <gtest/gtest.h>

#include "core/base_hash.h"
#include "core/image.h"
#include "core/instance_page.h"
#include "core/on_demand.h"
#include "core/predictor.h"
#include "core/signer.h"
#include "runtime/starter.h"
#include "sgx/cpu.h"

namespace sinclave::core {
namespace {

crypto::Drbg rng(std::uint64_t seed) {
  return crypto::Drbg::from_seed(seed, "core-tests");
}

// --- EnclaveImage layout ---

TEST(EnclaveImage, LayoutArithmetic) {
  EnclaveImage img = EnclaveImage::synthetic("t", 5000, 2 * sgx::kPageSize);
  EXPECT_EQ(img.code_bytes_padded(), 2 * sgx::kPageSize);  // 5000 -> 2 pages
  EXPECT_EQ(img.code_pages(), 2u);
  EXPECT_EQ(img.heap_pages(), 2u);
  EXPECT_EQ(img.instance_page_offset(), 4 * sgx::kPageSize);
  EXPECT_EQ(img.total_size(), 5 * sgx::kPageSize);
}

TEST(EnclaveImage, EmptyCodeStillOnePage) {
  EnclaveImage img;
  img.code.clear();
  img.heap_bytes = 0;
  EXPECT_EQ(img.code_pages(), 1u);
  EXPECT_EQ(img.total_size(), 2 * sgx::kPageSize);
}

TEST(EnclaveImage, CodePagePaddedWithZeros) {
  EnclaveImage img = EnclaveImage::synthetic("t", 100, 0);
  const Bytes page = img.code_page(0);
  EXPECT_EQ(page.size(), sgx::kPageSize);
  EXPECT_EQ(Bytes(page.begin(), page.begin() + 100),
            Bytes(img.code.begin(), img.code.end()));
  for (std::size_t i = 100; i < sgx::kPageSize; ++i)
    EXPECT_EQ(page[i], 0) << i;
  EXPECT_THROW(img.code_page(1), Error);
}

TEST(EnclaveImage, HeapMustBePageMultiple) {
  EnclaveImage img = EnclaveImage::synthetic("t", 100, 0);
  img.heap_bytes = 100;
  EXPECT_THROW(img.heap_pages(), Error);
}

TEST(EnclaveImage, SerializationRoundTrip) {
  EnclaveImage img = EnclaveImage::synthetic("round", 1000, sgx::kPageSize);
  img.isv_prod_id = 3;
  img.isv_svn = 4;
  EXPECT_EQ(EnclaveImage::deserialize(img.serialize()), img);
}

TEST(EnclaveImage, SyntheticIsDeterministicPerName) {
  EXPECT_EQ(EnclaveImage::synthetic("a", 100, 0),
            EnclaveImage::synthetic("a", 100, 0));
  EXPECT_NE(EnclaveImage::synthetic("a", 100, 0).code,
            EnclaveImage::synthetic("b", 100, 0).code);
}

// --- instance page ---

TEST(InstancePage, RenderParseRoundTrip) {
  InstancePage page;
  auto r = rng(1);
  r.generate(page.token.data.data(), 32);
  r.generate(page.verifier_id.data.data(), 32);
  const Bytes rendered = page.render();
  EXPECT_EQ(rendered.size(), sgx::kPageSize);
  const auto parsed = InstancePage::parse(rendered);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, page);
}

TEST(InstancePage, ZeroPageParsesAsCommon) {
  EXPECT_FALSE(InstancePage::parse(Bytes(sgx::kPageSize, 0)).has_value());
}

TEST(InstancePage, GarbageRejected) {
  Bytes garbage(sgx::kPageSize, 0);
  garbage[0] = 0x01;  // nonzero but wrong magic
  EXPECT_THROW(InstancePage::parse(garbage), ParseError);
  EXPECT_THROW(InstancePage::parse(Bytes(100, 0)), ParseError);

  InstancePage page;
  Bytes tampered = page.render();
  tampered[sgx::kPageSize - 1] = 0xff;  // nonzero padding
  EXPECT_THROW(InstancePage::parse(tampered), ParseError);
}

// --- base hash ---

TEST(BaseHash, EncodeDecodeRoundTrip) {
  crypto::Sha256 h;
  h.update(Bytes(128, 3));
  BaseHash b;
  b.state = h.export_state();
  b.enclave_size = 10 * sgx::kPageSize;
  b.instance_page_offset = 9 * sgx::kPageSize;
  b.ssa_frame_size = 2;
  EXPECT_EQ(BaseHash::decode(b.encode()), b);
}

TEST(BaseHash, DefaultsAreEqualAndEncodeAlike) {
  // A default base hash is all zeros, not indeterminate words: two of
  // them compare equal and encode to the same bytes.
  const BaseHash a;
  const BaseHash b;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.state.encode().size(), 44u);
  EXPECT_EQ(a.state.encode(), b.state.encode());
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(BaseHash, DecodeRejectsInconsistentLayout) {
  crypto::Sha256 h;
  BaseHash b;
  b.state = h.export_state();
  b.enclave_size = sgx::kPageSize;
  b.instance_page_offset = sgx::kPageSize;  // outside [0, size)
  EXPECT_THROW(BaseHash::decode(b.encode()), ParseError);
}

// --- signer ---

class SignerTest : public ::testing::Test {
 protected:
  SignerTest()
      : rng_(rng(10)),
        key_(crypto::RsaKeyPair::generate(rng_, 1024)),
        signer_(&key_),
        image_(EnclaveImage::synthetic("signer-test", 3 * sgx::kPageSize,
                                       2 * sgx::kPageSize)) {}

  crypto::Drbg rng_;
  crypto::RsaKeyPair key_;
  Signer signer_;
  EnclaveImage image_;
};

TEST_F(SignerTest, FastAndInterruptiblePathsAgree) {
  const sgx::Measurement fast = signer_.measure_fast(image_);
  const auto slow = signer_.measure_interruptible(image_);
  EXPECT_EQ(fast, slow.mr_enclave);
}

TEST_F(SignerTest, BaselineSigstructVerifies) {
  const SignedImage si = signer_.sign_baseline(image_);
  EXPECT_TRUE(si.sigstruct.signature_valid());
  EXPECT_EQ(si.sigstruct.enclave_hash, signer_.measure_fast(image_));
}

TEST_F(SignerTest, SinclaveBaseHashFinalizesToCommonMeasurement) {
  // predict_common(base hash) must equal the common MRENCLAVE in the
  // SigStruct — the verifier's cross-check of received artifacts.
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  EXPECT_EQ(MeasurementPredictor::predict_common(si.base_hash),
            si.sigstruct.enclave_hash);
}

TEST_F(SignerTest, BaseHashCarriesLayout) {
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  EXPECT_EQ(si.base_hash.enclave_size, image_.total_size());
  EXPECT_EQ(si.base_hash.instance_page_offset, image_.instance_page_offset());
}

TEST_F(SignerTest, DifferentImagesDifferentBaseHashes) {
  const auto a = signer_.sign_sinclave(image_);
  EnclaveImage other = image_;
  other.code[0] ^= 1;
  const auto b = signer_.sign_sinclave(other);
  EXPECT_NE(a.base_hash.state, b.base_hash.state);

  EnclaveImage bigger_heap = image_;
  bigger_heap.heap_bytes += sgx::kPageSize;
  const auto c = signer_.sign_sinclave(bigger_heap);
  EXPECT_NE(a.base_hash.state, c.base_hash.state);
}

// --- predictor vs real hardware construction (the core property) ---

TEST_F(SignerTest, PredictionMatchesHardwareForSingleton) {
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);

  InstancePage page;
  auto r = rng(11);
  r.generate(page.token.data.data(), 32);
  r.generate(page.verifier_id.data.data(), 32);

  const sgx::Measurement predicted =
      MeasurementPredictor::predict(si.base_hash, page);

  // Build the enclave for real on the simulated CPU.
  sgx::SgxCpu cpu{sgx::SgxCpu::Config{5, {}, true}};
  const sgx::SigStruct on_demand =
      make_on_demand_sigstruct(si.sigstruct, predicted, key_);
  const runtime::StartedEnclave enclave =
      runtime::start_enclave(cpu, image_, on_demand, page);

  ASSERT_TRUE(enclave.ok()) << to_string(enclave.einit_verdict);
  EXPECT_EQ(cpu.identity(enclave.id).mr_enclave, predicted);
}

TEST_F(SignerTest, PredictionMatchesHardwareForCommon) {
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  sgx::SgxCpu cpu{sgx::SgxCpu::Config{6, {}, true}};
  const runtime::StartedEnclave enclave =
      runtime::start_enclave(cpu, image_, si.sigstruct);
  ASSERT_TRUE(enclave.ok());
  EXPECT_EQ(cpu.identity(enclave.id).mr_enclave,
            MeasurementPredictor::predict_common(si.base_hash));
}

TEST_F(SignerTest, DistinctTokensDistinctMeasurements) {
  // Freshness: every token individualizes MRENCLAVE.
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  auto r = rng(12);
  InstancePage p1, p2;
  r.generate(p1.token.data.data(), 32);
  r.generate(p2.token.data.data(), 32);
  p1.verifier_id = p2.verifier_id = crypto::sha256(to_bytes("verifier"));
  EXPECT_NE(MeasurementPredictor::predict(si.base_hash, p1),
            MeasurementPredictor::predict(si.base_hash, p2));
}

TEST_F(SignerTest, DistinctVerifiersDistinctMeasurements) {
  // An enclave bound to verifier A can never impersonate one bound to B.
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  InstancePage p1, p2;
  p1.token = p2.token = AttestationToken::from_view(Bytes(32, 7));
  p1.verifier_id = crypto::sha256(to_bytes("verifier-a"));
  p2.verifier_id = crypto::sha256(to_bytes("verifier-b"));
  EXPECT_NE(MeasurementPredictor::predict(si.base_hash, p1),
            MeasurementPredictor::predict(si.base_hash, p2));
}

// --- on-demand sigstruct ---

TEST_F(SignerTest, OnDemandPreservesEverythingButMeasurement) {
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  sgx::Measurement target;
  target.data[0] = 0x99;
  const sgx::SigStruct od = make_on_demand_sigstruct(si.sigstruct, target, key_);
  EXPECT_TRUE(od.signature_valid());
  EXPECT_EQ(od.enclave_hash, target);
  EXPECT_EQ(od.mr_signer(), si.sigstruct.mr_signer());
  EXPECT_EQ(od.isv_prod_id, si.sigstruct.isv_prod_id);
  EXPECT_EQ(od.attributes, si.sigstruct.attributes);
}

TEST_F(SignerTest, OnDemandRejectsForeignSigner) {
  const SinclaveSignedImage si = signer_.sign_sinclave(image_);
  auto r = rng(13);
  const auto other_key = crypto::RsaKeyPair::generate(r, 1024);
  EXPECT_THROW(
      make_on_demand_sigstruct(si.sigstruct, sgx::Measurement{}, other_key),
      Error);
}

TEST_F(SignerTest, OnDemandRejectsUnsignedCommon) {
  sgx::SigStruct unsigned_common;
  unsigned_common.signer_key = key_.public_key();
  EXPECT_THROW(
      make_on_demand_sigstruct(unsigned_common, sgx::Measurement{}, key_),
      Error);
}

// --- property sweep: prediction holds across image shapes ---

struct ImageShape {
  std::size_t code_size;
  std::uint64_t heap_pages;
};

class PredictionSweep : public ::testing::TestWithParam<ImageShape> {};

TEST_P(PredictionSweep, PredictionMatchesHardware) {
  const auto& shape = GetParam();
  auto key_rng = rng(100);
  const auto key = crypto::RsaKeyPair::generate(key_rng, 1024);
  const Signer signer(&key);
  const EnclaveImage image = EnclaveImage::synthetic(
      "sweep", shape.code_size, shape.heap_pages * sgx::kPageSize);
  const SinclaveSignedImage si = signer.sign_sinclave(image);

  InstancePage page;
  page.token = AttestationToken::from_view(Bytes(32, 0x21));
  page.verifier_id = crypto::sha256(to_bytes("sweep-verifier"));
  const sgx::Measurement predicted =
      MeasurementPredictor::predict(si.base_hash, page);

  sgx::SgxCpu cpu{sgx::SgxCpu::Config{9, {}, true}};
  const sgx::SigStruct od = make_on_demand_sigstruct(si.sigstruct, predicted, key);
  const runtime::StartedEnclave enclave =
      runtime::start_enclave(cpu, image, od, page);
  ASSERT_TRUE(enclave.ok()) << to_string(enclave.einit_verdict);
  EXPECT_EQ(cpu.identity(enclave.id).mr_enclave, predicted);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PredictionSweep,
    ::testing::Values(ImageShape{1, 0}, ImageShape{100, 1},
                      ImageShape{sgx::kPageSize, 4},
                      ImageShape{3 * sgx::kPageSize + 17, 16},
                      ImageShape{64 * 1024, 64}));

}  // namespace
}  // namespace sinclave::core
