// Cross-module property sweeps (parameterized): AEAD over payload sizes,
// the secure channel's sealed answer over sizes, big-integer division over
// operand widths, end-to-end singleton prediction over token patterns, and
// the stamped SigStruct pool over seeded call sequences.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "core/predictor.h"
#include "core/signer.h"
#include "crypto/aead.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "net/secure_channel.h"
#include "server/sigstruct_cache.h"

namespace sinclave {
namespace {

// --- AEAD payload-size sweep ---

class AeadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadSizes, SealOpenRoundTripAndTamperDetection) {
  crypto::Drbg rng = crypto::Drbg::from_seed(GetParam(), "aead-sizes");
  const crypto::Aead aead(rng.generate(32));
  const Bytes nonce = rng.generate(12);
  const Bytes msg = rng.generate(GetParam());
  const Bytes ad = rng.generate(GetParam() % 37);

  Bytes sealed = aead.seal(nonce, msg, ad);
  ASSERT_EQ(sealed.size(), msg.size() + crypto::kAeadTagSize);
  const auto opened = aead.open(nonce, sealed, ad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);

  // Any single bit flip anywhere must be caught.
  const std::size_t bit = (GetParam() * 7919) % (sealed.size() * 8);
  sealed[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  EXPECT_FALSE(aead.open(nonce, sealed, ad).has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255,
                                           256, 1000, 4096, 65536));

// --- secure channel answer-size sweep ---

class ChannelSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChannelSizes, SealedAnswerRoundTrip) {
  crypto::Drbg setup = crypto::Drbg::from_seed(7, "channel-sizes");
  const auto identity = crypto::Ed25519KeyPair::generate(setup);
  crypto::Drbg msg_rng = crypto::Drbg::from_seed(GetParam(), "msg");
  const Bytes msg = msg_rng.generate(GetParam());
  net::SecureServer server(&identity, crypto::Drbg::from_seed(8, "srv"),
                           [&msg](ByteView, ByteView) {
                             return Result<Bytes>(msg);
                           });
  net::SecureClient client(crypto::Drbg::from_seed(9 + GetParam(), "cli"));
  const Result<Bytes> acceptance = server.handle(client.offer({}));
  ASSERT_TRUE(acceptance.ok());
  EXPECT_EQ(client.finish(identity.public_key(), {}, *acceptance), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelSizes,
                         ::testing::Values(0, 1, 100, 4096, 100000));

// --- big-integer division width sweep ---

struct DivWidths {
  std::size_t dividend_bytes;
  std::size_t divisor_bytes;
};

class BigIntDivision : public ::testing::TestWithParam<DivWidths> {};

TEST_P(BigIntDivision, QuotientRemainderInvariant) {
  const auto& w = GetParam();
  crypto::Drbg rng = crypto::Drbg::from_seed(
      w.dividend_bytes * 1000 + w.divisor_bytes, "div-widths");
  for (int i = 0; i < 10; ++i) {
    const auto a = crypto::BigInt::from_bytes_be(rng.generate(w.dividend_bytes));
    auto b = crypto::BigInt::from_bytes_be(rng.generate(w.divisor_bytes));
    if (b.is_zero()) b = crypto::BigInt{1};
    const auto [q, r] = crypto::BigInt::div_mod(a, b);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, BigIntDivision,
    ::testing::Values(DivWidths{1, 1}, DivWidths{8, 8}, DivWidths{16, 8},
                      DivWidths{64, 8}, DivWidths{64, 32}, DivWidths{128, 64},
                      DivWidths{384, 192},  // RSA-3072 CRT shape
                      DivWidths{8, 64}));   // dividend < divisor

// --- singleton prediction over token patterns ---

class TokenPatterns : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(TokenPatterns, PredictionIsInjectiveInToken) {
  // Structured/adversarial token patterns (all-zero is not issued by the
  // verifier but must still predict consistently and uniquely).
  static crypto::Drbg key_rng = crypto::Drbg::from_seed(11, "token-patterns");
  static const auto key = crypto::RsaKeyPair::generate(key_rng, 1024);
  static const core::EnclaveImage image =
      core::EnclaveImage::synthetic("tokens", 4096, 4096);
  static const core::Signer signer(&key);
  static const core::BaseHash base = signer.sign_sinclave(image).base_hash;

  core::InstancePage a, b;
  a.token = core::AttestationToken::from_view(Bytes(32, GetParam()));
  b.token = core::AttestationToken::from_view(Bytes(32, GetParam()));
  b.token.data[31] ^= 0x01;  // differ in one bit
  a.verifier_id = b.verifier_id = Hash256::from_view(Bytes(32, 0x55));

  EXPECT_EQ(core::MeasurementPredictor::predict(base, a),
            core::MeasurementPredictor::predict(base, a));
  EXPECT_NE(core::MeasurementPredictor::predict(base, a),
            core::MeasurementPredictor::predict(base, b));
  EXPECT_NE(core::MeasurementPredictor::predict(base, a),
            core::MeasurementPredictor::predict_common(base));
}

INSTANTIATE_TEST_SUITE_P(Patterns, TokenPatterns,
                         ::testing::Values(0x00, 0x01, 0x55, 0x80, 0xaa,
                                           0xff));

// --- stamped SigStruct pool over seeded call sequences ---

class PoolSequences : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PoolSequences, BooksCloseAndNoTakeCrossesStamps) {
  constexpr std::size_t kCapacity = 5;
  const std::array<std::string, 3> sessions{"a", "b", "c"};
  std::array<std::shared_ptr<const server::MintStamp>, 2> stamps;
  for (std::size_t k = 0; k < stamps.size(); ++k) {
    auto stamp = std::make_shared<server::MintStamp>();
    stamp->common.isv_svn = static_cast<std::uint16_t>(k + 1);
    stamp->base_hash.enclave_size = 4096 * (k + 1);
    stamps[k] = stamp;
  }
  server::SigStructCache cache(kCapacity);
  std::mt19937 rng(GetParam());
  // The stamp each deposited credential was minted from, by serial.
  std::map<std::uint32_t, std::size_t> minted_from;
  std::uint32_t serial = 0;

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::string& session = sessions[rng() % sessions.size()];
    const std::size_t k = rng() % stamps.size();
    switch (rng() % 3) {
      case 0: {
        std::vector<cas::MintedCredential> batch(1 + rng() % 3);
        for (cas::MintedCredential& cred : batch) {
          ++serial;
          for (int b = 0; b < 4; ++b)
            cred.token.data[b] = static_cast<std::uint8_t>(serial >> (8 * b));
          cred.mr_enclave = Hash256::from_view(cred.token.view());
          cred.sigstruct = stamps[k]->common;
          cred.sigstruct.enclave_hash = cred.mr_enclave;
          cred.sigstruct.signature = Bytes(8, static_cast<std::uint8_t>(serial));
          minted_from[serial] = k;
        }
        EXPECT_EQ(cache.put_all(session, stamps[k], batch), batch.size());
        break;
      }
      case 1: {
        const auto taken = cache.take(session, *stamps[k]);
        if (!taken.has_value()) break;
        std::uint32_t got = 0;
        for (int b = 0; b < 4; ++b)
          got |= static_cast<std::uint32_t>(taken->token.data[b]) << (8 * b);
        ASSERT_TRUE(minted_from.contains(got));
        EXPECT_EQ(minted_from[got], k) << "credential " << got
                                       << " crossed stamps";
        EXPECT_EQ(taken->sigstruct.isv_svn, stamps[k]->common.isv_svn);
        EXPECT_EQ(taken->sigstruct.enclave_hash, taken->mr_enclave);
        EXPECT_EQ(taken->sigstruct.signature,
                  Bytes(8, static_cast<std::uint8_t>(got)));
        minted_from.erase(got);  // a credential is handed out once
        break;
      }
      default:
        (void)cache.flush(session);
        break;
    }

    std::size_t pooled_sum = 0;
    std::size_t non_empty = 0;
    for (const std::string& name : sessions) {
      const std::size_t n = cache.pooled(name);
      pooled_sum += n;
      if (n != 0) ++non_empty;
    }
    ASSERT_EQ(cache.size(), pooled_sum);
    ASSERT_LE(cache.size(), cache.capacity());
    ASSERT_EQ(cache.sessions(), non_empty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolSequences,
                         ::testing::Values(1u, 2u, 3u, 29u, 4099u, 65537u));

}  // namespace
}  // namespace sinclave
