// Differential known-answer tests: every generated vector (produced by an
// independent reference implementation — CPython's hashlib/hmac and pow();
// see generated_kat.inc) must match all of this repository's
// implementations: the interruptible SHA-256, the optimized SHA-256
// (including its SHA-NI path when the CPU has it), HMAC, and the
// Montgomery context's exp, exp_u64, reduce and mul_mod (on whichever
// multiply-accumulate row this CPU dispatches to).
#include <gtest/gtest.h>

#include <string>

#include "crypto/bignum.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_fast.h"

#include "generated_kat.inc"

namespace sinclave::crypto {
namespace {

class GeneratedSha : public ::testing::TestWithParam<GeneratedShaVector> {};

TEST_P(GeneratedSha, InterruptibleMatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256(from_hex(v.msg_hex)).hex(), v.digest_hex);
}

TEST_P(GeneratedSha, FastMatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256_fast(from_hex(v.msg_hex)).hex(), v.digest_hex);
}

TEST_P(GeneratedSha, ResumedMidwayMatchesReference) {
  // Split at the largest block boundary, export/resume, finish.
  const auto& v = GetParam();
  const Bytes msg = from_hex(v.msg_hex);
  const std::size_t split = (msg.size() / 2) & ~std::size_t{63};
  Sha256 first;
  first.update(ByteView{msg.data(), split});
  Sha256 second = Sha256::resume(first.export_state());
  second.update(ByteView{msg.data() + split, msg.size() - split});
  EXPECT_EQ(second.finalize().hex(), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedSha,
                         ::testing::ValuesIn(kGeneratedShaVectors));

class GeneratedHmac : public ::testing::TestWithParam<GeneratedHmacVector> {};

TEST_P(GeneratedHmac, MatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(hmac_sha256(from_hex(v.key_hex), from_hex(v.msg_hex)).hex(),
            v.mac_hex);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedHmac,
                         ::testing::ValuesIn(kGeneratedHmacVectors));

class GeneratedModExp : public ::testing::TestWithParam<GeneratedModExpVector> {
};

TEST_P(GeneratedModExp, MontgomeryMatchesPow) {
  const auto& v = GetParam();
  const BigInt n = BigInt::from_hex(v.modulus);
  const BigInt base = BigInt::from_hex(v.base);
  const BigInt e = BigInt::from_hex(v.exponent);
  const BigInt result = BigInt::from_hex(v.result);
  const Montgomery ctx(n);
  EXPECT_EQ(ctx.exp(base, e), result);
  if (e.bit_length() <= 64) {
    EXPECT_EQ(ctx.exp_u64(base, std::stoull(v.exponent, nullptr, 16)), result);
  }
  if (e == BigInt{1}) {
    EXPECT_EQ(ctx.reduce(base), result);
  }
  if (e == BigInt{2}) {
    EXPECT_EQ(ctx.mul_mod(base, base), result);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedModExp,
                         ::testing::ValuesIn(kGeneratedModExpVectors));

}  // namespace
}  // namespace sinclave::crypto
