// Differential known-answer tests: every generated vector (produced by an
// independent reference implementation — CPython's hashlib/hmac and pow(),
// and an RFC 7748 ladder on Python ints; see generated_kat.inc) must match
// all of this repository's implementations: the interruptible SHA-256, the
// optimized SHA-256 (including its SHA-NI path when the CPU has it), HMAC,
// the Montgomery context's exp, exp_u64, reduce and mul_mod (on whichever
// multiply-accumulate row this CPU dispatches to), and X25519.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/bignum.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_fast.h"
#include "crypto/x25519.h"

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

class GeneratedX25519 : public ::testing::TestWithParam<GeneratedX25519Vector> {
};

X25519Bytes x25519_bytes(const char* hex) {
  const Bytes b = from_hex(hex);
  X25519Bytes out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

TEST_P(GeneratedX25519, LadderMatchesReference) {
  const auto& v = GetParam();
  const X25519Bytes out = x25519(x25519_bytes(v.scalar), x25519_bytes(v.u));
  EXPECT_EQ(to_hex(ByteView{out.data(), out.size()}), v.result);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedX25519,
                         ::testing::ValuesIn(kGeneratedX25519Vectors));

}  // namespace
}  // namespace sinclave::crypto
