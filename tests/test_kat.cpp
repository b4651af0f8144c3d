// Differential known-answer tests: every generated vector (produced by an
// independent reference implementation — CPython's hashlib/hmac, pow() and
// divmod(), an RFC 7748 ladder on Python ints and RFC 8032 §6's Ed25519
// code; see generated_kat.inc) must match all of this repository's
// implementations: the interruptible SHA-256, the optimized SHA-256
// (including its SHA-NI path when the CPU has it), HMAC, the Montgomery
// context's exp, exp_u64, reduce and mul_mod (on whichever
// multiply-accumulate row this CPU dispatches to), BigInt's long division,
// X25519, SHA-512 and Ed25519.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/bignum.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_fast.h"
#include "crypto/sha512.h"
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

class GeneratedDivMod : public ::testing::TestWithParam<GeneratedDivModVector> {
};

TEST_P(GeneratedDivMod, AlgorithmDMatchesDivmod) {
  const auto& v = GetParam();
  const BigInt dividend = BigInt::from_hex(v.dividend);
  const BigInt divisor = BigInt::from_hex(v.divisor);
  const BigIntDivMod got = BigInt::div_mod(dividend, divisor);
  EXPECT_EQ(got.quotient.to_hex(), v.quotient);
  EXPECT_EQ(got.remainder.to_hex(), v.remainder);
  EXPECT_EQ(dividend.mod(divisor).to_hex(), v.remainder);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedDivMod,
                         ::testing::ValuesIn(kGeneratedDivModVectors));

class GeneratedSha512 : public ::testing::TestWithParam<GeneratedShaVector> {};

TEST_P(GeneratedSha512, OneShotAndStreamingMatchReference) {
  const auto& v = GetParam();
  const Bytes msg = from_hex(v.msg_hex);
  const Sha512Digest one_shot = sha512(msg);
  EXPECT_EQ(to_hex(ByteView{one_shot.data(), one_shot.size()}), v.digest_hex);
  // One byte at a time crosses every buffer boundary.
  Sha512 h;
  for (const std::uint8_t byte : msg) h.update(ByteView{&byte, 1});
  const Sha512Digest streamed = h.finalize();
  EXPECT_EQ(streamed, one_shot);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedSha512,
                         ::testing::ValuesIn(kGeneratedSha512Vectors));

class GeneratedEd25519
    : public ::testing::TestWithParam<GeneratedEd25519Vector> {};

TEST_P(GeneratedEd25519, SignAndVerifyMatchReference) {
  const auto& v = GetParam();
  Ed25519Seed seed{};
  const Bytes seed_bytes = from_hex(v.seed);
  std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());
  const Ed25519KeyPair key = Ed25519KeyPair::from_seed(seed);
  EXPECT_EQ(to_hex(key.public_key().view()), v.public_key);
  const Bytes msg = from_hex(v.message);
  const Ed25519Signature sig = key.sign(msg);
  EXPECT_EQ(to_hex(ByteView{sig.data(), sig.size()}), v.signature);
  EXPECT_TRUE(key.public_key().verify(msg, from_hex(v.signature)));
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedEd25519,
                         ::testing::ValuesIn(kGeneratedEd25519Vectors));

}  // namespace
}  // namespace sinclave::crypto
