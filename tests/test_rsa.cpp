// Unit + property tests for primality testing, RSA keygen and PKCS#1 v1.5
// signatures. Most tests use reduced key sizes so the suite stays fast;
// the full 3072-bit path is exercised once and measured properly in
// bench_fig7b_sigstruct.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/drbg.h"
#include "crypto/mont52.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace sinclave::crypto {
namespace {

Drbg test_rng(std::uint64_t seed) {
  return Drbg::from_seed(seed, "rsa-tests");
}

// --- primality ---

TEST(Primes, SmallPrimesRecognized) {
  Drbg rng = test_rng(1);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 101ull, 65537ull, 1009ull})
    EXPECT_TRUE(primes::is_probable_prime(BigInt{p}, rng)) << p;
}

TEST(Primes, SmallCompositesRejected) {
  Drbg rng = test_rng(2);
  for (std::uint64_t c : {1ull, 4ull, 9ull, 15ull, 91ull, 65535ull, 1001ull})
    EXPECT_FALSE(primes::is_probable_prime(BigInt{c}, rng)) << c;
}

TEST(Primes, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  Drbg rng = test_rng(3);
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 6601ull, 41041ull})
    EXPECT_FALSE(primes::is_probable_prime(BigInt{c}, rng)) << c;
}

TEST(Primes, ProductOfTwoPrimesRejected) {
  Drbg rng = test_rng(4);
  const BigInt p = primes::generate_prime(64, rng);
  const BigInt q = primes::generate_prime(64, rng);
  EXPECT_FALSE(primes::is_probable_prime(p * q, rng));
}

class PrimeGeneration : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimeGeneration, ExactBitLengthAndOdd) {
  Drbg rng = test_rng(5 + GetParam());
  const BigInt p = primes::generate_prime(GetParam(), rng);
  EXPECT_EQ(p.bit_length(), GetParam());
  EXPECT_TRUE(p.is_odd());
  // Second-highest bit set (so products have exactly 2n bits):
  EXPECT_TRUE(p.bit(GetParam() - 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrimeGeneration,
                         ::testing::Values(32, 64, 128, 256));

TEST(Primes, GenerationIsDeterministicPerSeed) {
  Drbg a = test_rng(77), b = test_rng(77);
  EXPECT_EQ(primes::generate_prime(128, a), primes::generate_prime(128, b));
}

// --- RSA ---

TEST(Rsa, GenerateRejectsBadSizes) {
  Drbg rng = test_rng(10);
  EXPECT_THROW(RsaKeyPair::generate(rng, 256), Error);
  EXPECT_THROW(RsaKeyPair::generate(rng, 513), Error);
}

TEST(Rsa, SignVerifyRoundTrip) {
  Drbg rng = test_rng(11);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 1024);
  const Bytes msg = to_bytes("sigstruct-under-test");
  const Bytes sig = kp.sign_pkcs1_sha256(msg);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(kp.public_key().verify_pkcs1_sha256(msg, sig));
}

TEST(Rsa, VerifyRejectsWrongMessage) {
  Drbg rng = test_rng(12);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 1024);
  const Bytes sig = kp.sign_pkcs1_sha256(to_bytes("original"));
  EXPECT_FALSE(kp.public_key().verify_pkcs1_sha256(to_bytes("forged"), sig));
}

TEST(Rsa, VerifyRejectsCorruptedSignature) {
  Drbg rng = test_rng(13);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 1024);
  const Bytes msg = to_bytes("m");
  Bytes sig = kp.sign_pkcs1_sha256(msg);
  for (std::size_t pos : {0ul, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(kp.public_key().verify_pkcs1_sha256(msg, bad)) << pos;
  }
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  Drbg rng = test_rng(14);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 1024);
  const Bytes msg = to_bytes("m");
  Bytes sig = kp.sign_pkcs1_sha256(msg);
  sig.pop_back();
  EXPECT_FALSE(kp.public_key().verify_pkcs1_sha256(msg, sig));
  sig.push_back(0);
  sig.push_back(0);
  EXPECT_FALSE(kp.public_key().verify_pkcs1_sha256(msg, sig));
}

TEST(Rsa, VerifyRejectsOtherKeysSignature) {
  Drbg rng = test_rng(15);
  const RsaKeyPair a = RsaKeyPair::generate(rng, 1024);
  const RsaKeyPair b = RsaKeyPair::generate(rng, 1024);
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(b.public_key().verify_pkcs1_sha256(msg, a.sign_pkcs1_sha256(msg)));
}

TEST(Rsa, CrtMatchesPlainExponentiation) {
  Drbg rng = test_rng(16);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 768);
  const BigInt n = kp.public_key().n;
  Drbg rng2 = test_rng(17);
  for (int i = 0; i < 5; ++i) {
    const BigInt m = BigInt::random_below(
        n, [&](std::uint8_t* p, std::size_t len) { rng2.generate(p, len); });
    // Encrypt with e then decrypt with the CRT private op.
    const BigInt c = BigInt::mod_exp(m, BigInt{kRsaPublicExponent}, n);
    EXPECT_EQ(kp.private_op(c), m);
  }
}

TEST(Rsa, CrtMatchesPlainPrivateExponent) {
  // private_op against its definition: m^d mod n with the plain (non-CRT)
  // exponentiation over the full modulus.
  Drbg rng = test_rng(40);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 768);
  const BigInt n = kp.public_key().n;
  for (int i = 0; i < 3; ++i) {
    const BigInt m = BigInt::random_below(
        n, [&](std::uint8_t* p, std::size_t len) { rng.generate(p, len); });
    EXPECT_EQ(kp.private_op(m),
              BigInt::mod_exp(m, kp.private_exponent(), n));
  }
}

TEST(Rsa, PrivateOpBoundaryInputs) {
  Drbg rng = test_rng(41);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 512);
  const BigInt n = kp.public_key().n;
  EXPECT_EQ(kp.private_op(BigInt{}), BigInt{});     // 0^d = 0
  EXPECT_EQ(kp.private_op(BigInt{1}), BigInt{1});   // 1^d = 1
  // (n-1)^d = (-1)^d = n-1 (d is odd: e*d ≡ 1 mod the even phi).
  EXPECT_EQ(kp.private_op(n - BigInt{1}), n - BigInt{1});
}

TEST(Rsa, MultiPrimeKeySignsAndVerifies) {
  // >= 3072 bits divisible by three uses the three-prime CRT; the public
  // side must be none the wiser.
  Drbg rng = test_rng(42);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 3072);
  EXPECT_EQ(kp.public_key().n.bit_length(), 3072u);
  const Bytes msg = to_bytes("multi-prime sigstruct");
  const Bytes sig = kp.sign_pkcs1_sha256(msg);
  EXPECT_EQ(sig.size(), 384u);
  EXPECT_TRUE(kp.public_key().verify_pkcs1_sha256(msg, sig));
  EXPECT_FALSE(kp.public_key().verify_pkcs1_sha256(to_bytes("forged"), sig));
  // Garner recombination against the plain private exponent.
  const BigInt n = kp.public_key().n;
  Drbg rng2 = test_rng(43);
  const BigInt m = BigInt::random_below(
      n, [&](std::uint8_t* p, std::size_t len) { rng2.generate(p, len); });
  EXPECT_EQ(kp.private_op(m), BigInt::mod_exp(m, kp.private_exponent(), n));
}

TEST(Rsa, VerifyContextTracksModulusReassignment) {
  // The cached verification context must never outlive its modulus: a key
  // object whose `n` is overwritten re-derives the context.
  Drbg rng = test_rng(44);
  const RsaKeyPair a = RsaKeyPair::generate(rng, 512);
  const RsaKeyPair b = RsaKeyPair::generate(rng, 512);
  const Bytes msg = to_bytes("m");
  const Bytes sig_a = a.sign_pkcs1_sha256(msg);
  const Bytes sig_b = b.sign_pkcs1_sha256(msg);

  RsaPublicKey key = a.public_key();
  EXPECT_TRUE(key.verify_pkcs1_sha256(msg, sig_a));  // context built for a
  key.n = b.public_key().n;                          // rotate the modulus
  EXPECT_TRUE(key.verify_pkcs1_sha256(msg, sig_b));
  EXPECT_FALSE(key.verify_pkcs1_sha256(msg, sig_a));
}

TEST(Rsa, VerifyRejectsMalformedModulus) {
  Drbg rng = test_rng(45);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 512);
  const Bytes sig = kp.sign_pkcs1_sha256(to_bytes("m"));
  RsaPublicKey even;
  even.n = kp.public_key().n + BigInt{1};  // even modulus: never a real key
  EXPECT_FALSE(even.verify_pkcs1_sha256(to_bytes("m"), sig));
  RsaPublicKey one;
  one.n = BigInt{1};
  EXPECT_FALSE(one.verify_pkcs1_sha256(to_bytes("m"), sig));
}

TEST(Rsa, PrivateOpRejectsOutOfRange) {
  Drbg rng = test_rng(18);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 512);
  EXPECT_THROW(kp.private_op(kp.public_key().n), Error);
}

TEST(Rsa, DeterministicKeygenPerSeed) {
  Drbg a = test_rng(19), b = test_rng(19);
  EXPECT_EQ(RsaKeyPair::generate(a, 512).public_key().n,
            RsaKeyPair::generate(b, 512).public_key().n);
}

TEST(Rsa, PublicKeySerializationRoundTrip) {
  Drbg rng = test_rng(20);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 512);
  const Bytes wire = kp.public_key().serialize();
  EXPECT_EQ(RsaPublicKey::deserialize(wire), kp.public_key());
}

TEST(Rsa, ModulusHasRequestedSize) {
  Drbg rng = test_rng(21);
  EXPECT_EQ(RsaKeyPair::generate(rng, 1024).public_key().n.bit_length(), 1024u);
}

TEST(Rsa, SignaturesAreDeterministic) {
  // PKCS#1 v1.5 is deterministic: same key + message => same signature.
  Drbg rng = test_rng(22);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 512);
  EXPECT_EQ(kp.sign_pkcs1_sha256(to_bytes("m")),
            kp.sign_pkcs1_sha256(to_bytes("m")));
}

TEST(Rsa, Rsa3072SignatureGolden) {
  // Pins the bytes of a full-size signature: key generation (Miller-Rabin
  // on Montgomery contexts), the three 1024-bit CRT legs, the recombining
  // mul_mod and the verify-side exp_u64 all feed into it.
  Drbg rng = test_rng(23);
  const RsaKeyPair kp = RsaKeyPair::generate(rng, kRsaBits);
  const Bytes msg = to_bytes("sinclave rsa-3072 golden");
  const Bytes sig = kp.sign_pkcs1_sha256(msg);
  EXPECT_EQ(sha256(sig).hex(),
            "488c4edf7a973ce4b8d03d3a9fa98ceda4047a9b96c21e37facc9ea382cc6f19");
  EXPECT_TRUE(kp.public_key().verify_pkcs1_sha256(msg, sig));
}

// --- the lockstep ladder (three-prime keys on AVX-512 IFMA) ---

TEST(Rsa, LockstepLadderMatchesPerLegPathAndModExp) {
  if (!Mont52::available())
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU: RSA-3072 keys sign on the "
                    "per-leg path, so there is no second path to compare";
  Drbg rng = test_rng(46);
  for (int key = 0; key < 3; ++key) {
    const RsaKeyPair kp = RsaKeyPair::generate(rng, kRsaBits);
    const BigInt n = kp.public_key().n;
    const std::vector<BigInt> primes = kp.prime_factors();
    ASSERT_EQ(primes.size(), Mont52::kLegs);
    std::vector<BigInt> inputs = {BigInt{}, BigInt{1}, BigInt{2},
                                  n - BigInt{1}};
    // Zero in one leg and not in the others, then zero in two legs.
    for (const BigInt& p : primes) inputs.push_back(p * BigInt{3});
    inputs.push_back(primes[0] * primes[2]);
    for (int i = 0; i < 4; ++i)
      inputs.push_back(BigInt::random_below(
          n, [&](std::uint8_t* p, std::size_t len) { rng.generate(p, len); }));
    for (const BigInt& m : inputs) {
      SCOPED_TRACE(m.to_hex());
      const BigInt got = kp.private_op(m);
      EXPECT_EQ(got, detail::private_op_per_leg(kp, m));
      EXPECT_EQ(got, BigInt::mod_exp(m, kp.private_exponent(), n));
    }
  }
}

TEST(Rsa, LockstepLadderScheduleIgnoresTheExponents) {
  // Two 1024-bit exponents whose every 5-bit window differs (all ones; a
  // 1 in each window under a top bit), and a short one: the ladder makes
  // the same kernel calls and table scans for each, and still computes
  // the right powers.
  if (!Mont52::available())
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU: the lockstep ladder "
                    "does not run";
  Drbg rng = test_rng(47);
  std::array<BigInt, Mont52::kLegs> ps;
  for (BigInt& p : ps) p = primes::generate_prime(1024, rng);
  const std::array<Mont52, Mont52::kLegs> legs = {Mont52(ps[0]), Mont52(ps[1]),
                                                  Mont52(ps[2])};
  BigInt sparse = BigInt{1} << 1023;
  for (std::size_t w = 0; w < 204; ++w)
    sparse = sparse + (BigInt{1} << (5 * w));
  const BigInt dense = (BigInt{1} << 1024) - BigInt{1};
  Montgomery::Scratch scratch;
  std::vector<Mont52::Counts> counts;
  for (const BigInt& e : {dense, sparse, BigInt{65537}}) {
    std::array<BigInt, Mont52::kLegs> bases, io;
    for (std::size_t l = 0; l < Mont52::kLegs; ++l) {
      bases[l] = BigInt::random_below(
          ps[l], [&](std::uint8_t* p, std::size_t len) { rng.generate(p, len); });
      io[l] = bases[l];
    }
    counts.push_back(Mont52::exp_x3({&legs[0], &legs[1], &legs[2]},
                                    {&e, &e, &e}, {&io[0], &io[1], &io[2]},
                                    scratch));
    for (std::size_t l = 0; l < Mont52::kLegs; ++l)
      EXPECT_EQ(io[l], BigInt::mod_exp(bases[l], e, ps[l]));
  }
  for (const Mont52::Counts& c : counts) {
    EXPECT_EQ(c.kernel_calls, counts[0].kernel_calls);
    EXPECT_EQ(c.table_scans, counts[0].table_scans);
  }
  // ceil(1024 / 5) windows, each one scan and six kernel calls.
  EXPECT_EQ(counts[0].table_scans, 205u);
  EXPECT_GE(counts[0].kernel_calls, 6u * 205u);
}

}  // namespace
}  // namespace sinclave::crypto
