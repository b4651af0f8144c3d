// Unit + property tests for the big-integer substrate.
#include <gtest/gtest.h>

#include <cstring>

#include "common/error.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/mont52.h"
#include "crypto/rsa.h"  // primes::generate_prime for boundary tests

namespace sinclave::crypto {
namespace {

BigInt rand_bigint(Drbg& rng, std::size_t bytes) {
  return BigInt::from_bytes_be(rng.generate(bytes));
}

TEST(BigInt, ZeroProperties) {
  const BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z, BigInt{0});
  EXPECT_EQ(z.to_hex(), "0");
}

TEST(BigInt, ByteRoundTrip) {
  const Bytes be = from_hex("0102030405060708090a0b0c0d0e0f10");
  const BigInt v = BigInt::from_bytes_be(be);
  EXPECT_EQ(v.to_bytes_be(), be);
  EXPECT_EQ(v.to_hex(), "102030405060708090a0b0c0d0e0f10");
}

TEST(BigInt, LeadingZerosIgnoredOnImport) {
  EXPECT_EQ(BigInt::from_bytes_be(from_hex("000000ff")), BigInt{255});
}

TEST(BigInt, PaddedExport) {
  const BigInt v{0xabcd};
  EXPECT_EQ(to_hex(v.to_bytes_be(4)), "0000abcd");
}

TEST(BigInt, BitAccess) {
  const BigInt v{0b1010};
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 4u);
}

TEST(BigInt, AddSubInverse) {
  Drbg rng = Drbg::from_seed(1, "addsub");
  for (int i = 0; i < 50; ++i) {
    const BigInt a = rand_bigint(rng, 40);
    const BigInt b = rand_bigint(rng, 36);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST(BigInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt{1} - BigInt{2}, Error);
}

TEST(BigInt, AdditionCarryChain) {
  // 2^128 - 1 + 1 == 2^128
  const BigInt max = BigInt::from_hex(
      "ffffffffffffffffffffffffffffffff");
  const BigInt sum = max + BigInt{1};
  EXPECT_EQ(sum.to_hex(), "100000000000000000000000000000000");
}

TEST(BigInt, MulDistributes) {
  Drbg rng = Drbg::from_seed(2, "mul");
  for (int i = 0; i < 30; ++i) {
    const BigInt a = rand_bigint(rng, 24);
    const BigInt b = rand_bigint(rng, 24);
    const BigInt c = rand_bigint(rng, 24);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigInt, MulByZeroAndOne) {
  const BigInt a = BigInt::from_hex("deadbeefcafebabe1234");
  EXPECT_TRUE((a * BigInt{}).is_zero());
  EXPECT_EQ(a * BigInt{1}, a);
}

TEST(BigInt, ShiftsAreMulDivByPowersOfTwo) {
  Drbg rng = Drbg::from_seed(3, "shift");
  for (std::size_t s : {1u, 13u, 64u, 65u, 130u}) {
    const BigInt a = rand_bigint(rng, 30);
    EXPECT_EQ(a << s, a * BigInt::mod_exp(BigInt{2}, BigInt{s},
                                          BigInt::from_hex("1" + std::string(64, '0'))));
    EXPECT_EQ((a << s) >> s, a);
  }
}

TEST(BigInt, DivModInvariant) {
  Drbg rng = Drbg::from_seed(4, "divmod");
  for (int i = 0; i < 40; ++i) {
    const BigInt a = rand_bigint(rng, 48);
    BigInt b = rand_bigint(rng, 20);
    if (b.is_zero()) b = BigInt{7};
    const auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigInt, DivByZeroThrows) {
  EXPECT_THROW(BigInt::div_mod(BigInt{1}, BigInt{}), Error);
}

TEST(BigInt, ModU64MatchesGeneralMod) {
  Drbg rng = Drbg::from_seed(5, "modu64");
  for (std::uint64_t d : {3ull, 65537ull, 0xffffffffffffffc5ull}) {
    const BigInt a = rand_bigint(rng, 56);
    EXPECT_EQ(BigInt{a.mod_u64(d)}, a.mod(BigInt{d}));
  }
}

TEST(BigInt, CompareOrdering) {
  const BigInt small{3}, big = BigInt::from_hex("10000000000000000");
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_LE(small, small);
  EXPECT_GE(big, big);
}

// --- modular exponentiation ---

TEST(ModExp, SmallKnownValues) {
  // 4^13 mod 497 = 445 (classic textbook example)
  EXPECT_EQ(BigInt::mod_exp(BigInt{4}, BigInt{13}, BigInt{497}), BigInt{445});
  // Fermat: a^(p-1) mod p == 1 for prime p
  EXPECT_EQ(BigInt::mod_exp(BigInt{2}, BigInt{1008}, BigInt{1009}), BigInt{1});
}

TEST(ModExp, ZeroAndOneExponent) {
  const BigInt m = BigInt::from_hex("ffffffffffffffffffffffc5");
  const BigInt b = BigInt::from_hex("123456789abcdef0");
  EXPECT_EQ(BigInt::mod_exp(b, BigInt{}, m), BigInt{1});
  EXPECT_EQ(BigInt::mod_exp(b, BigInt{1}, m), b.mod(m));
}

TEST(ModExp, MontgomeryMatchesPlainForOddModulus) {
  Drbg rng = Drbg::from_seed(6, "modexp");
  for (int i = 0; i < 10; ++i) {
    BigInt m = rand_bigint(rng, 16);
    if (!m.is_odd()) m = m + BigInt{1};
    if (m <= BigInt{1}) m = BigInt{3};
    const BigInt b = rand_bigint(rng, 16);
    const BigInt e = rand_bigint(rng, 4);
    // Plain square-and-multiply reference:
    BigInt ref{1};
    const BigInt base = b.mod(m);
    for (std::size_t j = e.bit_length(); j-- > 0;) {
      ref = (ref * ref).mod(m);
      if (e.bit(j)) ref = (ref * base).mod(m);
    }
    EXPECT_EQ(BigInt::mod_exp(b, e, m), ref);
  }
}

TEST(ModExp, MultiplicativeHomomorphism) {
  // (a*b)^e mod m == a^e * b^e mod m
  Drbg rng = Drbg::from_seed(7, "homo");
  BigInt m = rand_bigint(rng, 32);
  if (!m.is_odd()) m = m + BigInt{1};
  const BigInt a = rand_bigint(rng, 32);
  const BigInt b = rand_bigint(rng, 32);
  const BigInt e{65537};
  const BigInt lhs = BigInt::mod_exp((a * b).mod(m), e, m);
  const BigInt rhs = (BigInt::mod_exp(a, e, m) * BigInt::mod_exp(b, e, m)).mod(m);
  EXPECT_EQ(lhs, rhs);
}

TEST(ModExp, RejectsTrivialModulus) {
  EXPECT_THROW(BigInt::mod_exp(BigInt{2}, BigInt{2}, BigInt{1}), Error);
  EXPECT_THROW(BigInt::mod_exp(BigInt{2}, BigInt{2}, BigInt{}), Error);
}

TEST(ModExp, EvenModulusFallback) {
  // 3^5 mod 10 = 243 mod 10 = 3
  EXPECT_EQ(BigInt::mod_exp(BigInt{3}, BigInt{5}, BigInt{10}), BigInt{3});
}

// --- modular inverse / gcd ---

TEST(ModInverse, KnownValue) {
  // 3 * 4 = 12 ≡ 1 (mod 11)
  EXPECT_EQ(BigInt::mod_inverse(BigInt{3}, BigInt{11}), BigInt{4});
}

TEST(ModInverse, RandomInvertibles) {
  Drbg rng = Drbg::from_seed(8, "inv");
  const BigInt m = BigInt::from_hex(
      "fffffffffffffffffffffffffffffffeffffffffffffffff");  // odd
  for (int i = 0; i < 20; ++i) {
    BigInt a = rand_bigint(rng, 20);
    if (a.is_zero()) continue;
    if (!(BigInt::gcd(a, m) == BigInt{1})) continue;
    const BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv).mod(m), BigInt{1});
  }
}

TEST(ModInverse, NonInvertibleThrows) {
  EXPECT_THROW(BigInt::mod_inverse(BigInt{6}, BigInt{9}), Error);
}

TEST(Gcd, BasicValues) {
  EXPECT_EQ(BigInt::gcd(BigInt{48}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{17}, BigInt{13}), BigInt{1});
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}), BigInt{5});
}

TEST(RandomBelow, StaysInRange) {
  Drbg rng = Drbg::from_seed(9, "below");
  const BigInt bound = BigInt::from_hex("ffff00000001");
  for (int i = 0; i < 50; ++i) {
    const BigInt v = BigInt::random_below(
        bound, [&](std::uint8_t* p, std::size_t n) { rng.generate(p, n); });
    EXPECT_TRUE(v < bound);
  }
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigInt{10}), Error);
}

namespace {

/// The pre-windowing reference: plain MSB-first binary ladder, one
/// (Montgomery) modular multiplication per bit plus one per set bit.
BigInt ladder_exp(const Montgomery& ctx, const BigInt& base,
                  const BigInt& exp) {
  BigInt acc{1};
  const BigInt b = ctx.reduce(base);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = ctx.mul_mod(acc, acc);
    if (exp.bit(i)) acc = ctx.mul_mod(acc, b);
  }
  return acc;
}

BigInt rand_odd_modulus(Drbg& rng, std::size_t bytes) {
  Bytes buf = rng.generate(bytes);
  buf[0] |= 0x80;          // full width
  buf[bytes - 1] |= 0x01;  // odd
  return BigInt::from_bytes_be(buf);
}

}  // namespace

TEST(Montgomery, WindowedExpMatchesBinaryLadder) {
  // Randomized cross-check of the fixed-window implementation against the
  // old square-and-multiply ladder, across the window-size breakpoints
  // (1-5 bit windows) and with bases both below and far above the modulus.
  Drbg rng = Drbg::from_seed(40, "windowed");
  for (const std::size_t mod_bytes : {9ul, 16ul, 33ul, 64ul}) {
    const BigInt m = rand_odd_modulus(rng, mod_bytes);
    const Montgomery ctx(m);
    for (const std::size_t exp_bytes : {1ul, 4ul, 11ul, 32ul, 64ul, 96ul}) {
      const BigInt base = rand_bigint(rng, 2 * mod_bytes);  // wide input
      const BigInt e = rand_bigint(rng, exp_bytes);
      EXPECT_EQ(ctx.exp(base, e), ladder_exp(ctx, base, e))
          << "mod_bytes=" << mod_bytes << " exp_bytes=" << exp_bytes;
    }
  }
}

TEST(Montgomery, ExpBoundaryExponents) {
  Drbg rng = Drbg::from_seed(41, "boundary");
  const BigInt p = rand_odd_modulus(rng, 24);
  const Montgomery ctx(p);
  const BigInt base = rand_bigint(rng, 24);
  EXPECT_EQ(ctx.exp(base, BigInt{}), BigInt{1});           // e = 0
  EXPECT_EQ(ctx.exp(base, BigInt{1}), base.mod(p));        // e = 1
  EXPECT_EQ(ctx.exp(BigInt{}, BigInt{17}), BigInt{});      // 0^e
  EXPECT_EQ(ctx.exp(BigInt{1}, p - BigInt{1}), BigInt{1});  // 1^e
}

TEST(Montgomery, FermatAtPrimeMinusOne) {
  // p - 1 as an exponent boundary on a real prime: a^(p-1) ≡ 1 mod p.
  Drbg rng = Drbg::from_seed(42, "fermat");
  const BigInt p = primes::generate_prime(192, rng);
  const Montgomery ctx(p);
  for (int i = 0; i < 4; ++i) {
    BigInt a = rand_bigint(rng, 20);
    if (a.is_zero()) a = BigInt{2};
    EXPECT_EQ(ctx.exp(a, p - BigInt{1}), BigInt{1});
  }
}

TEST(Montgomery, ExpU64MatchesGeneralExp) {
  Drbg rng = Drbg::from_seed(43, "expu64");
  const BigInt m = rand_odd_modulus(rng, 32);
  const Montgomery ctx(m);
  const BigInt base = rand_bigint(rng, 32);
  for (const std::uint64_t e : {0ull, 1ull, 2ull, 3ull, 65537ull,
                                0x8000000000000000ull, ~0ull}) {
    EXPECT_EQ(ctx.exp_u64(base, e), ctx.exp(base, BigInt{e})) << e;
  }
}

TEST(Montgomery, ReduceMatchesMod) {
  // reduce() folds arbitrary widths — including the 3x-modulus values the
  // multi-prime CRT feeds in — without long division; cross-check against
  // the div_mod-backed BigInt::mod.
  Drbg rng = Drbg::from_seed(44, "reduce");
  const BigInt m = rand_odd_modulus(rng, 24);
  const Montgomery ctx(m);
  for (const std::size_t bytes : {1ul, 8ul, 23ul, 24ul, 25ul, 48ul, 72ul,
                                  100ul}) {
    const BigInt v = rand_bigint(rng, bytes);
    EXPECT_EQ(ctx.reduce(v), v.mod(m)) << bytes;
  }
  EXPECT_EQ(ctx.reduce(BigInt{}), BigInt{});
  EXPECT_EQ(ctx.reduce(m), BigInt{});
}

TEST(Montgomery, MulModMatchesSchoolbook) {
  Drbg rng = Drbg::from_seed(45, "mulmod");
  const BigInt m = rand_odd_modulus(rng, 24);
  const Montgomery ctx(m);
  for (const std::size_t bytes : {8ul, 24ul, 48ul, 60ul}) {
    const BigInt a = rand_bigint(rng, bytes);
    const BigInt b = rand_bigint(rng, 24);
    EXPECT_EQ(ctx.mul_mod(a, b), (a * b).mod(m)) << bytes;
  }
}

TEST(Montgomery, ScratchReusedAcrossModulusSizes) {
  // One arena serving interleaved contexts of different limb counts —
  // exactly what the CRT sign path does with p and q (and the batcher
  // does across keys).
  Drbg rng = Drbg::from_seed(46, "scratch");
  const BigInt m_small = rand_odd_modulus(rng, 16);
  const BigInt m_large = rand_odd_modulus(rng, 64);
  const Montgomery small(m_small), large(m_large);
  Montgomery::Scratch scratch;
  for (int i = 0; i < 8; ++i) {
    const BigInt base = rand_bigint(rng, 40);
    const BigInt e = rand_bigint(rng, 12);
    BigInt a, b;
    small.exp(base, e, scratch, &a);
    large.exp(base, e, scratch, &b);
    EXPECT_EQ(a, small.exp(base, e));
    EXPECT_EQ(b, large.exp(base, e));
  }
}

TEST(Montgomery, ContextAtEveryLimbCount) {
  // The constructor builds R^2 mod n by doubling and Montgomery squaring;
  // every limb count up to RSA-3072 verify plus one (k = 1..49), at both
  // ends of its bit-length range, must still agree with long division.
  // (A 1-bit modulus would be 1; k = 1 takes 2 bits at its low end.)
  Drbg rng = Drbg::from_seed(47, "limb-counts");
  for (std::size_t k = 1; k <= 49; ++k) {
    for (const std::size_t bits :
         {64 * k, std::max<std::size_t>(64 * (k - 1) + 1, 2)}) {
      Bytes buf = rng.generate(8 * k);
      const std::size_t clear = 64 * k - bits;  // leading zero bits
      for (std::size_t i = 0; i < clear; ++i)
        buf[i / 8] &= static_cast<std::uint8_t>(~(0x80u >> (i % 8)));
      buf[clear / 8] |= static_cast<std::uint8_t>(0x80u >> (clear % 8));
      buf.back() |= 0x01;
      const BigInt m = BigInt::from_bytes_be(buf);
      ASSERT_EQ(m.bit_length(), bits) << "k=" << k;
      ASSERT_EQ(m.limb_count(), k);
      const Montgomery ctx(m);
      const BigInt a = rand_bigint(rng, 16 * k);
      const BigInt b = rand_bigint(rng, 8 * k);
      EXPECT_EQ(ctx.reduce(a), a.mod(m)) << "k=" << k << " bits=" << bits;
      EXPECT_EQ(ctx.mul_mod(a, b), (a * b).mod(m))
          << "k=" << k << " bits=" << bits;
    }
  }
}

TEST(Montgomery, LargeExponentiationMatchesFermat) {
  // 2^(p-1) ≡ 1 mod p for RFC 3526's 2048-bit group prime (it is prime).
  const BigInt p = BigInt::from_hex(
      "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
      "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
      "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
      "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
      "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
      "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
      "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
      "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
      "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
      "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
      "15728E5A8AACAA68FFFFFFFFFFFFFFFF");
  const Montgomery ctx(p);
  EXPECT_EQ(ctx.exp(BigInt{2}, p - BigInt{1}), BigInt{1});
}

// --- the multiply-accumulate row ---

namespace {

std::vector<std::uint64_t> rand_limbs(Drbg& rng, std::size_t len) {
  const Bytes bytes = rng.generate(8 * len);
  std::vector<std::uint64_t> v(len);
  if (len != 0) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

using Row = std::uint64_t (*)(std::uint64_t*, const std::uint64_t*,
                              std::uint64_t, std::size_t);

/// Runs one row body on a copy of t and returns t's limbs with the carry
/// appended.
std::vector<std::uint64_t> run_row(Row row, std::vector<std::uint64_t> t,
                                   const std::vector<std::uint64_t>& y,
                                   std::uint64_t x) {
  const std::uint64_t carry = row(t.data(), y.data(), x, y.size());
  t.push_back(carry);
  return t;
}

}  // namespace

TEST(MulAddRow, PortableMatchesSchoolbook) {
  // The reference body against BigInt arithmetic: t + x*y, carry on top.
  Drbg rng = Drbg::from_seed(49, "row-ref");
  auto to_big = [](const std::vector<std::uint64_t>& limbs) {
    BigInt v;
    for (std::size_t j = limbs.size(); j-- > 0;)
      v = (v << 64) + BigInt{limbs[j]};
    return v;
  };
  for (const std::size_t len : {0ul, 1ul, 7ul, 8ul, 9ul, 48ul}) {
    const std::vector<std::uint64_t> t = rand_limbs(rng, len);
    const std::vector<std::uint64_t> y = rand_limbs(rng, len);
    const std::uint64_t x = rand_limbs(rng, 1)[0];
    EXPECT_EQ(to_big(run_row(detail::mul_add_row_portable, t, y, x)),
              to_big(t) + to_big(y) * BigInt{x})
        << "len=" << len;
  }
}

TEST(MulAddRow, AdxMatchesPortable) {
  // Every row length from empty through eight full 8-limb trips (each
  // single-limb tail length recurs), on random limbs and on all-ones
  // limbs (the largest carries both chains can hold).
#if defined(__x86_64__)
  if (!detail::cpu_has_bmi2_adx()) GTEST_SKIP() << "no BMI2+ADX on this CPU";
  Drbg rng = Drbg::from_seed(48, "row");
  for (std::size_t len = 0; len <= 64; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<std::uint64_t> t = rand_limbs(rng, len);
      const std::vector<std::uint64_t> y = rand_limbs(rng, len);
      const std::uint64_t x = rand_limbs(rng, 1)[0];
      EXPECT_EQ(run_row(detail::mul_add_row_adx, t, y, x),
                run_row(detail::mul_add_row_portable, t, y, x))
          << "len=" << len << " trial=" << trial;
    }
    const std::vector<std::uint64_t> ones(len, ~std::uint64_t{0});
    EXPECT_EQ(run_row(detail::mul_add_row_adx, ones, ones, ~std::uint64_t{0}),
              run_row(detail::mul_add_row_portable, ones, ones,
                      ~std::uint64_t{0}))
        << "all-ones len=" << len;
  }
#else
  GTEST_SKIP() << "the ADX row exists on x86-64 only";
#endif
}

TEST(Mont52, DigitsRoundTrip) {
  // 20 digits of 52 bits hold every value below 2^1040 and nothing wider.
  Drbg rng = Drbg::from_seed(50, "mont52-digits");
  const BigInt top = (BigInt{1} << 1040) - BigInt{1};
  for (const BigInt& v : {BigInt{}, BigInt{1}, top,
                          BigInt::from_bytes_be(rng.generate(128))}) {
    std::uint64_t digits[Mont52::kDigits];
    Mont52::to_digits(v, digits);
    for (const std::uint64_t d : digits) EXPECT_EQ(d >> 52, 0u);
    BigInt back{7};
    Mont52::from_digits(digits, &back);
    EXPECT_EQ(back, v);
  }
  std::uint64_t digits[Mont52::kDigits];
  EXPECT_THROW(Mont52::to_digits(BigInt{1} << 1040, digits), Error);
  EXPECT_THROW(Mont52 even(BigInt{1} << 100), Error);
  EXPECT_THROW(Mont52 wide((BigInt{1} << 1024) + BigInt{1}), Error);
}

TEST(Mont52, KernelMatchesBigIntAtItsBounds) {
  // One call per row of three legs, each leg its own modulus: the smallest,
  // the widest, and a random 1024-bit and 520-bit one, against operands
  // 0, 1, 2p - 1 and random values below 2p. Each result must be
  // a*b*2^-1040 mod p, below 2p, with every digit below 2^52.
  if (!Mont52::available())
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU: the kernel does not run";
  Drbg rng = Drbg::from_seed(51, "mont52-kernel");
  const auto odd = [&](std::size_t bytes) {
    Bytes b = rng.generate(bytes);
    b[0] |= 0x80;
    b[bytes - 1] |= 1;
    return BigInt::from_bytes_be(b);
  };
  const std::vector<BigInt> moduli = {BigInt{3}, (BigInt{1} << 1024) - 1,
                                      odd(128), odd(65)};
  const BigInt r = BigInt{1} << 1040;
  constexpr std::size_t kD = Mont52::kDigits;
  for (std::size_t row = 0; row < 12; ++row) {
    std::uint64_t a[3 * kD], b[3 * kD], p[3 * kD], out[3 * kD], k0[3];
    BigInt m[3], av[3], bv[3];
    for (std::size_t l = 0; l < 3; ++l) {
      m[l] = moduli[(row + l) % moduli.size()];
      const Mont52 leg(m[l]);
      std::copy_n(leg.modulus(), kD, p + l * kD);
      k0[l] = leg.k0();
      const BigInt two_p = m[l] + m[l];
      const auto pick = [&](std::size_t which) {
        switch (which % 4) {
          case 0: return BigInt{};
          case 1: return BigInt{1};
          case 2: return two_p - BigInt{1};
          default: return BigInt::from_bytes_be(rng.generate(131)).mod(two_p);
        }
      };
      av[l] = pick(row / 3 + l);
      bv[l] = pick(row + 2 * l);
      Mont52::to_digits(av[l], a + l * kD);
      Mont52::to_digits(bv[l], b + l * kD);
    }
    detail::amm52x20_x3(out, a, b, p, k0);
    for (std::size_t l = 0; l < 3; ++l) {
      SCOPED_TRACE(testing::Message() << "row " << row << " leg " << l);
      for (std::size_t j = 0; j < kD; ++j) EXPECT_EQ(out[l * kD + j] >> 52, 0u);
      BigInt got;
      Mont52::from_digits(out + l * kD, &got);
      EXPECT_LT(got, m[l] + m[l]);
      const BigInt r_inv = BigInt::mod_inverse(r.mod(m[l]), m[l]);
      EXPECT_EQ(got.mod(m[l]), ((av[l] * bv[l]).mod(m[l]) * r_inv).mod(m[l]));
    }
  }
}

}  // namespace
}  // namespace sinclave::crypto
