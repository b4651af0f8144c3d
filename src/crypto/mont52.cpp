#include "crypto/mont52.h"

#include <algorithm>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/error.h"

namespace sinclave::crypto {

namespace {

constexpr std::size_t kDigits = Mont52::kDigits;
constexpr std::size_t kLegs = Mont52::kLegs;
constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << 52) - 1;
/// One kernel operand: three 20-digit numbers back to back. 480 bytes, a
/// multiple of 32, so blocks carved from an aligned base stay aligned.
constexpr std::size_t kBlock = kLegs * kDigits;
constexpr std::size_t kWindowBits = 5;
constexpr std::size_t kTableEntries = std::size_t{1} << kWindowBits;
constexpr std::size_t kWindows =
    (Mont52::kMaxBits + kWindowBits - 1) / kWindowBits;
/// An exponent's limbs, zero-padded: the top window reads one limb past
/// bit 1023.
constexpr std::size_t kExponentLimbs = Mont52::kMaxBits / 64 + 1;

/// x - p over 20 digits into t; returns the final borrow (1 when x < p).
std::uint64_t sub_digits(const std::uint64_t* x, const std::uint64_t* p,
                         std::uint64_t* t) {
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < kDigits; ++j) {
    const std::uint64_t d = x[j] - p[j] - borrow;
    t[j] = d & kDigitMask;
    borrow = d >> 63;
  }
  return borrow;
}

}  // namespace

Mont52::Mont52(const BigInt& p) {
  if (!p.is_odd() || p <= BigInt{1} || p.bit_length() > kMaxBits)
    throw Error("mont52: modulus must be odd, > 1 and at most 1024 bits");
  to_digits(p, p_.data());
  // p^-1 mod 2^64 by Newton's iteration (each step doubles the correct
  // low bits), negated and cut to 52 bits.
  std::uint64_t x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - p_[0] * x;
  k0_ = (~x + 1) & kDigitMask;
  to_digits((BigInt{1} << (2 * 52 * kDigits)).mod(p), rr_.data());
}

void Mont52::to_digits(const BigInt& v, std::uint64_t* digits) {
  if (v.bit_length() > 52 * kDigits)
    throw Error("mont52: value does not fit 20 digits");
  const std::vector<std::uint64_t>& limbs = v.limbs_;
  const auto limb = [&](std::size_t i) {
    return i < limbs.size() ? limbs[i] : 0;
  };
  for (std::size_t j = 0; j < kDigits; ++j) {
    const std::size_t q = 52 * j / 64;
    const std::size_t s = 52 * j % 64;
    std::uint64_t d = limb(q) >> s;
    if (s > 12) d |= limb(q + 1) << (64 - s);
    digits[j] = d & kDigitMask;
  }
}

void Mont52::from_digits(const std::uint64_t* digits, BigInt* out) {
  // 1040 bits span 17 limbs; the 17th holds digit 19's bits from 1024 up.
  const std::size_t n = (digits[kDigits - 1] >> 36) != 0 ? 17 : 16;
  std::vector<std::uint64_t>& limbs = out->limbs_;
  limbs.assign(n, 0);
  for (std::size_t j = 0; j < kDigits; ++j) {
    const std::size_t q = 52 * j / 64;
    const std::size_t s = 52 * j % 64;
    limbs[q] |= digits[j] << s;
    if (s > 12 && q + 1 < n) limbs[q + 1] |= digits[j] >> (64 - s);
  }
  out->trim();
}

#if defined(__x86_64__)

bool Mont52::available() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    // Leaf 1 ECX bit 27: OSXSAVE, so XGETBV may run.
    if (!__get_cpuid(1, &a, &b, &c, &d) || (c & (1u << 27)) == 0)
      return false;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    // Leaf 7 EBX bit 16: AVX512F; bit 21: AVX512-IFMA; bit 31: AVX512VL.
    const unsigned want = (1u << 16) | (1u << 21) | (1u << 31);
    if ((b & want) != want) return false;
    // XCR0 bits 1-2 (SSE, AVX) and 5-7 (opmask, ZMM0-15 upper halves,
    // ZMM16-31): the OS saves every register the kernel touches.
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (lo & 0xe6u) == 0xe6u;
  }();
  return has;
}

#define SINCLAVE_IFMA __attribute__((target("avx512f,avx512vl,avx512ifma")))

namespace {

SINCLAVE_IFMA inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

SINCLAVE_IFMA inline void store4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Carry-normalize one leg's accumulator (20 lanes, each below 2^59) into
/// 20 digits below 2^52, and store them. Each lane's bits from 52 up move
/// one digit higher; what is left is below 2^52 + 2^12, so at most a
/// single carry ripples on, through digits equal to 2^52 - 1. That ripple
/// is found with one integer addition over 20-bit masks (generate: digit
/// >= 2^52; propagate: digit == 2^52 - 1), not digit by digit.
SINCLAVE_IFMA inline void normalize_store(__m256i (&acc)[5],
                                          std::uint64_t* out) {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kDigitMask));
  const __m256i zero = _mm256_setzero_si256();
  __m256i hi[5];
  for (int v = 0; v < 5; ++v) {
    hi[v] = _mm256_srli_epi64(acc[v], 52);
    acc[v] = _mm256_and_si256(acc[v], mask);
  }
  acc[0] = _mm256_add_epi64(acc[0], _mm256_alignr_epi64(hi[0], zero, 3));
  for (int v = 1; v < 5; ++v)
    acc[v] = _mm256_add_epi64(acc[v], _mm256_alignr_epi64(hi[v], hi[v - 1], 3));
  std::uint32_t generate = 0, propagate = 0;
  for (int v = 0; v < 5; ++v) {
    generate |= std::uint32_t{_mm256_cmpgt_epu64_mask(acc[v], mask)} << (4 * v);
    propagate |= std::uint32_t{_mm256_cmpeq_epi64_mask(acc[v], mask)}
                 << (4 * v);
  }
  const std::uint32_t carry_in = ((generate << 1) + propagate) ^ propagate;
  const __m256i one = _mm256_set1_epi64x(1);
  for (int v = 0; v < 5; ++v) {
    const __mmask8 in = static_cast<__mmask8>((carry_in >> (4 * v)) & 0xf);
    store4(out + 4 * v,
           _mm256_and_si256(_mm256_mask_add_epi64(acc[v], in, acc[v], one),
                            mask));
  }
}

/// entry[l] = table[digit[l]][l] for each leg, reading all 32 entries and
/// keeping one by an AND with an all-ones or all-zeros mask.
SINCLAVE_IFMA void scan_table(const std::uint64_t* table,
                              const std::uint64_t* digit,
                              std::uint64_t* entry) {
  for (std::size_t l = 0; l < kLegs; ++l) {
    const __m256i want = _mm256_set1_epi64x(static_cast<long long>(digit[l]));
    __m256i sel[5];
    for (int v = 0; v < 5; ++v) sel[v] = _mm256_setzero_si256();
    for (std::size_t j = 0; j < kTableEntries; ++j) {
      const __m256i hit = _mm256_cmpeq_epi64(
          _mm256_set1_epi64x(static_cast<long long>(j)), want);
      const std::uint64_t* src = table + j * kBlock + l * kDigits;
      for (int v = 0; v < 5; ++v)
        sel[v] = _mm256_or_si256(sel[v],
                                 _mm256_and_si256(load4(src + 4 * v), hit));
    }
    for (int v = 0; v < 5; ++v) store4(entry + l * kDigits + 4 * v, sel[v]);
  }
}

}  // namespace

SINCLAVE_IFMA void detail::amm52x20_x3(std::uint64_t* out,
                                       const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       const std::uint64_t* p,
                                       const std::uint64_t* k0) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc[kLegs][5];
  __m256i k[kLegs];
  for (std::size_t l = 0; l < kLegs; ++l) {
    for (int v = 0; v < 5; ++v) acc[l][v] = zero;
    k[l] = _mm256_set1_epi64x(static_cast<long long>(k0[l]));
  }
  // Digit i of b, for each leg: add a * b_i, pick the Montgomery quotient
  // y = acc_0 * k0 mod 2^52 that zeroes the low 52 bits of digit 0, add
  // y * p, shift the accumulator down one digit (digit 0's bits from 52 up
  // carried into the new digit 0), then add the high halves of both
  // products, which belong one digit up and so land at the shifted
  // positions. The three legs share nothing, so their chains overlap.
  for (std::size_t i = 0; i < kDigits; ++i) {
#pragma GCC unroll 3
    for (std::size_t l = 0; l < kLegs; ++l) {
      const std::uint64_t* al = a + l * kDigits;
      const std::uint64_t* pl = p + l * kDigits;
      // Opaque to the optimizer, so a and p are read as memory operands
      // in every step instead of being hoisted into 30 registers, which
      // would push the 15 accumulators onto the stack.
      __asm__("" : "+r"(al), "+r"(pl));
      __m256i(&r)[5] = acc[l];
      const __m256i bi =
          _mm256_set1_epi64x(static_cast<long long>(b[l * kDigits + i]));
      for (int v = 0; v < 5; ++v)
        r[v] = _mm256_madd52lo_epu64(r[v], load4(al + 4 * v), bi);
      const __m256i y = _mm256_broadcastq_epi64(
          _mm256_castsi256_si128(_mm256_madd52lo_epu64(zero, r[0], k[l])));
      for (int v = 0; v < 5; ++v)
        r[v] = _mm256_madd52lo_epu64(r[v], load4(pl + 4 * v), y);
      const __m256i carry = _mm256_maskz_srli_epi64(1, r[0], 52);
      for (int v = 0; v < 4; ++v) r[v] = _mm256_alignr_epi64(r[v + 1], r[v], 1);
      r[4] = _mm256_alignr_epi64(zero, r[4], 1);
      r[0] = _mm256_add_epi64(r[0], carry);
      for (int v = 0; v < 5; ++v)
        r[v] = _mm256_madd52hi_epu64(r[v], load4(al + 4 * v), bi);
      for (int v = 0; v < 5; ++v)
        r[v] = _mm256_madd52hi_epu64(r[v], load4(pl + 4 * v), y);
    }
  }
  for (std::size_t l = 0; l < kLegs; ++l)
    normalize_store(acc[l], out + l * kDigits);
}

#undef SINCLAVE_IFMA

Mont52::Counts Mont52::exp_x3(
    const std::array<const Mont52*, kLegs>& legs,
    const std::array<const BigInt*, kLegs>& exponents,
    const std::array<BigInt*, kLegs>& io, Montgomery::Scratch& scratch) {
  // Carve the arena from a 32-byte boundary: modulus, R^2 and the number 1
  // per leg, the accumulator, the scanned entry, the 32-entry table (entry
  // j is one block, all three legs), k0, and the padded exponents.
  constexpr std::size_t kArena =
      (5 + kTableEntries) * kBlock + 4 + kLegs * kExponentLimbs;
  std::uint64_t* arena = scratch.require(kArena + 3);
  arena += (4 - reinterpret_cast<std::uintptr_t>(arena) / 8 % 4) % 4;
  std::uint64_t* mod = arena;
  std::uint64_t* rr = mod + kBlock;
  std::uint64_t* one = rr + kBlock;
  std::uint64_t* acc = one + kBlock;
  std::uint64_t* entry = acc + kBlock;
  std::uint64_t* table = entry + kBlock;
  std::uint64_t* k0 = table + kTableEntries * kBlock;
  std::uint64_t* exps = k0 + 4;

  for (std::size_t l = 0; l < kLegs; ++l) {
    const Mont52& leg = *legs[l];
    std::copy(leg.p_.begin(), leg.p_.end(), mod + l * kDigits);
    std::copy(leg.rr_.begin(), leg.rr_.end(), rr + l * kDigits);
    std::fill_n(one + l * kDigits, kDigits, 0);
    one[l * kDigits] = 1;
    k0[l] = leg.k0_;
    to_digits(*io[l], entry + l * kDigits);
    if (sub_digits(entry + l * kDigits, leg.p_.data(), acc) == 0)
      throw Error("mont52: base must be below its modulus");
    if (exponents[l]->bit_length() > kMaxBits)
      throw Error("mont52: exponent wider than 1024 bits");
    const std::vector<std::uint64_t>& e = exponents[l]->limbs_;
    std::fill_n(std::copy(e.begin(), e.end(), exps + l * kExponentLimbs),
                kExponentLimbs - e.size(), 0);
  }

  Counts counts;
  const auto mul = [&](std::uint64_t* out, const std::uint64_t* a,
                       const std::uint64_t* b) {
    detail::amm52x20_x3(out, a, b, mod, k0);
    ++counts.kernel_calls;
  };
  // table[j] = base^j in Montgomery form (R mod p for j = 0).
  mul(table + kBlock, entry, rr);
  mul(table, rr, one);
  for (std::size_t j = 2; j < kTableEntries; ++j)
    mul(table + j * kBlock, table + (j - 1) * kBlock, table + kBlock);

  std::copy_n(table, kBlock, acc);
  for (std::size_t w = kWindows; w-- > 0;) {
    for (std::size_t square = 0; square < kWindowBits; ++square)
      mul(acc, acc, acc);
    const std::size_t q = kWindowBits * w / 64;
    const std::size_t s = kWindowBits * w % 64;
    std::uint64_t digit[kLegs];
    for (std::size_t l = 0; l < kLegs; ++l) {
      const std::uint64_t* e = exps + l * kExponentLimbs;
      std::uint64_t d = e[q] >> s;
      if (s > 64 - kWindowBits) d |= e[q + 1] << (64 - s);
      digit[l] = d & (kTableEntries - 1);
    }
    scan_table(table, digit, entry);
    ++counts.table_scans;
    mul(acc, acc, entry);
  }
  // Leave the Montgomery domain: acc * 1 * R^-1 is at most p, and equals p
  // only when the power is 0 mod p. One masked subtraction lands below p.
  mul(acc, acc, one);
  for (std::size_t l = 0; l < kLegs; ++l) {
    std::uint64_t* x = acc + l * kDigits;
    const std::uint64_t keep =
        0 - sub_digits(x, mod + l * kDigits, entry);  // all ones when x < p
    for (std::size_t j = 0; j < kDigits; ++j)
      x[j] = (x[j] & keep) | (entry[j] & ~keep);
    from_digits(x, io[l]);
  }
  return counts;
}

#else  // !__x86_64__

bool Mont52::available() { return false; }

void detail::amm52x20_x3(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*) {
  throw Error("mont52: the IFMA kernel needs an x86-64 CPU");
}

Mont52::Counts Mont52::exp_x3(const std::array<const Mont52*, kLegs>&,
                              const std::array<const BigInt*, kLegs>&,
                              const std::array<BigInt*, kLegs>&,
                              Montgomery::Scratch&) {
  throw Error("mont52: the IFMA kernel needs an x86-64 CPU");
}

#endif  // __x86_64__

}  // namespace sinclave::crypto
