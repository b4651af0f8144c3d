// Arbitrary-precision unsigned integers and modular arithmetic.
//
// Backs RSA-3072: SigStruct signing/verification and quote signatures.
// Only non-negative values are representable; all protocol math is
// modular. Limbs are 64-bit, little-endian, normalized (no high zero
// limbs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace sinclave::crypto {

class BigInt;
class Mont52;

/// Result of long division (declared outside BigInt because a nested struct
/// could not hold the still-incomplete class type).
struct BigIntDivMod;

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Big-endian byte import/export (the wire format of RSA values).
  static BigInt from_bytes_be(ByteView bytes);
  /// Export big-endian, left-padded with zeros to at least `min_len` bytes.
  Bytes to_bytes_be(std::size_t min_len = 0) const;

  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  /// Value of bit i (0 = least significant).
  bool bit(std::size_t i) const;
  std::size_t limb_count() const { return limbs_.size(); }

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.limbs_ == b.limbs_;
  }
  static int compare(const BigInt& a, const BigInt& b);
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return compare(a, b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return compare(a, b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return compare(a, b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return compare(a, b) >= 0;
  }

  BigInt operator+(const BigInt& rhs) const;
  /// Requires *this >= rhs (values are unsigned). Throws Error otherwise.
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Long division (Knuth's Algorithm D on 64-bit limbs); divisor must be
  /// non-zero.
  static BigIntDivMod div_mod(const BigInt& dividend, const BigInt& divisor);
  BigInt mod(const BigInt& m) const;
  /// Fast remainder by a single 64-bit divisor (trial division in keygen).
  std::uint64_t mod_u64(std::uint64_t d) const;

  /// (base ^ exp) mod m. Uses Montgomery multiplication when m is odd,
  /// plain square-and-multiply otherwise. m must be > 1.
  static BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m);

  /// Multiplicative inverse of a modulo m (m > 1); throws Error when
  /// gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  static BigInt gcd(BigInt a, BigInt b);

  /// Uniform random value in [0, bound) drawn from caller-supplied bytes
  /// generator (see Drbg); bound must be > 0.
  template <typename RandomBytesFn>
  static BigInt random_below(const BigInt& bound, RandomBytesFn&& fill) {
    const std::size_t n_bytes = (bound.bit_length() + 7) / 8;
    const std::size_t top_bits = bound.bit_length() % 8;
    for (;;) {
      Bytes buf(n_bytes);
      fill(buf.data(), buf.size());
      if (top_bits != 0)
        buf[0] &= static_cast<std::uint8_t>((1u << top_bits) - 1);
      BigInt candidate = from_bytes_be(buf);
      if (candidate < bound) return candidate;
    }
  }

 private:
  void trim();
  friend class Montgomery;
  friend class Mont52;

  std::vector<std::uint64_t> limbs_;
};

struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::mod(const BigInt& m) const {
  return div_mod(*this, m).remainder;
}

/// Montgomery multiplication context for a fixed odd modulus. Exposed so
/// RSA can reuse one context across CRT exponentiations (and cache it per
/// key — the constructor computes n' and R^2 mod n, about a dozen
/// multiplications' worth: doublings, then Montgomery squarings, no long
/// division).
///
/// Every kernel (multiply, square, reduce) is built from one primitive,
/// the multiply-accumulate row detail::mul_add_row: t[0..len) += x * y.
/// The row has two bodies, chosen once by CPUID: a MULX/ADCX/ADOX loop
/// on x86-64 CPUs with BMI2 and ADX, and the portable 128-bit loop on
/// every other host (and as the tests' reference). Nothing else in this
/// class forks. The one other kernel is RSA's: on CPUs with AVX-512 IFMA
/// (CPUID and XGETBV, probed once), a key of three primes of at most 1024
/// bits signs with its three CRT legs in lockstep on the radix-2^52 kernel
/// of crypto/mont52.h; two-prime keys and other CPUs run exp() below once
/// per prime.
///
/// Exponentiation is fixed-window (4-5 bit for RSA-sized exponents)
/// over a precomputed odd-powers table, and every intermediate lives in a
/// caller-supplied Scratch arena: the steady-state exp() path performs
/// zero heap allocations (tests/test_alloc.cpp counts them). Wide inputs
/// (up to 2k limbs, e.g. the full RSA message fed to a CRT half) are
/// folded in with a Montgomery reduction instead of long division, so no
/// div_mod runs on the sign path at all.
///
/// Thread-safety: a context is immutable after construction; concurrent
/// exp() calls are safe as long as each thread uses its own Scratch (the
/// convenience overloads use a thread-local one).
class Montgomery {
 public:
  explicit Montgomery(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }

  /// Reusable workspace for the allocation-free kernels. Grows to the
  /// largest modulus it has served and then never reallocates; one
  /// instance per thread (or per batch job). Not thread-safe.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class Montgomery;
    friend class Mont52;
    /// The arena is carved into acc/base/square/wide/table slices per
    /// call (at most (4 + 16) * k limbs, for a 5-bit window; Mont52's
    /// three-leg ladder takes about 2,300 limbs); resize within capacity
    /// is allocation-free after warm-up.
    std::uint64_t* require(std::size_t limbs) {
      if (arena_.size() < limbs) arena_.resize(limbs);
      return arena_.data();
    }
    std::vector<std::uint64_t> arena_;
  };

  /// (base ^ exponent) mod n. The convenience overloads draw on a
  /// thread-local Scratch; the out-parameter form reuses `out`'s limb
  /// storage and is fully allocation-free at steady state. `out` must not
  /// alias `base` or `exponent`.
  BigInt exp(const BigInt& base, const BigInt& exponent) const;
  BigInt exp(const BigInt& base, const BigInt& exponent,
             Scratch& scratch) const;
  void exp(const BigInt& base, const BigInt& exponent, Scratch& scratch,
           BigInt* out) const;

  /// Fixed small-exponent ladder (the RSA verify side: e = 65537 is 16
  /// squarings + one multiplication). `out` must not alias `base`.
  BigInt exp_u64(const BigInt& base, std::uint64_t exponent) const;
  void exp_u64(const BigInt& base, std::uint64_t exponent, Scratch& scratch,
               BigInt* out) const;

  /// (a * b) mod n for standard-form inputs of any width — the CRT
  /// recombination multiply, again without long division. `out` must not
  /// alias `a` or `b`.
  BigInt mul_mod(const BigInt& a, const BigInt& b) const;
  void mul_mod(const BigInt& a, const BigInt& b, Scratch& scratch,
               BigInt* out) const;

  /// v mod n by Montgomery folding (k-limb chunks at one multiplication
  /// each) — the allocation-light replacement for BigInt::mod against this
  /// context's modulus. `out` must not alias `v`.
  BigInt reduce(const BigInt& v) const;
  void reduce(const BigInt& v, Scratch& scratch, BigInt* out) const;

 private:
  /// Montgomery multiplication over raw k-limb operands (each < R, with
  /// a * b < n * R): the full product is built row by row in the 2k-limb
  /// workspace `wide`, then reduced by redc_wide. `out` may alias `a` or
  /// `b`.
  void mont_mul(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::uint64_t* wide) const;
  /// Montgomery squaring: the off-diagonal triangle is computed once (rows
  /// of length k-i-1) and doubled, so a squaring costs ~3/4 of a
  /// multiplication — and the square-heavy exponentiation ladder is mostly
  /// squarings. `wide` is a 2k-limb workspace; `out` may alias `a`.
  void mont_sqr(const std::uint64_t* a, std::uint64_t* out,
                std::uint64_t* wide) const;
  /// Montgomery reduction of a wide value T < n*R (2k limbs, clobbered):
  /// out = T * R^-1 mod n.
  void redc_wide(std::uint64_t* wide, std::uint64_t* out) const;
  /// Load `v` into `out` (k limbs), folding wider values down to v mod n
  /// chunk by chunk (each fold is one Montgomery multiplication — no
  /// division). `wide` is a 2k-limb workspace.
  void load_standard(const BigInt& v, std::uint64_t* out,
                     std::uint64_t* wide) const;
  void store(const std::uint64_t* v, BigInt* out) const;

  BigInt n_;
  std::vector<std::uint64_t> rr_;  // R^2 mod n, zero-padded to k limbs
  std::uint64_t n0_inv_;
  std::size_t k_;  // limb count of n
};

namespace detail {

/// The multiply-accumulate row under every Montgomery kernel:
/// t[0..len) += x * y[0..len), returning the carry limb (the sum's bits
/// from position 64 * len up). Dispatches once, by CPUID, to one of the
/// bodies below. Exposed for the differential tests and the fuzzer.
std::uint64_t mul_add_row(std::uint64_t* t, const std::uint64_t* y,
                          std::uint64_t x, std::size_t len);

/// The portable body: one 64x64->128-bit product per limb.
std::uint64_t mul_add_row_portable(std::uint64_t* t, const std::uint64_t* y,
                                   std::uint64_t x, std::size_t len);

#if defined(__x86_64__)
/// True when the CPU has BMI2 (MULX) and ADX (ADCX/ADOX).
bool cpu_has_bmi2_adx();

/// The MULX/ADCX/ADOX body; call only when cpu_has_bmi2_adx().
std::uint64_t mul_add_row_adx(std::uint64_t* t, const std::uint64_t* y,
                              std::uint64_t x, std::size_t len);
#endif

}  // namespace detail

}  // namespace sinclave::crypto
