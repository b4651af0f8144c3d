// Radix-2^52 almost-Montgomery multiplication on AVX-512 IFMA, and the
// three-leg lockstep exponentiation RSA-3072's CRT runs on it.
//
// A modulus p of at most 1024 bits is held as 20 digits of 52 bits, so
// R = 2^1040 > 4p. IFMA's VPMADD52LUQ/VPMADD52HUQ multiply the low 52 bits
// of two 64-bit lanes and add the low or the high half of the 104-bit
// product to a third lane; twenty digits are five 256-bit vectors. The
// kernel is Gueron and Krasnov's almost-Montgomery multiplication
// ("Accelerating Big Integer Arithmetic Using Intel IFMA Extensions",
// ARITH 2016): for inputs below 2p it returns a * b * R^-1 mod p as a value
// below 2p (a*b < 4p^2 < R*p), so nothing is subtracted until the very
// end. Each lane takes at most 80 products below 2^52 (four per digit of
// b) before the one carry normalization that ends a call.
//
// One leg's reduction is a serial chain per digit (digit 0, then its
// Montgomery quotient, then the shift), so every kernel call runs three
// independent products, one per CRT leg: the three chains keep the IFMA
// units busy where one would leave them waiting.
//
// The ladder (Mont52::exp_x3) drives the three legs through one fixed
// 5-bit window schedule: 205 windows of five squarings and one multiply,
// whatever the exponents, the window's table entry picked by a masked scan
// of all 32 entries, then one masked final subtraction. Neither the
// sequence of operations nor the addresses read depend on an exponent.
// Everything it touches lives in the caller's Montgomery::Scratch arena.
//
// Only x86-64 CPUs with AVX512F, AVX512-IFMA and AVX512VL, whose OS saves
// the AVX-512 register state, run this code (Mont52::available()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/bignum.h"

namespace sinclave::crypto {

/// One odd modulus of at most 1024 bits in radix 2^52: its digits,
/// -p^-1 mod 2^52 and 2^2080 mod p (R^2, which carries values into the
/// Montgomery domain). Immutable after construction.
class Mont52 {
 public:
  static constexpr std::size_t kDigits = 20;
  static constexpr std::size_t kMaxBits = 1024;
  static constexpr std::size_t kLegs = 3;

  /// Throws Error unless p is odd, > 1 and at most kMaxBits bits. Builds
  /// R^2 mod p by long division (key generation time, not the sign path).
  explicit Mont52(const BigInt& p);

  /// The kDigits digits of p, least significant first.
  const std::uint64_t* modulus() const { return p_.data(); }
  /// -p^-1 mod 2^52.
  std::uint64_t k0() const { return k0_; }

  /// True when this CPU runs the kernel: AVX512F, AVX512-IFMA and
  /// AVX512VL by CPUID, and the AVX-512 state enabled in XCR0 by the OS.
  /// Probed once.
  static bool available();

  /// What one exp_x3 call did: the kernel calls it made and the table
  /// scans it ran. Both are fixed by the schedule.
  struct Counts {
    std::size_t kernel_calls = 0;
    std::size_t table_scans = 0;
  };

  /// *io[l] = (*io[l])^(*exponents[l]) mod p_l for the three legs at once.
  /// On entry *io[l] < p_l; each exponent has at most kMaxBits bits
  /// (Error otherwise). `io[l]`'s limb storage is reused: a warm call
  /// allocates nothing. Call only when available().
  static Counts exp_x3(const std::array<const Mont52*, kLegs>& legs,
                       const std::array<const BigInt*, kLegs>& exponents,
                       const std::array<BigInt*, kLegs>& io,
                       Montgomery::Scratch& scratch);

  /// v (below 2^1040, Error otherwise) as kDigits digits of 52 bits.
  static void to_digits(const BigInt& v, std::uint64_t* digits);
  /// kDigits digits, each below 2^52, as a number; reuses `out`'s storage.
  static void from_digits(const std::uint64_t* digits, BigInt* out);

 private:
  std::array<std::uint64_t, kDigits> p_{};
  std::array<std::uint64_t, kDigits> rr_{};
  std::uint64_t k0_ = 0;
};

namespace detail {

/// The kernel: for each leg l in 0..2, out[l] = a[l] * b[l] * 2^-1040
/// mod p[l], a value below 2p[l] whose digits are all below 2^52. Every
/// operand is three 20-digit numbers back to back (a [3][20] block);
/// inputs must have digits below 2^52 and values below 2p[l], and
/// k0[l] = -p[l]^-1 mod 2^52. `out` may alias `a` or `b`. Call only when
/// Mont52::available(). Exposed for the differential tests and the fuzzer.
void amm52x20_x3(std::uint64_t* out, const std::uint64_t* a,
                 const std::uint64_t* b, const std::uint64_t* p,
                 const std::uint64_t* k0);

}  // namespace detail

}  // namespace sinclave::crypto
