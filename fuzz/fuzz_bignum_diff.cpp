// Differential oracle for the Montgomery fast paths and X25519.
//
// The Montgomery context (fixed-window exponentiation, product-then-REDC
// multiply and squaring, fold-based reduction) is the optimized engine
// under every RSA operation in the repository; its reference is a naive
// square-and-multiply over BigInt's schoolbook multiply and long
// division — two independent code paths that must agree on every input.
// Operand sizes are clamped (modulus <= 24 bytes for the exponentiations,
// <= 80 bytes for mul_mod and reduce, exponent <= 8) so one iteration
// stays well under a millisecond, letting the fuzzer explore
// limb-boundary shapes instead of burning time on huge numbers. Mode 5
// checks the dispatched multiply-accumulate row (MULX/ADCX/ADOX where the
// CPU has it) against the portable row directly, over lengths up to 64
// limbs, so its 8-limb loop and every tail length are reachable. Mode 6
// checks the 51-bit-limb X25519 ladder against RFC 7748 §5's ladder
// transcribed onto BigInt's * and .mod, its inversion by mod_exp(p - 2),
// on fuzz-chosen 32-byte scalars and u (u's top bit and values in
// [p, 2^255) included). Mode 7 checks Ed25519's scalar arithmetic mod L
// (Barrett reduction on fixed limbs) against BigInt's .mod: a 64-byte
// digest reduced mod L, and r + k a mod L for fuzz-chosen 32-byte r, k
// and a. Mode 8 makes one call of the three-leg radix-2^52 IFMA kernel
// (crypto/mont52.h) on fuzz-chosen odd moduli of at most 1024 bits with
// operands below 2p: each leg must be congruent to a * b * 2^-1040 mod p
// on BigInt, below 2p, with every digit below 2^52. Without IFMA it
// returns at once.
#include "harnesses.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "crypto/bignum.h"
#include "crypto/ed25519.h"
#include "crypto/mont52.h"
#include "crypto/x25519.h"
#include "fuzz_util.h"

namespace sinclave::fuzz {
namespace {

using crypto::BigInt;
using crypto::Montgomery;

/// Square-and-multiply over schoolbook ops only — no Montgomery anywhere.
BigInt naive_mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result = BigInt(1).mod(m);
  const BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

/// RFC 7748 §5 on BigInt, line by line: clamp, mask u's top bit, ladder
/// with a branching swap, then x_2 * z_2^(p - 2). Returns the u-coordinate
/// as a number (0 for a small-order u).
BigInt x25519_reference(const crypto::X25519Bytes& scalar,
                        const crypto::X25519Bytes& u_bytes) {
  static const BigInt p = (BigInt(1) << 255) - BigInt(19);
  const auto little_endian = [](crypto::X25519Bytes b) {
    std::reverse(b.begin(), b.end());
    return BigInt::from_bytes_be(ByteView{b.data(), b.size()});
  };
  crypto::X25519Bytes clamped = scalar;
  clamped[0] &= 248;
  clamped[31] &= 127;
  clamped[31] |= 64;
  const BigInt k = little_endian(clamped);
  crypto::X25519Bytes masked = u_bytes;
  masked[31] &= 127;
  const BigInt x1 = little_endian(masked).mod(p);
  const auto sub = [](const BigInt& a, const BigInt& b) {
    return (a + p - b).mod(p);
  };
  BigInt x2 = 1, z2 = 0, x3 = x1, z3 = 1;
  bool swap = false;
  for (std::size_t t = 255; t-- > 0;) {
    const bool k_t = k.bit(t);
    if (swap != k_t) {
      std::swap(x2, x3);
      std::swap(z2, z3);
    }
    swap = k_t;
    const BigInt a = (x2 + z2).mod(p);
    const BigInt aa = (a * a).mod(p);
    const BigInt b = sub(x2, z2);
    const BigInt bb = (b * b).mod(p);
    const BigInt e = sub(aa, bb);
    const BigInt c = (x3 + z3).mod(p);
    const BigInt d = sub(x3, z3);
    const BigInt da = (d * a).mod(p);
    const BigInt cb = (c * b).mod(p);
    const BigInt sum = (da + cb).mod(p);
    const BigInt diff = sub(da, cb);
    x3 = (sum * sum).mod(p);
    z3 = (x1 * (diff * diff).mod(p)).mod(p);
    x2 = (aa * bb).mod(p);
    z2 = (e * (aa + BigInt(121665) * e).mod(p)).mod(p);
  }
  if (swap) {
    std::swap(x2, x3);
    std::swap(z2, z3);
  }
  if (z2.is_zero()) return BigInt{};
  return (x2 * BigInt::mod_exp(z2, p - BigInt(2), p)).mod(p);
}

/// A little-endian byte string as a BigInt.
template <std::size_t N>
BigInt from_le(const std::array<std::uint8_t, N>& le) {
  std::array<std::uint8_t, N> be = le;
  std::reverse(be.begin(), be.end());
  return BigInt::from_bytes_be(ByteView{be.data(), be.size()});
}

template <std::size_t N>
std::array<std::uint8_t, N> take_array(FuzzInput& in) {
  std::array<std::uint8_t, N> out{};
  const Bytes bytes = in.take(N);
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return out;
}

BigInt odd_modulus(FuzzInput& in, std::size_t max_bytes) {
  BigInt m = BigInt::from_bytes_be(in.take(1 + in.below(
      static_cast<std::uint32_t>(max_bytes))));
  if (!m.is_odd()) m = m + 1;
  if (m <= 1) m = 3;
  return m;
}

}  // namespace

int run_bignum_diff(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 9) {
    case 0: {
      const BigInt m = odd_modulus(in, 24);
      const BigInt base = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const BigInt exp = BigInt::from_bytes_be(in.take(1 + in.below(8)));
      const Montgomery mont(m);
      require(mont.exp(base, exp) == naive_mod_exp(base, exp, m),
              "Montgomery exp disagrees with naive square-and-multiply");
      break;
    }
    case 1: {
      const BigInt m = odd_modulus(in, 24);
      const BigInt base = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const std::uint64_t e = in.u64();
      const Montgomery mont(m);
      require(mont.exp_u64(base, e) == naive_mod_exp(base, BigInt(e), m),
              "Montgomery exp_u64 disagrees with naive reference");
      break;
    }
    case 2: {
      const BigInt m = odd_modulus(in, 80);
      const BigInt a = BigInt::from_bytes_be(in.take(1 + in.below(96)));
      const BigInt b = BigInt::from_bytes_be(in.take(1 + in.below(96)));
      const Montgomery mont(m);
      require(mont.mul_mod(a, b) == (a * b).mod(m),
              "Montgomery mul_mod disagrees with schoolbook multiply");
      break;
    }
    case 3: {
      const BigInt m = odd_modulus(in, 80);
      const BigInt v = BigInt::from_bytes_be(in.take(1 + in.below(240)));
      const Montgomery mont(m);
      require(mont.reduce(v) == v.mod(m),
              "Montgomery fold-reduction disagrees with long division");
      break;
    }
    case 4: {
      // BigInt::mod_exp dispatches to Montgomery for odd moduli and plain
      // square-and-multiply for even ones; both routes must match the
      // naive reference, and mod_inverse must actually invert.
      BigInt m = BigInt::from_bytes_be(in.take(1 + in.below(24)));
      if (m <= 1) m = 4;
      const BigInt base = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const BigInt exp = BigInt::from_bytes_be(in.take(1 + in.below(8)));
      require(BigInt::mod_exp(base, exp, m) == naive_mod_exp(base, exp, m),
              "BigInt::mod_exp disagrees with naive reference");
      try {
        const BigInt inv = BigInt::mod_inverse(base, m);
        require((base * inv).mod(m) == BigInt(1).mod(m),
                "mod_inverse result is not an inverse");
      } catch (const Error&) {
        // gcd(base, m) != 1 — a typed refusal is the documented outcome.
      }
      break;
    }
    case 5: {
      // t += x * y over fuzz-chosen limbs: every limb of t and the carry
      // must match the portable row. A leading flag byte turns short
      // inputs into all-ones limbs, the row's largest carries.
      const std::size_t len = in.below(65);
      const bool ones = in.boolean();
      std::uint64_t t[64] = {}, y[64] = {};
      for (std::size_t j = 0; j < len; ++j) {
        t[j] = ones ? ~std::uint64_t{0} : in.u64();
        y[j] = ones ? ~std::uint64_t{0} : in.u64();
      }
      const std::uint64_t x = ones ? ~std::uint64_t{0} : in.u64();
      std::uint64_t t_ref[64] = {};
      std::copy_n(t, len, t_ref);
      const std::uint64_t carry = crypto::detail::mul_add_row(t, y, x, len);
      const std::uint64_t carry_ref =
          crypto::detail::mul_add_row_portable(t_ref, y, x, len);
      require(carry == carry_ref && std::equal(t, t + len, t_ref),
              "dispatched multiply-accumulate row disagrees with portable");
      break;
    }
    case 6: {
      // A flag byte turns u into p + r, r = u[0] mod 19 (bit 255 kept as
      // drawn): non-canonical encodings the fuzzer would rarely draw.
      crypto::X25519Bytes scalar{}, u{};
      const Bytes k_bytes = in.take(32);
      std::copy(k_bytes.begin(), k_bytes.end(), scalar.begin());
      const bool noncanonical = in.boolean();
      const Bytes u_bytes = in.take(32);
      std::copy(u_bytes.begin(), u_bytes.end(), u.begin());
      if (noncanonical) {
        const std::uint8_t r = static_cast<std::uint8_t>(u[0] % 19);
        u[0] = static_cast<std::uint8_t>(0xed + r);
        std::fill(u.begin() + 1, u.end() - 1, std::uint8_t{0xff});
        u[31] = static_cast<std::uint8_t>(0x7f | (u[31] & 0x80));
      }
      const BigInt expected = x25519_reference(scalar, u);
      try {
        crypto::X25519Bytes out = crypto::x25519(scalar, u);
        std::reverse(out.begin(), out.end());
        require(!expected.is_zero() &&
                    BigInt::from_bytes_be(ByteView{out.data(), out.size()}) ==
                        expected,
                "x25519 disagrees with the RFC 7748 reference ladder");
      } catch (const Error&) {
        require(expected.is_zero(),
                "x25519 refused a u whose reference result is nonzero");
      }
      break;
    }
    case 7: {
      static const BigInt l =
          (BigInt(1) << 252) +
          BigInt::from_hex("14def9dea2f79cd65812631a5cf5d3ed");
      const auto wide = take_array<64>(in);
      require(from_le(crypto::detail::ed25519_reduce(wide)) ==
                  from_le(wide).mod(l),
              "Ed25519 digest reduction disagrees with BigInt mod L");
      const auto r = take_array<32>(in);
      const auto k = take_array<32>(in);
      const auto a = take_array<32>(in);
      require(from_le(crypto::detail::ed25519_muladd(k, a, r)) ==
                  (from_le(r) + from_le(k) * from_le(a)).mod(l),
              "Ed25519 r + k a mod L disagrees with BigInt");
      break;
    }
    case 8: {
      if (!crypto::Mont52::available()) break;
      constexpr std::size_t kLegs = crypto::Mont52::kLegs;
      constexpr std::size_t kDigits = crypto::Mont52::kDigits;
      std::uint64_t a[kLegs * kDigits], b[kLegs * kDigits];
      std::uint64_t p[kLegs * kDigits], out[kLegs * kDigits], k0[kLegs];
      std::array<BigInt, kLegs> m, av, bv;
      for (std::size_t l = 0; l < kLegs; ++l) {
        m[l] = odd_modulus(in, 128);
        const crypto::Mont52 leg(m[l]);
        std::copy_n(leg.modulus(), kDigits, p + l * kDigits);
        k0[l] = leg.k0();
        const BigInt two_p = m[l] + m[l];
        av[l] = BigInt::from_bytes_be(in.take(1 + in.below(131))).mod(two_p);
        bv[l] = BigInt::from_bytes_be(in.take(1 + in.below(131))).mod(two_p);
        crypto::Mont52::to_digits(av[l], a + l * kDigits);
        crypto::Mont52::to_digits(bv[l], b + l * kDigits);
      }
      crypto::detail::amm52x20_x3(out, a, b, p, k0);
      static const BigInt r = BigInt(1) << (52 * kDigits);
      for (std::size_t l = 0; l < kLegs; ++l) {
        const std::uint64_t* digits = out + l * kDigits;
        require(std::all_of(digits, digits + kDigits,
                            [](std::uint64_t d) { return (d >> 52) == 0; }),
                "IFMA kernel left a digit at or above 2^52");
        BigInt got;
        crypto::Mont52::from_digits(digits, &got);
        require(got < m[l] + m[l], "IFMA kernel result not below 2p");
        const BigInt r_inv = BigInt::mod_inverse(r.mod(m[l]), m[l]);
        require(got.mod(m[l]) == ((av[l] * bv[l]).mod(m[l]) * r_inv).mod(m[l]),
                "IFMA kernel disagrees with a * b * 2^-1040 mod p on BigInt");
      }
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
