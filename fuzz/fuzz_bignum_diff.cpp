// Differential oracle for the Montgomery fast paths.
//
// The Montgomery context (fixed-window exponentiation, product-then-REDC
// multiply and squaring, fold-based reduction) is the optimized engine
// under every RSA and DH operation in the repository; its reference is a
// naive square-and-multiply over BigInt's schoolbook multiply and long
// division — two independent code paths that must agree on every input.
// Operand sizes are clamped (modulus <= 24 bytes for the exponentiations,
// <= 80 bytes for mul_mod and reduce, exponent <= 8) so one iteration
// stays well under a millisecond, letting the fuzzer explore
// limb-boundary shapes instead of burning time on huge numbers. Mode 5
// checks the dispatched multiply-accumulate row (MULX/ADCX/ADOX where the
// CPU has it) against the portable row directly, over lengths up to 64
// limbs, so its 8-limb loop and every tail length are reachable.
#include "harnesses.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/bignum.h"
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

  switch (mode % 6) {
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
  }
  return 0;
}

}  // namespace sinclave::fuzz
