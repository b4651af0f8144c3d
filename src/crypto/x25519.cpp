#include "crypto/x25519.h"

#include "common/error.h"
#include "crypto/fe25519.h"

namespace sinclave::crypto {

using fe25519::Fe;
using fe25519::fe_add;
using fe25519::fe_cswap;
using fe25519::fe_from_bytes;
using fe25519::fe_invert;
using fe25519::fe_mul;
using fe25519::fe_mul_small;
using fe25519::fe_sq;
using fe25519::fe_sub;
using fe25519::fe_to_bytes;

X25519Bytes x25519(const X25519Bytes& scalar, const X25519Bytes& u) {
  X25519Bytes k = scalar;
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;

  // RFC 7748 §5's ladder, with a24 = (486662 - 2) / 4. x2, z2, x3 and z3
  // stay carried (fe25519.h), so every subtrahend below is carried and
  // every sum or difference fed to a product stays below 2^54.
  const Fe x1 = fe_from_bytes(u);
  Fe x2 = fe25519::kOne, z2 = fe25519::kZero, x3 = x1, z3 = fe25519::kOne;
  std::uint64_t swap = 0;
  for (std::size_t t = 255; t-- > 0;) {
    const std::uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = bit;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);

  const X25519Bytes out = fe_to_bytes(fe_mul(x2, fe_invert(z2)));
  std::uint8_t any = 0;
  for (const std::uint8_t byte : out) any |= byte;
  if (any == 0) throw Error("x25519: small-order peer share");
  return out;
}

X25519Bytes x25519_public(const X25519Bytes& scalar) {
  static constexpr X25519Bytes kBasePoint{9};
  return x25519(scalar, kBasePoint);
}

}  // namespace sinclave::crypto
