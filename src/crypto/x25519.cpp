#include "crypto/x25519.h"

#include "common/error.h"

namespace sinclave::crypto {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

/// A field element mod p = 2^255 - 19, value = sum of v[i] * 2^(51 i).
/// Products and squares leave every limb below 2^52; sums and
/// differences of those stay below 2^54, which keeps every column of a
/// 5x5 product (five terms of at most 2^54 * 19 * 2^54) inside 128 bits.
struct Fe {
  std::uint64_t v[5];
};

constexpr Fe kZero{{0, 0, 0, 0, 0}};
constexpr Fe kOne{{1, 0, 0, 0, 0}};

std::uint64_t load64_le(const std::uint8_t* s) {
  std::uint64_t w = 0;
  for (int i = 7; i >= 0; --i) w = (w << 8) | s[i];
  return w;
}

void store64_le(std::uint8_t* out, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(w >> (8 * i));
}

/// Unpacks 255 bits: bit 255 (the top bit of byte 31) is dropped, as RFC
/// 7748 §5 asks of u. A value in [p, 2^255) stays as it is; the arithmetic
/// below is modulo p, so it acts as its reduction.
Fe fe_from_bytes(const X25519Bytes& s) {
  const std::uint64_t w0 = load64_le(s.data());
  const std::uint64_t w1 = load64_le(s.data() + 8);
  const std::uint64_t w2 = load64_le(s.data() + 16);
  const std::uint64_t w3 = load64_le(s.data() + 24);
  return Fe{{w0 & kMask51, ((w0 >> 51) | (w1 << 13)) & kMask51,
             ((w1 >> 38) | (w2 << 26)) & kMask51,
             ((w2 >> 25) | (w3 << 39)) & kMask51, (w3 >> 12) & kMask51}};
}

/// The canonical encoding: the unique representative in [0, p).
X25519Bytes fe_to_bytes(const Fe& f) {
  std::uint64_t h[5] = {f.v[0], f.v[1], f.v[2], f.v[3], f.v[4]};
  // One carry pass: limbs below 2^51 except h[0] < 2^51 + 19 * 8, so
  // h < 2p.
  for (int i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[0] += 19 * (h[4] >> 51);
  h[4] &= kMask51;
  // q = 1 exactly when h >= p, i.e. when h + 19 carries out of 2^255.
  std::uint64_t q = (h[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (h[i] + q) >> 51;
  // h - q p = h + 19 q - q 2^255: add 19 q, carry, and drop bit 255.
  h[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[4] &= kMask51;
  X25519Bytes out;
  store64_le(out.data(), h[0] | (h[1] << 51));
  store64_le(out.data() + 8, (h[1] >> 13) | (h[2] << 38));
  store64_le(out.data() + 16, (h[2] >> 26) | (h[3] << 25));
  store64_le(out.data() + 24, (h[3] >> 39) | (h[4] << 12));
  return out;
}

Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

/// a - b + 4p. Every subtrahend is a product or square (limbs below
/// 2^52), so no limb goes negative.
Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t k4p0 = (std::uint64_t{1} << 53) - 76;
  constexpr std::uint64_t k4pi = (std::uint64_t{1} << 53) - 4;
  return Fe{{a.v[0] + k4p0 - b.v[0], a.v[1] + k4pi - b.v[1],
             a.v[2] + k4pi - b.v[2], a.v[3] + k4pi - b.v[3],
             a.v[4] + k4pi - b.v[4]}};
}

/// Carries 128-bit columns back into 51-bit limbs, folding the overflow
/// past 2^255 into limb 0 as 19 times itself.
Fe fe_carry(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  r1 += r0 >> 51;
  r2 += r1 >> 51;
  r3 += r2 >> 51;
  r4 += r3 >> 51;
  const u128 t0 = (r0 & kMask51) + (r4 >> 51) * 19;
  return Fe{{static_cast<std::uint64_t>(t0) & kMask51,
             (static_cast<std::uint64_t>(r1) & kMask51) +
                 static_cast<std::uint64_t>(t0 >> 51),
             static_cast<std::uint64_t>(r2) & kMask51,
             static_cast<std::uint64_t>(r3) & kMask51,
             static_cast<std::uint64_t>(r4) & kMask51}};
}

Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                      b4_19 = 19 * b4;
  return fe_carry(
      u128{a0} * b0 + u128{a1} * b4_19 + u128{a2} * b3_19 +
          u128{a3} * b2_19 + u128{a4} * b1_19,
      u128{a0} * b1 + u128{a1} * b0 + u128{a2} * b4_19 + u128{a3} * b3_19 +
          u128{a4} * b2_19,
      u128{a0} * b2 + u128{a1} * b1 + u128{a2} * b0 + u128{a3} * b4_19 +
          u128{a4} * b3_19,
      u128{a0} * b3 + u128{a1} * b2 + u128{a2} * b1 + u128{a3} * b0 +
          u128{a4} * b4_19,
      u128{a0} * b4 + u128{a1} * b3 + u128{a2} * b2 + u128{a3} * b1 +
          u128{a4} * b0);
}

Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, a2_38 = 38 * a2,
                      a3_19 = 19 * a3, a4_19 = 19 * a4, a4_38 = 38 * a4;
  return fe_carry(
      u128{a0} * a0 + u128{a4_38} * a1 + u128{a2_38} * a3,
      u128{d0} * a1 + u128{a4_38} * a2 + u128{a3_19} * a3,
      u128{d0} * a2 + u128{a1} * a1 + u128{a4_38} * a3,
      u128{d0} * a3 + u128{d1} * a2 + u128{a4_19} * a4,
      u128{d0} * a4 + u128{d1} * a3 + u128{a2} * a2);
}

Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  return fe_carry(u128{a.v[0]} * s, u128{a.v[1]} * s, u128{a.v[2]} * s,
                  u128{a.v[3]} * s, u128{a.v[4]} * s);
}

/// z^(p-2) = z^-1 (0 for z = 0): 254 squarings and 11 multiplications on
/// a fixed chain, whatever z is.
Fe fe_invert(const Fe& z) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(fe_sq_n(z2, 2), z);
  const Fe z11 = fe_mul(z9, z2);
  const Fe z_5_0 = fe_mul(fe_sq(z11), z9);  // z^(2^5 - 1)
  const Fe z_10_0 = fe_mul(fe_sq_n(z_5_0, 5), z_5_0);
  const Fe z_20_0 = fe_mul(fe_sq_n(z_10_0, 10), z_10_0);
  const Fe z_40_0 = fe_mul(fe_sq_n(z_20_0, 20), z_20_0);
  const Fe z_50_0 = fe_mul(fe_sq_n(z_40_0, 10), z_10_0);
  const Fe z_100_0 = fe_mul(fe_sq_n(z_50_0, 50), z_50_0);
  const Fe z_200_0 = fe_mul(fe_sq_n(z_100_0, 100), z_100_0);
  const Fe z_250_0 = fe_mul(fe_sq_n(z_200_0, 50), z_50_0);
  return fe_mul(fe_sq_n(z_250_0, 5), z11);  // z^(2^255 - 21)
}

/// Swaps a and b when swap is 1, leaves them when it is 0, through a mask
/// rather than a branch.
void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

}  // namespace

X25519Bytes x25519(const X25519Bytes& scalar, const X25519Bytes& u) {
  X25519Bytes k = scalar;
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;

  // RFC 7748 §5's ladder, with a24 = (486662 - 2) / 4.
  const Fe x1 = fe_from_bytes(u);
  Fe x2 = kOne, z2 = kZero, x3 = x1, z3 = kOne;
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
