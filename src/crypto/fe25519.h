// Arithmetic in GF(2^255 - 19), shared by X25519 (crypto/x25519.cpp) and
// Ed25519 (crypto/ed25519.cpp). A private header of crypto/: nothing
// outside those two files includes it.
//
// An element is five 51-bit limbs, value = sum of v[i] * 2^(51 i), kept
// unreduced between operations. The limb bounds every caller relies on:
//
//   - "carried": the output of fe_mul, fe_sq, fe_mul_small and
//     fe_from_bytes, and every constant here. Limb 1 is below 2^51 + 2^23,
//     every other limb below 2^51, so all limbs are below 2^52.
//   - fe_add(a, b): the limb-wise sum, no carry.
//   - fe_sub(a, b) = a + 4p - b: 4p's limbs are 2^53 - 76 and 2^53 - 4,
//     so b must be carried (limbs below 2^52) for no limb to go negative.
//     The result's limbs are below a's plus 2^53.
//   - fe_mul and fe_sq take limbs below 2^56: each 128-bit column then
//     sums at most 77 * 2^112 < 2^119, and 19 * b[i] stays below 2^61.
//
// The formulas in x25519.cpp and ed25519.cpp state their operands' bounds
// against these rules. Nothing here branches on or indexes by a value, and
// nothing touches the heap.
#pragma once

#include <array>
#include <cstdint>

namespace sinclave::crypto::fe25519 {

using u128 = unsigned __int128;

inline constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

struct Fe {
  std::uint64_t v[5];
};

inline constexpr Fe kZero{{0, 0, 0, 0, 0}};
inline constexpr Fe kOne{{1, 0, 0, 0, 0}};

using FeBytes = std::array<std::uint8_t, 32>;

inline std::uint64_t load64_le(const std::uint8_t* s) {
  std::uint64_t w = 0;
  for (int i = 7; i >= 0; --i) w = (w << 8) | s[i];
  return w;
}

inline void store64_le(std::uint8_t* out, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(w >> (8 * i));
}

/// Unpacks 255 bits: bit 255 (the top bit of byte 31) is dropped, as RFC
/// 7748 §5 asks of u and RFC 8032 §5.1.3 of y. A value in [p, 2^255) stays
/// as it is; the arithmetic is modulo p, so it acts as its reduction.
inline Fe fe_from_bytes(const FeBytes& s) {
  const std::uint64_t w0 = load64_le(s.data());
  const std::uint64_t w1 = load64_le(s.data() + 8);
  const std::uint64_t w2 = load64_le(s.data() + 16);
  const std::uint64_t w3 = load64_le(s.data() + 24);
  return Fe{{w0 & kMask51, ((w0 >> 51) | (w1 << 13)) & kMask51,
             ((w1 >> 38) | (w2 << 26)) & kMask51,
             ((w2 >> 25) | (w3 << 39)) & kMask51, (w3 >> 12) & kMask51}};
}

/// The canonical encoding: the unique representative in [0, p). Takes
/// limbs below 2^54.
inline FeBytes fe_to_bytes(const Fe& f) {
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
  FeBytes out;
  store64_le(out.data(), h[0] | (h[1] << 51));
  store64_le(out.data() + 8, (h[1] >> 13) | (h[2] << 38));
  store64_le(out.data() + 16, (h[2] >> 26) | (h[3] << 25));
  store64_le(out.data() + 24, (h[3] >> 39) | (h[4] << 12));
  return out;
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

/// a - b + 4p; b must be carried (see the header comment).
inline Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t k4p0 = (std::uint64_t{1} << 53) - 76;
  constexpr std::uint64_t k4pi = (std::uint64_t{1} << 53) - 4;
  return Fe{{a.v[0] + k4p0 - b.v[0], a.v[1] + k4pi - b.v[1],
             a.v[2] + k4pi - b.v[2], a.v[3] + k4pi - b.v[3],
             a.v[4] + k4pi - b.v[4]}};
}

/// Carries 128-bit columns back into 51-bit limbs, folding the overflow
/// past 2^255 into limb 0 as 19 times itself.
inline Fe fe_carry(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
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

inline Fe fe_mul(const Fe& a, const Fe& b) {
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

inline Fe fe_sq(const Fe& a) {
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

inline Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

inline Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  return fe_carry(u128{a.v[0]} * s, u128{a.v[1]} * s, u128{a.v[2]} * s,
                  u128{a.v[3]} * s, u128{a.v[4]} * s);
}

/// z^(2^250 - 1), the common stem of inversion and the square-root power;
/// sets *z11 to z^11 on the way.
inline Fe fe_pow_2_250_1(const Fe& z, Fe* z11) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(fe_sq_n(z2, 2), z);
  *z11 = fe_mul(z9, z2);
  const Fe z_5_0 = fe_mul(fe_sq(*z11), z9);  // z^(2^5 - 1)
  const Fe z_10_0 = fe_mul(fe_sq_n(z_5_0, 5), z_5_0);
  const Fe z_20_0 = fe_mul(fe_sq_n(z_10_0, 10), z_10_0);
  const Fe z_40_0 = fe_mul(fe_sq_n(z_20_0, 20), z_20_0);
  const Fe z_50_0 = fe_mul(fe_sq_n(z_40_0, 10), z_10_0);
  const Fe z_100_0 = fe_mul(fe_sq_n(z_50_0, 50), z_50_0);
  const Fe z_200_0 = fe_mul(fe_sq_n(z_100_0, 100), z_100_0);
  return fe_mul(fe_sq_n(z_200_0, 50), z_50_0);
}

/// z^(p-2) = z^-1 (0 for z = 0): 254 squarings and 11 multiplications on
/// a fixed chain, whatever z is.
inline Fe fe_invert(const Fe& z) {
  Fe z11;
  const Fe z_250_0 = fe_pow_2_250_1(z, &z11);
  return fe_mul(fe_sq_n(z_250_0, 5), z11);  // z^(2^255 - 21)
}

/// z^((p-5)/8) = z^(2^252 - 3), the power under RFC 8032 §5.1.3's square
/// root.
inline Fe fe_pow_p58(const Fe& z) {
  Fe z11;
  const Fe z_250_0 = fe_pow_2_250_1(z, &z11);
  return fe_mul(fe_sq_n(z_250_0, 2), z);
}

/// Swaps a and b when swap is 1, leaves them when it is 0, through a mask
/// rather than a branch.
inline void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

/// Sets a to b when mask is all ones, leaves it when mask is zero.
inline void fe_cmov(Fe& a, const Fe& b, std::uint64_t mask) {
  for (int i = 0; i < 5; ++i) a.v[i] ^= mask & (a.v[i] ^ b.v[i]);
}

}  // namespace sinclave::crypto::fe25519
