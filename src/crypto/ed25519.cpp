#include "crypto/ed25519.h"

#include <algorithm>

#include "crypto/drbg.h"
#include "crypto/fe25519.h"
#include "crypto/sha512.h"

namespace sinclave::crypto {

using detail::Ed25519Scalar;
using fe25519::Fe;
using fe25519::fe_add;
using fe25519::fe_carry;
using fe25519::fe_cmov;
using fe25519::fe_from_bytes;
using fe25519::fe_invert;
using fe25519::fe_mul;
using fe25519::fe_pow_p58;
using fe25519::fe_sq;
using fe25519::fe_sub;
using fe25519::fe_to_bytes;
using fe25519::FeBytes;
using fe25519::u128;

namespace {

// The curve -x^2 + y^2 = 1 + d x^2 y^2 over GF(p), d = -121665/121666.
constexpr Fe kD{{0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                 0x739c663a03cbb, 0x52036cee2b6ff}};
constexpr Fe kD2{{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                  0x6738cc7407977, 0x2406d9dc56dff}};
constexpr Fe kSqrtM1{{0x61b274a0ea0b0, 0xd5a5fc8f189d, 0x7ef5e9cbd0c60,
                      0x78595a6804c9e, 0x2b8324804fc1d}};

/// Extended coordinates (X : Y : Z : T): x = X/Z, y = Y/Z, x y = T/Z.
/// Every coordinate is carried (fe25519.h).
struct Point {
  Fe x, y, z, t;
};

/// B (RFC 8032 §5.1): y = 4/5, x even.
constexpr Point kBase{
    {{0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d, 0x1ff60527118fe,
      0x216936d3cd6e5}},
    {{0x6666666666658, 0x4cccccccccccc, 0x1999999999999, 0x3333333333333,
      0x6666666666666}},
    fe25519::kOne,
    {{0x68ab3a5b7dda3, 0xeea2a5eadbb, 0x2af8df483c27e, 0x332b375274732,
      0x67875f0fd78b7}}};

constexpr Point kIdentity{fe25519::kZero, fe25519::kOne, fe25519::kOne,
                          fe25519::kZero};

/// The second operand of an addition with its factors precomputed:
/// Y + X and 2 Z (below 2^53), Y - X (below 2^54) and 2 d T (carried).
struct Cached {
  Fe y_plus_x, y_minus_x, t2d, z2;
};

/// The identity (0 : 1 : 1 : 0) in cached form.
constexpr Cached kCachedIdentity{fe25519::kOne, fe25519::kOne, fe25519::kZero,
                                 {{2, 0, 0, 0, 0}}};

/// -a, carried.
Fe fe_neg(const Fe& a) {
  const Fe n = fe_sub(fe25519::kZero, a);
  return fe_carry(n.v[0], n.v[1], n.v[2], n.v[3], n.v[4]);
}

Cached to_cached(const Point& p) {
  return Cached{fe_add(p.y, p.x), fe_sub(p.y, p.x), fe_mul(p.t, kD2),
                fe_add(p.z, p.z)};
}

/// P + Q, RFC 8032 §5.1.4's addition (complete: it also doubles and adds
/// the identity). A, B, C and D are products, so E and F subtract carried
/// values and every factor of the four closing products is below 2^54.
Point add(const Point& p, const Cached& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(p.z, q.z2);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// 2P, RFC 8032 §5.1.4's doubling. The subtrahends B and (X + Y)^2 are
/// squares; C = 2 Z^2 and H are below 2^53, E and G below 2^54, and
/// F = C + G below 2^55, inside fe_mul's 2^56.
Point dbl(const Point& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe h = fe_add(a, b);
  const Fe e = fe_sub(h, fe_sq(fe_add(p.x, p.y)));
  const Fe g = fe_sub(a, b);
  const Fe f = fe_add(c, g);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// [s]P for a 32-byte little-endian scalar s below 2^256: a 4-bit fixed
/// window, most significant digit first, over a table of 0P..15P built
/// for this call. Each window reads every entry and keeps one through a
/// mask, so the only branches are the loops' own. Kept out of line so its
/// object code can be audited on its own.
[[gnu::noinline]] Point scalar_mul(const Ed25519Scalar& s, const Point& p) {
  Cached table[16];
  table[0] = kCachedIdentity;
  table[1] = to_cached(p);
  Point multiple = p;
  for (int i = 2; i < 16; ++i) {
    multiple = add(multiple, table[1]);
    table[i] = to_cached(multiple);
  }

  Point q = kIdentity;
  for (int i = 63; i >= 0; --i) {
    q = dbl(dbl(dbl(dbl(q))));
    const std::uint64_t digit = (s[i >> 1] >> (4 * (i & 1))) & 15;
    Cached entry = table[0];
    for (std::uint64_t j = 1; j < 16; ++j) {
      // All ones exactly when j == digit: (j ^ digit) - 1 borrows only
      // from zero.
      const std::uint64_t mask = 0 - (((j ^ digit) - 1) >> 63);
      fe_cmov(entry.y_plus_x, table[j].y_plus_x, mask);
      fe_cmov(entry.y_minus_x, table[j].y_minus_x, mask);
      fe_cmov(entry.t2d, table[j].t2d, mask);
      fe_cmov(entry.z2, table[j].z2, mask);
    }
    q = add(q, entry);
  }
  return q;
}

Ed25519PublicKey::Encoding encode(const Point& p) {
  const Fe z_inv = fe_invert(p.z);
  FeBytes out = fe_to_bytes(fe_mul(p.y, z_inv));
  const FeBytes x = fe_to_bytes(fe_mul(p.x, z_inv));
  out[31] |= static_cast<std::uint8_t>((x[0] & 1) << 7);
  return out;
}

/// RFC 8032 §5.1.3. False when y >= p, when (y^2 - 1) / (d y^2 + 1) has
/// no square root, or when x = 0 and the sign bit is set.
bool decode(const Ed25519PublicKey::Encoding& bytes, Point* out) {
  FeBytes y_bytes = bytes;
  y_bytes[31] &= 0x7f;
  const std::uint8_t x_sign = bytes[31] >> 7;
  const Fe y = fe_from_bytes(y_bytes);
  if (fe_to_bytes(y) != y_bytes) return false;

  // x = u v^3 (u v^7)^((p-5)/8) with u = y^2 - 1, v = d y^2 + 1.
  const Fe yy = fe_sq(y);
  const Fe u = fe_sub(yy, fe25519::kOne);
  const Fe v = fe_add(fe_mul(kD, yy), fe25519::kOne);
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe uv7 = fe_mul(u, fe_mul(fe_sq(v3), v));
  Fe x = fe_mul(fe_mul(u, v3), fe_pow_p58(uv7));
  const FeBytes vxx = fe_to_bytes(fe_mul(v, fe_sq(x)));
  if (vxx == fe_to_bytes(fe_sub(fe25519::kOne, yy))) {
    x = fe_mul(x, kSqrtM1);  // v x^2 = -u
  } else if (vxx != fe_to_bytes(u)) {
    return false;
  }
  const FeBytes x_bytes = fe_to_bytes(x);
  const bool x_zero =
      std::all_of(x_bytes.begin(), x_bytes.end(),
                  [](std::uint8_t byte) { return byte == 0; });
  if (x_zero && x_sign == 1) return false;
  if ((x_bytes[0] & 1) != x_sign) x = fe_neg(x);
  *out = Point{x, y, fe25519::kOne, fe_mul(x, y)};
  return true;
}

// L and mu = floor(2^512 / L), little-endian 64-bit limbs.
constexpr std::uint64_t kL[4] = {0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0,
                                 0x1000000000000000};
constexpr std::uint64_t kMu[5] = {0xed9ce5a30a2c131b, 0x2106215d086329a7,
                                  0xffffffffffffffeb, 0xffffffffffffffff,
                                  0xf};

/// x mod L for x below 2^512 (eight limbs): Barrett reduction, Menezes et
/// al., Handbook of Applied Cryptography, Algorithm 14.42 with b = 2^64 and
/// k = 4. The quotient estimate falls short of x / L by less than
/// x frac(2^512 / L) / 2^512 + 2^192 / L < 0.23, so it is at most one too
/// small: r < 2L, and one masked subtraction finishes it. The work does
/// not depend on x.
Ed25519Scalar barrett_reduce(const std::uint64_t x[8]) {
  // q3 = floor(floor(x / b^3) * mu / b^5): the top five limbs of
  // x[3..8) * mu.
  std::uint64_t q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 t = u128{x[3 + i]} * kMu[j] + q2[i + j] + carry;
      q2[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    q2[i + 5] = carry;
  }
  const std::uint64_t* q3 = q2 + 5;
  // r2 = q3 * L mod b^5.
  std::uint64_t r2[5] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      const u128 t = u128{q3[i]} * (j < 4 ? kL[j] : 0) + r2[i + j] + carry;
      r2[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
  }
  // r = (x mod b^5) - r2 mod b^5, then r - L unless that borrows.
  std::uint64_t r[5];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = u128{x[i]} - r2[i] - borrow;
    r[i] = static_cast<std::uint64_t>(t);
    borrow = static_cast<std::uint64_t>(t >> 64) & 1;
  }
  std::uint64_t t[5];
  borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = u128{r[i]} - (i < 4 ? kL[i] : 0) - borrow;
    t[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  const std::uint64_t keep = 0 - borrow;  // all ones: r < L, keep r
  for (int i = 0; i < 4; ++i) r[i] = (r[i] & keep) | (t[i] & ~keep);
  Ed25519Scalar out;
  for (int i = 0; i < 4; ++i) fe25519::store64_le(out.data() + 8 * i, r[i]);
  return out;
}

/// S < L, read as 32 little-endian bytes.
bool below_l(ByteView s) {
  for (int i = 3; i >= 0; --i) {
    const std::uint64_t limb = fe25519::load64_le(s.data() + 8 * i);
    if (limb != kL[i]) return limb < kL[i];
  }
  return false;
}

}  // namespace

namespace detail {

Ed25519Scalar ed25519_reduce(const std::array<std::uint8_t, 64>& wide) {
  std::uint64_t x[8];
  for (int i = 0; i < 8; ++i) x[i] = fe25519::load64_le(wide.data() + 8 * i);
  return barrett_reduce(x);
}

Ed25519Scalar ed25519_muladd(const Ed25519Scalar& a, const Ed25519Scalar& b,
                             const Ed25519Scalar& c) {
  std::uint64_t al[4], bl[4];
  for (int i = 0; i < 4; ++i) {
    al[i] = fe25519::load64_le(a.data() + 8 * i);
    bl[i] = fe25519::load64_le(b.data() + 8 * i);
  }
  // x = c, then x += a * b row by row; (2^256 - 1)^2 + 2^256 - 1 < 2^512.
  std::uint64_t x[8] = {};
  for (int i = 0; i < 4; ++i) x[i] = fe25519::load64_le(c.data() + 8 * i);
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = u128{al[i]} * bl[j] + x[i + j] + carry;
      x[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    for (int k = i + 4; k < 8; ++k) {
      const u128 t = u128{x[k]} + carry;
      x[k] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
  }
  return barrett_reduce(x);
}

}  // namespace detail

bool Ed25519PublicKey::verify(ByteView message, ByteView signature) const {
  if (signature.size() != kEd25519SignatureBytes) return false;
  const ByteView r_bytes = signature.first(32);
  const ByteView s_bytes = signature.subspan(32);
  if (!below_l(s_bytes)) return false;
  Point a;
  if (!decode(bytes_, &a)) return false;

  Sha512 h;
  h.update(r_bytes);
  h.update(view());
  h.update(message);
  const Ed25519Scalar k = detail::ed25519_reduce(h.finalize());
  Ed25519Scalar s;
  std::copy(s_bytes.begin(), s_bytes.end(), s.begin());

  // [S]B - [k]A, compared with R as bytes.
  const Point minus_a{fe_neg(a.x), a.y, a.z, fe_neg(a.t)};
  const Point check =
      add(scalar_mul(s, kBase), to_cached(scalar_mul(k, minus_a)));
  const Encoding encoded = encode(check);
  return std::equal(encoded.begin(), encoded.end(), r_bytes.begin());
}

Ed25519KeyPair Ed25519KeyPair::from_seed(const Ed25519Seed& seed) {
  Sha512Digest h = sha512(ByteView{seed.data(), seed.size()});
  Ed25519KeyPair key;
  std::copy(h.begin(), h.begin() + 32, key.scalar_.begin());
  std::copy(h.begin() + 32, h.end(), key.prefix_.begin());
  secure_zero(h.data(), h.size());
  key.scalar_[0] &= 248;
  key.scalar_[31] &= 127;
  key.scalar_[31] |= 64;
  key.public_ = Ed25519PublicKey(encode(scalar_mul(key.scalar_, kBase)));
  return key;
}

Ed25519KeyPair Ed25519KeyPair::generate(Drbg& rng) {
  Ed25519Seed seed;
  rng.generate(seed.data(), seed.size());
  const Ed25519KeyPair key = from_seed(seed);
  secure_zero(seed.data(), seed.size());
  return key;
}

Ed25519Signature Ed25519KeyPair::sign(ByteView message) const {
  Sha512 nonce;
  nonce.update(ByteView{prefix_.data(), prefix_.size()});
  nonce.update(message);
  const Ed25519Scalar r = detail::ed25519_reduce(nonce.finalize());
  const Ed25519PublicKey::Encoding r_bytes = encode(scalar_mul(r, kBase));

  Sha512 challenge;
  challenge.update(ByteView{r_bytes.data(), r_bytes.size()});
  challenge.update(public_.view());
  challenge.update(message);
  const Ed25519Scalar k = detail::ed25519_reduce(challenge.finalize());
  const Ed25519Scalar s = detail::ed25519_muladd(k, scalar_, r);

  Ed25519Signature signature;
  std::copy(r_bytes.begin(), r_bytes.end(), signature.begin());
  std::copy(s.begin(), s.end(), signature.begin() + 32);
  return signature;
}

}  // namespace sinclave::crypto
