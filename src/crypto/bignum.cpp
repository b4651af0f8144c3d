#include "crypto/bignum.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/error.h"

namespace sinclave::crypto {

using u128 = unsigned __int128;

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

BigInt BigInt::from_bytes_be(ByteView bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // Byte i (from the most significant end) lands in limb/shift:
    const std::size_t bit_pos = (bytes.size() - 1 - i) * 8;
    out.limbs_[bit_pos / 64] |= std::uint64_t{bytes[i]} << (bit_pos % 64);
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes_be(std::size_t min_len) const {
  const std::size_t n_bytes = (bit_length() + 7) / 8;
  const std::size_t len = std::max(n_bytes, min_len);
  Bytes out(len, 0);
  for (std::size_t i = 0; i < n_bytes; ++i) {
    const std::size_t bit_pos = i * 8;
    out[len - 1 - i] =
        static_cast<std::uint8_t>(limbs_[bit_pos / 64] >> (bit_pos % 64));
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes_be(sinclave::from_hex(padded));
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = sinclave::to_hex(to_bytes_be());
  const std::size_t first = s.find_first_not_of('0');
  return s.substr(first == std::string::npos ? s.size() - 1 : first);
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 64;
  std::uint64_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
    const std::uint64_t b = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 sum = u128{a} + b + carry;
    out.limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (*this < rhs) throw Error("bignum: subtraction underflow");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t b = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 sub = u128{limbs_[i]} - b - borrow;
    out.limbs_[i] = static_cast<std::uint64_t>(sub);
    borrow = (sub >> 64) ? 1 : 0;  // wrapped => borrow
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigInt{};
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const u128 cur =
          u128{limbs_[i]} * rhs.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limbs_[i + rhs.limbs_.size()] += carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return {};
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.trim();
  return out;
}

BigIntDivMod BigInt::div_mod(const BigInt& dividend, const BigInt& divisor) {
  if (divisor.is_zero()) throw Error("bignum: division by zero");
  if (dividend < divisor) return {BigInt{}, dividend};

  const std::vector<std::uint64_t>& u = dividend.limbs_;
  const std::vector<std::uint64_t>& v = divisor.limbs_;
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;
  BigIntDivMod out;
  out.quotient.limbs_.assign(m + 1, 0);
  std::vector<std::uint64_t>& q = out.quotient.limbs_;

  if (n == 1) {
    // Short division: one 128-by-64-bit step per limb.
    u128 r = 0;
    for (std::size_t i = u.size(); i-- > 0;) {
      const u128 num = (r << 64) | u[i];
      q[i] = static_cast<std::uint64_t>(num / v[0]);
      r = num % v[0];
    }
    out.quotient.trim();
    out.remainder = BigInt(static_cast<std::uint64_t>(r));
    return out;
  }

  // Knuth, TAOCP vol. 2, §4.3.1, Algorithm D on 64-bit limbs.
  // D1: normalize so the divisor's top limb has its top bit set; the
  // dividend gains one limb.
  const int s = std::countl_zero(v[n - 1]);
  const auto shl = [s](std::uint64_t hi, std::uint64_t lo) {
    return s == 0 ? hi : (hi << s) | (lo >> (64 - s));
  };
  std::vector<std::uint64_t> vn(n), un(u.size() + 1);
  for (std::size_t i = n; i-- > 1;) vn[i] = shl(v[i], v[i - 1]);
  vn[0] = v[0] << s;
  un[u.size()] = shl(0, u.back());
  for (std::size_t i = u.size(); i-- > 1;) un[i] = shl(u[i], u[i - 1]);
  un[0] = u[0] << s;

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q from the top two limbs, then correct it with the
    // divisor's second limb; the estimate is then at most one too large.
    const u128 num = (u128{un[j + n]} << 64) | un[j + n - 1];
    u128 qhat = num / vn[n - 1];
    u128 rhat = num % vn[n - 1];
    while ((qhat >> 64) != 0 ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if ((rhat >> 64) != 0) break;
    }
    // D4: multiply and subtract qhat * vn from un[j .. j + n].
    std::uint64_t carry = 0;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = qhat * vn[i] + carry;
      carry = static_cast<std::uint64_t>(p >> 64);
      const u128 t = u128{un[i + j]} - static_cast<std::uint64_t>(p) - borrow;
      un[i + j] = static_cast<std::uint64_t>(t);
      borrow = (t >> 64) != 0 ? 1 : 0;
    }
    const u128 top = u128{un[j + n]} - carry - borrow;
    un[j + n] = static_cast<std::uint64_t>(top);
    // D5/D6: a negative difference means qhat was one too large: add the
    // divisor back.
    if ((top >> 64) != 0) {
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 t = u128{un[i + j]} + vn[i] + c;
        un[i + j] = static_cast<std::uint64_t>(t);
        c = static_cast<std::uint64_t>(t >> 64);
      }
      un[j + n] += c;
    }
    q[j] = static_cast<std::uint64_t>(qhat);
  }
  out.quotient.trim();

  // D8: the remainder is un[0 .. n) shifted back.
  std::vector<std::uint64_t>& r = out.remainder.limbs_;
  r.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    r[i] = s == 0 ? un[i] : (un[i] >> s) | (un[i + 1] << (64 - s));
  out.remainder.trim();
  return out;
}

std::uint64_t BigInt::mod_u64(std::uint64_t d) const {
  if (d == 0) throw Error("bignum: mod by zero");
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % d;
  }
  return static_cast<std::uint64_t>(rem);
}

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero() || m == BigInt{1}) throw Error("bignum: modulus must be > 1");
  if (m.is_odd()) {
    const Montgomery ctx(m);
    return ctx.exp(base, exp);
  }
  // Even modulus fallback (unused by RSA but kept for completeness).
  BigInt result{1};
  BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid with an explicitly signed Bezout coefficient.
  struct Signed {
    BigInt v;
    bool neg = false;
  };
  auto sub = [](const Signed& x, const Signed& y) -> Signed {
    // x - y
    if (x.neg == y.neg) {
      if (x.v >= y.v) return {x.v - y.v, x.neg};
      return {y.v - x.v, !x.neg};
    }
    return {x.v + y.v, x.neg};
  };

  BigInt r0 = m;
  BigInt r1 = a.mod(m);
  Signed t0{BigInt{}, false};
  Signed t1{BigInt{1}, false};
  while (!r1.is_zero()) {
    const BigIntDivMod dm = div_mod(r0, r1);
    r0 = r1;
    r1 = dm.remainder;
    const Signed t2 = sub(t0, Signed{dm.quotient * t1.v, t1.neg});
    t0 = t1;
    t1 = t2;
  }
  if (!(r0 == BigInt{1})) throw Error("bignum: not invertible");
  if (t0.neg) return m - t0.v.mod(m);
  return t0.v.mod(m);
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a.mod(b);
    a = b;
    b = r;
  }
  return a;
}

// ---------------------------------------------------------------------------
// The multiply-accumulate row
// ---------------------------------------------------------------------------

namespace detail {

std::uint64_t mul_add_row_portable(std::uint64_t* t, const std::uint64_t* y,
                                   std::uint64_t x, std::size_t len) {
  std::uint64_t carry = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const u128 cur = u128{x} * y[j] + t[j] + carry;
    t[j] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  return carry;
}

#if defined(__x86_64__)

bool cpu_has_bmi2_adx() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    // EBX bit 8: BMI2 (MULX); EBX bit 19: ADX (ADCX/ADOX).
    return (b & (1u << 8)) != 0 && (b & (1u << 19)) != 0;
  }();
  return has;
}

// Two independent carry chains: ADCX adds each product's low half (and
// t[j]) through CF, ADOX adds the previous product's high half through
// OF, so consecutive limbs never wait on one flag. Eight limbs per trip,
// then single limbs. Nothing between the first ADCX and the final fold
// may write a flag: loop control is LEA and JRCXZ (which reaches only
// +-127 bytes, hence the short hop over a long JMP back), pointers move
// by LEA, and the carry limb is the last high half plus both flags.
// Trip counts depend on len alone.
#define SINCLAVE_ROW_LIMB(off, hi_prev, hi_next)       \
  "mulx " #off "(%[y]), %[lo], %" #hi_next "\n\t"    \
  "adcx " #off "(%[t]), %[lo]\n\t"                   \
  "adox %" #hi_prev ", %[lo]\n\t"                    \
  "mov %[lo], " #off "(%[t])\n\t"

__attribute__((target("bmi2,adx")))
std::uint64_t mul_add_row_adx(std::uint64_t* t, const std::uint64_t* y,
                              std::uint64_t x, std::size_t len) {
  std::uint64_t blocks = len / 8;
  const std::uint64_t tail = len % 8;
  std::uint64_t lo = 0, hi_a = 0, hi_b = 0;
  __asm__ volatile(
      "xor %k[hi_a], %k[hi_a]\n\t"  // hi_a = 0; clears CF and OF
      "jmp 2f\n\t"
      "1:\n\t"
      SINCLAVE_ROW_LIMB(0, [hi_a], [hi_b])
      SINCLAVE_ROW_LIMB(8, [hi_b], [hi_a])
      SINCLAVE_ROW_LIMB(16, [hi_a], [hi_b])
      SINCLAVE_ROW_LIMB(24, [hi_b], [hi_a])
      SINCLAVE_ROW_LIMB(32, [hi_a], [hi_b])
      SINCLAVE_ROW_LIMB(40, [hi_b], [hi_a])
      SINCLAVE_ROW_LIMB(48, [hi_a], [hi_b])
      SINCLAVE_ROW_LIMB(56, [hi_b], [hi_a])
      "lea 64(%[y]), %[y]\n\t"
      "lea 64(%[t]), %[t]\n\t"
      "lea -1(%%rcx), %%rcx\n\t"
      "2:\n\t"
      "jrcxz 3f\n\t"
      "jmp 1b\n\t"
      "3:\n\t"
      "mov %[tail], %%rcx\n\t"
      "jmp 5f\n\t"
      "4:\n\t"
      SINCLAVE_ROW_LIMB(0, [hi_a], [hi_b])
      "mov %[hi_b], %[hi_a]\n\t"
      "lea 8(%[y]), %[y]\n\t"
      "lea 8(%[t]), %[t]\n\t"
      "lea -1(%%rcx), %%rcx\n\t"
      "5:\n\t"
      "jrcxz 6f\n\t"
      "jmp 4b\n\t"
      "6:\n\t"
      "mov $0, %[lo]\n\t"
      "adcx %[lo], %[hi_a]\n\t"
      "adox %[lo], %[hi_a]\n\t"
      : [t] "+r"(t), [y] "+r"(y), "+c"(blocks), [lo] "=&r"(lo),
        [hi_a] "=&r"(hi_a), [hi_b] "=&r"(hi_b)
      : [tail] "r"(tail), "d"(x)
      : "cc", "memory");
  return hi_a;
}

#undef SINCLAVE_ROW_LIMB

#endif  // __x86_64__

}  // namespace detail

namespace {

using RowFn = std::uint64_t (*)(std::uint64_t*, const std::uint64_t*,
                                std::uint64_t, std::size_t);

/// The row body for this CPU, resolved on first use (a function-local
/// static, so a context built during static initialisation still works).
RowFn row_body() {
#if defined(__x86_64__)
  static const RowFn row = detail::cpu_has_bmi2_adx()
                               ? detail::mul_add_row_adx
                               : detail::mul_add_row_portable;
  return row;
#else
  return detail::mul_add_row_portable;
#endif
}

}  // namespace

std::uint64_t detail::mul_add_row(std::uint64_t* t, const std::uint64_t* y,
                                  std::uint64_t x, std::size_t len) {
  return row_body()(t, y, x, len);
}

// ---------------------------------------------------------------------------
// Montgomery context
// ---------------------------------------------------------------------------

namespace {

/// Compare two k-limb values; -1/0/1 like memcmp.
int cmp_limbs(const std::uint64_t* a, const std::uint64_t* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// In-place k-limb subtraction a -= b (caller guarantees no net underflow
/// beyond a tracked top bit).
void sub_limbs(std::uint64_t* a, const std::uint64_t* b, std::size_t k) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 sub = u128{a[i]} - b[i] - borrow;
    a[i] = static_cast<std::uint64_t>(sub);
    borrow = (sub >> 64) ? 1 : 0;
  }
}

/// Window width for a fixed-window exponentiation: balances the
/// 2^(w-1)-entry table precomputation against the bits/w multiplies.
/// RSA-3072 CRT halves (1536-bit exponents) land on w = 5.
int window_bits(std::size_t exp_bits) {
  if (exp_bits > 671) return 5;
  if (exp_bits > 239) return 4;
  if (exp_bits > 79) return 3;
  if (exp_bits > 23) return 2;
  return 1;
}

thread_local Montgomery::Scratch tls_scratch;

}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (!modulus.is_odd()) throw Error("montgomery: modulus must be odd");
  k_ = n_.limbs_.size();
  const std::uint64_t* n = n_.limbs_.data();

  // n0_inv = -n^{-1} mod 2^64 via Newton iteration.
  const std::uint64_t n0 = n[0];
  std::uint64_t x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  n0_inv_ = ~x + 1;  // negate mod 2^64

  // R^2 mod n with R = 2^(64k), without long division. Write 64k = t * 2^s
  // with t odd. Doubling 2^(bits-1) (< n) modulo n up to 2^(64k + t) gives
  // 2^t * R mod n, the Montgomery form of 2^t; each Montgomery squaring
  // doubles the exponent inside the form, so s of them land on the form
  // of 2^(64k) = R, which is R^2 mod n. RSA-3072 (k = 48, t = 3): 4
  // doublings and 10 squarings. Every step stays below n.
  std::size_t t = k_;
  std::size_t s = 6;
  while (t % 2 == 0) {
    t /= 2;
    ++s;
  }
  rr_.assign(k_, 0);
  const std::size_t bits = n_.bit_length();
  rr_[(bits - 1) / 64] = std::uint64_t{1} << ((bits - 1) % 64);
  for (std::size_t e = bits - 1; e < 64 * k_ + t; ++e) {
    const std::uint64_t top = rr_[k_ - 1] >> 63;
    for (std::size_t i = k_; i-- > 1;)
      rr_[i] = (rr_[i] << 1) | (rr_[i - 1] >> 63);
    rr_[0] <<= 1;
    if (top != 0 || cmp_limbs(rr_.data(), n, k_) >= 0)
      sub_limbs(rr_.data(), n, k_);
  }
  std::vector<std::uint64_t> wide(2 * k_);
  for (std::size_t i = 0; i < s; ++i)
    mont_sqr(rr_.data(), rr_.data(), wide.data());
}

void Montgomery::mont_mul(const std::uint64_t* a, const std::uint64_t* b,
                          std::uint64_t* out, std::uint64_t* wide) const {
  // Product first, k rows of a[i] * b, each row's carry landing on the
  // limb just above it; then one Montgomery reduction. Montgomery's
  // quotient is the unique M < R with a*b + M*n = 0 (mod R), so the result
  // (a*b + M*n) / R does not depend on how the rows are scheduled. `out`
  // is written only by the reduction, so it may alias either input.
  const RowFn row = row_body();
  std::fill_n(wide, k_, 0);
  for (std::size_t i = 0; i < k_; ++i)
    wide[i + k_] = row(wide + i, b, a[i], k_);
  redc_wide(wide, out);
}

void Montgomery::mont_sqr(const std::uint64_t* a, std::uint64_t* out,
                          std::uint64_t* wide) const {
  // Schoolbook squaring into the wide buffer — off-diagonal products once
  // (row i is a[i] * a[i+1..k)), then one pass that doubles them and adds
  // the diagonal — then one Montgomery reduction. ~3/4 the
  // multiplications of mont_mul, and the windowed exponentiation ladder
  // is overwhelmingly squarings.
  const RowFn row = row_body();
  std::fill_n(wide, k_, 0);
  for (std::size_t i = 0; i < k_; ++i)
    wide[i + k_] = row(wide + 2 * i + 1, a + i + 1, a[i], k_ - i - 1);
  std::uint64_t shifted_out = 0;  // top bit of the limb below
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const u128 d = u128{a[i]} * a[i];
    const std::uint64_t lo = wide[2 * i];
    const std::uint64_t hi = wide[2 * i + 1];
    u128 cur = u128{(lo << 1) | shifted_out} + static_cast<std::uint64_t>(d) +
               carry;
    wide[2 * i] = static_cast<std::uint64_t>(cur);
    cur = u128{(hi << 1) | (lo >> 63)} + static_cast<std::uint64_t>(d >> 64) +
          static_cast<std::uint64_t>(cur >> 64);
    wide[2 * i + 1] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
    shifted_out = hi >> 63;
  }
  // a^2 < R^2: the doubled triangle plus the diagonal fits in 2k limbs.
  redc_wide(wide, out);
}

void Montgomery::redc_wide(std::uint64_t* wide, std::uint64_t* out) const {
  // One Montgomery reduction of T < n * R held in wide[0..2k): out =
  // T * R^-1 mod n < n. Row i adds m * n at limb i, zeroing wide[i]; its
  // carry plus the pending carry lands in wide[i+k], and the overflow of
  // that add (0 or 1) is owed to the next row's landing limb.
  const std::uint64_t* n = n_.limbs_.data();
  const RowFn row = row_body();
  std::uint64_t pending = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const std::uint64_t carry = row(wide + i, n, wide[i] * n0_inv_, k_);
    const u128 cur = u128{wide[i + k_]} + carry + pending;
    wide[i + k_] = static_cast<std::uint64_t>(cur);
    pending = static_cast<std::uint64_t>(cur >> 64);
  }
  // Result is pending:wide[k..2k) < 2n.
  if (pending != 0 || cmp_limbs(wide + k_, n, k_) >= 0)
    sub_limbs(wide + k_, n, k_);
  std::copy_n(wide + k_, k_, out);
}

void Montgomery::load_standard(const BigInt& v, std::uint64_t* out,
                               std::uint64_t* wide) const {
  const std::size_t s = v.limbs_.size();
  if (s <= k_) {
    // Any k-limb value works directly: a Montgomery multiply only needs
    // this operand < R; congruence mod n does the rest.
    std::copy(v.limbs_.begin(), v.limbs_.end(), out);
    std::fill_n(out + s, k_ - s, 0);
    return;
  }
  // Wider values fold down Horner-style over k-limb chunks, most
  // significant first: x = x * R + chunk, where the R-multiply is one
  // Montgomery multiplication by R^2. The chunk add can overflow R by at
  // most one n-subtraction's worth, so the result stays < R (congruent to
  // v, not fully reduced — same contract as the direct path). This is how
  // the full-width RSA message enters a half-width CRT context without a
  // single long division.
  const std::uint64_t* n = n_.limbs_.data();
  std::size_t top = s % k_;
  if (top == 0) top = k_;
  std::size_t pos = s - top;  // limbs below pos remain to be folded
  std::copy(v.limbs_.begin() + static_cast<long>(pos), v.limbs_.end(), out);
  std::fill_n(out + top, k_ - top, 0);
  while (pos > 0) {
    pos -= k_;
    // out < R, rr < n  =>  product < n: a valid left operand forever.
    mont_mul(out, rr_.data(), out, wide);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 cur = u128{out[i]} + v.limbs_[pos + i] + carry;
      out[i] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    // Sum < n + R: a single subtraction clears any carry past R.
    if (carry != 0) sub_limbs(out, n, k_);
  }
}

void Montgomery::store(const std::uint64_t* v, BigInt* out) const {
  out->limbs_.resize(k_);
  std::copy_n(v, k_, out->limbs_.data());
  out->trim();
}

void Montgomery::exp(const BigInt& base, const BigInt& exponent,
                     Scratch& scratch, BigInt* out) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) {
    out->limbs_.resize(1);
    out->limbs_[0] = 1;
    out->trim();
    return;
  }
  const int w = window_bits(bits);
  const std::size_t table_entries = std::size_t{1} << (w - 1);

  // Carve the arena: acc | b2 | wide | odd-powers table.
  std::uint64_t* arena = scratch.require((4 + table_entries) * k_);
  std::uint64_t* acc = arena;
  std::uint64_t* b2 = arena + k_;
  std::uint64_t* wide = arena + 2 * k_;   // 2k_
  std::uint64_t* table = arena + 4 * k_;  // table_entries * k_

  // table[j] holds base^(2j+1) in Montgomery form.
  load_standard(base, table, wide);
  mont_mul(table, rr_.data(), table, wide);
  if (w > 1) {
    mont_sqr(table, b2, wide);
    for (std::size_t j = 1; j < table_entries; ++j)
      mont_mul(table + (j - 1) * k_, b2, table + j * k_, wide);
  }

  // Fixed-window scan, MSB first. The leading window seeds `acc` directly
  // (no Montgomery-one needed); each further window is `gap` squarings
  // followed by one odd-power multiply.
  auto window = [&](std::size_t hi) {
    // Find the lowest set bit within [hi - w + 1, hi]; the digit between
    // is odd by construction.
    std::size_t lo = hi + 1 >= static_cast<std::size_t>(w) ? hi + 1 - w : 0;
    while (!exponent.bit(lo)) ++lo;
    std::uint64_t digit = 0;
    for (std::size_t b = hi + 1; b-- > lo;)
      digit = (digit << 1) | (exponent.bit(b) ? 1 : 0);
    return std::pair<std::size_t, std::uint64_t>{lo, digit};
  };

  auto [lo, digit] = window(bits - 1);
  std::copy_n(table + (digit >> 1) * k_, k_, acc);
  std::size_t i = lo;  // bits below i remain
  while (i > 0) {
    --i;
    if (!exponent.bit(i)) {
      mont_sqr(acc, acc, wide);
      continue;
    }
    const auto [wlo, wdigit] = window(i);
    for (std::size_t s = 0; s < i - wlo + 1; ++s) mont_sqr(acc, acc, wide);
    mont_mul(acc, table + (wdigit >> 1) * k_, acc, wide);
    i = wlo;
  }

  // Leave Montgomery form: one reduction of the k-limb accumulator.
  std::copy_n(acc, k_, wide);
  std::fill_n(wide + k_, k_, 0);
  redc_wide(wide, acc);
  store(acc, out);
}

BigInt Montgomery::exp(const BigInt& base, const BigInt& exponent,
                       Scratch& scratch) const {
  BigInt out;
  exp(base, exponent, scratch, &out);
  return out;
}

BigInt Montgomery::exp(const BigInt& base, const BigInt& exponent) const {
  BigInt out;
  exp(base, exponent, tls_scratch, &out);
  return out;
}

void Montgomery::exp_u64(const BigInt& base, std::uint64_t exponent,
                         Scratch& scratch, BigInt* out) const {
  if (exponent == 0) {
    out->limbs_.resize(1);
    out->limbs_[0] = 1;
    out->trim();
    return;
  }
  std::uint64_t* arena = scratch.require(4 * k_);
  std::uint64_t* acc = arena;
  std::uint64_t* b = arena + k_;
  std::uint64_t* wide = arena + 2 * k_;  // 2k_

  load_standard(base, b, wide);
  mont_mul(b, rr_.data(), b, wide);
  std::copy_n(b, k_, acc);
  int i = 62 - __builtin_clzll(exponent);
  for (; i >= 0; --i) {
    mont_sqr(acc, acc, wide);
    if ((exponent >> i) & 1) mont_mul(acc, b, acc, wide);
  }
  std::copy_n(acc, k_, wide);
  std::fill_n(wide + k_, k_, 0);
  redc_wide(wide, acc);
  store(acc, out);
}

BigInt Montgomery::exp_u64(const BigInt& base, std::uint64_t exponent) const {
  BigInt out;
  exp_u64(base, exponent, tls_scratch, &out);
  return out;
}

void Montgomery::mul_mod(const BigInt& a, const BigInt& b, Scratch& scratch,
                         BigInt* out) const {
  std::uint64_t* arena = scratch.require(4 * k_);
  std::uint64_t* am = arena;
  std::uint64_t* bs = arena + k_;
  std::uint64_t* wide = arena + 2 * k_;  // 2k_

  load_standard(a, am, wide);
  load_standard(b, bs, wide);
  // (a*R) * b * R^-1 = a*b mod n. After the first multiply am < n, which
  // keeps the product bound valid even though bs may exceed n (it is < R).
  mont_mul(am, rr_.data(), am, wide);
  mont_mul(am, bs, am, wide);
  store(am, out);
}

BigInt Montgomery::mul_mod(const BigInt& a, const BigInt& b) const {
  BigInt out;
  mul_mod(a, b, tls_scratch, &out);
  return out;
}

void Montgomery::reduce(const BigInt& v, Scratch& scratch, BigInt* out) const {
  std::uint64_t* arena = scratch.require(3 * k_);
  std::uint64_t* x = arena;
  std::uint64_t* wide = arena + k_;  // 2k_

  // Fold to a congruent value < R, then an exact round trip through
  // Montgomery form (x -> x*R mod n -> x mod n) lands strictly below n.
  load_standard(v, x, wide);
  mont_mul(x, rr_.data(), x, wide);
  std::copy_n(x, k_, wide);
  std::fill_n(wide + k_, k_, 0);
  redc_wide(wide, x);
  store(x, out);
}

BigInt Montgomery::reduce(const BigInt& v) const {
  BigInt out;
  reduce(v, tls_scratch, &out);
  return out;
}

}  // namespace sinclave::crypto
