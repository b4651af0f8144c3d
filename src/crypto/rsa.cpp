#include "crypto/rsa.h"

#include <array>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/mont52.h"
#include "crypto/sha256.h"

namespace sinclave::crypto {

namespace {

// PKCS#1 v1.5 DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `em_len` bytes.
Bytes pkcs1_encode(ByteView message, std::size_t em_len) {
  const Hash256 digest = sha256(message);
  const std::size_t t_len = sizeof(kSha256DigestInfo) + 32;
  if (em_len < t_len + 11) throw Error("rsa: modulus too small for pkcs1");
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo),
            em.begin() + static_cast<long>(em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() + static_cast<long>(em_len - 32));
  return em;
}

}  // namespace

struct RsaPublicKey::VerifyContext {
  explicit VerifyContext(const BigInt& modulus)
      : n(modulus), mont(modulus) {}
  BigInt n;  // the modulus this context was built for (staleness check)
  Montgomery mont;
};

const RsaPublicKey::VerifyContext& RsaPublicKey::verify_context() const {
  // Fast path: the current context, one atomic load. Mutating `n` while
  // other threads verify is a caller-side race on `n` itself; the
  // staleness check only has to be correct across *sequential* mutation.
  const VerifyContext* ctx = ctx_.load(std::memory_order_acquire);
  if (ctx != nullptr && ctx->n == n) return *ctx;

  MutexLock lock(ctx_mutex_);
  ctx = ctx_.load(std::memory_order_relaxed);
  if (ctx != nullptr && ctx->n == n) return *ctx;  // lost the build race
  auto fresh = std::make_shared<const VerifyContext>(n);
  ctx = fresh.get();
  // Retire, never free: a stale context may still be referenced by an
  // in-flight verifier. Growth is bounded by modulus rotations on this
  // object (reusing one key object for another modulus), not by verifies.
  owned_.push_back(std::move(fresh));
  ctx_.store(ctx, std::memory_order_release);
  return *ctx;
}

void RsaPublicKey::adopt_context(const RsaPublicKey& other) {
  std::shared_ptr<const VerifyContext> current;
  {
    MutexLock lock(other.ctx_mutex_);
    const VerifyContext* raw = other.ctx_.load(std::memory_order_relaxed);
    for (const auto& owned : other.owned_)
      if (owned.get() == raw) {
        current = owned;
        break;
      }
  }
  MutexLock lock(ctx_mutex_);
  owned_.clear();
  if (current != nullptr && current->n == n) {
    ctx_.store(current.get(), std::memory_order_release);
    owned_.push_back(std::move(current));
  } else {
    ctx_.store(nullptr, std::memory_order_release);
  }
}

bool RsaPublicKey::verify_pkcs1_sha256(ByteView message,
                                       ByteView signature) const {
  // A real RSA modulus is odd and > 1; anything else (e.g. a hostile
  // deserialized SigStruct) verifies nothing.
  if (!n.is_odd() || n <= BigInt{1}) return false;
  const std::size_t em_len = (n.bit_length() + 7) / 8;
  if (signature.size() != em_len) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= n) return false;
  // Fixed public exponent: 16 squarings + 1 multiply on the cached context.
  const BigInt m = verify_context().mont.exp_u64(s, kRsaPublicExponent);
  const Bytes em = m.to_bytes_be(em_len);
  const Bytes expected = pkcs1_encode(message, em_len);
  return ct_equal(em, expected);
}

Bytes RsaPublicKey::serialize() const {
  ByteWriter w;
  w.bytes(n.to_bytes_be());
  return std::move(w).take();
}

RsaPublicKey RsaPublicKey::deserialize(ByteView data) {
  ByteReader r(data);
  RsaPublicKey k;
  k.n = BigInt::from_bytes_be(r.bytes());
  r.expect_done();
  return k;
}

namespace primes {

namespace {
// Primes below 2000 for trial division (precomputed once).
const std::vector<std::uint64_t>& small_primes() {
  static const std::vector<std::uint64_t> primes = [] {
    std::vector<std::uint64_t> out;
    std::vector<bool> sieve(2000, true);
    for (std::uint64_t i = 2; i < 2000; ++i) {
      if (!sieve[i]) continue;
      out.push_back(i);
      for (std::uint64_t j = i * i; j < 2000; j += i) sieve[j] = false;
    }
    return out;
  }();
  return primes;
}
}  // namespace

bool miller_rabin(const BigInt& n, int rounds, Drbg& rng) {
  const BigInt n_minus_1 = n - BigInt{1};
  // n - 1 = d * 2^r with d odd
  std::size_t r = 0;
  BigInt d = n_minus_1;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  const Montgomery ctx(n);
  const BigInt n_minus_3 = n - BigInt{3};
  for (int round = 0; round < rounds; ++round) {
    // base in [2, n-2]
    const BigInt a =
        BigInt::random_below(n_minus_3, [&](std::uint8_t* p, std::size_t len) {
          rng.generate(p, len);
        }) +
        BigInt{2};
    BigInt x = ctx.exp(a, d);
    if (x == BigInt{1} || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x).mod(n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

bool is_probable_prime(const BigInt& n, Drbg& rng) {
  if (n < BigInt{2}) return false;
  for (std::uint64_t p : small_primes()) {
    if (n == BigInt{p}) return true;
    if (n.mod_u64(p) == 0) return false;
  }
  return miller_rabin(n, 8, rng);
}

BigInt generate_prime(std::size_t bits, Drbg& rng) {
  if (bits < 16) throw Error("rsa: prime size too small");
  const std::size_t n_bytes = (bits + 7) / 8;
  for (;;) {
    Bytes buf = rng.generate(n_bytes);
    // Force exact bit length and set the second-highest bit so p*q has
    // exactly 2*bits bits; force odd.
    const std::size_t top = (bits - 1) % 8;
    buf[0] &= static_cast<std::uint8_t>((1u << (top + 1)) - 1);
    buf[0] |= static_cast<std::uint8_t>(1u << top);
    if (top == 0) {
      buf[1] |= 0x80;
    } else {
      buf[0] |= static_cast<std::uint8_t>(1u << (top - 1));
    }
    buf[n_bytes - 1] |= 1;
    BigInt candidate = BigInt::from_bytes_be(buf);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace primes

RsaKeyPair RsaKeyPair::generate(Drbg& rng, std::size_t bits) {
  if (bits < 512 || bits % 2 != 0)
    throw Error("rsa: key size must be an even number of bits >= 512");
  // Multi-prime only where the factors stay large (1024-bit at the SGX key
  // size); smaller keys keep the classic two-prime split.
  const std::size_t n_primes = (bits >= 3072 && bits % 3 == 0) ? 3 : 2;
  const std::size_t prime_bits = bits / n_primes;

  RsaKeyPair kp;
  kp.modulus_bytes_ = bits / 8;
  const BigInt e{kRsaPublicExponent};
  for (;;) {
    std::vector<BigInt> primes;
    primes.reserve(n_primes);
    for (std::size_t i = 0; i < n_primes; ++i)
      primes.push_back(primes::generate_prime(prime_bits, rng));
    bool distinct = true;
    for (std::size_t i = 0; i < n_primes && distinct; ++i)
      for (std::size_t j = i + 1; j < n_primes; ++j)
        if (primes[i] == primes[j]) distinct = false;
    if (!distinct) continue;

    BigInt n{1}, phi{1};
    for (const BigInt& p : primes) {
      n = n * p;
      phi = phi * (p - BigInt{1});
    }
    // Two top bits per prime guarantee full length for two primes; with
    // three the product can fall one bit short — retry.
    if (n.bit_length() != bits) continue;
    if (!(BigInt::gcd(e, phi) == BigInt{1})) continue;

    kp.pub_.n = n;
    kp.d_ = BigInt::mod_inverse(e, phi);
    kp.primes_.clear();
    kp.primes_.reserve(n_primes);
    BigInt product{1};  // of all earlier primes
    for (const BigInt& p : primes) {
      CrtPrime leg;
      leg.prime = p;
      leg.exponent = kp.d_.mod(p - BigInt{1});
      if (!kp.primes_.empty())
        leg.coefficient = BigInt::mod_inverse(product, p);
      // The CRT contexts live with the key: n' and R^2 are paid once per
      // key, not once per signature.
      leg.mont = std::make_shared<const Montgomery>(p);
      if (n_primes == Mont52::kLegs && prime_bits <= Mont52::kMaxBits)
        leg.mont52 = std::make_shared<const Mont52>(p);
      kp.primes_.push_back(std::move(leg));
      product = product * p;
    }
    return kp;
  }
}

BigInt RsaKeyPair::crt(const BigInt& input, Montgomery::Scratch& scratch,
                       bool lockstep) const {
  if (input >= pub_.n) throw Error("rsa: input out of range");
  if (primes_.empty()) throw Error("rsa: key pair not initialized");
  // CRT with Garner recombination: m_i = c^(d mod p_i-1) mod p_i, then
  //   x := m_1;  x += (prod earlier primes) * h_i,
  //   h_i = coeff_i * (m_i - x) mod p_i.
  // The full-width input folds into each fractional-size context by
  // Montgomery reduction, and every mod-p_i step runs on the cached
  // contexts — no long division anywhere on the sign path.
  std::array<BigInt, 3> m;  // generate() makes two or three primes
  if (lockstep) {
    // c mod p_i lands in the BigInt that then takes the leg's result.
    for (std::size_t i = 0; i < Mont52::kLegs; ++i)
      primes_[i].mont->reduce(input, scratch, &m[i]);
    Mont52::exp_x3(
        {primes_[0].mont52.get(), primes_[1].mont52.get(),
         primes_[2].mont52.get()},
        {&primes_[0].exponent, &primes_[1].exponent, &primes_[2].exponent},
        {&m[0], &m[1], &m[2]}, scratch);
  } else {
    for (std::size_t i = 0; i < primes_.size(); ++i)
      primes_[i].mont->exp(input, primes_[i].exponent, scratch, &m[i]);
  }
  BigInt x = std::move(m[0]);
  BigInt product = primes_[0].prime;
  for (std::size_t i = 1; i < primes_.size(); ++i) {
    const CrtPrime& leg = primes_[i];
    const BigInt& mi = m[i];
    BigInt xi;
    leg.mont->reduce(x, scratch, &xi);
    const BigInt diff = mi >= xi ? mi - xi : (mi + leg.prime) - xi;
    BigInt h;
    leg.mont->mul_mod(leg.coefficient, diff, scratch, &h);
    x = x + product * h;
    if (i + 1 < primes_.size()) product = product * leg.prime;
  }
  return x;
}

BigInt RsaKeyPair::private_op(const BigInt& input,
                              Montgomery::Scratch& scratch) const {
  const bool lockstep = !primes_.empty() &&
                        primes_.front().mont52 != nullptr &&
                        Mont52::available();
  return crt(input, scratch, lockstep);
}

std::vector<BigInt> RsaKeyPair::prime_factors() const {
  std::vector<BigInt> out;
  for (const CrtPrime& leg : primes_) out.push_back(leg.prime);
  return out;
}

BigInt detail::private_op_per_leg(const RsaKeyPair& key, const BigInt& input) {
  Montgomery::Scratch scratch;
  return key.crt(input, scratch, false);
}

BigInt RsaKeyPair::private_op(const BigInt& input) const {
  thread_local Montgomery::Scratch scratch;
  return private_op(input, scratch);
}

Bytes RsaKeyPair::sign_pkcs1_sha256(ByteView message,
                                    Montgomery::Scratch& scratch) const {
  const Bytes em = pkcs1_encode(message, modulus_bytes_);
  const BigInt m = BigInt::from_bytes_be(em);
  const BigInt s = private_op(m, scratch);
  return s.to_bytes_be(modulus_bytes_);
}

Bytes RsaKeyPair::sign_pkcs1_sha256(ByteView message) const {
  thread_local Montgomery::Scratch scratch;
  return sign_pkcs1_sha256(message, scratch);
}

}  // namespace sinclave::crypto
