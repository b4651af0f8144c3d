// RSA-3072 key generation, PKCS#1 v1.5 signatures (SHA-256).
//
// SGX SigStructs are signed with 3072-bit RSA; SinClave's verifier creates
// an *on-demand* SigStruct per singleton enclave, so signing latency is a
// first-class measured quantity (Fig. 7b/7c). Signing uses the CRT;
// verification uses the public exponent 65537. RSA serves only the
// SigStruct and the quoting enclave's quotes (the formats SGX defines);
// the CAS channel's server identity is Ed25519 (crypto/ed25519.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"

namespace sinclave::crypto {

inline constexpr std::size_t kRsaBits = 3072;
inline constexpr std::size_t kRsaBytes = kRsaBits / 8;
inline constexpr std::uint64_t kRsaPublicExponent = 65537;

/// Public half: modulus + fixed exponent 65537.
///
/// Verification caches its Montgomery context (n' and R^2 mod n are
/// recomputed only when `n` changes), so repeated verifies against the
/// same key — quote verification, the common-SigStruct check — pay just
/// the 65537 ladder: 16 squarings and one multiply. The cache is shared
/// by copies and safe to hit concurrently.
struct RsaPublicKey {
  BigInt n;

  RsaPublicKey() = default;
  RsaPublicKey(const RsaPublicKey& other) : n(other.n) {
    adopt_context(other);
  }
  /// Moves steal the context outright (vector + atomic move, no
  /// allocation) so they stay genuinely noexcept.
  // *this is under construction and unshared, so writing owned_ without
  // this->ctx_mutex_ is fine — a fact TSA cannot express.
  RsaPublicKey(RsaPublicKey&& other) noexcept NO_THREAD_SAFETY_ANALYSIS
      : n(std::move(other.n)) {
    MutexLock lock(other.ctx_mutex_);
    owned_ = std::move(other.owned_);
    ctx_.store(other.ctx_.load(std::memory_order_relaxed),
               std::memory_order_release);
    other.ctx_.store(nullptr, std::memory_order_release);
  }
  RsaPublicKey& operator=(const RsaPublicKey& other) {
    if (this != &other) {
      n = other.n;
      adopt_context(other);
    }
    return *this;
  }
  RsaPublicKey& operator=(RsaPublicKey&& other) noexcept {
    if (this != &other) {
      n = std::move(other.n);
      // Two phases instead of one scoped_lock over both context mutexes:
      // ctx_mutex_ locks share one rank, so holding both at once would be
      // (and deterministically trips) a lock-order violation. Steal under
      // the source lock, then install under ours.
      std::vector<std::shared_ptr<const VerifyContext>> stolen;
      const VerifyContext* stolen_ctx = nullptr;
      {
        MutexLock lock(other.ctx_mutex_);
        stolen = std::move(other.owned_);
        stolen_ctx = other.ctx_.load(std::memory_order_relaxed);
        other.ctx_.store(nullptr, std::memory_order_release);
      }
      {
        MutexLock lock(ctx_mutex_);
        owned_ = std::move(stolen);
        ctx_.store(stolen_ctx, std::memory_order_release);
      }
    }
    return *this;
  }

  Bytes modulus_be() const { return n.to_bytes_be(kRsaBytes); }

  /// Verify a PKCS#1 v1.5 SHA-256 signature. Returns false on any mismatch
  /// (wrong length, bad padding, wrong digest, malformed modulus).
  /// Crypto-heavy: must not run under this key's context lock.
  bool verify_pkcs1_sha256(ByteView message, ByteView signature) const
      REQUIRES_NOT(ctx_mutex_);

  Bytes serialize() const;
  static RsaPublicKey deserialize(ByteView data);

  friend bool operator==(const RsaPublicKey& a, const RsaPublicKey& b) {
    return a.n == b.n;
  }

 private:
  struct VerifyContext;  // { modulus snapshot, Montgomery context }
  /// Lazily built on first verify, revalidated against `n` (the field is
  /// public and assignable), shared across copies. Concurrent verifiers —
  /// CAS workers checking quotes against one platform key, racing
  /// starts checking one common SigStruct — hit the atomic
  /// raw pointer on the fast path with no lock; the slow path (first
  /// build / modulus rotation) serializes on ctx_mutex_ and retires the
  /// old context into owned_ rather than freeing it, so a reference
  /// handed to an in-flight verifier can never dangle.
  const VerifyContext& verify_context() const REQUIRES_NOT(ctx_mutex_);
  /// Share `other`'s current context (if it matches our modulus) so
  /// copies of a key pay the Montgomery setup once, not once per copy.
  void adopt_context(const RsaPublicKey& other) REQUIRES_NOT(ctx_mutex_);

  // Guards owned_ and context builds.
  mutable Mutex ctx_mutex_{LockRank::kCryptoRsaCtx, "crypto.rsa_ctx"};
  mutable std::vector<std::shared_ptr<const VerifyContext>> owned_
      GUARDED_BY(ctx_mutex_);
  mutable std::atomic<const VerifyContext*> ctx_{nullptr};
};

class RsaKeyPair;

namespace detail {
/// RsaKeyPair::private_op on the per-leg path (one sliding-window
/// Montgomery::exp per prime) whatever the key's shape and the CPU: the
/// reference the lockstep ladder is tested against.
BigInt private_op_per_leg(const RsaKeyPair& key, const BigInt& input);
}  // namespace detail

/// Full key pair with CRT acceleration parameters. Each prime's Montgomery
/// context is built once at generation time and shared across copies, so a
/// signature costs one fractional-size exponentiation per prime plus a
/// Garner recombination — no per-call context setup and no long division.
///
/// Keys of >= 3072 bits divisible by three use *multi-prime* RSA (RFC 8017
/// §3.2: n = p1*p2*p3): schoolbook CRT cost scales with bits^3/primes^2,
/// so three 1024-bit exponentiations undercut two 1536-bit ones by ~2.2x.
/// The public key (n, 65537) is indistinguishable from the two-prime form;
/// verification and the wire format are unchanged.
///
/// Which exponentiation runs is fixed by the key's shape and the CPU. A
/// three-prime key whose primes have at most 1024 bits (every RSA-3072 key
/// generate() makes) on a CPU with AVX-512 IFMA runs its three legs in
/// lockstep on the radix-2^52 kernel (crypto/mont52.h): one fixed window
/// schedule with masked table reads, so neither the operations nor the
/// addresses depend on the exponents. Two-prime keys and other CPUs run
/// one sliding-window Montgomery::exp per prime, which is not constant
/// time.
class RsaKeyPair {
 public:
  /// Generate a fresh key pair; `bits` must be even and >= 512. All entropy
  /// comes from `rng`, so seeded generators give reproducible keys.
  static RsaKeyPair generate(Drbg& rng, std::size_t bits = kRsaBits);

  const RsaPublicKey& public_key() const { return pub_; }

  /// PKCS#1 v1.5 SHA-256 signature over `message`. The scratch overload
  /// lets batch signers reuse one arena across many signatures; the plain
  /// overload draws on a thread-local arena.
  Bytes sign_pkcs1_sha256(ByteView message) const;
  Bytes sign_pkcs1_sha256(ByteView message,
                          Montgomery::Scratch& scratch) const;

  /// Raw private-key operation (used by tests to cross-check CRT math).
  BigInt private_op(const BigInt& input) const;
  BigInt private_op(const BigInt& input, Montgomery::Scratch& scratch) const;

  /// Private exponent d (tests cross-check the CRT path against the plain
  /// mod_exp(d, n) definition).
  const BigInt& private_exponent() const { return d_; }
  /// The prime factors of n (tests feed multiples of each to private_op).
  std::vector<BigInt> prime_factors() const;

 private:
  /// One CRT leg: prime, reduced exponent d mod (p_i - 1), the Garner
  /// coefficient (product of all earlier primes)^-1 mod p_i, and the
  /// cached Montgomery context and, on lockstep-shaped keys, the prime in
  /// radix 2^52 (both immutable; shared by copies).
  struct CrtPrime {
    BigInt prime;
    BigInt exponent;
    BigInt coefficient;  // unused for the first prime
    std::shared_ptr<const Montgomery> mont;
    std::shared_ptr<const Mont52> mont52;  // null unless lockstep-shaped
  };

  /// The CRT exponentiations, on the lockstep ladder or per leg, then
  /// Garner's recombination.
  BigInt crt(const BigInt& input, Montgomery::Scratch& scratch,
             bool lockstep) const;
  friend BigInt detail::private_op_per_leg(const RsaKeyPair& key,
                                           const BigInt& input);

  RsaPublicKey pub_;
  BigInt d_;
  std::vector<CrtPrime> primes_;
  std::size_t modulus_bytes_ = kRsaBytes;
};

/// Deterministic primality test helpers, exposed for unit testing.
namespace primes {
/// Miller-Rabin with `rounds` random bases from rng. Assumes n odd, n > 3.
bool miller_rabin(const BigInt& n, int rounds, Drbg& rng);
/// Full candidate check: small-prime trial division then Miller-Rabin.
bool is_probable_prime(const BigInt& n, Drbg& rng);
/// Generate a random prime with exactly `bits` bits (top two bits set so
/// that products of two such primes have exactly 2*bits bits).
BigInt generate_prime(std::size_t bits, Drbg& rng);
}  // namespace primes

}  // namespace sinclave::crypto
