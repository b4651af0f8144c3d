// Ed25519 signatures (RFC 8032 §5.1; Bernstein, Duif, Lange, Schwabe and
// Yang, "High-speed high-security signatures", CHES 2011).
//
// The attested secure channel's server identity (net/secure_channel.h):
// TLS 1.3 pairs it with the X25519 key exchange the channel already uses
// (RFC 8446). Written by hand on the same GF(2^255 - 19) field code as
// crypto/x25519 (crypto/fe25519.h). Points are in extended twisted Edwards
// coordinates; one scalar multiplication serves signing and verification:
// a 4-bit fixed window over a 16-entry table of the point's multiples,
// built per call and scanned whole with masks, so no branch or table
// index depends on the scalar. Scalars are reduced mod L by Barrett's
// method on fixed 64-bit limbs. Keys, signatures and digests are fixed
// arrays; nothing touches the heap (tests/test_alloc.cpp counts it).
//
// Verification is cofactorless and compares encodings: it accepts exactly
// when encode([S]B - [k]A) equals the signature's R bytes, so R is never
// decoded. It refuses S >= L, and a public key that fails §5.1.3's
// decoding (y >= p, no square root, or x = 0 with the sign bit set).
//
// The SigStruct signer and the quoting enclave's key stay RSA (crypto/rsa.h):
// SGX defines those formats.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace sinclave::crypto {

class Drbg;

inline constexpr std::size_t kEd25519SeedBytes = 32;
inline constexpr std::size_t kEd25519PublicKeyBytes = 32;
inline constexpr std::size_t kEd25519SignatureBytes = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedBytes>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureBytes>;

/// A 32-byte encoded public key A.
class Ed25519PublicKey {
 public:
  using Encoding = std::array<std::uint8_t, kEd25519PublicKeyBytes>;

  /// The all-ones encoding: y = 2^255 - 1 >= p decodes to no point, so a
  /// default key verifies nothing.
  Ed25519PublicKey() { bytes_.fill(0xff); }
  explicit Ed25519PublicKey(const Encoding& bytes) : bytes_(bytes) {}

  const Encoding& bytes() const { return bytes_; }
  ByteView view() const { return ByteView{bytes_.data(), bytes_.size()}; }

  /// RFC 8032 §5.1.7. False for a signature that is not 64 bytes, for
  /// S >= L, for a key that does not decode, and for any mismatch.
  bool verify(ByteView message, ByteView signature) const;

  friend bool operator==(const Ed25519PublicKey&,
                         const Ed25519PublicKey&) = default;

 private:
  Encoding bytes_;
};

/// A signing key: the clamped scalar a and the nonce prefix, both from
/// SHA-512 of the 32-byte seed (RFC 8032 §5.1.5), and the public key.
/// Immutable after construction, so sign() may run on many threads.
class Ed25519KeyPair {
 public:
  static Ed25519KeyPair from_seed(const Ed25519Seed& seed);
  /// A fresh seed drawn from `rng`.
  static Ed25519KeyPair generate(Drbg& rng);

  const Ed25519PublicKey& public_key() const { return public_; }

  /// RFC 8032 §5.1.6: R || S.
  Ed25519Signature sign(ByteView message) const;

 private:
  Ed25519KeyPair() = default;

  std::array<std::uint8_t, 32> scalar_{};
  std::array<std::uint8_t, 32> prefix_{};
  Ed25519PublicKey public_;
};

namespace detail {

/// Scalars mod L = 2^252 + 27742317777372353535851937790883648493, as 32
/// little-endian bytes. Exposed for the differential fuzzer, which checks
/// them against BigInt.
using Ed25519Scalar = std::array<std::uint8_t, 32>;

/// A 64-byte little-endian value (a SHA-512 digest) mod L.
Ed25519Scalar ed25519_reduce(const std::array<std::uint8_t, 64>& wide);

/// (a * b + c) mod L for any 32-byte a, b and c: the product plus c stays
/// below 2^512, inside the reduction's range.
Ed25519Scalar ed25519_muladd(const Ed25519Scalar& a, const Ed25519Scalar& b,
                             const Ed25519Scalar& c);

}  // namespace detail

}  // namespace sinclave::crypto
