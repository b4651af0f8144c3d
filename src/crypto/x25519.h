// X25519 key agreement (RFC 7748; Bernstein, "Curve25519: new
// Diffie-Hellman speed records", PKC 2006).
//
// The key exchange of the attested secure channel (net/secure_channel.h),
// the stand-in for the TLS channel SCONE CAS binds to attestation reports:
// X25519 is TLS 1.3's default group (RFC 8446). Written by hand over
// 2^255 - 19 in five 51-bit limbs (crypto/fe25519.h, which Ed25519
// shares); the Montgomery ladder runs all 255 bits with a masked
// conditional swap, so no branch or table index depends on the scalar.
// Inputs and outputs are fixed 32-byte arrays and nothing touches the
// heap (tests/test_alloc.cpp counts it).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sinclave::crypto {

/// Width of a scalar, a u-coordinate and a shared secret.
inline constexpr std::size_t kX25519Bytes = 32;
using X25519Bytes = std::array<std::uint8_t, kX25519Bytes>;

/// X25519(scalar, u) per RFC 7748 §5: the scalar is clamped, the top bit
/// of u is masked, and a non-canonical u (p <= u < 2^255) is reduced.
/// Throws Error when the result is all zero, i.e. when u is a point of
/// small order: such a peer share would fix the shared secret whatever
/// this side's scalar is.
X25519Bytes x25519(const X25519Bytes& scalar, const X25519Bytes& u);

/// The public share X25519(scalar, 9) for a private scalar.
X25519Bytes x25519_public(const X25519Bytes& scalar);

}  // namespace sinclave::crypto
