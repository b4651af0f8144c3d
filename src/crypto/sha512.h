// SHA-512 (FIPS 180-4 §6.4).
//
// The hash Ed25519 is defined over (RFC 8032 §5.1): it derives the signing
// scalar and nonce prefix from the seed, the per-message nonce, and the
// challenge k. Written by hand like the rest of crypto/; streaming and
// one-shot, with the state and the 128-byte block buffer inline, so
// nothing touches the heap (tests/test_alloc.cpp counts it).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace sinclave::crypto {

inline constexpr std::size_t kSha512Bytes = 64;
using Sha512Digest = std::array<std::uint8_t, kSha512Bytes>;

/// Streaming SHA-512. Messages up to 2^64 - 1 bytes (the 128-bit length
/// field's high half carries the top three bits of the bit count).
class Sha512 {
 public:
  Sha512();

  /// Absorb message bytes.
  void update(ByteView data);

  /// Pad, append the length and run the final block(s). The hasher must
  /// not be used afterwards.
  Sha512Digest finalize();

 private:
  void process_block(const std::uint8_t* block);

  std::uint64_t h_[8];
  std::uint8_t buffer_[128];
  std::size_t buffered_ = 0;
  std::uint64_t byte_count_ = 0;
};

/// One-shot convenience.
Sha512Digest sha512(ByteView data);

}  // namespace sinclave::crypto
