// Optimized one-shot/streaming SHA-256.
//
// Stands in for the highly optimized baseline implementations the paper
// compares against (Ring / OpenSSL with assembly and SHA extensions). Where
// CPUID reports SHA extensions, blocks run on SHA-NI; elsewhere the round
// function is fully unrolled and the message schedule is computed on a
// rolling 16-word window. This implementation is NOT interruptible: its
// internal state is private and cannot be exported mid-stream, which is
// exactly why the paper had to build the interruptible variant in `Sha256`.
//
// Consumers: HMAC (hmac.h), and through it HKDF, HMAC-DRBG, the AEAD and
// the simulated report MACs; the encrypted volume's manifest root; and the
// Fig. 6 baseline. The measurement path stays on `Sha256`.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace sinclave::crypto {

class Sha256Fast {
 public:
  Sha256Fast();

  void update(ByteView data);
  Hash256 finalize();

 private:
  void process_blocks(const std::uint8_t* data, std::size_t n_blocks);

  std::uint32_t h_[8];
  std::uint64_t byte_count_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

/// One-shot convenience using the fast implementation.
Hash256 sha256_fast(ByteView data);

}  // namespace sinclave::crypto
