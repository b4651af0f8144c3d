// AES-128/AES-256 block cipher (FIPS 197) and CTR mode.
//
// Every AEAD user runs on this: the encrypted filesystem (src/fs), whose
// mount sits on every singleton start, the secure channel's records, and
// sealed CAS and replica state. `encrypt_block` is a compact, portable
// S-box implementation. `aes_ctr_xor` checks CPUID once (leaf 1, ECX bit
// 25) and, where the CPU has AES-NI, runs the whole 16-byte blocks through
// an AES-NI kernel that keeps eight counter blocks in flight and reads its
// round keys from the same schedule. The S-box path encrypts the final
// partial block, and every block on hosts without AES-NI. Both paths
// produce the same bytes.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace sinclave::crypto {

/// AES block cipher with a 128- or 256-bit key (encryption direction only;
/// all modes used in this repo are CTR-based and never need block decryption).
class Aes {
 public:
  /// key.size() must be 16 or 32.
  explicit Aes(ByteView key);
  ~Aes();

  Aes(const Aes&) = delete;
  Aes& operator=(const Aes&) = delete;

  /// Encrypt exactly one 16-byte block.
  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

 private:
  // The AES-NI CTR kernel reads round_keys_ rather than keeping a schedule.
  friend void aes_ctr_xor(const Aes& cipher, ByteView nonce,
                          std::uint32_t counter0, ByteView in,
                          std::uint8_t* out);

  std::uint32_t round_keys_[60];
  int rounds_;
};

/// AES-CTR keystream XOR: encryption and decryption are the same operation.
/// `nonce` is 12 bytes; the 32-bit block counter starts at `counter0`.
void aes_ctr_xor(const Aes& cipher, ByteView nonce, std::uint32_t counter0,
                 ByteView in, std::uint8_t* out);

}  // namespace sinclave::crypto
