// HMAC-SHA256 (RFC 2104).
//
// Used for: report MACs in the SGX simulator (the stand-in for the AES-CMAC
// real SGX uses), the encrypt-then-MAC AEAD, HKDF, and HMAC-DRBG. It hashes
// with `Sha256Fast` (sha256_fast.h), which runs on SHA-NI where the CPU has
// it; nothing here needs the interruptible `Sha256`'s state export.
#pragma once

#include "common/bytes.h"
#include "crypto/sha256_fast.h"

namespace sinclave::crypto {

/// Streaming HMAC-SHA256 for multi-part messages.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);
  void update(ByteView data);
  Hash256 finalize();

 private:
  Sha256Fast inner_;
  std::uint8_t opad_key_[64];
};

/// One-shot HMAC-SHA256 of `data` under `key`.
Hash256 hmac_sha256(ByteView key, ByteView data);

/// First 16 bytes of the HMAC — used where SGX uses a 128-bit CMAC.
Mac128 hmac_sha256_128(ByteView key, ByteView data);

}  // namespace sinclave::crypto
