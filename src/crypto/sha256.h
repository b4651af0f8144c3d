// Interruptible SHA-256 (FIPS 180-4).
//
// This is the SinClave variant of SHA-256: the hash computation can be
// suspended at any 64-byte block boundary and its complete internal state
// (8 x 32-bit chaining values + 64-bit message length) exported, transferred
// to another party, re-imported, and resumed. SGX enclave measurements are
// built exclusively from 64-byte-aligned operations, so suspending *between
// measurement operations* is always possible. The exported mid-state of an
// enclave measurement — taken just before the instance page is added and the
// hash finalized — is the paper's "base enclave hash".
//
// The implementation deliberately favours a straightforward, portable,
// auditable round function over aggressive optimization; `Sha256Fast`
// (sha256_fast.h) plays the role of the optimized baseline (Ring/OpenSSL)
// in the Fig. 6 comparison.
//
// Consumers: everything on the measurement path — the simulated CPU's
// EADD/EEXTEND, the base enclave hash and the verifier's MRENCLAVE
// predictor — plus short one-shot digests (RSA message digests, handshake
// transcripts, key fingerprints). Fig. 6 measures this code, and
// fuzz_sha_aead_diff compares it with `sha256_fast` as an independent
// implementation. The bulk symmetric consumers (HMAC, and so HKDF,
// HMAC-DRBG and the AEAD, and the volume's manifest root) use `Sha256Fast`.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace sinclave::crypto {

/// Serializable internal state of an in-progress SHA-256 computation.
/// Valid only at 64-byte block boundaries (byte_count % 64 == 0 is NOT
/// required for a live hasher, but export is only allowed when it holds —
/// exactly the condition SGX measurement streams always satisfy).
struct Sha256State {
  std::uint32_t h[8] = {};
  std::uint64_t byte_count = 0;

  /// 44-byte canonical encoding: 8 big-endian words + 64-bit length +
  /// 4-byte magic. This is the wire format of the base enclave hash.
  Bytes encode() const;
  static Sha256State decode(ByteView data);

  friend bool operator==(const Sha256State&, const Sha256State&) = default;
};

/// Streaming, interruptible SHA-256.
class Sha256 {
 public:
  Sha256();

  /// Absorb message bytes.
  void update(ByteView data);

  /// Finish the computation (pads, appends the length, runs the final
  /// round(s)). The hasher must not be used afterwards.
  Hash256 finalize();

  /// Number of message bytes absorbed so far.
  std::uint64_t byte_count() const { return state_.byte_count; }

  /// True when the computation sits exactly on a 64-byte block boundary and
  /// can therefore be exported.
  bool exportable() const { return buffered_ == 0; }

  /// Export the internal state. Throws Error unless exportable().
  Sha256State export_state() const;

  /// Build a hasher that resumes from a previously exported state.
  static Sha256 resume(const Sha256State& state);

 private:
  void process_block(const std::uint8_t* block);

  Sha256State state_;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  bool finalized_ = false;
};

/// One-shot convenience using the interruptible implementation.
Hash256 sha256(ByteView data);

}  // namespace sinclave::crypto
