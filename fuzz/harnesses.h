// The fuzz harness bodies, as plain named functions.
//
// Each returns 0 (the libFuzzer convention) and encodes one property
// suite; see the respective fuzz/fuzz_<name>.cpp for what it checks.
// Entry points (fuzz/main/) and the tier-1 corpus-replay test
// (tests/test_fuzz_regression.cpp) both dispatch through this header.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sinclave::fuzz {

/// Envelope + every protocol message decoder: only typed errors escape,
/// successful decodes re-serialize stably, frame servers never throw at
/// all and answer non-envelope frames with a typed kMalformedRequest.
int run_envelope(const std::uint8_t* data, std::size_t size);

/// SecureServer/SecureClient exchange decoding against a live server:
/// garbage never throws out of handle(), never corrupts the server for a
/// subsequent honest client; hostile rejection records reach connect as
/// whitelisted codes, with a detail only for kNotLeader; a relayed
/// acceptance with a rewritten share, signature or sealed answer fails
/// the identity check and opens nothing.
int run_secure_record(const std::uint8_t* data, std::size_t size);

/// Sealed-state import: corrupt/truncated/rolled-back blobs are refused
/// without UB, and a failed CasService::import_state leaves NO partially
/// applied policy or token state behind.
int run_persistence(const std::uint8_t* data, std::size_t size);

/// SigStruct / Report / TargetInfo / Quote / Sha256State parsing:
/// typed errors only, decode(serialize(x)) == x.
int run_sigstruct_quote(const std::uint8_t* data, std::size_t size);

/// Status detail parsers (parse_retry_after and friends) plus the wire
/// status-code mapping and the v1 Status prefix round trip.
int run_status_details(const std::uint8_t* data, std::size_t size);

/// Differential oracle: Montgomery exp/exp_u64/mul_mod/reduce vs a naive
/// square-and-multiply / long-division reference, X25519 vs RFC 7748's
/// ladder on BigInt, and Ed25519's scalar reduction mod L vs BigInt.
int run_bignum_diff(const std::uint8_t* data, std::size_t size);

/// Differential oracle: sha256 (interruptible) vs sha256_fast, streaming
/// vs one-shot (SHA-256 and SHA-512), export/resume, and AEAD seal/open
/// tamper rejection.
int run_sha_aead_diff(const std::uint8_t* data, std::size_t size);

/// Structured stateful fuzzing: decode the input into a sequence of
/// protocol operations against a live CasService (instance requests,
/// attestations, introspection, garbage frames) and check the global
/// invariants after every step.
int run_protocol_session(const std::uint8_t* data, std::size_t size);

/// Replication (v2) wire messages: every raft decoder rejects garbage
/// with typed errors and re-serializes stably, RaftCore::handle_frame
/// answers arbitrary bytes with a well-formed reply frame, and the
/// sealed raft store refuses arbitrary blobs in kind.
int run_replication(const std::uint8_t* data, std::size_t size);

}  // namespace sinclave::fuzz
