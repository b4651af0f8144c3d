// Envelope and protocol-message decoding.
//
// Properties:
//  1. Exception confinement: every deserializer rejects garbage with a
//     typed ParseError/Error — never std::length_error, bad_alloc, or
//     anything else (lint rule: frontends catch `const Error&` only).
//  2. Re-serialization stability: when a decode succeeds, serializing the
//     result and decoding it again yields the same bytes — the decoder
//     produced a value the encoder agrees on (one canonical form).
//  3. The frame server (serve_client_frame, and refuse_client_frame
//     over it) never throws AT ALL: malformed input must become a typed
//     wire answer, not an exception.
//  4. A frame without the envelope magic gets a typed kMalformedRequest
//     in a v1 envelope.
//  5. A hostile kAttest reply never reads as success: its acceptance
//     either fails to decode or makes SecureClient::finish throw
//     IdentityMismatchError — it cannot carry the pinned verifier's
//     signature.
//
// Modes 7 and 11 served the retired config-fetch record; they are retired
// in place, so the other modes keep their numbers and checked-in
// reproducers keep their meaning.
#include "harnesses.h"

#include <string>

#include "cas/protocol.h"
#include "common/error.h"
#include "common/serial.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "fuzz_util.h"
#include "net/secure_channel.h"

namespace sinclave::fuzz {
namespace {

using cas::Envelope;

/// Run `decode` on `input`; only typed errors may escape. Returns whether
/// the decode succeeded.
template <typename Decode>
bool typed_only(const Bytes& input, const Decode& decode) {
  try {
    decode(ByteView(input));
    return true;
  } catch (const Error&) {
    return false;  // ParseError derives from Error: the allowed rejection
  }
  // Anything else unwinds out of the harness and crashes the fuzzer —
  // which is the point.
}

/// Decode, re-encode, decode again; the two encodings must agree.
template <typename T>
void stable(const Bytes& input) {
  typed_only(input, [](ByteView raw) {
    const T first = T::deserialize(raw);
    const Bytes once = first.serialize();
    const T second = T::deserialize(once);
    require(second.serialize() == once,
            "serialize(deserialize(b)) not a fixed point");
  });
}

/// Property 4 for one endpoint: `serve` answers `input` with bytes that
/// decode as a v1 envelope of `command`; when `input` lacks the envelope
/// magic, its Response payload carries kMalformedRequest.
template <typename Response, typename Serve>
void typed_refusal(const Bytes& input, cas::Command command,
                   const Serve& serve) {
  const Bytes answer = serve(input);
  const Envelope reply = Envelope::deserialize(answer);
  require(reply.version == cas::kProtocolVersion,
          "answer not in the current protocol version");
  if (Envelope::matches(input)) return;
  require(reply.command == command && reply.request_id == 0,
          "non-envelope frame answered under the wrong header");
  require(Response::deserialize(reply.payload).status.code ==
              StatusCode::kMalformedRequest,
          "non-envelope frame not answered kMalformedRequest");
}

cas::InstanceResponse ok_instance(const cas::InstanceRequest&) {
  cas::InstanceResponse resp;
  resp.status = Status(StatusCode::kOk);
  return resp;
}

cas::IntrospectResponse ok_introspect(const cas::IntrospectRequest&) {
  cas::IntrospectResponse resp;
  resp.status = Status(StatusCode::kOk);
  resp.metrics = "{}";
  return resp;
}

cas::AttestResponse refuse_attest(ByteView) {
  cas::AttestResponse resp;
  resp.status = Status(StatusCode::kAttestationRejected);
  return resp;
}

const cas::FrameHandlers& handlers() {
  static const cas::FrameHandlers h{ok_instance, ok_introspect,
                                    refuse_attest};
  return h;
}

/// A verifier identity no signer in this process holds: no acceptance
/// can verify under it, so any that opens is a forgery.
const crypto::Ed25519PublicKey& unheld_identity() {
  static const crypto::Ed25519KeyPair key = [] {
    crypto::Drbg rng = crypto::Drbg::from_seed(51, "fuzz-envelope-identity");
    return crypto::Ed25519KeyPair::generate(rng);
  }();
  return key.public_key();
}

}  // namespace

int run_envelope(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();
  const Bytes input = in.rest();

  switch (mode % 13) {
    case 0: {
      // Envelope framing itself, plus the cheap header peeks, which must
      // agree with the full decode whenever the full decode succeeds.
      typed_only(input, [&input](ByteView raw) {
        const Envelope e = Envelope::deserialize(raw);
        require(Envelope::matches(raw), "decoded envelope without magic");
        const auto peeked = Envelope::peek(raw);
        require(peeked.has_value() && peeked->request_id == e.request_id &&
                    peeked->command == e.command,
                "Envelope::peek disagrees with full decode");
        const Bytes once = e.serialize();
        require(Envelope::deserialize(once).serialize() == once,
                "envelope re-serialization unstable");
      });
      (void)Envelope::matches(input);
      (void)Envelope::peek(input);
      break;
    }
    case 1:
      stable<cas::AppConfig>(input);
      break;
    case 2:
      stable<cas::InstanceRequest>(input);
      break;
    case 3:
      stable<cas::InstanceResponse>(input);
      break;
    case 4:
      typed_refusal<cas::InstanceResponse>(
          input, cas::Command::kGetInstance, [](const Bytes& raw) {
            return cas::serve_client_frame(raw, handlers());
          });
      break;
    case 5: {
      stable<cas::AttestPayload>(input);
      // The hook's total decode agrees with the throwing one.
      const auto parsed = cas::parse_attest_payload(input);
      require(parsed.has_value() ==
                  typed_only(input,
                             [](ByteView raw) {
                               (void)cas::AttestPayload::deserialize(raw);
                             }),
              "parse_attest_payload disagrees with deserialize");
      break;
    }
    case 6:
      stable<cas::AttestResponse>(input);
      break;
    case 7:  // retired
      break;
    case 8:
      stable<cas::IntrospectRequest>(input);
      break;
    case 9:
      stable<cas::IntrospectResponse>(input);
      break;
    case 10: {
      // The client-endpoint frame server: must never throw, and must
      // always produce a non-empty answer (a frontend never goes silent).
      StatusCode answered = StatusCode::kOk;
      const Bytes answer =
          cas::serve_client_frame(input, handlers(), &answered);
      require(!answer.empty(), "frame server produced an empty answer");
      // So must the blanket refusal a shedding frontend answers with.
      const Bytes refused = cas::refuse_client_frame(
          input, Status(StatusCode::kUnavailable, "shed"), &answered);
      require(!refused.empty(), "refusal produced an empty answer");
      break;
    }
    case 11:  // retired
      break;
    case 12: {
      // A hostile kAttest reply payload: whatever its Status says, the
      // client opens nothing from it. An acceptance that decodes makes
      // finish throw IdentityMismatchError; nothing else may escape.
      cas::AttestResponse reply;
      if (!typed_only(input, [&reply](ByteView raw) {
            reply = cas::AttestResponse::deserialize(raw);
          }))
        break;
      if (!reply.ok()) {
        require(reply.acceptance.empty(), "a refusal kept an acceptance");
        break;
      }
      static const net::SecureClient client(
          crypto::Drbg::from_seed(52, "fuzz-envelope-client"));
      const Bytes offered{'c', 'f', 'g'};
      bool mismatch = false;
      try {
        (void)client.finish(unheld_identity(), offered, reply.acceptance);
      } catch (const net::IdentityMismatchError&) {
        mismatch = true;
      }
      require(mismatch, "a hostile acceptance opened");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
