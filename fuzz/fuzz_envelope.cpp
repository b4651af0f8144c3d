// Envelope and protocol-message decoding.
//
// Properties:
//  1. Exception confinement: every deserializer rejects garbage with a
//     typed ParseError/Error — never std::length_error, bad_alloc, or
//     anything else (lint rule: frontends catch `const Error&` only).
//  2. Re-serialization stability: when a decode succeeds, serializing the
//     result and decoding it again yields the same bytes — the decoder
//     produced a value the encoder agrees on (one canonical form).
//  3. The frame servers (serve_instance_frame, decode_attest_payload)
//     never throw AT ALL: malformed input must become a typed wire
//     answer, not an exception.
//  4. A frame without the envelope magic gets a typed kMalformedRequest:
//     a v1 envelope on the instance endpoint, the refusal status from the
//     handshake decoder.
//
// Modes 7 and 11 served the attested endpoint's config-fetch record,
// which the handshake answer replaced; they are retired in place, so the
// other modes keep their numbers and checked-in reproducers keep their
// meaning.
#include "harnesses.h"

#include <string>

#include "cas/protocol.h"
#include "common/error.h"
#include "common/serial.h"
#include "fuzz_util.h"

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
        const auto peeked = Envelope::peek_request_id(raw);
        require(peeked.has_value() && *peeked == e.request_id,
                "peek_request_id disagrees with full decode");
        const Bytes once = e.serialize();
        require(Envelope::deserialize(once).serialize() == once,
                "envelope re-serialization unstable");
      });
      (void)Envelope::matches(input);
      (void)Envelope::peek_request_id(input);
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
            return cas::serve_instance_frame(raw, ok_instance, ok_introspect);
          });
      break;
    case 5:
      stable<cas::AttestPayload>(input);
      break;
    case 6:
      stable<cas::ConfigResponse>(input);
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
      // The instance-endpoint frame server: must never throw, and must
      // always produce a non-empty answer (a frontend never goes silent).
      cas::FrameInfo info;
      const Bytes answer =
          cas::serve_instance_frame(input, ok_instance, ok_introspect, &info);
      require(!answer.empty(), "frame server produced an empty answer");
      break;
    }
    case 11:  // retired
      break;
    case 12: {
      // decode_attest_payload returns nullopt on garbage — never throws —
      // and refuses a non-envelope handshake payload as malformed.
      cas::FrameInfo info;
      const auto decoded = cas::decode_attest_payload(input, &info);
      require(decoded.has_value() == (info.status == StatusCode::kOk),
              "handshake decode and its refusal status disagree");
      if (!Envelope::matches(input))
        require(info.status == StatusCode::kMalformedRequest,
                "non-envelope handshake not refused as malformed");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
