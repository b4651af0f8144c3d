// Status-code mappings and the structured detail-string parsers.
//
// These strings are wire contract (clients parse retry hints back out of
// them), so the parsers face attacker-controlled text. Properties:
//  * parse_retry_after never throws on any string and never yields a
//    value above its documented one-day cap;
//  * composing a detail and parsing it back round-trips the value;
//  * every wire status byte maps into the enum (to_string never falls
//    through to "unknown") and known bytes map to themselves;
//  * the v1 Status prefix carries every code and any detail through a
//    response's encode/decode unchanged.
#include "harnesses.h"

#include <chrono>
#include <string>

#include "cas/protocol.h"
#include "common/status.h"
#include "fuzz_util.h"

namespace sinclave::fuzz {

int run_status_details(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 5) {
    case 0: {
      const Bytes raw = in.rest();
      const std::string detail(raw.begin(), raw.end());
      const auto parsed = parse_retry_after(detail);
      if (parsed.has_value())
        require(parsed->count() >= 0 && parsed->count() <= 86'400'000,
                "retry-after outside its documented cap");
      break;
    }
    case 1: {
      // Compose-then-parse round trips, with fuzz-chosen values. The
      // composers are total; the parser must find exactly what they wrote.
      const auto ms = std::chrono::milliseconds(in.u32() % 86'400'001);
      const auto parsed = parse_retry_after(retry_after_detail(ms));
      require(parsed.has_value() && *parsed == ms,
              "retry_after_detail does not round-trip");
      require(!parse_retry_after(breaker_open_detail()).has_value(),
              "breaker detail misread as a retry hint");
      const Bytes raw = in.rest();
      const std::string phase(raw.begin(), raw.end());
      (void)deadline_phase_detail(phase.c_str());
      break;
    }
    case 2: {
      const std::uint8_t wire = in.u8();
      const StatusCode code = status_code_from_wire(wire);
      require(std::string(to_string(code)) != "unknown",
              "wire byte mapped outside the enum");
      if (wire <= static_cast<std::uint8_t>(StatusCode::kNotLeader))
        require(static_cast<std::uint8_t>(code) == wire,
                "known wire byte did not map to itself");
      else
        require(code == StatusCode::kInternal,
                "unknown wire byte must decode as kInternal");
      // Status carries any (code, detail) through its accessors.
      const Bytes raw = in.rest();
      const Status s(code, std::string(raw.begin(), raw.end()));
      (void)s.message();
      (void)s.retryable();
      break;
    }
    case 3: {
      // The Status prefix every v1 response leads with: any enum code and
      // any detail survive encode/decode (a refusal reaches the client
      // typed, its detail intact).
      cas::AttestResponse resp;
      resp.status.code = status_code_from_wire(in.u8());
      const Bytes raw = in.rest();
      resp.status.detail.assign(raw.begin(), raw.end());
      const cas::AttestResponse back =
          cas::AttestResponse::deserialize(resp.serialize());
      require(back.status.code == resp.status.code &&
                  back.status.detail == resp.status.detail,
              "status prefix did not round-trip");
      break;
    }
    case 4: {
      // Leader-hint detail (clients re-route by it, so it faces hostile
      // text). Arbitrary details never throw; any extracted hint is a
      // printable endpoint name and a fixed point of compose-then-parse.
      const Bytes raw = in.chunk();
      const std::string detail(raw.begin(), raw.end());
      const auto hint = parse_leader_hint(detail);
      if (hint.has_value()) {
        require(!hint->empty() && hint->size() <= 256,
                "leader hint outside its documented bounds");
        for (const char c : *hint)
          require(c >= 0x21 && c <= 0x7e, "leader hint not printable");
        const auto again = parse_leader_hint(not_leader_detail(*hint));
        require(again.has_value() && *again == *hint,
                "leader hint is not a compose/parse fixed point");
      }
      // Compose from a fuzz-chosen well-formed address: must round-trip.
      Bytes addr_bytes = in.take(1 + in.below(64));
      std::string address;
      for (const std::uint8_t b : addr_bytes) {
        const char c = static_cast<char>(0x21 + (b % 0x5e));  // printable
        if (c != ')') address.push_back(c);
      }
      if (!address.empty()) {
        const auto parsed = parse_leader_hint(not_leader_detail(address));
        require(parsed.has_value() && *parsed == address,
                "not_leader_detail does not round-trip");
      }
      require(!parse_leader_hint(not_leader_detail("")).has_value(),
              "hintless detail must parse to no hint");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
