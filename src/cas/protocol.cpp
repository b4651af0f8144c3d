#include "cas/protocol.h"

#include "common/error.h"
#include "common/serial.h"

namespace sinclave::cas {

const char* to_string(Command command) {
  switch (command) {
    case Command::kGetInstance:
      return "get-instance";
    case Command::kGetConfig:
      return "get-config";
    case Command::kAttest:
      return "attest";
    case Command::kIntrospect:
      return "introspect";
    case Command::kVoteRequest:
      return "vote-request";
    case Command::kAppendEntries:
      return "append-entries";
    case Command::kInstallSnapshot:
      return "install-snapshot";
  }
  return "unknown";
}

// --- envelope ---------------------------------------------------------------

Bytes Envelope::serialize() const {
  ByteWriter w;
  w.u32(kEnvelopeMagic);
  w.u16(version);
  w.u8(static_cast<std::uint8_t>(command));
  w.u8(0);  // flags, reserved
  w.u64(request_id);
  w.bytes(payload);
  return std::move(w).take();
}

Envelope Envelope::deserialize(ByteView data) {
  ByteReader r(data);
  if (r.u32() != kEnvelopeMagic)
    throw ParseError("envelope: bad magic");
  Envelope e;
  e.version = r.u16();
  e.command = static_cast<Command>(r.u8());
  r.skip(1);  // flags
  e.request_id = r.u64();
  e.payload = r.bytes();
  r.expect_done();
  return e;
}

bool Envelope::matches(ByteView data) {
  if (data.size() < 4) return false;
  const std::uint32_t magic = static_cast<std::uint32_t>(data[0]) |
                              static_cast<std::uint32_t>(data[1]) << 8 |
                              static_cast<std::uint32_t>(data[2]) << 16 |
                              static_cast<std::uint32_t>(data[3]) << 24;
  return magic == kEnvelopeMagic;
}

std::optional<Envelope::Header> Envelope::peek(ByteView data) {
  // magic u32 | version u16 | command u8 | flags u8 | request_id u64
  if (!matches(data) || data.size() < 16) return std::nullopt;
  Header header;
  header.command = static_cast<Command>(data[6]);
  for (std::size_t i = 0; i < 8; ++i)
    header.request_id |= static_cast<std::uint64_t>(data[8 + i]) << (8 * i);
  return header;
}

Envelope Envelope::reply(Bytes response_payload) const {
  Envelope out;
  out.version = kProtocolVersion;  // a server always answers in its version
  out.command = command;
  out.request_id = request_id;
  out.payload = std::move(response_payload);
  return out;
}

// --- status encoding --------------------------------------------------------

namespace {

void write_status(ByteWriter& w, const Status& status) {
  w.u8(static_cast<std::uint8_t>(status.code));
  // The canonical message never rides the wire; only extra detail does.
  w.str(status.detail);
}

Status read_status(ByteReader& r) {
  const std::uint8_t raw = r.u8();
  Status s;
  s.code = status_code_from_wire(raw);
  s.detail = r.str();
  // A code this build does not know collapses to kInternal; keep the raw
  // byte visible (when no detail rode along) so the downgrade is
  // diagnosable rather than silent.
  if (s.code == StatusCode::kInternal &&
      raw != static_cast<std::uint8_t>(StatusCode::kInternal) &&
      s.detail.empty())
    s.detail = "unrecognized status code " + std::to_string(raw);
  return s;
}

}  // namespace

// --- messages ---------------------------------------------------------------

Bytes AppConfig::serialize() const {
  ByteWriter w;
  w.str(program);
  w.u32(static_cast<std::uint32_t>(args.size()));
  for (const auto& a : args) w.str(a);
  w.u32(static_cast<std::uint32_t>(env.size()));
  for (const auto& [k, v] : env) {
    w.str(k);
    w.str(v);
  }
  w.u32(static_cast<std::uint32_t>(secrets.size()));
  for (const auto& [k, v] : secrets) {
    w.str(k);
    w.bytes(v);
  }
  w.bytes(fs_key);
  w.raw(fs_manifest_root.view());
  return std::move(w).take();
}

AppConfig AppConfig::deserialize(ByteView data) {
  ByteReader r(data);
  AppConfig c;
  c.program = r.str();
  // Counts are validated against the bytes left (every element costs at
  // least its length prefixes) so forged counts die as ParseError here
  // instead of driving huge loops or allocations.
  const std::uint32_t n_args = r.count(4);
  for (std::uint32_t i = 0; i < n_args; ++i) c.args.push_back(r.str());
  const std::uint32_t n_env = r.count(8);
  for (std::uint32_t i = 0; i < n_env; ++i) {
    std::string k = r.str();
    c.env[k] = r.str();
  }
  const std::uint32_t n_secrets = r.count(8);
  for (std::uint32_t i = 0; i < n_secrets; ++i) {
    std::string k = r.str();
    c.secrets[k] = r.bytes();
  }
  c.fs_key = r.bytes();
  c.fs_manifest_root = r.fixed<32>();
  r.expect_done();
  return c;
}

Bytes InstanceRequest::serialize() const {
  ByteWriter w;
  w.str(session_name);
  w.bytes(common_sigstruct.serialize());
  return std::move(w).take();
}

InstanceRequest InstanceRequest::deserialize(ByteView data) {
  ByteReader r(data);
  InstanceRequest req;
  req.session_name = r.str();
  req.common_sigstruct = sgx::SigStruct::deserialize(r.bytes());
  r.expect_done();
  return req;
}

Bytes InstanceResponse::serialize() const {
  ByteWriter w;
  write_status(w, status);
  w.raw(token.view());
  w.raw(verifier_id.view());
  w.bytes(ok() ? singleton_sigstruct.serialize() : Bytes{});
  return std::move(w).take();
}

InstanceResponse InstanceResponse::deserialize(ByteView data) {
  ByteReader r(data);
  InstanceResponse resp;
  resp.status = read_status(r);
  resp.token = r.fixed<32>();
  resp.verifier_id = r.fixed<32>();
  const Bytes sig = r.bytes();
  if (resp.ok()) resp.singleton_sigstruct = sgx::SigStruct::deserialize(sig);
  r.expect_done();
  return resp;
}

Bytes AttestPayload::serialize() const {
  ByteWriter w;
  w.str(session_name);
  w.bytes(quote.serialize());
  w.u8(token.has_value() ? 1 : 0);
  if (token.has_value()) w.raw(token->view());
  return std::move(w).take();
}

AttestPayload AttestPayload::deserialize(ByteView data) {
  ByteReader r(data);
  AttestPayload p;
  p.session_name = r.str();
  p.quote = quote::Quote::deserialize(r.bytes());
  if (r.u8() != 0) p.token = r.fixed<32>();
  r.expect_done();
  return p;
}

Bytes AttestResponse::serialize() const {
  ByteWriter w;
  write_status(w, status);
  w.bytes(ok() ? acceptance : Bytes{});
  return std::move(w).take();
}

AttestResponse AttestResponse::deserialize(ByteView data) {
  ByteReader r(data);
  AttestResponse resp;
  resp.status = read_status(r);
  resp.acceptance = r.bytes();
  if (!resp.ok()) resp.acceptance.clear();
  r.expect_done();
  return resp;
}

Bytes IntrospectRequest::serialize() const {
  ByteWriter w;
  w.u32(max_traces);
  w.u8(include_slow ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(format));
  return std::move(w).take();
}

IntrospectRequest IntrospectRequest::deserialize(ByteView data) {
  IntrospectRequest req;
  if (data.empty()) return req;  // bare envelope: all defaults
  ByteReader r(data);
  req.max_traces = r.u32();
  req.include_slow = r.u8() != 0;
  req.format = static_cast<MetricsFormat>(r.u8());
  r.expect_done();
  return req;
}

void TraceReport::write(ByteWriter& w) const {
  w.u64(trace_id);
  w.u64(request_id);
  w.u64(session_id);
  w.u64(static_cast<std::uint64_t>(duration_ns));
  w.u32(static_cast<std::uint32_t>(phases.size()));
  for (const Phase& p : phases) {
    w.str(p.name);
    w.u32(p.depth);
    w.u64(static_cast<std::uint64_t>(p.offset_ns));
    w.u64(static_cast<std::uint64_t>(p.duration_ns));
  }
}

TraceReport TraceReport::read(ByteReader& r) {
  TraceReport t;
  t.trace_id = r.u64();
  t.request_id = r.u64();
  t.session_id = r.u64();
  t.duration_ns = static_cast<std::int64_t>(r.u64());
  // Each phase costs at least str-prefix(4) + u32(4) + 2×u64(16) = 24
  // bytes; a count claiming more is hostile and dies before reserve().
  const std::uint32_t n = r.count(24);
  t.phases.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Phase p;
    p.name = r.str();
    p.depth = r.u32();
    p.offset_ns = static_cast<std::int64_t>(r.u64());
    p.duration_ns = static_cast<std::int64_t>(r.u64());
    t.phases.push_back(std::move(p));
  }
  return t;
}

Bytes IntrospectResponse::serialize() const {
  ByteWriter w;
  write_status(w, status);
  w.str(metrics);
  w.u32(static_cast<std::uint32_t>(traces.size()));
  for (const TraceReport& t : traces) t.write(w);
  w.u32(static_cast<std::uint32_t>(slow_traces.size()));
  for (const TraceReport& t : slow_traces) t.write(w);
  return std::move(w).take();
}

IntrospectResponse IntrospectResponse::deserialize(ByteView data) {
  ByteReader r(data);
  IntrospectResponse resp;
  resp.status = read_status(r);
  resp.metrics = r.str();
  // A trace costs at least 4×u64 + phase-count u32 = 36 bytes on the
  // wire; validating the counts up front keeps forged values away from
  // reserve() (std::length_error is not part of the ParseError contract).
  const std::uint32_t n_traces = r.count(36);
  resp.traces.reserve(n_traces);
  for (std::uint32_t i = 0; i < n_traces; ++i)
    resp.traces.push_back(TraceReport::read(r));
  const std::uint32_t n_slow = r.count(36);
  resp.slow_traces.reserve(n_slow);
  for (std::uint32_t i = 0; i < n_slow; ++i)
    resp.slow_traces.push_back(TraceReport::read(r));
  r.expect_done();
  return resp;
}

// --- shared frontend glue ---------------------------------------------------

namespace {

/// `code` in the shape of `command`'s response: every response leads with
/// the Status prefix, so any client decodes the refusal.
Bytes refusal_payload(Command command, StatusCode code) {
  switch (command) {
    case Command::kIntrospect: {
      IntrospectResponse resp;
      resp.status = Status(code);
      return resp.serialize();
    }
    case Command::kAttest: {
      AttestResponse resp;
      resp.status = Status(code);
      return resp.serialize();
    }
    default: {
      InstanceResponse resp;
      resp.status = Status(code);
      return resp.serialize();
    }
  }
}

/// Decode the request, run the handler, answer its response. Request
/// decode and handler dispatch live in SEPARATE try blocks so blame lands
/// correctly: a ParseError while decoding the frame is the client's fault
/// (kMalformedRequest), but a ParseError escaping the handler is a
/// server-side fault — e.g. a corrupt stored policy — and must answer
/// kInternal, not accuse a well-formed request.
template <typename Response, typename Decode, typename Handler>
Bytes serve_command(const Envelope& env, const Decode& decode,
                    const Handler& handler, StatusCode* status) {
  Response resp;
  try {
    const auto request = decode(ByteView(env.payload));
    try {
      resp = handler(request);
    } catch (const Error&) {
      resp = Response{};
      resp.status = Status(StatusCode::kInternal);
    }
  } catch (const Error&) {
    resp = Response{};
    resp.status = Status(StatusCode::kMalformedRequest);
  }
  if (status != nullptr) *status = resp.status.code;
  return env.reply(resp.serialize()).serialize();
}

}  // namespace

Bytes serve_client_frame(ByteView raw, const FrameHandlers& handlers,
                         StatusCode* status) {
  std::optional<Envelope> env;
  try {
    env = Envelope::deserialize(raw);
  } catch (const Error&) {
    // Not an envelope (no magic, or the magic but not the layout): a
    // malformed-request envelope with request_id 0 (we never learned the
    // real one).
    if (status != nullptr) *status = StatusCode::kMalformedRequest;
    Envelope out;
    out.payload = refusal_payload(out.command, StatusCode::kMalformedRequest);
    return out.serialize();
  }
  const auto refuse = [&](StatusCode code) {
    if (status != nullptr) *status = code;
    return env->reply(refusal_payload(env->command, code)).serialize();
  };
  if (env->version > kProtocolVersion)
    return refuse(StatusCode::kUnsupportedVersion);
  switch (env->command) {
    case Command::kGetInstance:
      return serve_command<InstanceResponse>(
          *env, InstanceRequest::deserialize, handlers.get_instance, status);
    case Command::kIntrospect:
      return serve_command<IntrospectResponse>(
          *env, IntrospectRequest::deserialize, handlers.introspect, status);
    case Command::kAttest:
      return serve_command<AttestResponse>(
          *env, [](ByteView record) { return record; }, handlers.attest,
          status);
    default:
      return refuse(StatusCode::kUnknownCommand);
  }
}

Bytes refuse_client_frame(ByteView raw, const Status& status,
                          StatusCode* answered) {
  FrameHandlers refuse;
  refuse.get_instance = [&](const InstanceRequest&) {
    InstanceResponse resp;
    resp.status = status;
    return resp;
  };
  refuse.introspect = [&](const IntrospectRequest&) {
    IntrospectResponse resp;
    resp.status = status;
    return resp;
  };
  refuse.attest = [&](ByteView) {
    AttestResponse resp;
    resp.status = status;
    return resp;
  };
  return serve_client_frame(raw, refuse, answered);
}

std::optional<AttestPayload> parse_attest_payload(ByteView client_payload) {
  try {
    return AttestPayload::deserialize(client_payload);
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace sinclave::cas
