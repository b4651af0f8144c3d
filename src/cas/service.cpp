#include "cas/service.h"

#include <algorithm>

#include "common/serial.h"
#include "core/on_demand.h"
#include "core/predictor.h"
#include "crypto/sha256.h"
#include "obs/trace.h"

namespace sinclave::cas {

namespace {

/// Token -> stripe: tokens are uniform DRBG output, so their leading
/// bytes are already a perfect hash.
std::size_t token_stripe_index(const core::AttestationToken& token,
                               std::size_t stripes) {
  std::uint64_t h = 0;
  for (int i = 0; i < 8; ++i)
    h = (h << 8) | token.data[static_cast<std::size_t>(i)];
  return static_cast<std::size_t>(h % stripes);
}
}  // namespace

Bytes Policy::serialize() const {
  ByteWriter w;
  w.str(session_name);
  w.raw(expected_signer.view());
  w.u8(require_singleton ? 1 : 0);
  w.u8(allow_debug ? 1 : 0);
  w.u8(expected_mr_enclave.has_value() ? 1 : 0);
  if (expected_mr_enclave.has_value()) w.raw(expected_mr_enclave->view());
  w.u8(base_hash.has_value() ? 1 : 0);
  if (base_hash.has_value()) w.bytes(base_hash->encode());
  w.bytes(config.serialize());
  return std::move(w).take();
}

Policy Policy::deserialize(ByteView data) {
  ByteReader r(data);
  Policy p;
  p.session_name = r.str();
  p.expected_signer = r.fixed<32>();
  p.require_singleton = r.u8() != 0;
  p.allow_debug = r.u8() != 0;
  if (r.u8() != 0) p.expected_mr_enclave = r.fixed<32>();
  if (r.u8() != 0) p.base_hash = core::BaseHash::decode(r.bytes());
  p.config = AppConfig::deserialize(r.bytes());
  r.expect_done();
  return p;
}

CasService::CasService(quote::AttestationService* attestation,
                       crypto::Ed25519KeyPair identity, crypto::Drbg rng)
    : attestation_(attestation),
      identity_(std::move(identity)),
      verifier_id_(crypto::sha256(identity_.public_key().view())),
      rng_(std::move(rng)),
      token_rng_(crypto::Drbg(rng_.generate(32), "cas-token-root"),
                 "cas-tokens", kTokenStripes),
      secure_server_(
          &identity_, crypto::Drbg(rng_.generate(16), "cas-channel"),
          [this](ByteView payload, ByteView dh) {
            return on_handshake(payload, dh);
          }) {
  if (attestation_ == nullptr)
    throw Error("cas: attestation service required");

  // The service's own collector: token accounting, the token-minting DRBG
  // pool, and the secure channel's stats as the channel_* series (the
  // attested exchange's counters beyond the frontend's per-command ones).
  // The registry dies with the service, so `this` cannot dangle.
  registry_.add_collector([this](obs::MetricsSnapshot& snap) {
    snap.gauge("tokens_outstanding", tokens_outstanding());
    snap.counter("tokens_spent", tokens_used());
    snap.counter("token_rng_stripe_collisions", token_rng_.collisions());
    const net::SecureServer::Stats s = secure_channel_stats();
    snap.counter("channel_sessions_opened", s.sessions_opened);
    snap.counter("channel_handshakes_rejected", s.handshakes_rejected);
    snap.counter("channel_stripe_collisions", s.stripe_collisions);
    snap.gauge("channel_sessions_high_water", s.sessions_high_water);
    snap.gauge("channel_open_sessions", s.open_sessions);
  });
}

CasService::TokenStripe& CasService::token_stripe(
    const core::AttestationToken& token) {
  return token_stripes_[token_stripe_index(token, kTokenStripes)];
}

const CasService::TokenStripe& CasService::token_stripe(
    const core::AttestationToken& token) const {
  return token_stripes_[token_stripe_index(token, kTokenStripes)];
}

void CasService::add_signer_key(crypto::RsaKeyPair signer) {
  const Hash256 id = crypto::sha256(signer.public_key().modulus_be());
  MutexLock lock(signer_mutex_);
  signer_keys_.emplace(id, std::move(signer));
}

bool CasService::has_signer_key(const Hash256& signer_id) const {
  MutexLock lock(signer_mutex_);
  return signer_keys_.contains(signer_id);
}

void CasService::install_policy(const Policy& policy) {
  WriterLock lock(db_mutex_);
  policies_.insert_or_assign(policy.session_name, policy);
}

std::optional<Policy> CasService::get_policy(
    const std::string& session_name) const {
  static obs::Phase& p_policy = obs::Tracer::instance().phase("policy_load");
  obs::Span span(p_policy);
  ReaderLock lock(db_mutex_);
  const auto it = policies_.find(session_name);
  if (it == policies_.end()) return std::nullopt;
  return it->second;
}

void CasService::set_replication_gate(ReplicationGate* gate) {
  replication_gate_.store(gate, std::memory_order_release);
}

AttestResponse CasService::handle_attest(ByteView record) {
  AttestResponse resp;
  Result<Bytes> acceptance = secure_server_.handle(record);
  resp.status = acceptance.status();
  if (acceptance.ok()) resp.acceptance = std::move(acceptance).value();
  return resp;
}

net::SecureServer::Stats CasService::secure_channel_stats() const {
  return secure_server_.stats();
}

MintedCredential CasService::mint_credential(
    const Policy& policy, const sgx::SigStruct& common_sigstruct) {
  return std::move(mint_batch(policy, common_sigstruct, 1).front());
}

std::vector<MintedCredential> CasService::mint_batch(
    const Policy& policy, const sgx::SigStruct& common_sigstruct,
    std::size_t count) {
  static obs::Phase& p_mint = obs::Tracer::instance().phase("mint");
  static obs::Phase& p_predict = obs::Tracer::instance().phase("predict");
  static obs::Phase& p_sign = obs::Tracer::instance().phase("sign");
  obs::Span span(p_mint);
  if (!policy.require_singleton || !policy.base_hash.has_value())
    throw Error("cas: policy is not configured for singleton enclaves");

  const crypto::RsaKeyPair* signer = nullptr;
  {
    MutexLock lock(signer_mutex_);
    const auto it = signer_keys_.find(policy.expected_signer);
    if (it == signer_keys_.end())
      throw Error(std::string("cas: ") +
                  status_message(StatusCode::kNoSignerKey));
    signer = &it->second;  // map nodes are pointer-stable under inserts
  }

  std::vector<MintedCredential> batch(count);
  if (count == 0) return batch;

  // Per-batch costs, paid once: the common-SigStruct verification (inside
  // OnDemandSigner) plus its scratch arena, and one DRBG-stripe lease for
  // all the tokens. The lease comes from the striped token_rng_ pool, so
  // concurrent minters draw from different generators instead of
  // serializing on a global RNG lock.
  // The RSA-CRT signing loop below is the most expensive code in the
  // process (about 0.7 ms per RSA-3072 signature where the three CRT legs
  // run in lockstep on AVX-512 IFMA, about 2.1 ms where they run one by
  // one: perfbench `start`'s traced `cas.mint_ms` on a shared 4-core
  // x86-64 host); holding any lock across it would serialize the whole
  // service behind one batch.
  lockrank::assert_none_held("mint_batch signing");
  core::OnDemandSigner minter(common_sigstruct, *signer);
  {
    const auto lease = token_rng_.lease();
    for (MintedCredential& cred : batch)
      lease.rng().generate(cred.token.data.data(), cred.token.size());
  }

  for (MintedCredential& cred : batch) {
    {
      obs::Span predict_span(p_predict);
      core::InstancePage page;
      page.token = cred.token;
      page.verifier_id = verifier_id_;
      cred.mr_enclave =
          core::MeasurementPredictor::predict(*policy.base_hash, page);
    }
    obs::Span sign_span(p_sign);
    cred.sigstruct = minter.make(cred.mr_enclave);
  }
  return batch;
}

Status CasService::arm_token(const core::AttestationToken& token,
                             const std::string& session_name,
                             const sgx::Measurement& expected_mr) {
  if (ReplicationGate* gate =
          replication_gate_.load(std::memory_order_acquire);
      gate != nullptr)
    return gate->register_token(token, session_name, expected_mr);
  register_token(token, session_name, expected_mr);
  return Status();
}

Status CasService::accepts_writes() const {
  const ReplicationGate* gate =
      replication_gate_.load(std::memory_order_acquire);
  return gate != nullptr ? gate->accepts_writes() : Status();
}

void CasService::register_token(const core::AttestationToken& token,
                                const std::string& session_name,
                                const sgx::Measurement& expected_mr) {
  TokenStripe& stripe = token_stripe(token);
  MutexLock lock(stripe.m);
  // emplace: re-applying the same log entry after a restart must not
  // reset a token that was meanwhile spent.
  stripe.tokens.emplace(token,
                        PendingToken{session_name, expected_mr, false});
}

Status CasService::check_spend(const PendingToken* pending,
                               const std::string& session_name,
                               const sgx::Measurement& mr_enclave) {
  if (pending == nullptr || pending->session_name != session_name)
    return Status(StatusCode::kTokenUnknown);
  if (pending->used) return Status(StatusCode::kTokenReused);
  if (mr_enclave != pending->expected_mr)
    return Status(StatusCode::kAttestationRejected);
  return Status();
}

Status CasService::peek_spend(const core::AttestationToken& token,
                              const std::string& session_name,
                              const sgx::Measurement& mr_enclave) const {
  const TokenStripe& stripe = token_stripe(token);
  MutexLock lock(stripe.m);
  const auto it = stripe.tokens.find(token);
  return check_spend(it == stripe.tokens.end() ? nullptr : &it->second,
                     session_name, mr_enclave);
}

Status CasService::apply_spend(const core::AttestationToken& token,
                               const std::string& session_name,
                               const sgx::Measurement& mr_enclave) {
  // Lookup, checks and flip are one critical section inside the token's
  // stripe: two spends racing the same token serialize here, so exactly
  // one can ever flip `used`.
  TokenStripe& stripe = token_stripe(token);
  MutexLock lock(stripe.m);
  const auto it = stripe.tokens.find(token);
  PendingToken* pending = it == stripe.tokens.end() ? nullptr : &it->second;
  Status checked = check_spend(pending, session_name, mr_enclave);
  if (!checked.ok()) return checked;
  pending->used = true;  // singleton: this token never attests again
  ++stripe.used;
  return Status();
}

std::optional<StatusCode> CasService::check_retrieval_preconditions(
    const Policy& policy) const {
  if (!policy.require_singleton || !policy.base_hash.has_value())
    return StatusCode::kNotSingleton;
  if (!has_signer_key(policy.expected_signer))
    return StatusCode::kNoSignerKey;
  return std::nullopt;
}

Result<Bytes> CasService::on_handshake(ByteView client_payload,
                                      ByteView client_dh) {
  const auto verdict = [this](Verdict v) {
    MutexLock lock(observe_mutex_);
    last_attest_verdict_ = v;
  };
  // Every refusal below but the malformed payload and a routing one is a
  // verification outcome: the channel answers the peer the generic
  // kAttestationRejected for it (no oracle), and the fine-grained Verdict
  // is server-side observability.
  const auto refuse = [&](Verdict v,
                          Status status = Status(
                              StatusCode::kAttestationRejected)) {
    verdict(v);
    return Result<Bytes>(std::move(status));
  };

  const std::optional<AttestPayload> decoded =
      parse_attest_payload(client_payload);
  if (!decoded.has_value())
    return refuse(Verdict::kMalformed, Status(StatusCode::kMalformedRequest));
  const AttestPayload& payload = *decoded;

  const auto policy = get_policy(payload.session_name);
  if (!policy.has_value())
    return refuse(Verdict::kPolicyViolation);

  // 1. Quote genuineness (the TEE provider's attestation service).
  const quote::QuoteVerification qv = [&] {
    static obs::Phase& p_check = obs::Tracer::instance().phase("quote_check");
    obs::Span span(p_check);
    return attestation_->verify(payload.quote);
  }();
  if (!qv.ok()) return refuse(qv.verdict);

  // 2. Channel binding: REPORTDATA must commit to the client's DH key.
  if (!(qv.report_data == net::channel_binding(client_dh)))
    return refuse(Verdict::kPolicyViolation);

  // 3. No debug enclaves unless the policy opts in.
  if (qv.identity->attributes.debug() && !policy->allow_debug)
    return refuse(Verdict::kAttributesMismatch);

  // 4. Signer pin.
  if (qv.identity->mr_signer != policy->expected_signer)
    return refuse(Verdict::kSignerMismatch);

  // 5. Measurement check: singleton (SinClave) or pinned common (baseline).
  if (policy->require_singleton) {
    if (!payload.token.has_value())
      return refuse(Verdict::kTokenUnknown);
    static obs::Phase& p_spend = obs::Tracer::instance().phase("token_spend");
    Status spent;
    if (ReplicationGate* gate =
            replication_gate_.load(std::memory_order_acquire);
        gate != nullptr) {
      // Cluster mode. A cheap local precheck first (rejects that need no
      // log traffic), then the spend commits through the replicated log
      // with no lock held; apply_spend — run on every node in log order —
      // is the authoritative mark-used. Two handshakes racing the same
      // token may both pass the precheck and both propose; the log
      // serializes them, the first applied spend wins everywhere, and the
      // loser's own proposal answers kTokenReused.
      spent = peek_spend(*payload.token, payload.session_name,
                         qv.identity->mr_enclave);
      // A local "token unknown" is only authoritative on a caught-up
      // leader: a lagging replica (follower, or a fresh leader before
      // its no-op applies) may simply not have applied the registration
      // yet. Commit the spend through the log instead — it serializes
      // after every registration, so the apply verdict is authoritative
      // (and a follower answers kNotLeader, routing the client onward).
      const bool local_miss_untrusted =
          spent.code == StatusCode::kTokenUnknown && !gate->ready();
      if (spent.ok() || local_miss_untrusted) {
        obs::Span spend_span(p_spend);  // covers the replicated commit
        spent = gate->spend_token(*payload.token, payload.session_name,
                                  qv.identity->mr_enclave);
      }
    } else {
      obs::Span spend_span(p_spend);  // covers stripe-lock wait + spend
      spent = apply_spend(*payload.token, payload.session_name,
                          qv.identity->mr_enclave);
    }
    if (!spent.ok()) {
      // kNotLeader is protocol-level, so the client re-routes by its
      // detail, the gate's leader hint; verification outcomes reach the
      // peer as the generic rejection as ever.
      return refuse(spent.code == StatusCode::kTokenReused
                        ? Verdict::kTokenReused
                    : spent.code == StatusCode::kTokenUnknown
                        ? Verdict::kTokenUnknown
                    : spent.code == StatusCode::kAttestationRejected
                        ? Verdict::kMeasurementMismatch
                        : Verdict::kStale,  // routing/liveness refusals
                    spent);
    }
  } else {
    if (!policy->expected_mr_enclave.has_value() ||
        qv.identity->mr_enclave != *policy->expected_mr_enclave)
      return refuse(Verdict::kMeasurementMismatch);
  }
  verdict(Verdict::kOk);
  // The answer is the configuration of the very policy the quote was
  // checked against; the channel seals it to this client's share.
  return policy->config.serialize();
}

namespace {

TraceReport to_report(const obs::Trace& trace) {
  TraceReport report;
  report.trace_id = trace.trace_id;
  report.request_id = trace.request_id;
  report.session_id = trace.session_id;
  report.duration_ns = trace.duration_ns();
  report.phases.reserve(trace.spans.size());
  for (const obs::CollectedSpan& span : trace.spans) {
    TraceReport::Phase p;
    p.name = span.name;
    p.depth = span.depth;
    p.offset_ns = span.start_ns - trace.start_ns;
    p.duration_ns = span.duration_ns();
    report.phases.push_back(std::move(p));
  }
  return report;
}

}  // namespace

IntrospectResponse CasService::handle_introspect(
    const IntrospectRequest& request) {
  IntrospectResponse resp;
  if (request.format != MetricsFormat::kJson &&
      request.format != MetricsFormat::kPrometheus &&
      request.format != MetricsFormat::kText) {
    resp.status = Status(StatusCode::kMalformedRequest, "unknown format");
    return resp;
  }

  const obs::MetricsSnapshot snap = registry_.snapshot();
  switch (request.format) {
    case MetricsFormat::kPrometheus:
      resp.metrics = snap.to_prometheus();
      break;
    case MetricsFormat::kText:
      resp.metrics = snap.to_text();
      break;
    case MetricsFormat::kJson:
      resp.metrics = snap.to_json();
      break;
  }

  obs::Tracer& tracer = obs::Tracer::instance();
  // Server-side cap: introspection is a debugging endpoint, not a bulk
  // trace exporter.
  const std::size_t cap = std::min<std::uint32_t>(request.max_traces, 64);
  for (const obs::Trace& trace : tracer.collect(cap))
    resp.traces.push_back(to_report(trace));
  if (request.include_slow) {
    for (const obs::Trace& trace : tracer.slow_traces())
      resp.slow_traces.push_back(to_report(trace));
  }
  resp.status = Status();
  return resp;
}

Verdict CasService::last_attest_verdict() const {
  MutexLock lock(observe_mutex_);
  return last_attest_verdict_;
}

std::size_t CasService::tokens_outstanding() const {
  std::size_t outstanding = 0;
  for (const TokenStripe& stripe : token_stripes_) {
    MutexLock lock(stripe.m);
    outstanding += stripe.tokens.size() - stripe.used;
  }
  return outstanding;
}

std::size_t CasService::tokens_used() const {
  std::size_t used = 0;
  for (const TokenStripe& stripe : token_stripes_) {
    MutexLock lock(stripe.m);
    used += stripe.used;
  }
  return used;
}

Bytes CasService::export_state() const {
  ByteWriter w;
  {
    // "policies/<name>" -> Policy::serialize(), in name order: state that
    // earlier builds sealed must still unseal (test_persistence pins it).
    ReaderLock lock(db_mutex_);
    w.u32(static_cast<std::uint32_t>(policies_.size()));
    for (const auto& [name, policy] : policies_) {
      w.str("policies/" + name);
      w.bytes(policy.serialize());
    }
  }
  {
    // Merge the stripes into one token-ordered map first: the serialized
    // layout stays byte-identical to the pre-striping format (sorted by
    // token), so sealed state round-trips across versions.
    std::map<core::AttestationToken, PendingToken> merged;
    for (const TokenStripe& stripe : token_stripes_) {
      MutexLock lock(stripe.m);
      merged.insert(stripe.tokens.begin(), stripe.tokens.end());
    }
    w.u32(static_cast<std::uint32_t>(merged.size()));
    for (const auto& [token, pending] : merged) {
      w.raw(token.view());
      w.str(pending.session_name);
      w.raw(pending.expected_mr.view());
      w.u8(pending.used ? 1 : 0);
    }
  }
  return std::move(w).take();
}

void CasService::import_state(ByteView state) {
  ByteReader r(state);
  std::map<core::AttestationToken, PendingToken> tokens;
  std::vector<Policy> policies;
  // Sequence counts validated against remaining input (a policy entry
  // costs at least its two u32 length prefixes, a token entry 32+4+32+1
  // bytes) so a corrupt count dies as ParseError before any allocation.
  const std::uint32_t n_policies = r.count(8);
  for (std::uint32_t i = 0; i < n_policies; ++i) {
    r.str();  // name: recomputed from the policy's session_name on install
    const Bytes blob = r.bytes();
    // Decode NOW, inside the parse phase: a corrupt nested policy blob
    // must fail the whole import, not surface mid-commit after earlier
    // policies were already installed (partially-applied state).
    policies.push_back(Policy::deserialize(blob));
  }
  const std::uint32_t n_tokens = r.count(69);
  for (std::uint32_t i = 0; i < n_tokens; ++i) {
    const auto token = r.fixed<32>();
    PendingToken pending;
    pending.session_name = r.str();
    pending.expected_mr = r.fixed<32>();
    pending.used = r.u8() != 0;
    tokens.emplace(token, std::move(pending));
  }
  r.expect_done();

  // Commit only after the whole state parsed.
  for (Policy& policy : policies) install_policy(policy);
  for (TokenStripe& stripe : token_stripes_) {
    MutexLock lock(stripe.m);
    stripe.tokens.clear();
    stripe.used = 0;
  }
  for (auto& [token, pending] : tokens) {
    TokenStripe& stripe = token_stripe(token);
    MutexLock lock(stripe.m);
    if (pending.used) ++stripe.used;
    stripe.tokens.emplace(token, std::move(pending));
  }
}

}  // namespace sinclave::cas
