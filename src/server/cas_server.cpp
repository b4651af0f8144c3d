#include "server/cas_server.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/predictor.h"

namespace sinclave::server {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

CasServer::CasServer(cas::CasService* cas, CasServerConfig config)
    : cas_(cas),
      config_(config),
      sigstruct_cache_(config.sigstruct_cache_capacity),
      pool_(config.workers) {
  if (cas_ == nullptr) throw Error("server: cas service required");
  handlers_.get_instance = [this](const cas::InstanceRequest& req) {
    return serve_instance(req);
  };
  handlers_.introspect = [this](const cas::IntrospectRequest& req) {
    return cas_->handle_introspect(req);
  };
  handlers_.attest = [this](ByteView record) {
    return cas_->handle_attest(record);
  };
  // Every registry snapshot pulls this frontend's counters (the secure
  // channel's own come from CasService's collector).
  collector_id_ = cas_->metrics_registry().add_collector(
      [this](obs::MetricsSnapshot& snap) { metrics_.collect(snap); });
}

CasServer::~CasServer() {
  // Unregister before anything else dies: remove_collector returns only
  // once no in-flight snapshot is inside our callback.
  cas_->metrics_registry().remove_collector(collector_id_);
  unbind();
  // ThreadPool's destructor drains in-flight and queued jobs (which may
  // park stalls on timer_; the wheel outlives the pool) before the caches
  // above go away.
}

void CasServer::bind(net::SimNetwork& net, const std::string& address) {
  net.listen_async(address,
                   [this](ByteView raw, net::SimNetwork::Completion done) {
                     accept(Bytes(raw.begin(), raw.end()), std::move(done));
                   });
  net_ = &net;
  address_ = address;
}

void CasServer::unbind() {
  if (net_ == nullptr) return;
  // shutdown() waits for every accepted request to *complete* — including
  // ones parked on the timer wheel — so after this returns no state
  // machine references the listener.
  net_->shutdown(address_);
  net_ = nullptr;
}

void CasServer::respond(Clock::time_point accepted,
                        LatencyHistogram* histogram, Bytes response,
                        const net::SimNetwork::Completion& done,
                        const obs::TraceContext& ctx, obs::Phase* root,
                        std::int64_t accepted_ns) {
  // Metrics (and the trace's root span) land before the completion fires
  // so a caller that observed the response always observes its own
  // request in the counters — and its own trace via introspection.
  static obs::Phase& p_respond = obs::Tracer::instance().phase("respond");
  const std::int64_t respond_start = obs::Tracer::now_ns();
  histogram->record(Clock::now() - accepted);
  metrics_.leave_in_flight();
  if (ctx.active()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.record_phase_span(p_respond, ctx, respond_start,
                             obs::Tracer::now_ns(), 1);
    tracer.record_phase_root(*root, ctx, accepted_ns, obs::Tracer::now_ns());
  }
  done(std::move(response));
}

void CasServer::note_frame(CommandMetrics& command, StatusCode answered) {
  switch (answered) {
    case StatusCode::kMalformedRequest:
      ++metrics_.malformed_frames;
      break;
    case StatusCode::kUnsupportedVersion:
      ++metrics_.unsupported_version_frames;
      break;
    case StatusCode::kUnknownCommand:
      ++metrics_.unknown_command_frames;
      break;
    default:
      break;
  }
  if (answered != StatusCode::kOk) ++command.errors;
}

void CasServer::accept(Bytes raw, net::SimNetwork::Completion done) {
  // Stage 1 — accept, on the client's thread: account, open the trace
  // (command and request id are peekable from the cleartext envelope
  // header), and enqueue. The client thread is never borrowed for serving
  // work.
  static obs::Phase& p_queue = obs::Tracer::instance().phase("queue_wait");
  static obs::Phase& p_serve = obs::Tracer::instance().phase("serve_frame");
  static obs::Phase& p_stall =
      obs::Tracer::instance().phase("backend_stall");
  static obs::Phase& p_root_instance =
      obs::Tracer::instance().phase("request_get_instance");
  static obs::Phase& p_root_introspect =
      obs::Tracer::instance().phase("request_introspect");
  static obs::Phase& p_root_attest =
      obs::Tracer::instance().phase("request_attest");
  const auto accepted = Clock::now();
  const cas::Envelope::Header header =
      cas::Envelope::peek(raw).value_or(cas::Envelope::Header{});
  // Each command counts on its own block; a frame whose header does not
  // decode (or names an unknown command) counts on `get_instance`.
  CommandMetrics* command = &metrics_.get_instance;
  obs::Phase* root = &p_root_instance;
  if (header.command == cas::Command::kAttest) {
    command = &metrics_.attest;
    root = &p_root_attest;
  } else if (header.command == cas::Command::kIntrospect) {
    command = &metrics_.introspect;
    root = &p_root_introspect;
  }
  obs::TraceContext ctx;
  ctx.trace_id = obs::Tracer::instance().new_trace_id();
  ctx.request_id = header.request_id;
  const std::int64_t accepted_ns = obs::Tracer::now_ns();
  ++command->requests;
  metrics_.enter_in_flight();
  // Admission control, on the accept thread: past the limit the request
  // is shed — answered right now with a typed kUnavailable carrying a
  // retry-after hint, never queued and never silently dropped. The gauge
  // includes this request, so the test is `> limit`: at most the number
  // of concurrently-accepting client threads can overshoot the limit.
  if (config_.admission_limit != 0 &&
      metrics_.requests_in_flight.load(std::memory_order_relaxed) >
          config_.admission_limit) {
    ++metrics_.requests_shed;
    const Status shed(StatusCode::kUnavailable,
                      retry_after_detail(config_.shed_retry_after));
    StatusCode answered = StatusCode::kOk;
    Bytes out = cas::refuse_client_frame(raw, shed, &answered);
    note_frame(*command, answered);
    respond(accepted, &command->latency, std::move(out), done, ctx, root,
            accepted_ns);
    return;
  }
  const auto deadline = accepted + config_.request_deadline;
  auto job = [this, raw = std::move(raw), done, accepted, deadline, ctx,
              accepted_ns, command, root]() mutable {
    // Stage 2 — serve, on a worker: decode + dispatch (retrieval: policy
    // -> verify-once memo -> pooled credential | inline sign; attest: the
    // handshake). serve_client_frame contains deserializer failures — a
    // malformed or truncated frame answers a typed kMalformedRequest, it
    // can never escape this worker as an exception.
    if (ctx.active()) {
      obs::Tracer::instance().record_phase_span(p_queue, ctx, accepted_ns,
                                                obs::Tracer::now_ns(), 1);
    }
    obs::TraceScope scope(ctx);
    // Deadline check before any work: a request is doomed when queue wait
    // already ate its budget, or when what remains cannot cover the
    // backend stall. Answering kDeadlineExceeded *here* means no
    // credential is ever minted — and no token spent — for a doomed
    // request (exactly-once accounting stays exact: tokens issued == ok
    // responses delivered) and no timer slot is occupied by one.
    if (config_.request_deadline.count() > 0) {
      const auto now = Clock::now();
      if (now + config_.backend_io > deadline) {
        ++metrics_.deadline_exceeded;
        const char* phase =
            now > deadline ? "queue-wait" : "backend-stall";
        const Status expired(StatusCode::kDeadlineExceeded,
                             deadline_phase_detail(phase));
        StatusCode answered = StatusCode::kOk;
        Bytes out = cas::refuse_client_frame(raw, expired, &answered);
        note_frame(*command, answered);
        respond(accepted, &command->latency, std::move(out), done, ctx, root,
                accepted_ns);
        return;
      }
    }
    Bytes out;
    try {
      StatusCode answered = StatusCode::kOk;
      {
        obs::Span span(p_serve);
        out = cas::serve_client_frame(raw, handlers_, &answered);
      }
      note_frame(*command, answered);
    } catch (...) {
      metrics_.leave_in_flight();
      done.fail(std::current_exception());
      return;
    }
    // The handshake may have late-bound the session id into our scope.
    ctx = obs::TraceScope::current();
    // Stage 3 — stall: the backend round trip parks on the timer wheel,
    // freeing this worker; stage 4 (respond) runs when it expires.
    // Respond is deliberately inline on the timer thread: it is
    // non-blocking (histogram + gauge + completion), and a hop back
    // through the pool would add queueing just to deliver bytes. If
    // client callbacks ever grow heavy, re-enqueue here instead.
    if (config_.backend_io.count() > 0) {
      // The payload rides in a shared_ptr so the fallback below can still
      // deliver it: the lambda argument is constructed (consuming the
      // capture) before schedule_after can throw, so a plain move would
      // leave the catch path holding a moved-from response.
      auto payload = std::make_shared<Bytes>(std::move(out));
      const std::int64_t stall_start = obs::Tracer::now_ns();
      try {
        timer_.schedule_after(
            config_.backend_io,
            [this, payload, done, accepted, ctx, command, root, accepted_ns,
             stall_start]() {
              if (ctx.active()) {
                obs::Tracer::instance().record_phase_span(
                    p_stall, ctx, stall_start, obs::Tracer::now_ns(), 1);
              }
              respond(accepted, &command->latency, std::move(*payload), done,
                      ctx, root, accepted_ns);
            });
        return;
      } catch (const Error&) {
        // Wheel shutting down: respond inline rather than dropping.
        respond(accepted, &command->latency, std::move(*payload), done, ctx,
                root, accepted_ns);
        return;
      }
    }
    respond(accepted, &command->latency, std::move(out), done, ctx, root,
            accepted_ns);
  };
  try {
    pool_.submit(std::move(job));
  } catch (const Error&) {
    // Pool shutting down; the dropped Completion would deliver an error
    // anyway, but do it crisply and keep the gauge honest.
    metrics_.leave_in_flight();
    done.fail(std::make_exception_ptr(Error("server: shutting down")));
  }
}

std::shared_ptr<const MintStamp> CasServer::check_common(
    const cas::Policy& policy, const sgx::SigStruct& common,
    Status* status) {
  {
    MutexLock lock(verified_mutex_);
    const auto it = verified_common_.find(policy.session_name);
    // A repeat retrieval skips the RSA verification — unless the policy
    // rotated under the memo (new base hash, or a new signer pin: the
    // memoized SigStruct may be signed by a now de-pinned signer).
    if (it != verified_common_.end() &&
        it->second.expected_signer == policy.expected_signer &&
        it->second.stamp->base_hash == *policy.base_hash &&
        it->second.stamp->common == common)
      return it->second.stamp;
  }

  if (!common.signature_valid()) {
    *status = Status(StatusCode::kBadSignature);
    return nullptr;
  }
  if (common.mr_signer() != policy.expected_signer) {
    *status = Status(StatusCode::kWrongSigner);
    return nullptr;
  }
  const sgx::Measurement expected_common =
      core::MeasurementPredictor::predict_common(*policy.base_hash);
  if (common.enclave_hash != expected_common) {
    *status = Status(StatusCode::kBaseHashMismatch);
    return nullptr;
  }
  auto stamp =
      std::make_shared<const MintStamp>(MintStamp{*policy.base_hash, common});
  MutexLock lock(verified_mutex_);
  verified_common_.insert_or_assign(
      policy.session_name, VerifiedCommon{policy.expected_signer, stamp});
  return stamp;
}

cas::InstanceResponse CasServer::serve_instance(
    const cas::InstanceRequest& request) {
  static obs::Phase& p_verify =
      obs::Tracer::instance().phase("verify_common");
  static obs::Phase& p_cred = obs::Tracer::instance().phase("credential");
  cas::InstanceResponse resp;

  // Writes need the log: a follower refuses (kNotLeader + leader hint, so
  // the client re-routes) before any policy work, pool pop, or mint.
  if (Status writable = cas_->accepts_writes(); !writable.ok()) {
    resp.status = std::move(writable);
    return resp;
  }
  const auto policy = cas_->get_policy(request.session_name);
  if (!policy.has_value()) {
    resp.status = Status(StatusCode::kUnknownSession);
    return resp;
  }
  if (const auto refused = cas_->check_retrieval_preconditions(*policy)) {
    resp.status = Status(*refused);
    return resp;
  }
  std::shared_ptr<const MintStamp> stamp;
  {
    obs::Span span(p_verify);
    stamp = check_common(*policy, request.common_sigstruct, &resp.status);
    if (stamp == nullptr) return resp;
  }
  obs::Span cred_span(p_cred);

  // The pop serves only credentials minted under the stamp just verified:
  // the current policy's base hash and this request's common SigStruct.
  // Runs deposited under any other stamp — by a premint() that raced a
  // policy rotation or a re-signed image — are discarded whole at the
  // pop, so a pooled retrieval predicts nothing and signs nothing.
  cas::MintedCredential cred;
  auto pooled = sigstruct_cache_.take(request.session_name, *stamp);
  if (pooled.has_value()) {
    ++metrics_.sigstruct_cache_hits;
    cred = std::move(*pooled);
  } else {
    ++metrics_.sigstruct_cache_misses;
    cred = cas_->mint_credential(*policy, request.common_sigstruct);
  }

  // Arm the one-time token. Pre-minted or not, a credential reaches this
  // line exactly once (the pool pop is exclusive), so each token is armed
  // exactly once — through the log when the service is replicated, and
  // released only once that arming committed.
  if (Status armed = cas_->arm_token(cred.token, request.session_name,
                                     cred.mr_enclave);
      !armed.ok()) {
    resp.status = std::move(armed);
    return resp;
  }
  ++metrics_.tokens_issued;

  resp.status = Status();
  resp.token = cred.token;
  resp.verifier_id = cas_->verifier_id();
  resp.singleton_sigstruct = std::move(cred.sigstruct);
  return resp;
}

std::size_t CasServer::premint(const std::string& session,
                               const sgx::SigStruct& common_sigstruct,
                               std::size_t n) {
  const auto policy = cas_->get_policy(session);
  if (!policy.has_value() ||
      cas_->check_retrieval_preconditions(*policy).has_value())
    return 0;
  Status status;
  const std::shared_ptr<const MintStamp> stamp =
      check_common(*policy, common_sigstruct, &status);
  if (stamp == nullptr) return 0;

  // Minting is batched, chunked so one premint call cannot monopolize
  // the RNG lock for an unbounded stretch.
  for (std::size_t minted = 0; minted < n;) {
    const std::size_t want = std::min(kMintBatch, n - minted);
    auto batch = cas_->mint_batch(*policy, common_sigstruct, want);
    ++metrics_.mint_batches;
    metrics_.preminted_credentials += batch.size();
    minted += batch.size();
    sigstruct_cache_.put_all(session, stamp, std::move(batch));
  }
  return n;
}

}  // namespace sinclave::server
