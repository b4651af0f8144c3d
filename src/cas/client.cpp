#include "cas/client.h"

#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/mutex.h"
#include "obs/trace.h"

namespace sinclave::cas {

namespace {

using SteadyClock = std::chrono::steady_clock;

Status transport_status(const std::exception& e) {
  return Status(StatusCode::kUnavailable, e.what());
}

/// SplitMix64 — same fixed-constant scrambler the fault injector and load
/// generator use, so jitter draws are identical across toolchains.
std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Monotonic source of distinct default jitter seeds: clients constructed
/// with jitter_seed == 0 each draw the next value, so a fleet built from
/// one config still de-synchronizes its retry schedules.
std::atomic<std::uint64_t> g_jitter_counter{1};

/// Client-side trace root: opens a TraceScope for the operation and
/// records its depth-0 root span on destruction, so client-perceived
/// latency (attempts, backoff sleeps, handshake crypto) shows up in the
/// same phase histograms and rings as the server side.
struct RootScope {
  obs::Phase& root;
  obs::TraceContext ctx;
  std::int64_t start_ns;
  obs::TraceScope scope;

  RootScope(obs::Phase& root_phase, std::uint64_t request_id)
      : root(root_phase),
        ctx{obs::Tracer::instance().new_trace_id(), request_id, 0},
        start_ns(obs::Tracer::now_ns()),
        scope(ctx) {}
  ~RootScope() {
    if (ctx.active()) {
      obs::Tracer::instance().record_phase_root(root, ctx, start_ns,
                                                obs::Tracer::now_ns());
    }
  }
};

}  // namespace

/// Everything an in-flight request needs to outlive the CasClient object:
/// async completions hold this via shared_ptr, so a client destroyed with
/// requests in flight never leaves a dangling `this` behind.
struct CasClient::Core {
  net::SimNetwork* net = nullptr;
  CasClientConfig config;
  /// Resolved jitter stream: config.retry.jitter_seed, or a fresh draw
  /// from g_jitter_counter when that is 0.
  std::uint64_t jitter_seed = 0;
  std::atomic<std::uint64_t> next_request_id{1};
  Mutex connection_mutex{LockRank::kClientConnection, "cas.client_connection"};
  std::optional<net::SimNetwork::Connection> connection_cache
      GUARDED_BY(connection_mutex);
  /// Where requests go right now: config.address until a kNotLeader
  /// leader hint (or a peer rotation after transport failure) moves it.
  std::string current GUARDED_BY(connection_mutex);
  std::size_t cluster_cursor GUARDED_BY(connection_mutex) = 0;
  std::atomic<std::uint64_t> leader_redirects{0};

  // Circuit breaker (enabled iff retry.breaker_threshold > 0): counts
  // consecutive retryable failures across *operations and attempts*, and
  // holds the wall-clock point until which the breaker stays open.
  Mutex breaker_mutex{LockRank::kClientBreaker, "cas.client_breaker"};
  std::size_t breaker_consecutive GUARDED_BY(breaker_mutex) = 0;
  SteadyClock::time_point breaker_open_until GUARDED_BY(breaker_mutex){};
  std::atomic<std::uint64_t> breaker_trips{0};
  std::atomic<std::uint64_t> breaker_fast_fails{0};

  net::SimNetwork::Connection connection() REQUIRES_NOT(connection_mutex) {
    MutexLock lock(connection_mutex);
    if (!connection_cache.has_value())
      connection_cache = net->connect(current + ".instance");
    return *connection_cache;  // cheap copy; the handle is shareable
  }

  void drop_connection() REQUIRES_NOT(connection_mutex) {
    MutexLock lock(connection_mutex);
    connection_cache.reset();
  }

  /// Follow a kNotLeader leader hint: retarget and count the redirect.
  /// The redirected attempt is issued immediately — no backoff sleep.
  void redirect_to(const std::string& address)
      REQUIRES_NOT(connection_mutex) {
    {
      MutexLock lock(connection_mutex);
      if (current != address) {
        current = address;
        connection_cache.reset();
      }
    }
    leader_redirects.fetch_add(1, std::memory_order_relaxed);
  }

  /// After a transport failure (or hintless kNotLeader) with a cluster
  /// configured: advance to the next peer so the paced retry probes a
  /// different node. No-op without a cluster list.
  void rotate_peer() REQUIRES_NOT(connection_mutex) {
    if (config.cluster.empty()) return;
    MutexLock lock(connection_mutex);
    for (std::size_t i = 0; i < config.cluster.size(); ++i) {
      const std::string& next =
          config.cluster[cluster_cursor++ % config.cluster.size()];
      if (next != current) {
        current = next;
        connection_cache.reset();
        return;
      }
    }
  }

  /// False = the breaker is open: the caller must fail fast with
  /// breaker_open_detail() and not touch the wire. Counts the refusal.
  bool breaker_allows() REQUIRES_NOT(breaker_mutex) {
    if (config.retry.breaker_threshold == 0) return true;
    MutexLock lock(breaker_mutex);
    if (SteadyClock::now() < breaker_open_until) {
      breaker_fast_fails.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Feed one attempt's outcome to the breaker. Any answer from the
  /// server — success or typed refusal — proves it alive and closes the
  /// streak; only retryable failures (kUnavailable, transport) count
  /// toward opening.
  void breaker_record(bool retryable_failure) REQUIRES_NOT(breaker_mutex) {
    if (config.retry.breaker_threshold == 0) return;
    MutexLock lock(breaker_mutex);
    if (!retryable_failure) {
      breaker_consecutive = 0;
      return;
    }
    if (++breaker_consecutive >= config.retry.breaker_threshold) {
      breaker_consecutive = 0;
      breaker_open_until =
          SteadyClock::now() +
          std::chrono::duration_cast<SteadyClock::duration>(
              config.retry.breaker_cooldown);
      breaker_trips.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

namespace {

/// Shared retry pacing for the sync loops: tracks the operation's start,
/// and after each retryable failure decides whether another attempt fits
/// the budgets — sleeping the jittered (or server-hinted) backoff when it
/// does.
struct RetryPacer {
  const RetryPolicy& policy;
  std::uint64_t seed;
  SteadyClock::time_point start = SteadyClock::now();

  /// After a retryable failure on attempt #`attempt`: true = backoff
  /// slept, go again; false = out of attempts or deadline budget, return
  /// the last typed result as-is.
  bool pace(std::size_t attempt, const Status& last, obs::Phase* backoff) {
    if (attempt >= policy.max_attempts) return false;
    auto sleep = policy.backoff_before(attempt, seed);
    // A server that told us when to come back knows better than our dice.
    if (const auto hint = parse_retry_after(last.detail))
      sleep = std::chrono::duration_cast<std::chrono::microseconds>(*hint);
    if (policy.deadline.count() > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start);
      if (elapsed + sleep >= policy.deadline) return false;
    }
    if (sleep.count() > 0) {
      if (backoff != nullptr) {
        obs::Span span(*backoff);
        std::this_thread::sleep_for(sleep);
      } else {
        std::this_thread::sleep_for(sleep);
      }
    }
    return true;
  }
};

}  // namespace

namespace {

Bytes encode_request(const InstanceRequest& request,
                     std::uint64_t request_id) {
  Envelope env;
  env.command = Command::kGetInstance;
  env.request_id = request_id;
  env.payload = request.serialize();
  return env.serialize();
}

/// Decode + validate one response frame against the request it answers.
InstanceResult decode_response(ByteView raw, std::uint64_t request_id) {
  InstanceResult result;
  try {
    const Envelope env = Envelope::deserialize(raw);
    if (env.command != Command::kGetInstance ||
        env.request_id != request_id) {
      result.status = Status(StatusCode::kInternal,
                             "response does not match request");
      return result;
    }
    const InstanceResponse resp = InstanceResponse::deserialize(env.payload);
    result.status = resp.status;
    result.token = resp.token;
    result.verifier_id = resp.verifier_id;
    result.singleton_sigstruct = resp.singleton_sigstruct;
  } catch (const Error& e) {
    result.status =
        Status(StatusCode::kInternal,
               std::string("undecodable response: ") + e.what());
  }
  return result;
}

}  // namespace

std::chrono::microseconds RetryPolicy::backoff_before(
    std::size_t retry, std::uint64_t seed) const {
  if (retry == 0) retry = 1;
  const std::uint64_t base =
      initial_backoff.count() > 0
          ? static_cast<std::uint64_t>(initial_backoff.count())
          : 0;
  const std::uint64_t cap =
      max_backoff.count() > 0 ? static_cast<std::uint64_t>(max_backoff.count())
                              : base;
  if (base == 0 || cap == 0) return std::chrono::microseconds{0};
  // Saturating exponential window: base << (retry-1), clamped to cap
  // (shift capped at 63 so large retry counts cannot overflow).
  std::uint64_t window = base;
  const std::size_t doublings = retry - 1;
  for (std::size_t i = 0; i < doublings && window < cap; ++i) window <<= 1;
  if (window > cap) window = cap;
  // Full jitter: uniform in [0, window] from the (seed, retry) stream.
  const std::uint64_t draw =
      splitmix(seed ^ splitmix(retry * 0x9e3779b97f4a7c15ull));
  return std::chrono::microseconds{draw % (window + 1)};
}

CasClient::CasClient(net::SimNetwork* net, CasClientConfig config)
    : core_(std::make_shared<Core>()) {
  if (net == nullptr) throw Error("cas client: network required");
  if (config.address.empty()) throw Error("cas client: address required");
  if (config.retry.max_attempts == 0) config.retry.max_attempts = 1;
  core_->net = net;
  core_->config = std::move(config);
  core_->jitter_seed =
      core_->config.retry.jitter_seed != 0
          ? core_->config.retry.jitter_seed
          : splitmix(g_jitter_counter.fetch_add(1, std::memory_order_relaxed));
  {
    MutexLock lock(core_->connection_mutex);
    core_->current = core_->config.address;
  }
}

CasClient::Stats CasClient::stats() const {
  return Stats{core_->breaker_trips.load(std::memory_order_relaxed),
               core_->breaker_fast_fails.load(std::memory_order_relaxed),
               core_->leader_redirects.load(std::memory_order_relaxed)};
}

std::string CasClient::current_address() const {
  MutexLock lock(core_->connection_mutex);
  return core_->current;
}

const CasClientConfig& CasClient::config() const { return core_->config; }

Status CasClient::connect() {
  try {
    auto conn = core_->net->connect(current_address() + ".instance");
    MutexLock lock(core_->connection_mutex);
    core_->connection_cache = std::move(conn);
    return Status();
  } catch (const Error& e) {
    return transport_status(e);
  }
}

InstanceResult CasClient::get_instance(
    const std::string& session_name, const sgx::SigStruct& common_sigstruct) {
  InstanceRequest request;
  request.session_name = session_name;
  request.common_sigstruct = common_sigstruct;

  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_get_instance");
  static obs::Phase& p_attempt =
      obs::Tracer::instance().phase("client_attempt");
  static obs::Phase& p_backoff =
      obs::Tracer::instance().phase("client_backoff");
  RootScope rs(p_root, 0);

  InstanceResult result;
  if (!core_->breaker_allows()) {
    result.status = Status(StatusCode::kUnavailable, breaker_open_detail());
    result.attempts = 0;
    return result;
  }
  RetryPacer pacer{core_->config.retry, core_->jitter_seed};
  for (std::size_t attempt = 1;; ++attempt) {
    const std::uint64_t id =
        core_->next_request_id.fetch_add(1, std::memory_order_relaxed);
    rs.ctx.request_id = id;  // the root carries the last attempt's id
    try {
      obs::Span span(p_attempt);
      result = decode_response(
          core_->connection().call(encode_request(request, id)), id);
    } catch (const Error& e) {
      // Transport failure: the listener may have moved; reconnect (and,
      // in a cluster, probe the next peer) on the next attempt.
      result = InstanceResult{};
      result.status = transport_status(e);
      core_->drop_connection();
      core_->rotate_peer();
    }
    result.attempts = attempt;
    if (result.status.code == StatusCode::kNotLeader) {
      // The follower told us who leads: re-route the next attempt there
      // IMMEDIATELY — no backoff sleep, the answer was not a failure but
      // a forwarding address. A hintless kNotLeader (election still in
      // flight) falls through to paced peer rotation below.
      if (const auto hint = parse_leader_hint(result.status.detail);
          hint.has_value() && attempt < core_->config.retry.max_attempts) {
        core_->redirect_to(*hint);
        core_->breaker_record(false);
        continue;
      }
      if (!core_->config.cluster.empty() &&
          pacer.pace(attempt, result.status, &p_backoff)) {
        core_->rotate_peer();
        core_->breaker_record(false);
        continue;
      }
      core_->breaker_record(false);
      return result;
    }
    const bool retryable = result.status.retryable();
    core_->breaker_record(retryable);
    if (!retryable || !pacer.pace(attempt, result.status, &p_backoff))
      return result;
    if (!core_->breaker_allows()) return result;  // tripped mid-operation
  }
}

IntrospectResponse CasClient::introspect(const IntrospectRequest& request) {
  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_introspect");
  static obs::Phase& p_attempt =
      obs::Tracer::instance().phase("client_attempt");
  RootScope rs(p_root, 0);

  IntrospectResponse result;
  if (!core_->breaker_allows()) {
    result.status = Status(StatusCode::kUnavailable, breaker_open_detail());
    return result;
  }
  RetryPacer pacer{core_->config.retry, core_->jitter_seed};
  for (std::size_t attempt = 1;; ++attempt) {
    const std::uint64_t id =
        core_->next_request_id.fetch_add(1, std::memory_order_relaxed);
    rs.ctx.request_id = id;
    Envelope env;
    env.command = Command::kIntrospect;
    env.request_id = id;
    env.payload = request.serialize();
    try {
      obs::Span span(p_attempt);
      const Bytes raw = core_->connection().call(env.serialize());
      const Envelope reply = Envelope::deserialize(raw);
      if (reply.command != Command::kIntrospect || reply.request_id != id) {
        result = IntrospectResponse{};
        result.status = Status(StatusCode::kInternal,
                               "response does not match request");
      } else {
        result = IntrospectResponse::deserialize(reply.payload);
      }
    } catch (const Error& e) {
      result = IntrospectResponse{};
      result.status = transport_status(e);
      core_->drop_connection();
      // Introspection is a read: ANY replica answers it, so rotation is
      // the whole failover story here (no kNotLeader to parse).
      core_->rotate_peer();
    }
    const bool retryable = result.status.retryable();
    core_->breaker_record(retryable);
    if (!retryable || !pacer.pace(attempt, result.status, nullptr))
      return result;
    if (!core_->breaker_allows()) return result;  // tripped mid-operation
  }
}

void CasClient::get_instance_async(const std::string& session_name,
                                   const sgx::SigStruct& common_sigstruct,
                                   InstanceCallback callback) {
  InstanceRequest request;
  request.session_name = session_name;
  request.common_sigstruct = common_sigstruct;
  const std::uint64_t id =
      core_->next_request_id.fetch_add(1, std::memory_order_relaxed);
  if (!core_->breaker_allows()) {
    // Fail fast inline — the breaker refuses before anything is dispatched,
    // so the callback runs on the caller's thread here.
    InstanceResult result;
    result.status = Status(StatusCode::kUnavailable, breaker_open_detail());
    result.attempts = 0;
    callback(result);
    return;
  }
  const auto deadline_at =
      core_->config.retry.deadline.count() > 0
          ? SteadyClock::now() + core_->config.retry.deadline
          : SteadyClock::time_point::max();
  issue_async(core_, encode_request(request, id), id,
              core_->config.retry.max_attempts, 0, deadline_at,
              std::move(callback));
}

void CasClient::issue_async(std::shared_ptr<Core> core, Bytes wire,
                            std::uint64_t request_id,
                            std::size_t attempts_left,
                            std::size_t attempts_used,
                            SteadyClock::time_point deadline_at,
                            InstanceCallback callback) {
  auto on_complete = [core, wire, request_id, attempts_left, attempts_used,
                      deadline_at, callback = std::move(callback)](
                         Bytes raw, std::exception_ptr error) mutable {
    InstanceResult result;
    if (error != nullptr) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        result.status = transport_status(e);
      } catch (...) {
        result.status = Status(StatusCode::kUnavailable, "transport failure");
      }
      core->drop_connection();
      core->rotate_peer();
    } else {
      result = decode_response(raw, request_id);
    }
    result.attempts = attempts_used + 1;
    if (result.status.code == StatusCode::kNotLeader && attempts_left > 1) {
      // Same immediate re-route as the sync path; the async path never
      // sleeps anyway, so hinted and hintless differ only in target.
      if (const auto hint = parse_leader_hint(result.status.detail))
        core->redirect_to(*hint);
      else
        core->rotate_peer();
      core->breaker_record(false);
      issue_async(core, std::move(wire), request_id, attempts_left - 1,
                  attempts_used + 1, deadline_at, std::move(callback));
      return;
    }
    const bool retryable = result.status.retryable();
    core->breaker_record(retryable);
    if (retryable && attempts_left > 1 && SteadyClock::now() < deadline_at &&
        core->breaker_allows()) {
      // Re-issue inline: no sleeping on the completion thread (it may be
      // the server's timer thread). Open-loop issuers model pacing.
      issue_async(core, std::move(wire), request_id, attempts_left - 1,
                  attempts_used + 1, deadline_at, std::move(callback));
      return;
    }
    callback(result);
  };
  try {
    // Pass a copy: async_call throws only when it cannot dispatch at all,
    // in which case the callback inside was never (and will never be)
    // invoked — the intact original below turns the throw into the same
    // completion path, so retry/delivery logic lives in one place.
    core->connection().async_call(wire, on_complete);
  } catch (const Error& e) {
    core->drop_connection();
    on_complete(Bytes{}, std::make_exception_ptr(e));
  }
}

// --- AttestedChannel --------------------------------------------------------

AttestedChannel::AttestedChannel(net::SimNetwork* net,
                                 std::string cas_address, crypto::Drbg rng)
    : net_(net),
      cas_address_(std::move(cas_address)),
      client_(std::move(rng)) {
  if (net_ == nullptr) throw Error("attested channel: network required");
}

Status AttestedChannel::attest(const crypto::RsaPublicKey& cas_identity,
                               const AttestPayload& payload) {
  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_attest");
  static obs::Phase& p_handshake =
      obs::Tracer::instance().phase("client_handshake");
  const std::uint64_t request_id = next_request_id_++;
  RootScope rs(p_root, request_id);

  std::optional<Bytes> accepted;
  StatusCode rejected = StatusCode::kAttestationRejected;
  try {
    obs::Span span(p_handshake);
    accepted = client_.connect(net_->connect(cas_address_), cas_identity,
                               encode_attest_payload(payload, request_id),
                               &rejected);
  } catch (const net::IdentityMismatchError&) {
    throw;  // an active attack must stay loud, never become a Status
  } catch (const Error& e) {
    return transport_status(e);
  }
  // A rejection may carry a typed protocol-level status (e.g.
  // kUnsupportedVersion from a server that cannot speak our version);
  // verification refusals arrive as the generic kAttestationRejected.
  if (!accepted.has_value()) return Status(rejected);
  return Status();
}

Result<AppConfig> AttestedChannel::get_config() {
  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_get_config");
  static obs::Phase& p_call = obs::Tracer::instance().phase("client_call");
  if (!client_.connected())
    return Status(StatusCode::kSessionNotAttested, "channel not attested");

  Envelope env;
  env.command = Command::kGetConfig;
  env.request_id = next_request_id_++;
  RootScope rs(p_root, env.request_id);

  Bytes plaintext;
  try {
    obs::Span span(p_call);
    plaintext = client_.call(env.serialize());
  } catch (const net::RecordRejectedError& e) {
    return Status(e.code());  // e.g. the server reaped the idle session
  } catch (const Error& e) {
    return transport_status(e);
  }
  try {
    const Envelope reply = Envelope::deserialize(plaintext);
    if (reply.command != Command::kGetConfig ||
        reply.request_id != env.request_id)
      return Status(StatusCode::kInternal,
                    "response does not match request");
    ConfigResponse resp = ConfigResponse::deserialize(reply.payload);
    if (!resp.ok()) return resp.status;
    return std::move(resp.config);
  } catch (const Error& e) {
    return Status(StatusCode::kInternal,
                  std::string("undecodable response: ") + e.what());
  }
}

}  // namespace sinclave::cas
