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

/// Decode + validate one reply frame against the request it answers. A
/// frame that does not echo `command` and `id`, or does not decode, is a
/// typed kInternal — the server answered, so it is never retried as a
/// transport failure.
template <typename Response>
Response decode_reply(ByteView raw, Command command, std::uint64_t id) {
  Response reply;
  try {
    const Envelope env = Envelope::deserialize(raw);
    if (env.command == command && env.request_id == id)
      return Response::deserialize(env.payload);
    reply.status =
        Status(StatusCode::kInternal, "response does not match request");
  } catch (const Error& e) {
    reply.status =
        Status(StatusCode::kInternal,
               std::string("undecodable response: ") + e.what());
  }
  return reply;
}

InstanceResult to_result(InstanceResponse reply, std::size_t attempts) {
  InstanceResult result;
  result.status = std::move(reply.status);
  result.token = reply.token;
  result.verifier_id = reply.verifier_id;
  result.singleton_sigstruct = std::move(reply.singleton_sigstruct);
  result.attempts = attempts;
  return result;
}

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
      connection_cache = net->connect(current);
    return *connection_cache;  // cheap copy; the handle is shareable
  }

  void drop_connection() REQUIRES_NOT(connection_mutex) {
    MutexLock lock(connection_mutex);
    connection_cache.reset();
  }

  /// A transport failure: the listener may have moved, so reconnect on
  /// the next attempt (and, in a cluster, probe the next peer). The
  /// failure becomes a retryable kUnavailable.
  Status transport_failure(const std::exception& e)
      REQUIRES_NOT(connection_mutex) {
    drop_connection();
    rotate_peer();
    return transport_status(e);
  }

  /// Follow a kNotLeader leader hint: retarget and count the redirect.
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

  /// With a cluster configured: advance to the next peer so the next
  /// attempt probes a different node. No-op without a cluster list.
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

  /// False = the breaker is open: the attempt must not touch the wire.
  /// Counts the refusal.
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

  bool retry(const Status& answer, std::size_t attempt,
             SteadyClock::time_point start, bool sleeps);

  /// The synchronous attempt loop behind get_instance, introspect and
  /// AttestedChannel::attest: each attempt sends `payload` as `command`
  /// under a fresh request id (the trace root `rs` carries the last), a
  /// transport failure becoming a retryable kUnavailable, then the retry
  /// rule decides. `attempts` reports the wire attempts made (0 = the
  /// breaker refused the first).
  template <typename Response>
  Response sync_call(Command command, Bytes payload, RootScope& rs,
                     std::size_t& attempts);

  struct AsyncInstance;
  static void send_async(std::shared_ptr<AsyncInstance> op);
};

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
  // Saturating exponential window: base << (retry-1), clamped to cap. The
  // doubling stops once the window reaches cap (itself below 2^63), so no
  // retry count can overflow it.
  std::uint64_t window = base;
  const std::size_t doublings = retry - 1;
  for (std::size_t i = 0; i < doublings && window < cap; ++i) window <<= 1;
  if (window > cap) window = cap;
  // Full jitter: uniform in [0, window] from the (seed, retry) stream.
  const std::uint64_t draw =
      splitmix(seed ^ splitmix(retry * 0x9e3779b97f4a7c15ull));
  return std::chrono::microseconds{draw % (window + 1)};
}

/// The retry rule: the one place CasClient decides what follows an
/// answer. The sync loop (sync_call) asks it after every attempt of
/// get_instance, introspect and AttestedChannel::attest, the async
/// completion (send_async) after every attempt of get_instance_async.
/// True = make the next attempt now (its wait slept, its re-route made);
/// false = deliver `answer`.
///
///   * Before every attempt, ask the breaker. Refused before the first
///     (the operation asks): deliver kUnavailable with
///     breaker_open_detail() and attempts == 0. Refused before a retry
///     (asked last, here): deliver the last answer.
///   * After every answer, breaker_record(answer.retryable()). Out of
///     attempts: deliver.
///   * kNotLeader with a leader hint: redirect_to(hint) and retry at once,
///     with no wait and no deadline check — the answer is a forwarding
///     address, not a failure.
///   * kNotLeader without a hint: with a cluster configured, rotate to the
///     next peer after the paced wait; without one, deliver.
///   * A retryable status (kUnavailable, or a transport failure — see
///     transport_failure): paced retry.
///   * Anything else: deliver.
///   * The paced wait is backoff_before(attempt, jitter_seed), or the
///     server's retry-after hint when there is one. Deliver when elapsed
///     time plus the wait reaches the deadline. On the async path
///     (`sleeps == false`: a completion thread must not sleep) the wait
///     is 0.
bool CasClient::Core::retry(const Status& answer, std::size_t attempt,
                            SteadyClock::time_point start, bool sleeps) {
  static obs::Phase& p_backoff =
      obs::Tracer::instance().phase("client_backoff");
  breaker_record(answer.retryable());
  if (attempt >= config.retry.max_attempts) return false;
  const bool not_leader = answer.code == StatusCode::kNotLeader;
  if (not_leader) {
    if (const auto leader = parse_leader_hint(answer.detail)) {
      redirect_to(*leader);
      return breaker_allows();
    }
    if (config.cluster.empty()) return false;
  } else if (!answer.retryable()) {
    return false;
  }
  std::chrono::microseconds wait{0};
  if (sleeps) {
    wait = config.retry.backoff_before(attempt, jitter_seed);
    // A server that told us when to come back knows better than our dice.
    if (const auto hint = parse_retry_after(answer.detail))
      wait = std::chrono::duration_cast<std::chrono::microseconds>(*hint);
  }
  if (config.retry.deadline.count() > 0 &&
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start) + wait >= config.retry.deadline)
    return false;
  if (wait.count() > 0) {
    obs::Span span(p_backoff);
    std::this_thread::sleep_for(wait);
  }
  if (not_leader) rotate_peer();
  return breaker_allows();
}

template <typename Response>
Response CasClient::Core::sync_call(Command command, Bytes payload,
                                    RootScope& rs, std::size_t& attempts) {
  static obs::Phase& p_attempt =
      obs::Tracer::instance().phase("client_attempt");
  const SteadyClock::time_point start = SteadyClock::now();
  attempts = 0;
  Response answer;
  if (!breaker_allows()) {
    answer.status = Status(StatusCode::kUnavailable, breaker_open_detail());
    return answer;
  }
  Envelope env;
  env.command = command;
  env.payload = std::move(payload);
  do {
    ++attempts;
    answer = Response{};
    env.request_id = next_request_id.fetch_add(1, std::memory_order_relaxed);
    rs.ctx.request_id = env.request_id;  // the root carries the last id
    try {
      obs::Span span(p_attempt);
      answer = decode_reply<Response>(connection().call(env.serialize()),
                                      command, env.request_id);
    } catch (const Error& e) {
      answer.status = transport_failure(e);
    }
  } while (retry(answer.status, attempts, start, /*sleeps=*/true));
  return answer;
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
    auto conn = core_->net->connect(current_address());
    MutexLock lock(core_->connection_mutex);
    core_->connection_cache = std::move(conn);
    return Status();
  } catch (const Error& e) {
    return transport_status(e);
  }
}

InstanceResult CasClient::get_instance(
    const std::string& session_name, const sgx::SigStruct& common_sigstruct) {
  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_get_instance");
  InstanceRequest request;
  request.session_name = session_name;
  request.common_sigstruct = common_sigstruct;
  RootScope rs(p_root, 0);
  std::size_t attempts = 0;
  InstanceResponse reply = core_->sync_call<InstanceResponse>(
      Command::kGetInstance, request.serialize(), rs, attempts);
  return to_result(std::move(reply), attempts);
}

IntrospectResponse CasClient::introspect(const IntrospectRequest& request) {
  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_introspect");
  RootScope rs(p_root, 0);
  std::size_t attempts = 0;
  return core_->sync_call<IntrospectResponse>(
      Command::kIntrospect, request.serialize(), rs, attempts);
}

/// One get_instance_async operation: what its completions carry from one
/// attempt to the next. Exactly one attempt is in flight at a time.
struct CasClient::Core::AsyncInstance {
  std::shared_ptr<Core> core;
  Envelope request;
  InstanceCallback callback;
  SteadyClock::time_point start = SteadyClock::now();
  std::size_t attempts = 0;
};

/// One async attempt under a fresh request id. Its completion asks the
/// retry rule without sleeping (the completion thread may be the server's
/// timer thread) and either sends the next attempt or delivers.
void CasClient::Core::send_async(std::shared_ptr<AsyncInstance> op) {
  Core& core = *op->core;
  const std::uint64_t id =
      core.next_request_id.fetch_add(1, std::memory_order_relaxed);
  op->request.request_id = id;
  ++op->attempts;
  auto on_complete = [op, id](Bytes raw, std::exception_ptr error) {
    InstanceResponse answer;
    if (error == nullptr) {
      answer = decode_reply<InstanceResponse>(raw, Command::kGetInstance, id);
    } else {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        answer.status = op->core->transport_failure(e);
      } catch (...) {
        answer.status =
            op->core->transport_failure(Error("transport failure"));
      }
    }
    if (op->core->retry(answer.status, op->attempts, op->start,
                        /*sleeps=*/false)) {
      send_async(op);
      return;
    }
    op->callback(to_result(std::move(answer), op->attempts));
  };
  try {
    // Pass a copy: async_call throws only when it cannot dispatch at all,
    // in which case the callback inside was never (and will never be)
    // invoked — the intact original below turns the throw into the same
    // completion path.
    core.connection().async_call(op->request.serialize(), on_complete);
  } catch (const Error& e) {
    on_complete(Bytes{}, std::make_exception_ptr(e));
  }
}

void CasClient::get_instance_async(const std::string& session_name,
                                   const sgx::SigStruct& common_sigstruct,
                                   InstanceCallback callback) {
  if (!core_->breaker_allows()) {
    // Refused before anything is dispatched, so the callback runs on the
    // caller's thread here.
    InstanceResult result;
    result.status = Status(StatusCode::kUnavailable, breaker_open_detail());
    callback(std::move(result));
    return;
  }
  InstanceRequest request;
  request.session_name = session_name;
  request.common_sigstruct = common_sigstruct;
  auto op = std::make_shared<Core::AsyncInstance>();
  op->core = core_;
  op->request.command = Command::kGetInstance;
  op->request.payload = request.serialize();
  op->callback = std::move(callback);
  Core::send_async(std::move(op));
}

// --- AttestedChannel --------------------------------------------------------

AttestedChannel::AttestedChannel(net::SimNetwork* net, CasClientConfig config,
                                 crypto::Drbg rng)
    : router_(net, std::move(config)), client_(std::move(rng)) {}

Result<AppConfig> AttestedChannel::attest(
    const crypto::Ed25519PublicKey& cas_identity,
    const AttestPayload& payload) {
  static obs::Phase& p_root =
      obs::Tracer::instance().phase("client_attest");
  const Bytes offered = payload.serialize();
  RootScope rs(p_root, 0);
  std::size_t attempts = 0;
  // Every attempt sends the same record: a refusal changes nothing on
  // either side, so the quote stays bound.
  const AttestResponse reply = router_.core_->sync_call<AttestResponse>(
      Command::kAttest, client_.offer(offered), rs, attempts);
  if (!reply.ok()) return reply.status;
  // Throws IdentityMismatchError unless the pinned verifier answered: an
  // active attack stays loud, never a Status.
  const Bytes answer = client_.finish(cas_identity, offered, reply.acceptance);
  try {
    return AppConfig::deserialize(answer);
  } catch (const Error& e) {
    return Status(StatusCode::kInternal,
                  std::string("undecodable configuration: ") + e.what());
  }
}

}  // namespace sinclave::cas
