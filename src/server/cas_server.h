// Event-driven CAS serving layer: the one frontend for CasService. A
// standalone CAS is a CasServer over a gateless service; a replica
// (server::ClusterNode) is the same server over a service whose
// ReplicationGate commits token transitions through the Raft log.
//
// A singleton retrieval (Fig. 7c) costs an RSA verification of the
// received common SigStruct and an RSA-CRT signature of the on-demand one,
// plus backend I/O. A request is a small state machine that never pins a
// worker while waiting:
//
//     accept (client thread)      — count it under the command its
//                                   envelope header names, raise the
//                                   in-flight gauge, admit or shed,
//                                   enqueue to the worker pool
//     serve  (worker thread)      — deadline check, then the command:
//                                   retrieval (policy lookup -> session
//                                   table: verify-once memo and pooled
//                                   credential | verify, inline sign),
//                                   the attested handshake, or
//                                   introspection
//     stall  (timer wheel)        — the simulated backend-I/O round trip
//                                   parks on net::TimerWheel, freeing the
//                                   worker for the next request
//     respond (timer/worker)      — record latency, drop the gauge, fire
//                                   the network Completion
//
// so 8 workers sustain hundreds of concurrent in-flight requests in the
// latency-bound regime instead of 8. Every command of the one client
// endpoint runs these stages; the attested handshake's sealed answer is
// the configuration, so the server holds nothing per client once it has
// answered. Supporting cast:
//
//   * one session table (server/sigstruct_cache.h) holds, per session,
//     the common SigStruct check_common verified (so a repeat retrieval
//     skips the RSA verification; a new base hash or signer pin misses)
//     and the credentials premint() signed ahead of time under it, popped
//     in the same lookup (so a pooled retrieval skips the RSA-CRT
//     signature and the MRENCLAVE prediction),
//   * metrics (server/metrics.h): atomic counters, the in-flight gauge +
//     high-water mark, and latency histograms with p50/p99.
//
// Security invariants are inherited, not relaxed: every issued token —
// pooled or freshly minted — is armed exactly once through
// CasService::arm_token (the replicated log when a gate is attached), so
// one-time-token and singleton guarantees hold under any interleaving
// (tests/test_server.cpp and tests/test_cluster.cpp race them).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "cas/service.h"
#include "net/sim_network.h"
#include "net/timer_wheel.h"
#include "obs/trace.h"
#include "server/metrics.h"
#include "server/sigstruct_cache.h"
#include "server/thread_pool.h"

namespace sinclave::server {

struct CasServerConfig {
  /// Worker threads draining the request queue.
  std::size_t workers = 4;
  /// Total pre-minted credentials held across sessions (LRU-evicted).
  std::size_t sigstruct_cache_capacity = 4096;
  /// Simulated per-request backend I/O stall (the storage / attestation-
  /// provider round trips a production CAS pays per request). The stall
  /// parks on the timer wheel — it costs latency, never a worker.
  std::chrono::microseconds backend_io{0};
  /// Admission cap on accepted-but-unanswered requests (queued + serving
  /// + stalled), 0 = unbounded. Arrivals beyond it are *shed*: answered
  /// immediately on the accept thread with a typed kUnavailable carrying
  /// a retry-after hint — never queued, never a silent drop, and never a
  /// worker's time.
  std::size_t admission_limit = 0;
  /// The retry-after hint attached to shed responses (clients pace their
  /// next retry by it; see RetryPolicy).
  std::chrono::milliseconds shed_retry_after{5};
  /// Per-request deadline covering the whole server-side life of a
  /// request — queue wait through backend stall (0 = none). A request
  /// whose remaining budget, after queue wait, cannot cover the backend
  /// stall is answered kDeadlineExceeded *before* serving: no credential
  /// is minted for a doomed request, and no timer slot is occupied by
  /// one.
  std::chrono::microseconds request_deadline{0};
};

class CasServer {
 public:
  /// `cas` is borrowed and must outlive the server.
  CasServer(cas::CasService* cas, CasServerConfig config = {});
  ~CasServer();

  CasServer(const CasServer&) = delete;
  CasServer& operator=(const CasServer&) = delete;

  /// Serve the client endpoint at `address` (kGetInstance, kAttest and
  /// kIntrospect); every request runs through the event-driven state
  /// machine above.
  void bind(net::SimNetwork& net, const std::string& address);
  /// Stop accepting new requests and wait for in-flight ones to complete
  /// (idempotent; also runs on destruction).
  void unbind();

  /// Warm the SigStruct pool: verify `common_sigstruct` for `session`
  /// unless the session table remembers it, then mint `n` credentials
  /// into the table. Returns the number actually minted (0 when the
  /// session/sigstruct does not check out).
  std::size_t premint(const std::string& session,
                      const sgx::SigStruct& common_sigstruct, std::size_t n);

  ServerMetrics& metrics() { return metrics_; }
  SigStructCache& sigstruct_cache() { return sigstruct_cache_; }
  net::TimerWheel& timers() { return timer_; }

 private:
  cas::InstanceResponse serve_instance(const cas::InstanceRequest& request);
  /// Verifies `common` against `policy` (signature, signer pin, predicted
  /// common MRENCLAVE) and on success remembers it in the session table.
  /// Returns the typed refusal on rejection.
  Status check_common(const cas::Policy& policy, const sgx::SigStruct& common);
  /// Fold one answered frame's status into the per-command counters.
  void note_frame(CommandMetrics& command, StatusCode answered);

  // --- the request state machine ---
  void accept(Bytes raw, net::SimNetwork::Completion done);
  /// Final stage: record latency, drop the gauge, close the trace (the
  /// respond phase plus the depth-0 root spanning accept→respond — this
  /// runs on whatever thread the timer or worker hands us, so both are
  /// recorded explicitly against `ctx` rather than via TraceScope), and
  /// deliver the response.
  void respond(std::chrono::steady_clock::time_point accepted,
               LatencyHistogram* histogram, Bytes response,
               const net::SimNetwork::Completion& done,
               const obs::TraceContext& ctx, obs::Phase* root,
               std::int64_t accepted_ns);

  /// Credentials signed per mint batch: premint coalesces up to this
  /// many into one CasService::mint_batch call (one common-SigStruct
  /// verification, one RNG critical section, one scratch arena) and
  /// deposits the result under one cache lock.
  static constexpr std::size_t kMintBatch = 8;

  cas::CasService* cas_;
  CasServerConfig config_;
  /// The serve stage's dispatch, one handler per command.
  cas::FrameHandlers handlers_;
  /// This server's collector in cas_->metrics_registry() (unregistered
  /// first thing in the destructor — remove_collector returning guarantees
  /// no snapshot is still inside the callback touching our members).
  std::uint64_t collector_id_ = 0;
  ServerMetrics metrics_;
  SigStructCache sigstruct_cache_;

  net::SimNetwork* net_ = nullptr;
  std::string address_;

  // Declaration order is destruction order in reverse: pool_ (last) is
  // destroyed first, draining worker jobs that may still schedule stalls
  // on timer_ — so the wheel must still be alive, and is. The wheel's
  // destructor then fires any leftover stalls immediately (completions are
  // never lost), and only afterwards do the caches and metrics above go
  // away, which both workers and timer callbacks touch.
  net::TimerWheel timer_;
  ThreadPool pool_;
};

}  // namespace sinclave::server
