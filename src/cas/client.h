// CasClient — the one client SDK for the CAS wire API.
//
// Every caller that used to hand-roll `InstanceRequest{...}.serialize()` +
// `net.call(...)` + `deserialize` (starter, impersonator, load generator,
// examples, benchmarks) goes through this instead. The SDK owns:
//
//   * envelope framing (protocol version, command, request ids) and
//     response validation (version/command/id echo),
//   * typed results: every operation yields a Status — no string matching,
//   * one retry rule (CasClient::Core::retry in client.cpp), asked after
//     every attempt of all four operations (the handshake included):
//     full-jitter backoff on retryable statuses (kUnavailable, transport
//     failures); kNotLeader routed to its leader hint at once, else to the
//     next cluster peer after the backoff (delivered when no cluster is
//     configured); typed refusals like kUnsupportedVersion or
//     kBadSignature surfaced immediately,
//   * a sync call path and a completion-token async path
//     (SimNetwork::async_call) for open-loop issuers,
//   * the attested secure-channel flow (AttestedChannel): one kAttest
//     exchange on the same connection, request ids and reply decoding as
//     every other command, a quote bound to the channel key out and the
//     typed config back.
//
// Thread-safe: one CasClient may be shared by many threads; the cached
// connection is re-established under a lock after transport failures.
// Lifetime: the client's state lives behind a shared_ptr Core that every
// async completion holds — destroying a CasClient with requests in flight
// is safe, late completions still deliver (mirroring SimNetwork's
// Connection design).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cas/protocol.h"
#include "common/status.h"
#include "crypto/drbg.h"
#include "net/secure_channel.h"
#include "net/sim_network.h"

namespace sinclave::cas {

struct RetryPolicy {
  /// Total attempts, including the first (1 = never retry).
  std::size_t max_attempts = 3;
  /// Base of the backoff window before the first retry; the window
  /// doubles per further retry (saturating at max_backoff) and the actual
  /// sleep is drawn *full-jitter* — uniform in [0, window] — so a fleet
  /// of clients knocked back by the same brownout does not return as a
  /// synchronized retry storm. A server retry-after hint, when present in
  /// a kUnavailable detail, overrides the drawn sleep. Only the sync
  /// operations sleep; the async path waits 0 (see the retry rule).
  std::chrono::microseconds initial_backoff{200};
  /// Saturation cap for one backoff window.
  std::chrono::microseconds max_backoff{100'000};
  /// Seed of the jitter stream. 0 (the default) auto-derives a distinct
  /// seed per CasClient, so even a fleet constructed with identical
  /// configs de-synchronizes; set nonzero for bit-reproducible sleeps.
  std::uint64_t jitter_seed = 0;
  /// Overall per-operation time budget across attempts AND backoff
  /// sleeps (0 = unlimited). When the remaining budget cannot fit the
  /// next paced wait, the operation returns its last typed failure
  /// instead of burning the rest of max_attempts.
  std::chrono::microseconds deadline{0};
  /// Circuit breaker: this many *consecutive* retryable failures open it
  /// (0 = disabled). While open, operations fail fast — typed
  /// kUnavailable with breaker_open_detail(), zero wire attempts — until
  /// breaker_cooldown elapses and the next operation probes. A retry the
  /// open breaker refuses delivers the operation's last answer.
  std::size_t breaker_threshold = 0;
  std::chrono::microseconds breaker_cooldown{50'000};

  /// The backoff drawn before retry #`retry` (1-based) from jitter stream
  /// `seed`: uniform in [0, min(max_backoff, initial_backoff <<
  /// (retry-1))]. A pure function — tests assert both reproducibility
  /// (same seed => same schedule) and fleet de-synchronization (distinct
  /// seeds => distinct schedules).
  std::chrono::microseconds backoff_before(std::size_t retry,
                                           std::uint64_t seed) const;
};

struct CasClientConfig {
  /// The CAS node's client endpoint, which serves every command.
  std::string address;
  /// Replicated-cluster membership (client endpoints; may include
  /// `address`). When non-empty, transport failures and hintless
  /// kNotLeader answers rotate to the next cluster peer before the paced
  /// retry (sync and async alike; the async wait is 0), so a killed
  /// leader is survived by discovering its successor. Without a cluster a
  /// hintless kNotLeader is delivered. A leader hint (in any command's
  /// answer, kAttest included) is followed either way. See the retry rule.
  std::vector<std::string> cluster{};
  RetryPolicy retry{};
};

/// Outcome of a singleton retrieval. Credential fields are meaningful only
/// when status.ok().
struct InstanceResult {
  Status status{StatusCode::kUnavailable};
  core::AttestationToken token;
  Hash256 verifier_id;
  sgx::SigStruct singleton_sigstruct;
  /// Attempts spent (retries + 1); observability for retry tests. 0 means
  /// the circuit breaker failed the operation fast — nothing touched the
  /// wire.
  std::size_t attempts = 0;

  bool ok() const { return status.ok(); }
};

class CasClient {
 public:
  CasClient(net::SimNetwork* net, CasClientConfig config);

  const CasClientConfig& config() const;

  /// Eagerly (re)open the connection, paying the connect latency now
  /// instead of on the first call. Returns kUnavailable when nothing
  /// listens there.
  Status connect();

  /// Synchronous singleton retrieval, retried per the retry rule
  /// (reconnecting after transport failures, sleeping its paced waits).
  InstanceResult get_instance(const std::string& session_name,
                              const sgx::SigStruct& common_sigstruct);

  /// Fetch the server's observability snapshot — metrics in the requested
  /// format plus recent and slow traces (Command::kIntrospect). Same
  /// attempt loop and retry rule as
  /// get_instance; a pre-introspection server answers kUnknownCommand.
  IntrospectResponse introspect(const IntrospectRequest& request = {});

  /// Completion-token retrieval over SimNetwork::async_call: returns after
  /// dispatch; `callback` runs exactly once, on whatever thread completes
  /// the request — even if this CasClient has been destroyed by then (the
  /// completion keeps the client's shared Core alive). One attempt is in
  /// flight at a time; its completion asks the retry rule with a zero
  /// wait (no sleeping on a completion thread) and sends the next one.
  using InstanceCallback = std::function<void(InstanceResult)>;
  void get_instance_async(const std::string& session_name,
                          const sgx::SigStruct& common_sigstruct,
                          InstanceCallback callback);

  /// Client-side resilience counters. trips = times the breaker opened;
  /// fast_fails = attempts refused while the breaker is open (an
  /// operation's first attempt, or a retry); leader_redirects = attempts
  /// re-routed by a kNotLeader leader hint.
  struct Stats {
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_fast_fails = 0;
    std::uint64_t leader_redirects = 0;
  };
  Stats stats() const;

  /// The base address requests currently target (== config().address
  /// until a leader hint or peer rotation moved it). Failover
  /// observability for tests and benches.
  std::string current_address() const;

 private:
  friend class AttestedChannel;  // attests under the same retry rule
  struct Core;
  std::shared_ptr<Core> core_;
};

/// The attested (secure-channel) flow, typed end to end:
///
///   AttestedChannel ch(&net, CasClientConfig{.address = cas}, rng);
///   // bind ch.dh_public() into the quote's REPORTDATA...
///   Result<AppConfig> cfg = ch.attest(cas_identity, payload);
///
/// The channel key exists before the handshake so the caller can commit to
/// it in a report (net::channel_binding). The config routes the handshake
/// as a CasClient's requests. Not thread-safe (one channel = one logical
/// client).
class AttestedChannel {
 public:
  AttestedChannel(net::SimNetwork* net, CasClientConfig config,
                  crypto::Drbg rng);

  /// The channel's 32-byte X25519 share, to commit into REPORTDATA before
  /// attesting.
  const Bytes& dh_public() const { return client_.dh_public(); }

  /// Run the exchange: a kAttest envelope carrying the channel's record
  /// around `payload`, server identity pinned to `cas_identity`, attempts
  /// decided by the retry rule — each sends the same record (a refusal
  /// changes nothing on either side, so the quote stays bound). The
  /// configuration on acceptance; otherwise the reply's Status, decoded
  /// like every command's: kAttestationRejected when the verifier
  /// refused, a protocol-level code like kUnsupportedVersion or kNotLeader
  /// as sent, kUnavailable on transport failure or shedding, kInternal
  /// when the reply or the opened configuration does not decode or the
  /// reply does not echo the request; throws net::IdentityMismatchError
  /// only when an acceptance is not the pinned verifier's (an active
  /// attack — never mapped to a Status).
  Result<AppConfig> attest(const crypto::Ed25519PublicKey& cas_identity,
                           const AttestPayload& payload);

  CasClient::Stats stats() const { return router_.stats(); }

 private:
  CasClient router_;  // the connection, the retry rule and where it points
  net::SecureClient client_;
};

}  // namespace sinclave::cas
