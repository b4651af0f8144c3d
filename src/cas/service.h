// The Configuration and Attestation Service (CAS) — the trusted verifier.
//
// Mirrors SCONE CAS as the paper uses it, extended with the SinClave
// mechanisms (§4.4):
//
//  * a session-policy table, held decrypted and parsed (at rest, CAS state
//    only ever exists as seal_state(export_state()); see cas/persistence.h),
//  * quote verification through the TEE provider's attestation service,
//  * channel binding (quote REPORTDATA must commit to the client's DH key),
//  * SinClave: one-time token minting, verifier-side expected-MRENCLAVE
//    prediction from the base hash, on-demand SigStruct signing with the
//    enclave signer's key (which is uploaded to — and never leaves — CAS),
//    and singleton enforcement (every token attests at most once).
//
// A state machine with no frontend of its own: server::CasServer is the
// one serving frontend, with or without a ReplicationGate. Thread-safe:
// all entry points may be called concurrently (the frontend dispatches
// them from a worker pool). Each piece of state has one home: policies in
// one table behind a shared_mutex (concurrent readers, exclusive
// installs); one-time tokens in striped buckets (token id -> stripe),
// spent only through apply_spend — what the replicated log applies — so
// attestations of *different* tokens never contend while two racing the
// *same* token serialize in its bucket (the exactly-once-spend invariant
// is per bucket). An attestation keeps nothing: its handshake answer
// carries the configuration of the policy the quote was checked against,
// so no attested binding outlives the exchange. Token minting draws from
// a striped DRBG pool (no global RNG lock on the hot path).
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cas/protocol.h"
#include "common/mutex.h"
#include "core/base_hash.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rsa.h"
#include "net/secure_channel.h"
#include "obs/registry.h"
#include "quote/attestation_service.h"

namespace sinclave::cas {

/// Per-session verification policy.
struct Policy {
  std::string session_name;
  /// MRSIGNER pin: which signer's enclaves may attest for this session.
  Hash256 expected_signer;
  /// SinClave mode: enforce singleton enclaves for this session.
  bool require_singleton = false;
  /// Permit debug-attribute enclaves (insecure; off by default).
  bool allow_debug = false;
  /// Baseline mode: the pinned common MRENCLAVE.
  std::optional<sgx::Measurement> expected_mr_enclave;
  /// SinClave mode: the base hash used to predict singleton measurements.
  std::optional<core::BaseHash> base_hash;
  /// Delivered to the enclave after successful attestation.
  AppConfig config;

  Bytes serialize() const;
  static Policy deserialize(ByteView data);
};

/// A freshly predicted-and-signed singleton credential: the token, the
/// MRENCLAVE an enclave carrying that token will measure to, and the
/// on-demand SigStruct for it. Inert until its token is armed with
/// arm_token() — which is what makes it spendable, exactly once.
struct MintedCredential {
  core::AttestationToken token;
  sgx::Measurement mr_enclave;
  sgx::SigStruct sigstruct;
};

/// Replication interposition point (server::ClusterNode implements this
/// over cas::RaftCore). When a gate is attached, the two one-time-token
/// state transitions — arming a freshly minted token and spending it at
/// attestation — are committed through the replicated log instead of
/// mutating only this node's stripes: the gate proposes the transition,
/// blocks until a cluster majority has committed it, and every node
/// (including this one) then applies it via register_token / apply_spend
/// in identical log order. All gate calls are made with NO CasService
/// lock held.
class ReplicationGate {
 public:
  virtual ~ReplicationGate() = default;
  /// Replicate the arming of a minted token. Ok only once committed
  /// cluster-wide; kNotLeader (with leader hint) when this node cannot
  /// commit writes; kUnavailable when no majority answers in time.
  virtual Status register_token(const core::AttestationToken& token,
                                const std::string& session_name,
                                const sgx::Measurement& expected_mr) = 0;
  /// Replicate a token spend. Ok iff THIS proposal is the first committed
  /// spend of the token cluster-wide; kTokenReused when a concurrent
  /// spend won the log race; kTokenUnknown / kAttestationRejected
  /// mirroring the local apply outcomes; kNotLeader / kUnavailable for
  /// routing and liveness failures.
  virtual Status spend_token(const core::AttestationToken& token,
                             const std::string& session_name,
                             const sgx::Measurement& mr_enclave) = 0;
  /// True when this replica's APPLIED state is authoritative for
  /// negative token lookups (a caught-up leader). A lagging replica can
  /// answer "token unknown" for a token whose registration is committed
  /// but not yet applied here — the serving path must then commit the
  /// spend through the log (which serializes after every registration)
  /// instead of trusting the local miss. Defaults to true: a gateless /
  /// single-authority deployment is always authoritative.
  virtual bool ready() const { return true; }
  /// Ok when this node may issue credentials (write the log); otherwise
  /// the typed refusal — kNotLeader with the leader hint, or kUnavailable
  /// for a stopped node. Asked before any pool pop or mint, so a follower
  /// refuses without signing anything. Defaults to ok (single authority).
  virtual Status accepts_writes() const { return Status(); }
};

class CasService {
 public:
  CasService(quote::AttestationService* attestation,
             crypto::Ed25519KeyPair identity, crypto::Drbg rng);

  /// The attested channel's Ed25519 server identity.
  const crypto::Ed25519PublicKey& identity() const {
    return identity_.public_key();
  }
  /// SHA-256 of the identity's 32-byte public key — what instance pages
  /// embed. Hashed once, at construction.
  const Hash256& verifier_id() const { return verifier_id_; }

  /// Upload an enclave signer's key pair (required for on-demand SigStruct
  /// creation for that signer's enclaves).
  void add_signer_key(crypto::RsaKeyPair signer);
  bool has_signer_key(const Hash256& signer_id) const;

  /// Install (or replace) a session policy.
  void install_policy(const Policy& policy);

  /// The installed policy for `session_name`, if any.
  std::optional<Policy> get_policy(const std::string& session_name) const;

  /// Shared precondition checks for singleton retrieval: returns the
  /// typed refusal, or nullopt when the policy is retrieval-ready.
  std::optional<StatusCode> check_retrieval_preconditions(
      const Policy& policy) const;

  /// The attested exchange (Command::kAttest): the secure channel answers
  /// the handshake `record` with its acceptance, or the refusal as the
  /// Status. The caller owns the trace: it opens a TraceScope (and records
  /// the root) around the call.
  AttestResponse handle_attest(ByteView record);

  /// Predict + sign a fresh singleton credential for `policy` against the
  /// given verified common SigStruct. Pure minting: the token is NOT yet
  /// registered and cannot attest. `policy` must be singleton-configured
  /// and its signer key uploaded; throws Error otherwise. Thread-safe —
  /// this is what pre-minting workers call concurrently. Records a
  /// `predict` and a `sign` span per credential inside its `mint` span.
  MintedCredential mint_credential(const Policy& policy,
                                   const sgx::SigStruct& common_sigstruct);

  /// Batch mint: `count` credentials with the per-batch costs paid once —
  /// one signer lookup, one common-SigStruct RSA verification, one RNG
  /// critical section, and one Montgomery scratch arena shared across all
  /// `count` signatures. This is how the serving layer fills its pool
  /// (server::CasServer::premint coalesces credentials into batches). Same
  /// preconditions as mint_credential.
  std::vector<MintedCredential> mint_batch(
      const Policy& policy, const sgx::SigStruct& common_sigstruct,
      std::size_t count);

  /// Arm a minted credential's one-time token for `session_name` — the
  /// only way a token becomes spendable. With a replication gate attached
  /// the arming is a log entry: ok only once a majority committed it and
  /// this node applied it (so no credential is released that a failover
  /// could forget); otherwise the token is registered locally.
  Status arm_token(const core::AttestationToken& token,
                   const std::string& session_name,
                   const sgx::Measurement& expected_mr);

  /// The gate's accepts_writes() verdict (ok without a gate).
  Status accepts_writes() const;

  /// Local apply of an arming: register the one-time token for
  /// `session_name` with the expected singleton measurement. Idempotent
  /// (re-registering an armed token is a no-op) — the replicated log may
  /// apply the same entry again after a restart.
  void register_token(const core::AttestationToken& token,
                      const std::string& session_name,
                      const sgx::Measurement& expected_mr);

  /// Attach (or detach, nullptr) the replication gate. Not owned; must
  /// outlive serving. With a gate attached, arm_token and the attested
  /// handshake commit token transitions through it (see ReplicationGate).
  void set_replication_gate(ReplicationGate* gate);

  /// Read-only spend precheck for the gated handshake path: the typed
  /// refusal apply_spend would answer right now, or ok when the token
  /// looks spendable. Purely advisory — the authoritative spend is the
  /// replicated apply — but it keeps doomed proposals out of the log.
  Status peek_spend(const core::AttestationToken& token,
                    const std::string& session_name,
                    const sgx::Measurement& mr_enclave) const;

  /// Spend a one-time token — the one spend path: the replicated log
  /// applies committed spends through it on every node, and a gateless
  /// service spends through it directly. Deterministic and idempotent: the
  /// FIRST application spends the token (ok); any later one answers
  /// kTokenReused; a token this node never armed answers kTokenUnknown;
  /// a measurement mismatch answers kAttestationRejected without
  /// spending. Every node applies the same entries in the same order, so
  /// all outcomes agree cluster-wide.
  Status apply_spend(const core::AttestationToken& token,
                     const std::string& session_name,
                     const sgx::Measurement& mr_enclave);

  /// Verdict of the most recent attestation attempt (test observability).
  Verdict last_attest_verdict() const;

  std::size_t tokens_outstanding() const;
  std::size_t tokens_used() const;

  /// Serialize the full mutable state — policies and the token database —
  /// for sealing across restarts (cas/persistence.h). Losing or rolling
  /// back the token database would reinstate the reuse attack, so this
  /// state must only ever be persisted through seal_state().
  Bytes export_state() const;
  /// Replace policies and token database from a previously exported state.
  void import_state(ByteView state);

  /// The attested exchange's counters (accepted and rejected handshakes,
  /// handshakes in flight and their high water, DRBG-stripe collisions).
  net::SecureServer::Stats secure_channel_stats() const;

  /// The unified metrics registry every layer's collectors plug into:
  /// CasService registers its own collector (tokens, the channel_*
  /// secure-channel counters) at construction, and the serving frontend
  /// (server::CasServer) adds its own on top. Snapshots are cold;
  /// nothing on the record path touches this.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  /// Observability introspection (Command::kIntrospect): registry
  /// snapshot in the requested format plus recent/slow traces from the
  /// process-wide tracer.
  IntrospectResponse handle_introspect(const IntrospectRequest& request);

 private:
  /// The handshake hook: verify, spend, and answer with the policy's
  /// configuration, or the refusal.
  Result<Bytes> on_handshake(ByteView client_payload, ByteView client_dh);

  struct PendingToken {
    std::string session_name;
    sgx::Measurement expected_mr;
    bool used = false;
  };
  /// The one spend check, shared by peek_spend and apply_spend: the typed
  /// refusal a spend of `pending` (nullptr: the token is unknown) earns,
  /// or ok.
  static Status check_spend(const PendingToken* pending,
                            const std::string& session_name,
                            const sgx::Measurement& mr_enclave);

  /// One shard of the token-spend store. Lookup, one-time check,
  /// measurement check, and spend of a token all happen inside its
  /// stripe's critical section — the exactly-once-spend invariant is per
  /// stripe, and tokens (uniform random 32 bytes) spread evenly.
  struct TokenStripe {
    mutable Mutex m{LockRank::kCasTokenStripe, "cas.token_stripe"};
    std::map<core::AttestationToken, PendingToken> tokens GUARDED_BY(m);
    std::size_t used GUARDED_BY(m) = 0;  // spent tokens (avoids scans)
  };
  static constexpr std::size_t kTokenStripes = 16;
  TokenStripe& token_stripe(const core::AttestationToken& token);
  const TokenStripe& token_stripe(const core::AttestationToken& token) const;

  quote::AttestationService* attestation_;
  crypto::Ed25519KeyPair identity_;
  const Hash256 verifier_id_;

  // Cold paths only (setup forks); token minting uses token_rng_ below.
  mutable Mutex rng_mutex_{LockRank::kCasRng, "cas.rng"};
  mutable crypto::Drbg rng_ GUARDED_BY(rng_mutex_);
  // Hot-path randomness (token minting): striped children of rng_, no
  // global lock.
  mutable crypto::DrbgPool token_rng_;

  // Read-mostly policy table: concurrent get_policy readers share the
  // lock; install_policy is exclusive.
  mutable SharedMutex db_mutex_{LockRank::kCasPolicyDb, "cas.policy_db"};
  std::map<std::string, Policy> policies_ GUARDED_BY(db_mutex_);

  // Map nodes are pointer-stable, so signing borrows a key reference
  // after releasing the lock (kCasSigner outranks kCryptoRsaCtx: inserts
  // move an RsaKeyPair — and its context locks — under signer_mutex_).
  mutable Mutex signer_mutex_{LockRank::kCasSigner, "cas.signer_keys"};
  std::map<Hash256, crypto::RsaKeyPair> signer_keys_
      GUARDED_BY(signer_mutex_);

  std::array<TokenStripe, kTokenStripes> token_stripes_;

  net::SecureServer secure_server_;

  /// Attach/detach races with serving threads, hence atomic.
  std::atomic<ReplicationGate*> replication_gate_{nullptr};

  mutable Mutex observe_mutex_{LockRank::kCasObserve, "cas.observe"};
  Verdict last_attest_verdict_ GUARDED_BY(observe_mutex_) = Verdict::kOk;

  obs::MetricsRegistry registry_;
};

}  // namespace sinclave::cas
