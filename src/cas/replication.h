// Replicated CAS log: leader-elected (Raft-style) replication of the two
// state machines that make the singleton guarantee — the policy database
// and the one-time token table — across a small cluster of CAS nodes.
//
// Why the CAS needs consensus at all: a single verifier is a single point
// of failure, but naively running N independent verifiers re-opens the
// token-reuse attack the paper closes — an attacker replays one
// attestation token at two replicas and both release the credential. Here
// every token transition (arming a minted token, spending it at
// attestation) is a log entry: the leader appends it, replicates it, and
// only a MAJORITY-COMMITTED entry is applied — on every node, in the same
// order — before any credential is released. Exactly-once token spend then
// survives leader kill, partition, and rejoin, because "spent" is a fact
// of the replicated log, not of one node's memory.
//
// Shape (hand-rolled, simulator-scale Raft):
//   * leader election with randomized timeouts on an internal TimerWheel;
//   * AppendEntries replication + heartbeats; commit advances only over
//     current-term entries counted at a majority (Raft §5.4.2);
//   * a no-op entry on election win recommits the previous leader's tail;
//   * InstallSnapshot (the CAS export_state blob) for lagging followers
//     once the applied prefix is compacted away;
//   * term / vote / log persisted through the SEALED, monotonic-counter-
//     bound store (cas/persistence.h) BEFORE any message is answered — a
//     restarted node whose host replays a stale blob refuses to start, so
//     a spent token can never roll back to unspent.
//
// Wire: every inter-CAS message rides a protocol-v2 Envelope (commands
// kVoteRequest / kAppendEntries / kInstallSnapshot) on the dedicated
// `<address>.raft` endpoint. The v1 client surface is untouched: the raft
// endpoint answers any other version with kUnsupportedVersion and any
// non-raft command with kUnknownCommand, and client endpoints never decode
// these commands. A follower asked to write answers kNotLeader whose
// detail carries the leader hint CasClient re-routes on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cas/persistence.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/instance_page.h"
#include "crypto/drbg.h"
#include "net/sim_network.h"
#include "net/timer_wheel.h"
#include "sgx/types.h"

namespace sinclave::cas {

/// Protocol version of inter-CAS replication envelopes. Distinct from the
/// client-facing kProtocolVersion (1): replication frames are v2-only, so
/// a v1 peer that strays onto the raft endpoint gets a clean
/// kUnsupportedVersion refusal instead of a half-understood frame.
inline constexpr std::uint16_t kReplicationVersion = 2;

// --- log entries ------------------------------------------------------------

/// What a committed log entry does to the CAS state machine (u8 on the
/// wire; append only).
enum class LogCommand : std::uint8_t {
  /// No state change. Appended by every fresh leader to recommit the
  /// previous term's tail (Raft forbids counting replicas of old-term
  /// entries directly).
  kNoop = 0,
  /// Payload: cas::Policy::serialize() — install/replace a session policy.
  kInstallPolicy = 1,
  /// Payload: TokenCommand — arm a freshly minted one-time token.
  kRegisterToken = 2,
  /// Payload: TokenCommand — spend a token at attestation. The FIRST
  /// committed spend wins cluster-wide; later ones apply to kTokenReused.
  kSpendToken = 3,
};

const char* to_string(LogCommand command);

/// One replicated log entry.
struct LogEntry {
  std::uint64_t term = 0;
  LogCommand command = LogCommand::kNoop;
  /// Proposer-unique id (proposer node id in the top byte, sequence
  /// below): lets a waiting proposer detect that its slot was overwritten
  /// by a different leader's entry after a failover.
  std::uint64_t entry_id = 0;
  Bytes payload;

  Bytes serialize() const;
  static LogEntry deserialize(ByteView data);
};

/// Payload of kRegisterToken / kSpendToken entries.
struct TokenCommand {
  core::AttestationToken token;
  std::string session_name;
  sgx::Measurement mr_enclave;

  Bytes serialize() const;
  static TokenCommand deserialize(ByteView data);
};

// --- messages (v2 envelope payloads) ----------------------------------------

/// Command::kVoteRequest payload.
struct VoteRequestMsg {
  std::uint64_t term = 0;
  std::uint64_t candidate_id = 0;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;

  Bytes serialize() const;
  static VoteRequestMsg deserialize(ByteView data);
};

/// Body of the RaftReply answering kVoteRequest.
struct VoteResponseMsg {
  std::uint64_t term = 0;
  bool granted = false;

  Bytes serialize() const;
  static VoteResponseMsg deserialize(ByteView data);
};

/// Command::kAppendEntries payload (empty `entries` = heartbeat).
struct AppendRequestMsg {
  std::uint64_t term = 0;
  std::uint64_t leader_id = 0;
  std::uint64_t prev_log_index = 0;
  std::uint64_t prev_log_term = 0;
  std::uint64_t leader_commit = 0;
  std::vector<LogEntry> entries;

  Bytes serialize() const;
  static AppendRequestMsg deserialize(ByteView data);
};

/// Body of the RaftReply answering kAppendEntries.
struct AppendResponseMsg {
  std::uint64_t term = 0;
  bool success = false;
  /// On success: highest index known replicated on the follower.
  std::uint64_t match_index = 0;
  /// Always: the follower's last log index — the leader's fast next_index
  /// back-off hint, so catch-up skips the one-per-round probe descent.
  std::uint64_t last_log_index = 0;

  Bytes serialize() const;
  static AppendResponseMsg deserialize(ByteView data);
};

/// Command::kInstallSnapshot payload. `state` is the CAS export_state()
/// blob at `last_included_index` — snapshots travel only between CAS
/// enclaves over the attested-identity simulator fabric here; a production
/// port would seal them to the receiving enclave.
struct SnapshotRequestMsg {
  std::uint64_t term = 0;
  std::uint64_t leader_id = 0;
  std::uint64_t last_included_index = 0;
  std::uint64_t last_included_term = 0;
  Bytes state;

  Bytes serialize() const;
  static SnapshotRequestMsg deserialize(ByteView data);
};

/// Body of the RaftReply answering kInstallSnapshot.
struct SnapshotResponseMsg {
  std::uint64_t term = 0;
  bool ok = false;

  Bytes serialize() const;
  static SnapshotResponseMsg deserialize(ByteView data);
};

/// Payload of every raft response envelope: a typed Status (so the
/// endpoint can refuse malformed/unknown/wrong-version frames in kind)
/// followed by the command-specific response body when status is ok.
struct RaftReply {
  Status status;
  Bytes body;

  Bytes serialize() const;
  static RaftReply deserialize(ByteView data);
};

// --- persistence ------------------------------------------------------------

/// Everything a node must not lose (or roll back) across a restart:
/// Raft's term/vote pair, the log suffix, and the snapshot it hangs off.
/// commit_index is deliberately absent — it is rediscovered from the next
/// leader's commit advance, and re-applying is safe because every apply is
/// idempotent.
struct PersistentState {
  std::uint64_t current_term = 0;
  std::uint64_t voted_for = 0;  // 0 = none (node ids start at 1)
  std::uint64_t base_index = 0;
  std::uint64_t base_term = 0;
  Bytes snapshot;  // CAS export_state at base_index (empty at genesis)
  std::vector<LogEntry> log;  // entries base_index+1 .. base_index+size

  Bytes serialize() const;
  static PersistentState deserialize(ByteView data);
};

/// Sealed backing store for PersistentState: every save() re-seals under
/// the node's seal key, binding and advancing the hardware monotonic
/// counter (cas/persistence.h). load() refuses — UnsealStatus::kRolledBack
/// — any blob bound to a stale counter value, which is what stops the
/// adversarial host from resurrecting a pre-spend token table by replaying
/// an old blob at restart.
///
/// Not internally synchronized: RaftCore calls it under its own mutex;
/// tests touch blob()/set_blob() only while the node is stopped. The
/// MonotonicCounter and the blob both belong to the host (they survive
/// enclave restarts); the seal key does not.
class SealedLogStore {
 public:
  SealedLogStore(Bytes seal_key, MonotonicCounter* counter, crypto::Drbg rng);

  bool empty() const { return blob_.empty(); }
  void save(const PersistentState& state);
  UnsealStatus load(PersistentState* out) const;

  /// The opaque sealed blob, as the untrusted host stores it. Tests use
  /// this to capture a pre-spend blob and replay it after a restart.
  const Bytes& blob() const { return blob_; }
  void set_blob(Bytes blob) { blob_ = std::move(blob); }

 private:
  Bytes seal_key_;
  MonotonicCounter* counter_;
  crypto::Drbg rng_;
  Bytes blob_;
};

// --- the consensus core -----------------------------------------------------

/// One cluster member, by stable id and base network address (the raft
/// endpoint is `<address>.raft`).
struct RaftPeer {
  std::uint64_t id = 0;
  std::string address;
};

struct RaftConfig {
  std::uint64_t node_id = 1;
  /// All cluster members, including this node.
  std::vector<RaftPeer> peers;
  /// Randomized election timeout window (Raft's liveness lever).
  std::chrono::nanoseconds election_timeout_min{std::chrono::milliseconds(40)};
  std::chrono::nanoseconds election_timeout_max{std::chrono::milliseconds(80)};
  std::chrono::nanoseconds heartbeat_interval{std::chrono::milliseconds(10)};
  /// How long propose() waits for majority commit + local apply before
  /// giving up with kUnavailable.
  std::chrono::nanoseconds propose_timeout{std::chrono::seconds(2)};
  /// Compact the applied log prefix into a snapshot beyond this many
  /// retained entries.
  std::size_t snapshot_threshold = 256;
  /// Max log entries per AppendEntries frame.
  std::size_t append_batch = 64;
  /// Seeds the election-timeout DRBG (deterministic tests).
  std::uint64_t seed = 0;
};

/// Point-in-time observability snapshot (cluster_* metrics + tests).
struct RaftStats {
  std::uint64_t term = 0;
  std::uint64_t commit_index = 0;
  std::uint64_t last_applied = 0;
  std::uint64_t base_index = 0;
  std::uint64_t log_entries = 0;  // in-memory suffix length
  std::uint64_t leader_id = 0;    // 0 = unknown
  bool is_leader = false;
  std::uint64_t elections_started = 0;
  std::uint64_t elections_won = 0;
  std::uint64_t heartbeat_rounds = 0;
  std::uint64_t proposals = 0;
  std::uint64_t proposals_failed = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshots_installed = 0;
  /// Leader only: max over followers of (leader last index - match index).
  std::uint64_t max_follower_lag = 0;
};

/// The replication engine. Owns the raft endpoint, the election/heartbeat
/// timers (on its own TimerWheel), and the in-memory log; state-machine
/// effects are delegated to the three callbacks so the core stays free of
/// CAS types.
///
/// Threading: one mutex (LockRank::kClusterRaft) guards all volatile
/// state. The iron rule for the inline-dispatch simulator network is that
/// NO raft RPC is ever sent while that mutex is held — handlers and timer
/// callbacks mutate state and stage outbound messages under the lock,
/// release it, then send (the peer's handler runs inline on this thread
/// and takes its own same-rank mutex). Apply callbacks DO run under the
/// raft mutex; everything they acquire (CAS policy/stripe locks) ranks
/// below it.
class RaftCore {
 public:
  /// Applies a committed entry to the local state machine. Must be
  /// deterministic and idempotent; the returned Status is the proposal
  /// outcome propagated to a propose() waiting on this entry.
  using Applier = std::function<Status(const LogEntry& entry)>;
  /// Captures the full state-machine state at last_applied (compaction).
  using SnapshotTaker = std::function<Bytes()>;
  /// Replaces the full state-machine state (snapshot install / restart).
  using SnapshotInstaller = std::function<void(ByteView state)>;

  RaftCore(net::SimNetwork* net, RaftConfig config, SealedLogStore* store,
           Applier apply, SnapshotTaker take_snapshot,
           SnapshotInstaller install_snapshot);
  ~RaftCore();

  RaftCore(const RaftCore&) = delete;
  RaftCore& operator=(const RaftCore&) = delete;

  /// Load (and verify) persisted state, bind the raft endpoint, arm the
  /// election timer. Throws Error when the persisted blob fails to unseal
  /// or is rolled back — a node with tampered durable state must not
  /// serve.
  void start();
  /// Unbind, cancel timers, fail in-flight proposals with kUnavailable.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Replicate one command. Blocks until the entry is majority-committed
  /// AND applied locally (returning the apply outcome), or fails with
  /// kNotLeader (+ leader hint detail) on a follower, kUnavailable on
  /// timeout / lost leadership / shutdown.
  Status propose(LogCommand command, Bytes payload);

  bool is_leader() const;
  /// True when this node's APPLIED state is authoritative for negative
  /// lookups: it leads AND has applied an entry of its own term (the
  /// election no-op), so every entry committed by earlier leaders —
  /// every token registration in particular — has been applied here.
  /// A fresh leader is NOT ready between winning the election and its
  /// no-op applying; a follower never is (its applied prefix may lag).
  bool ready() const;
  /// Best-known leader address ("" when unknown) — the kNotLeader detail.
  /// It expires after three heartbeat intervals without word from the
  /// leader, well before an election timeout: no hint into a dead leader.
  std::string leader_hint() const;
  RaftStats stats() const;

  /// Raw raft-endpoint entry point (bound to `<address>.raft` by
  /// start()). Exposed for tests: hostile bytes must come back as typed
  /// RaftReply refusals, never crashes.
  Bytes handle_frame(ByteView raw);

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  /// A staged outbound RPC, sent only after the mutex is released.
  struct Outbound {
    std::uint64_t peer_id = 0;
    std::string address;
    std::uint8_t command = 0;  // cas::Command
    Bytes payload;
    /// For kInstallSnapshot: last_included_index, to advance match_index
    /// from the ack (the response body carries no index).
    std::uint64_t snapshot_index = 0;
  };

  struct Waiter {
    std::uint64_t entry_id = 0;
    bool done = false;
    Status outcome;
  };

  std::string raft_address() const { return self_address_ + ".raft"; }

  std::uint64_t last_index_locked() const REQUIRES(mutex_);
  std::uint64_t term_at_locked(std::uint64_t index) const REQUIRES(mutex_);
  std::size_t majority() const { return config_.peers.size() / 2 + 1; }
  std::uint64_t make_entry_id_locked() REQUIRES(mutex_);
  std::string leader_hint_locked() const REQUIRES(mutex_);

  void persist_locked() REQUIRES(mutex_);
  void arm_election_timer_locked() REQUIRES(mutex_);
  void arm_heartbeat_timer_locked() REQUIRES(mutex_);
  void step_down_locked(std::uint64_t term) REQUIRES(mutex_);
  void fail_waiters_locked(const Status& status) REQUIRES(mutex_);
  void become_leader_locked(std::vector<Outbound>* out) REQUIRES(mutex_);
  void maybe_advance_commit_locked() REQUIRES(mutex_);
  void apply_committed_locked() REQUIRES(mutex_);
  void maybe_compact_locked() REQUIRES(mutex_);
  Outbound build_append_locked(const RaftPeer& peer) REQUIRES(mutex_);

  void on_election_timeout();
  void on_heartbeat();
  /// Send staged RPCs (no raft lock held) and process their replies,
  /// which may stage follow-ups (e.g. the first heartbeat round of a
  /// fresh leader) — those are drained in the same call.
  void send_round(std::vector<Outbound> work);
  void process_reply(const Outbound& sent, ByteView raw,
                     std::vector<Outbound>* follow);

  Status handle_vote(const VoteRequestMsg& msg, VoteResponseMsg* out);
  Status handle_append(const AppendRequestMsg& msg, AppendResponseMsg* out);
  Status handle_snapshot(const SnapshotRequestMsg& msg,
                         SnapshotResponseMsg* out);

  net::SimNetwork* net_;
  const RaftConfig config_;
  SealedLogStore* store_;
  Applier apply_;
  SnapshotTaker take_snapshot_;
  SnapshotInstaller install_snapshot_;
  std::string self_address_;

  mutable Mutex mutex_{LockRank::kClusterRaft, "cas.raft"};
  CondVar cv_;

  Role role_ GUARDED_BY(mutex_) = Role::kFollower;
  std::uint64_t current_term_ GUARDED_BY(mutex_) = 0;
  std::uint64_t voted_for_ GUARDED_BY(mutex_) = 0;
  std::uint64_t leader_id_ GUARDED_BY(mutex_) = 0;
  /// Last current-term AppendEntries/InstallSnapshot from leader_id_.
  std::chrono::steady_clock::time_point leader_contact_ GUARDED_BY(mutex_){};
  std::uint64_t base_index_ GUARDED_BY(mutex_) = 0;
  std::uint64_t base_term_ GUARDED_BY(mutex_) = 0;
  Bytes snapshot_ GUARDED_BY(mutex_);
  std::vector<LogEntry> log_ GUARDED_BY(mutex_);
  std::uint64_t commit_index_ GUARDED_BY(mutex_) = 0;
  std::uint64_t last_applied_ GUARDED_BY(mutex_) = 0;
  std::uint64_t entry_seq_ GUARDED_BY(mutex_) = 0;

  // Candidate bookkeeping.
  std::uint64_t vote_term_ GUARDED_BY(mutex_) = 0;
  std::size_t votes_granted_ GUARDED_BY(mutex_) = 0;

  // Leader bookkeeping (keyed by peer id).
  std::map<std::uint64_t, std::uint64_t> next_index_ GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::uint64_t> match_index_ GUARDED_BY(mutex_);

  std::map<std::uint64_t, Waiter> waiters_ GUARDED_BY(mutex_);

  crypto::Drbg rng_ GUARDED_BY(mutex_);
  net::TimerWheel::TimerId election_timer_ GUARDED_BY(mutex_) = 0;
  net::TimerWheel::TimerId heartbeat_timer_ GUARDED_BY(mutex_) = 0;

  bool stopped_ GUARDED_BY(mutex_) = false;
  std::atomic<bool> bound_{false};
  std::atomic<std::uint64_t> next_request_id_{1};

  // Counters (under mutex_ for simplicity; stats() snapshots them).
  std::uint64_t elections_started_ GUARDED_BY(mutex_) = 0;
  std::uint64_t elections_won_ GUARDED_BY(mutex_) = 0;
  std::uint64_t heartbeat_rounds_ GUARDED_BY(mutex_) = 0;
  std::uint64_t proposals_ GUARDED_BY(mutex_) = 0;
  std::uint64_t proposals_failed_ GUARDED_BY(mutex_) = 0;
  std::uint64_t snapshots_taken_ GUARDED_BY(mutex_) = 0;
  std::uint64_t snapshots_installed_ GUARDED_BY(mutex_) = 0;

  /// Declared LAST so it is destroyed FIRST: the wheel destructor joins
  /// its thread (firing pending callbacks, which see stopped_ and
  /// return), so no timer callback can outlive the members above.
  net::TimerWheel wheel_;
};

}  // namespace sinclave::cas
