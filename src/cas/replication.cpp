#include "cas/replication.h"

#include <algorithm>
#include <utility>

#include "cas/protocol.h"
#include "common/error.h"
#include "common/serial.h"

namespace sinclave::cas {

namespace {

std::uint64_t u64_from_drbg(crypto::Drbg& rng) {
  const Bytes r = rng.generate(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(r[i]) << (8 * i);
  }
  return v;
}

void write_log_entry(ByteWriter& w, const LogEntry& e) {
  w.u64(e.term);
  w.u8(static_cast<std::uint8_t>(e.command));
  w.u64(e.entry_id);
  w.bytes(e.payload);
}

LogEntry read_log_entry(ByteReader& r) {
  LogEntry e;
  e.term = r.u64();
  const std::uint8_t cmd = r.u8();
  if (cmd > static_cast<std::uint8_t>(LogCommand::kSpendToken)) {
    throw ParseError("raft log entry: unknown command");
  }
  e.command = static_cast<LogCommand>(cmd);
  e.entry_id = r.u64();
  e.payload = r.bytes();
  return e;
}

/// Minimum wire size of one LogEntry (u64 + u8 + u64 + empty bytes):
/// ByteReader::count's forgery bound for entry sequences.
constexpr std::size_t kLogEntryMinBytes = 8 + 1 + 8 + 4;

}  // namespace

const char* to_string(LogCommand command) {
  switch (command) {
    case LogCommand::kNoop:
      return "noop";
    case LogCommand::kInstallPolicy:
      return "install-policy";
    case LogCommand::kRegisterToken:
      return "register-token";
    case LogCommand::kSpendToken:
      return "spend-token";
  }
  return "unknown";
}

// --- codecs -----------------------------------------------------------------

Bytes LogEntry::serialize() const {
  ByteWriter w;
  write_log_entry(w, *this);
  return std::move(w).take();
}

LogEntry LogEntry::deserialize(ByteView data) {
  ByteReader r(data);
  LogEntry e = read_log_entry(r);
  r.expect_done();
  return e;
}

Bytes TokenCommand::serialize() const {
  ByteWriter w;
  w.raw(token.view());
  w.str(session_name);
  w.raw(mr_enclave.view());
  return std::move(w).take();
}

TokenCommand TokenCommand::deserialize(ByteView data) {
  ByteReader r(data);
  TokenCommand c;
  c.token = r.fixed<32>();
  c.session_name = r.str();
  c.mr_enclave = r.fixed<32>();
  r.expect_done();
  return c;
}

Bytes VoteRequestMsg::serialize() const {
  ByteWriter w;
  w.u64(term);
  w.u64(candidate_id);
  w.u64(last_log_index);
  w.u64(last_log_term);
  return std::move(w).take();
}

VoteRequestMsg VoteRequestMsg::deserialize(ByteView data) {
  ByteReader r(data);
  VoteRequestMsg m;
  m.term = r.u64();
  m.candidate_id = r.u64();
  m.last_log_index = r.u64();
  m.last_log_term = r.u64();
  r.expect_done();
  return m;
}

Bytes VoteResponseMsg::serialize() const {
  ByteWriter w;
  w.u64(term);
  w.u8(granted ? 1 : 0);
  return std::move(w).take();
}

VoteResponseMsg VoteResponseMsg::deserialize(ByteView data) {
  ByteReader r(data);
  VoteResponseMsg m;
  m.term = r.u64();
  const std::uint8_t g = r.u8();
  if (g > 1) throw ParseError("vote response: bad granted flag");
  m.granted = g == 1;
  r.expect_done();
  return m;
}

Bytes AppendRequestMsg::serialize() const {
  ByteWriter w;
  w.u64(term);
  w.u64(leader_id);
  w.u64(prev_log_index);
  w.u64(prev_log_term);
  w.u64(leader_commit);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const LogEntry& e : entries) write_log_entry(w, e);
  return std::move(w).take();
}

AppendRequestMsg AppendRequestMsg::deserialize(ByteView data) {
  ByteReader r(data);
  AppendRequestMsg m;
  m.term = r.u64();
  m.leader_id = r.u64();
  m.prev_log_index = r.u64();
  m.prev_log_term = r.u64();
  m.leader_commit = r.u64();
  const std::uint32_t n = r.count(kLogEntryMinBytes);
  m.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.entries.push_back(read_log_entry(r));
  r.expect_done();
  return m;
}

Bytes AppendResponseMsg::serialize() const {
  ByteWriter w;
  w.u64(term);
  w.u8(success ? 1 : 0);
  w.u64(match_index);
  w.u64(last_log_index);
  return std::move(w).take();
}

AppendResponseMsg AppendResponseMsg::deserialize(ByteView data) {
  ByteReader r(data);
  AppendResponseMsg m;
  m.term = r.u64();
  const std::uint8_t s = r.u8();
  if (s > 1) throw ParseError("append response: bad success flag");
  m.success = s == 1;
  m.match_index = r.u64();
  m.last_log_index = r.u64();
  r.expect_done();
  return m;
}

Bytes SnapshotRequestMsg::serialize() const {
  ByteWriter w;
  w.u64(term);
  w.u64(leader_id);
  w.u64(last_included_index);
  w.u64(last_included_term);
  w.bytes(state);
  return std::move(w).take();
}

SnapshotRequestMsg SnapshotRequestMsg::deserialize(ByteView data) {
  ByteReader r(data);
  SnapshotRequestMsg m;
  m.term = r.u64();
  m.leader_id = r.u64();
  m.last_included_index = r.u64();
  m.last_included_term = r.u64();
  m.state = r.bytes();
  r.expect_done();
  return m;
}

Bytes SnapshotResponseMsg::serialize() const {
  ByteWriter w;
  w.u64(term);
  w.u8(ok ? 1 : 0);
  return std::move(w).take();
}

SnapshotResponseMsg SnapshotResponseMsg::deserialize(ByteView data) {
  ByteReader r(data);
  SnapshotResponseMsg m;
  m.term = r.u64();
  const std::uint8_t o = r.u8();
  if (o > 1) throw ParseError("snapshot response: bad ok flag");
  m.ok = o == 1;
  r.expect_done();
  return m;
}

Bytes RaftReply::serialize() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status.code));
  w.str(status.detail);
  w.bytes(body);
  return std::move(w).take();
}

RaftReply RaftReply::deserialize(ByteView data) {
  ByteReader r(data);
  RaftReply rep;
  rep.status.code = status_code_from_wire(r.u8());
  rep.status.detail = r.str();
  rep.body = r.bytes();
  r.expect_done();
  return rep;
}

Bytes PersistentState::serialize() const {
  ByteWriter w;
  w.u64(current_term);
  w.u64(voted_for);
  w.u64(base_index);
  w.u64(base_term);
  w.bytes(snapshot);
  w.u32(static_cast<std::uint32_t>(log.size()));
  for (const LogEntry& e : log) write_log_entry(w, e);
  return std::move(w).take();
}

PersistentState PersistentState::deserialize(ByteView data) {
  ByteReader r(data);
  PersistentState st;
  st.current_term = r.u64();
  st.voted_for = r.u64();
  st.base_index = r.u64();
  st.base_term = r.u64();
  st.snapshot = r.bytes();
  const std::uint32_t n = r.count(kLogEntryMinBytes);
  st.log.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) st.log.push_back(read_log_entry(r));
  r.expect_done();
  return st;
}

// --- SealedLogStore ---------------------------------------------------------

SealedLogStore::SealedLogStore(Bytes seal_key, MonotonicCounter* counter,
                               crypto::Drbg rng)
    : seal_key_(std::move(seal_key)), counter_(counter), rng_(std::move(rng)) {}

void SealedLogStore::save(const PersistentState& state) {
  blob_ = seal_state(seal_key_, *counter_, state.serialize(), rng_);
}

UnsealStatus SealedLogStore::load(PersistentState* out) const {
  Bytes plain;
  const UnsealStatus s = unseal_state(seal_key_, *counter_, blob_, plain);
  if (s != UnsealStatus::kOk) return s;
  try {
    *out = PersistentState::deserialize(plain);
  } catch (const ParseError&) {
    return UnsealStatus::kMalformed;
  }
  return UnsealStatus::kOk;
}

// --- RaftCore ---------------------------------------------------------------

RaftCore::RaftCore(net::SimNetwork* net, RaftConfig config,
                   SealedLogStore* store, Applier apply,
                   SnapshotTaker take_snapshot,
                   SnapshotInstaller install_snapshot)
    : net_(net),
      config_(std::move(config)),
      store_(store),
      apply_(std::move(apply)),
      take_snapshot_(std::move(take_snapshot)),
      install_snapshot_(std::move(install_snapshot)),
      rng_(crypto::Drbg::from_seed(config_.seed ^ config_.node_id,
                                   "raft-election")) {
  for (const RaftPeer& p : config_.peers) {
    if (p.id == config_.node_id) self_address_ = p.address;
  }
  if (self_address_.empty()) {
    throw Error("raft: node_id missing from peer list");
  }
}

RaftCore::~RaftCore() { stop(); }

void RaftCore::start() {
  {
    MutexLock lock(mutex_);
    if (stopped_) throw Error("raft: start after stop");
    if (!store_->empty()) {
      PersistentState st;
      const UnsealStatus s = store_->load(&st);
      if (s != UnsealStatus::kOk) {
        throw Error(std::string("raft: refusing persisted state: ") +
                    to_string(s));
      }
      current_term_ = st.current_term;
      voted_for_ = st.voted_for;
      base_index_ = st.base_index;
      base_term_ = st.base_term;
      snapshot_ = std::move(st.snapshot);
      log_ = std::move(st.log);
      // commit_index is rediscovered from the next leader; re-applying
      // from the snapshot point is safe because every apply is idempotent.
      commit_index_ = base_index_;
      last_applied_ = base_index_;
      if (!snapshot_.empty()) install_snapshot_(snapshot_);
    }
    arm_election_timer_locked();
  }
  net_->listen(raft_address(), [this](ByteView raw) { return handle_frame(raw); });
  bound_.store(true, std::memory_order_release);
}

void RaftCore::stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    fail_waiters_locked(Status(StatusCode::kUnavailable, "raft: node stopping"));
    wheel_.cancel(election_timer_);
    wheel_.cancel(heartbeat_timer_);
  }
  if (bound_.exchange(false, std::memory_order_acq_rel)) {
    net_->shutdown(raft_address());
  }
}

bool RaftCore::is_leader() const {
  MutexLock lock(mutex_);
  return role_ == Role::kLeader;
}

bool RaftCore::ready() const {
  MutexLock lock(mutex_);
  // Applied an entry of the current term <=> the election no-op (or a
  // later proposal) is in the applied prefix, and log order puts every
  // previously committed entry before it.
  return role_ == Role::kLeader && last_applied_ > 0 &&
         term_at_locked(last_applied_) == current_term_;
}

std::string RaftCore::leader_hint() const {
  MutexLock lock(mutex_);
  return leader_hint_locked();
}

std::string RaftCore::leader_hint_locked() const {
  if (leader_id_ == 0) return "";
  constexpr int kHintHeartbeats = 3;
  if (role_ != Role::kLeader &&
      std::chrono::steady_clock::now() - leader_contact_ >
          kHintHeartbeats * kRaftHeartbeatInterval)
    return "";
  for (const RaftPeer& p : config_.peers) {
    if (p.id == leader_id_) return p.address;
  }
  return "";
}

RaftStats RaftCore::stats() const {
  MutexLock lock(mutex_);
  RaftStats s;
  s.term = current_term_;
  s.commit_index = commit_index_;
  s.last_applied = last_applied_;
  s.base_index = base_index_;
  s.log_entries = log_.size();
  s.leader_id = leader_id_;
  s.is_leader = role_ == Role::kLeader;
  s.elections_started = elections_started_;
  s.elections_won = elections_won_;
  s.heartbeat_rounds = heartbeat_rounds_;
  s.proposals = proposals_;
  s.proposals_failed = proposals_failed_;
  s.snapshots_taken = snapshots_taken_;
  s.snapshots_installed = snapshots_installed_;
  if (s.is_leader) {
    const std::uint64_t last = last_index_locked();
    for (const auto& [peer, match] : match_index_) {
      (void)peer;
      s.max_follower_lag = std::max(s.max_follower_lag, last - match);
    }
  }
  return s;
}

// --- small helpers ----------------------------------------------------------

std::uint64_t RaftCore::last_index_locked() const {
  return base_index_ + log_.size();
}

std::uint64_t RaftCore::term_at_locked(std::uint64_t index) const {
  if (index == 0) return 0;
  if (index == base_index_) return base_term_;
  return log_.at(index - base_index_ - 1).term;
}

std::uint64_t RaftCore::make_entry_id_locked() {
  return (config_.node_id << 56) | ++entry_seq_;
}

void RaftCore::persist_locked() { store_->save(PersistentState{
    current_term_, voted_for_, base_index_, base_term_, snapshot_, log_}); }

void RaftCore::arm_election_timer_locked() {
  wheel_.cancel(election_timer_);
  std::chrono::nanoseconds delay = kRaftElectionTimeoutMin;
  constexpr auto span = kRaftElectionTimeoutMax - kRaftElectionTimeoutMin;
  static_assert(span.count() > 0);
  delay += std::chrono::nanoseconds(
      u64_from_drbg(rng_) % static_cast<std::uint64_t>(span.count()));
  try {
    election_timer_ =
        wheel_.schedule_after(delay, [this] { on_election_timeout(); });
  } catch (const Error&) {
    // Wheel shutting down (destructor racing a late reschedule): fine,
    // stopped_ is (or is about to be) set.
  }
}

void RaftCore::arm_heartbeat_timer_locked() {
  try {
    heartbeat_timer_ = wheel_.schedule_after(kRaftHeartbeatInterval,
                                             [this] { on_heartbeat(); });
  } catch (const Error&) {
  }
}

void RaftCore::step_down_locked(std::uint64_t term) {
  current_term_ = term;
  voted_for_ = 0;
  leader_id_ = 0;
  role_ = Role::kFollower;
  // Entries this node proposed as leader may still commit under the new
  // leader, but the waiters can no longer learn their apply outcome —
  // fail them kUnavailable; the client-visible semantics are the same as
  // a reply lost mid-handshake (retry surfaces kTokenReused if the spend
  // did land).
  fail_waiters_locked(Status(StatusCode::kUnavailable, "raft: lost leadership"));
}

void RaftCore::fail_waiters_locked(const Status& status) {
  bool woke = false;
  for (auto& [index, w] : waiters_) {
    (void)index;
    if (!w.done) {
      w.done = true;
      w.outcome = status;
      woke = true;
    }
  }
  if (woke) cv_.notify_all();
}

void RaftCore::become_leader_locked(std::vector<Outbound>* out) {
  role_ = Role::kLeader;
  leader_id_ = config_.node_id;
  ++elections_won_;
  next_index_.clear();
  match_index_.clear();
  for (const RaftPeer& p : config_.peers) {
    if (p.id == config_.node_id) continue;
    next_index_[p.id] = last_index_locked() + 1;
    match_index_[p.id] = 0;
  }
  // A no-op in the new term: committing it recommits every earlier entry
  // (Raft never counts replicas of old-term entries directly).
  log_.push_back(LogEntry{current_term_, LogCommand::kNoop,
                          make_entry_id_locked(), Bytes{}});
  persist_locked();
  maybe_advance_commit_locked();
  apply_committed_locked();
  for (const RaftPeer& p : config_.peers) {
    if (p.id == config_.node_id) continue;
    out->push_back(build_append_locked(p));
  }
  arm_heartbeat_timer_locked();
}

void RaftCore::maybe_advance_commit_locked() {
  if (role_ != Role::kLeader) return;
  std::vector<std::uint64_t> matches;
  matches.reserve(config_.peers.size());
  matches.push_back(last_index_locked());  // self
  for (const auto& [peer, match] : match_index_) {
    (void)peer;
    matches.push_back(match);
  }
  std::sort(matches.begin(), matches.end(), std::greater<>());
  const std::uint64_t candidate = matches[majority() - 1];
  if (candidate <= commit_index_ || candidate < base_index_) return;
  if (term_at_locked(candidate) != current_term_) return;
  commit_index_ = candidate;
}

void RaftCore::apply_committed_locked() {
  bool applied = false;
  while (last_applied_ < commit_index_) {
    const LogEntry& e = log_.at(last_applied_ - base_index_);
    ++last_applied_;
    Status outcome;
    if (e.command != LogCommand::kNoop) {
      try {
        outcome = apply_(e);
      } catch (const std::exception& ex) {
        // A malformed committed payload fails deterministically on every
        // node (same bytes, same parse), so state stays converged.
        outcome = Status(StatusCode::kInternal,
                         std::string("raft apply: ") + ex.what());
      }
    }
    auto it = waiters_.find(last_applied_);
    if (it != waiters_.end() && !it->second.done) {
      it->second.done = true;
      it->second.outcome =
          it->second.entry_id == e.entry_id
              ? outcome
              : Status(StatusCode::kUnavailable, "raft: entry overwritten");
    }
    applied = true;
  }
  if (applied) cv_.notify_all();
  maybe_compact_locked();
}

void RaftCore::maybe_compact_locked() {
  if (last_applied_ - base_index_ < kRaftSnapshotThreshold) return;
  snapshot_ = take_snapshot_();
  base_term_ = term_at_locked(last_applied_);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(last_applied_ -
                                                        base_index_));
  base_index_ = last_applied_;
  persist_locked();
  ++snapshots_taken_;
}

RaftCore::Outbound RaftCore::build_append_locked(const RaftPeer& peer) {
  Outbound o;
  o.peer_id = peer.id;
  o.address = peer.address + ".raft";
  const std::uint64_t next = next_index_[peer.id];
  if (next <= base_index_) {
    // The entries this follower needs are compacted away: ship the
    // snapshot instead.
    SnapshotRequestMsg m;
    m.term = current_term_;
    m.leader_id = config_.node_id;
    m.last_included_index = base_index_;
    m.last_included_term = base_term_;
    m.state = snapshot_;
    o.command = static_cast<std::uint8_t>(Command::kInstallSnapshot);
    o.payload = m.serialize();
    o.snapshot_index = base_index_;
    return o;
  }
  AppendRequestMsg m;
  m.term = current_term_;
  m.leader_id = config_.node_id;
  m.prev_log_index = next - 1;
  m.prev_log_term = term_at_locked(next - 1);
  m.leader_commit = commit_index_;
  const std::uint64_t last = last_index_locked();
  const std::uint64_t end =
      std::min(last, next + kRaftAppendBatch - 1);
  for (std::uint64_t i = next; i <= end; ++i) {
    m.entries.push_back(log_.at(i - base_index_ - 1));
  }
  o.command = static_cast<std::uint8_t>(Command::kAppendEntries);
  o.payload = m.serialize();
  return o;
}

// --- timers -----------------------------------------------------------------

void RaftCore::on_election_timeout() {
  std::vector<Outbound> out;
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    arm_election_timer_locked();
    if (role_ == Role::kLeader) return;
    // Become candidate for the next term and solicit votes.
    ++current_term_;
    role_ = Role::kCandidate;
    voted_for_ = config_.node_id;
    leader_id_ = 0;
    vote_term_ = current_term_;
    votes_granted_ = 1;  // own vote
    ++elections_started_;
    persist_locked();
    if (votes_granted_ >= majority()) {
      become_leader_locked(&out);  // single-node cluster
    } else {
      VoteRequestMsg m;
      m.term = current_term_;
      m.candidate_id = config_.node_id;
      m.last_log_index = last_index_locked();
      m.last_log_term = term_at_locked(m.last_log_index);
      const Bytes payload = m.serialize();
      for (const RaftPeer& p : config_.peers) {
        if (p.id == config_.node_id) continue;
        Outbound o;
        o.peer_id = p.id;
        o.address = p.address + ".raft";
        o.command = static_cast<std::uint8_t>(Command::kVoteRequest);
        o.payload = payload;
        out.push_back(std::move(o));
      }
    }
  }
  send_round(std::move(out));
}

void RaftCore::on_heartbeat() {
  std::vector<Outbound> out;
  {
    MutexLock lock(mutex_);
    if (stopped_ || role_ != Role::kLeader) return;  // self-cancels
    ++heartbeat_rounds_;
    for (const RaftPeer& p : config_.peers) {
      if (p.id == config_.node_id) continue;
      out.push_back(build_append_locked(p));
    }
    arm_heartbeat_timer_locked();
  }
  send_round(std::move(out));
}

// --- outbound side ----------------------------------------------------------

void RaftCore::send_round(std::vector<Outbound> work) {
  // Indexed loop: process_reply may append follow-ups (a fresh leader's
  // first heartbeat round) that are drained in the same pass. No raft
  // lock is held across any send — the peer's handler runs inline on
  // this thread and takes its own same-rank mutex.
  for (std::size_t i = 0; i < work.size(); ++i) {
    // Copy: process_reply may grow `work`, invalidating references.
    const Outbound sent = work[i];
    Bytes reply_raw;
    try {
      net::SimNetwork::Connection conn = net_->connect(sent.address);
      Envelope env;
      env.version = kReplicationVersion;
      env.command = static_cast<Command>(sent.command);
      env.request_id =
          next_request_id_.fetch_add(1, std::memory_order_relaxed);
      env.payload = sent.payload;
      reply_raw = conn.call(env.serialize());
    } catch (const Error&) {
      continue;  // peer down or partitioned: the next round retries
    }
    try {
      process_reply(sent, reply_raw, &work);
    } catch (const Error&) {
      continue;  // undecodable reply: treat like a drop
    }
  }
}

void RaftCore::process_reply(const Outbound& sent, ByteView raw,
                             std::vector<Outbound>* follow) {
  const Envelope env = Envelope::deserialize(raw);
  const RaftReply rep = RaftReply::deserialize(env.payload);
  if (!rep.status.ok()) return;  // typed refusal: nothing to learn
  MutexLock lock(mutex_);
  if (stopped_) return;
  switch (static_cast<Command>(sent.command)) {
    case Command::kVoteRequest: {
      const VoteResponseMsg v = VoteResponseMsg::deserialize(rep.body);
      if (v.term > current_term_) {
        step_down_locked(v.term);
        persist_locked();
        return;
      }
      if (role_ != Role::kCandidate || current_term_ != vote_term_) return;
      if (v.granted && ++votes_granted_ >= majority()) {
        become_leader_locked(follow);
      }
      return;
    }
    case Command::kAppendEntries: {
      const AppendResponseMsg a = AppendResponseMsg::deserialize(rep.body);
      if (a.term > current_term_) {
        step_down_locked(a.term);
        persist_locked();
        return;
      }
      if (role_ != Role::kLeader || a.term != current_term_) return;
      if (a.success) {
        std::uint64_t& match = match_index_[sent.peer_id];
        match = std::max(match, a.match_index);
        next_index_[sent.peer_id] = match + 1;
        maybe_advance_commit_locked();
        apply_committed_locked();
      } else {
        // Back off next_index using the follower's last-index hint so a
        // rejoined node catches up in one bound instead of one probe per
        // heartbeat.
        std::uint64_t& next = next_index_[sent.peer_id];
        next = std::max<std::uint64_t>(
            1, std::min(next - 1, a.last_log_index + 1));
      }
      return;
    }
    case Command::kInstallSnapshot: {
      const SnapshotResponseMsg s = SnapshotResponseMsg::deserialize(rep.body);
      if (s.term > current_term_) {
        step_down_locked(s.term);
        persist_locked();
        return;
      }
      if (role_ != Role::kLeader || s.term != current_term_ || !s.ok) return;
      std::uint64_t& match = match_index_[sent.peer_id];
      match = std::max(match, sent.snapshot_index);
      next_index_[sent.peer_id] = match + 1;
      return;
    }
    default:
      return;
  }
}

// --- propose ----------------------------------------------------------------

Status RaftCore::propose(LogCommand command, Bytes payload) {
  std::vector<Outbound> out;
  std::uint64_t index = 0;
  {
    MutexLock lock(mutex_);
    ++proposals_;
    if (stopped_) {
      ++proposals_failed_;
      return Status(StatusCode::kUnavailable, "raft: node stopping");
    }
    if (role_ != Role::kLeader) {
      ++proposals_failed_;
      return Status(StatusCode::kNotLeader,
                    not_leader_detail(leader_hint_locked()));
    }
    const std::uint64_t entry_id = make_entry_id_locked();
    log_.push_back(
        LogEntry{current_term_, command, entry_id, std::move(payload)});
    index = last_index_locked();
    persist_locked();
    waiters_.emplace(index, Waiter{entry_id, false, Status()});
    // Single-node clusters commit on their own persist.
    maybe_advance_commit_locked();
    apply_committed_locked();
    for (const RaftPeer& p : config_.peers) {
      if (p.id == config_.node_id) continue;
      out.push_back(build_append_locked(p));
    }
  }
  send_round(std::move(out));
  // The fast path resolved the waiter inline above (SimNetwork dispatch
  // is synchronous); the slow path — a straggling majority — is finished
  // by heartbeat rounds on the wheel thread.
  const auto deadline =
      std::chrono::steady_clock::now() + config_.propose_timeout;
  MutexLock lock(mutex_);
  for (;;) {
    auto it = waiters_.find(index);
    if (it == waiters_.end()) {
      ++proposals_failed_;
      return Status(StatusCode::kUnavailable, "raft: proposal dropped");
    }
    if (it->second.done) {
      const Status outcome = it->second.outcome;
      waiters_.erase(it);
      if (!outcome.ok()) ++proposals_failed_;
      return outcome;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      waiters_.erase(it);
      ++proposals_failed_;
      return Status(StatusCode::kUnavailable, "raft: replication timeout");
    }
    cv_.wait_until(mutex_, deadline);
  }
}

// --- inbound side -----------------------------------------------------------

namespace {

Bytes raft_reply_frame(const Envelope& request, RaftReply reply) {
  Envelope out;
  out.version = kReplicationVersion;  // raft endpoint answers in v2
  out.command = request.command;
  out.request_id = request.request_id;
  out.payload = reply.serialize();
  return out.serialize();
}

}  // namespace

Bytes RaftCore::handle_frame(ByteView raw) {
  Envelope env;
  if (!Envelope::matches(raw)) {
    return raft_reply_frame(env,
                            RaftReply{Status(StatusCode::kMalformedRequest),
                                      Bytes{}});
  }
  try {
    env = Envelope::deserialize(raw);
  } catch (const ParseError&) {
    return raft_reply_frame(Envelope{},
                            RaftReply{Status(StatusCode::kMalformedRequest),
                                      Bytes{}});
  }
  if (env.version != kReplicationVersion) {
    return raft_reply_frame(
        env, RaftReply{Status(StatusCode::kUnsupportedVersion), Bytes{}});
  }
  RaftReply rep;
  try {
    switch (env.command) {
      case Command::kVoteRequest: {
        const VoteRequestMsg m = VoteRequestMsg::deserialize(env.payload);
        VoteResponseMsg resp;
        rep.status = handle_vote(m, &resp);
        rep.body = resp.serialize();
        break;
      }
      case Command::kAppendEntries: {
        const AppendRequestMsg m = AppendRequestMsg::deserialize(env.payload);
        AppendResponseMsg resp;
        rep.status = handle_append(m, &resp);
        rep.body = resp.serialize();
        break;
      }
      case Command::kInstallSnapshot: {
        const SnapshotRequestMsg m = SnapshotRequestMsg::deserialize(env.payload);
        SnapshotResponseMsg resp;
        rep.status = handle_snapshot(m, &resp);
        rep.body = resp.serialize();
        break;
      }
      default:
        rep.status = Status(StatusCode::kUnknownCommand);
        break;
    }
  } catch (const ParseError&) {
    rep = RaftReply{Status(StatusCode::kMalformedRequest), Bytes{}};
  }
  return raft_reply_frame(env, rep);
}

Status RaftCore::handle_vote(const VoteRequestMsg& msg, VoteResponseMsg* out) {
  MutexLock lock(mutex_);
  if (stopped_) return Status(StatusCode::kUnavailable, "raft: node stopping");
  bool dirty = false;
  if (msg.term > current_term_) {
    step_down_locked(msg.term);
    dirty = true;
  }
  out->term = current_term_;
  out->granted = false;
  const std::uint64_t last = last_index_locked();
  const std::uint64_t last_term = term_at_locked(last);
  const bool up_to_date =
      msg.last_log_term > last_term ||
      (msg.last_log_term == last_term && msg.last_log_index >= last);
  if (msg.term == current_term_ &&
      (voted_for_ == 0 || voted_for_ == msg.candidate_id) && up_to_date) {
    voted_for_ = msg.candidate_id;
    out->granted = true;
    dirty = true;
    arm_election_timer_locked();
  }
  if (dirty) persist_locked();
  return Status();
}

Status RaftCore::handle_append(const AppendRequestMsg& msg,
                               AppendResponseMsg* out) {
  MutexLock lock(mutex_);
  if (stopped_) return Status(StatusCode::kUnavailable, "raft: node stopping");
  bool dirty = false;
  if (msg.term > current_term_) {
    step_down_locked(msg.term);
    dirty = true;
  }
  out->term = current_term_;
  out->success = false;
  out->match_index = 0;
  out->last_log_index = last_index_locked();
  if (msg.term < current_term_) {
    if (dirty) persist_locked();
    return Status();
  }
  // Current-term append: the sender is the one legitimate leader.
  if (role_ != Role::kFollower) role_ = Role::kFollower;
  leader_id_ = msg.leader_id;
  leader_contact_ = std::chrono::steady_clock::now();
  arm_election_timer_locked();

  // Entries at or below our snapshot base are known committed and
  // identical — skip that overlap instead of failing consistency.
  std::uint64_t prev = msg.prev_log_index;
  std::size_t skip = 0;
  if (prev < base_index_) {
    skip = static_cast<std::size_t>(
        std::min<std::uint64_t>(base_index_ - prev, msg.entries.size()));
    prev += skip;
  }
  if (prev < base_index_) {
    // Everything sent is inside the snapshot: already replicated.
    out->success = true;
    out->match_index = base_index_;
    if (dirty) persist_locked();
    return Status();
  }
  if (prev > last_index_locked() || term_at_locked(prev) != msg.prev_log_term) {
    // Consistency probe failed; last_log_index (set above) is the
    // leader's back-off hint.
    if (dirty) persist_locked();
    return Status();
  }
  std::size_t i = skip;
  for (; i < msg.entries.size(); ++i) {
    const std::uint64_t at = prev + 1 + (i - skip);
    if (at > last_index_locked()) break;
    if (term_at_locked(at) != msg.entries[i].term) {
      // Conflict: an uncommitted divergent suffix from a dead leader.
      log_.resize(static_cast<std::size_t>(at - base_index_ - 1));
      dirty = true;
      break;
    }
  }
  for (; i < msg.entries.size(); ++i) {
    log_.push_back(msg.entries[i]);
    dirty = true;
  }
  out->success = true;
  out->match_index = prev + (msg.entries.size() - skip);
  out->last_log_index = last_index_locked();
  const std::uint64_t new_commit =
      std::min(msg.leader_commit, last_index_locked());
  if (new_commit > commit_index_) commit_index_ = new_commit;
  if (dirty) persist_locked();
  apply_committed_locked();
  return Status();
}

Status RaftCore::handle_snapshot(const SnapshotRequestMsg& msg,
                                 SnapshotResponseMsg* out) {
  MutexLock lock(mutex_);
  if (stopped_) return Status(StatusCode::kUnavailable, "raft: node stopping");
  bool dirty = false;
  if (msg.term > current_term_) {
    step_down_locked(msg.term);
    dirty = true;
  }
  out->term = current_term_;
  out->ok = false;
  if (msg.term < current_term_) {
    if (dirty) persist_locked();
    return Status();
  }
  if (role_ != Role::kFollower) role_ = Role::kFollower;
  leader_id_ = msg.leader_id;
  leader_contact_ = std::chrono::steady_clock::now();
  arm_election_timer_locked();
  if (msg.last_included_index <= last_index_locked()) {
    // We already hold (or applied past) this prefix: ack so the leader
    // advances match_index and resumes AppendEntries.
    out->ok = true;
    if (dirty) persist_locked();
    return Status();
  }
  // Genuinely ahead of us: adopt the snapshot wholesale.
  log_.clear();
  base_index_ = msg.last_included_index;
  base_term_ = msg.last_included_term;
  snapshot_ = msg.state;
  commit_index_ = base_index_;
  last_applied_ = base_index_;
  install_snapshot_(snapshot_);
  ++snapshots_installed_;
  persist_locked();
  out->ok = true;
  return Status();
}

}  // namespace sinclave::cas
