#include "server/cluster_node.h"

#include <utility>

#include "common/error.h"
#include "obs/registry.h"

namespace sinclave::server {

namespace {
Status stopped() {
  return Status(StatusCode::kUnavailable, "cluster: stopped");
}
}  // namespace

ClusterNode::ClusterNode(net::SimNetwork* net,
                         quote::AttestationService* attestation,
                         crypto::Ed25519KeyPair identity, std::uint64_t seed,
                         ClusterNodeConfig config)
    : net_(net),
      attestation_(attestation),
      identity_(std::move(identity)),
      seed_(seed),
      config_(std::move(config)),
      store_(crypto::Drbg::from_seed(seed, "cluster-seal-key").generate(32),
             &counter_, crypto::Drbg::from_seed(seed, "cluster-seal-rng")) {
  for (const cas::RaftPeer& p : config_.raft.peers) {
    if (p.id == config_.raft.node_id) address_ = p.address;
  }
  if (address_.empty()) {
    throw Error("cluster node: node_id missing from peer list");
  }
}

ClusterNode::~ClusterNode() { stop(); }

void ClusterNode::add_signer_key(const crypto::RsaKeyPair& signer) {
  MutexLock lock(lifecycle_);
  signer_keys_.push_back(signer);
  if (current_.cas != nullptr) current_.cas->add_signer_key(signer);
}

cas::CasService& ClusterNode::cas() {
  MutexLock lock(lifecycle_);
  if (current_.cas == nullptr) throw Error("cluster node: not started");
  return *current_.cas;
}

CasServer& ClusterNode::server() {
  MutexLock lock(lifecycle_);
  if (current_.server == nullptr) throw Error("cluster node: not started");
  return *current_.server;
}

cas::RaftCore& ClusterNode::raft() {
  cas::RaftCore* raft = raft_or_null();
  if (raft == nullptr) throw Error("cluster node: not started");
  return *raft;
}

const cas::RaftCore& ClusterNode::raft() const {
  const cas::RaftCore* raft = raft_or_null();
  if (raft == nullptr) throw Error("cluster node: not started");
  return *raft;
}

cas::RaftCore* ClusterNode::raft_or_null() const {
  MutexLock lock(lifecycle_);
  return current_.raft.get();
}

bool ClusterNode::running() const {
  MutexLock lock(lifecycle_);
  return running_;
}

ClusterNode::Incarnation ClusterNode::make_incarnation(
    std::uint64_t incarnation, const std::vector<crypto::RsaKeyPair>& keys) {
  Incarnation inc;
  inc.cas = std::make_unique<cas::CasService>(
      attestation_, identity_,
      crypto::Drbg::from_seed(seed_ + incarnation, "cluster-cas"));
  for (const crypto::RsaKeyPair& k : keys) inc.cas->add_signer_key(k);
  inc.cas->set_replication_gate(this);
  inc.server = std::make_unique<CasServer>(inc.cas.get(), config_.server);

  cas::RaftConfig rc = config_.raft;
  // Different incarnations must draw different election jitter, or a
  // restarted node replays its old timeout sequence against peers that
  // have moved on.
  rc.seed = rc.seed ^ seed_ ^ (incarnation * 0x9e3779b97f4a7c15ULL);
  cas::CasService* cas_raw = inc.cas.get();
  inc.raft = std::make_unique<cas::RaftCore>(
      net_, std::move(rc), &store_,
      [cas_raw](const cas::LogEntry& entry) -> Status {
        switch (entry.command) {
          case cas::LogCommand::kNoop:
            return Status();
          case cas::LogCommand::kInstallPolicy:
            cas_raw->install_policy(cas::Policy::deserialize(entry.payload));
            return Status();
          case cas::LogCommand::kRegisterToken: {
            const cas::TokenCommand c =
                cas::TokenCommand::deserialize(entry.payload);
            cas_raw->register_token(c.token, c.session_name, c.mr_enclave);
            return Status();
          }
          case cas::LogCommand::kSpendToken: {
            const cas::TokenCommand c =
                cas::TokenCommand::deserialize(entry.payload);
            return cas_raw->apply_spend(c.token, c.session_name,
                                        c.mr_enclave);
          }
        }
        return Status(StatusCode::kInternal, "raft: unknown log command");
      },
      [cas_raw] { return cas_raw->export_state(); },
      [cas_raw](ByteView state) { cas_raw->import_state(state); });

  // Replication observability rides the incarnation's own registry (the
  // collector holds the matching RaftCore, which the registry's owner
  // outlives).
  cas::RaftCore* raft_raw = inc.raft.get();
  inc.cas->metrics_registry().add_collector(
      [raft_raw](obs::MetricsSnapshot& s) {
        const cas::RaftStats r = raft_raw->stats();
        s.gauge("cluster_term", r.term);
        s.gauge("cluster_commit_index", r.commit_index);
        s.gauge("cluster_last_applied", r.last_applied);
        s.gauge("cluster_log_entries", r.log_entries);
        s.gauge("cluster_is_leader", r.is_leader ? 1 : 0);
        s.gauge("cluster_follower_lag", r.max_follower_lag);
        s.counter("cluster_elections_started", r.elections_started);
        s.counter("cluster_elections_won", r.elections_won);
        s.counter("cluster_proposals", r.proposals);
        s.counter("cluster_proposals_failed", r.proposals_failed);
        s.counter("cluster_snapshots_taken", r.snapshots_taken);
        s.counter("cluster_snapshots_installed", r.snapshots_installed);
      });
  return inc;
}

void ClusterNode::start() {
  std::uint64_t incarnation = 0;
  std::vector<crypto::RsaKeyPair> keys;
  {
    MutexLock lock(lifecycle_);
    if (running_) return;
    incarnation = incarnation_ + 1;
    keys = signer_keys_;
  }
  // Built (and, on a failed boot, destroyed) with lifecycle_ released:
  // registering metrics collectors takes the registry lock, which ranks
  // above it.
  Incarnation next = make_incarnation(incarnation, keys);
  MutexLock lock(lifecycle_);  // declared after `next`: released first
  if (running_) return;
  incarnation_ = incarnation;
  // Throws on rolled-back / tampered persisted state; nothing is bound
  // yet, and the half-built incarnation dies once the lock drops.
  next.raft->start();
  // Retire (never destroy) the previous incarnation: requests that raced
  // the shutdown may still hold its pointers.
  if (current_.cas != nullptr) retired_.push_back(std::move(current_));
  current_ = std::move(next);
  current_.server->bind(*net_, address_);
  running_ = true;
}

void ClusterNode::stop() {
  cas::RaftCore* raft;
  CasServer* server;
  {
    MutexLock lock(lifecycle_);
    if (!running_) return;
    running_ = false;
    raft = current_.raft.get();
    server = current_.server.get();
  }
  // Fail in-flight proposals first: requests blocked in propose() wake
  // with kUnavailable, so the unbind below — which waits for every
  // accepted request — cannot deadlock. Neither runs under lifecycle_:
  // those requests reach back into this gate.
  raft->stop();
  server->unbind();
}

void ClusterNode::restart() {
  stop();
  start();
}

Status ClusterNode::install_policy(const cas::Policy& policy) {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (!running_) return stopped();
    raft = current_.raft.get();
  }
  return raft->propose(cas::LogCommand::kInstallPolicy, policy.serialize());
}

Status ClusterNode::register_token(const core::AttestationToken& token,
                                   const std::string& session_name,
                                   const sgx::Measurement& expected_mr) {
  cas::RaftCore* raft = raft_or_null();
  if (raft == nullptr) return stopped();
  const cas::TokenCommand cmd{token, session_name, expected_mr};
  return raft->propose(cas::LogCommand::kRegisterToken, cmd.serialize());
}

Status ClusterNode::spend_token(const core::AttestationToken& token,
                                const std::string& session_name,
                                const sgx::Measurement& mr_enclave) {
  cas::RaftCore* raft = raft_or_null();
  if (raft == nullptr) return stopped();
  const cas::TokenCommand cmd{token, session_name, mr_enclave};
  return raft->propose(cas::LogCommand::kSpendToken, cmd.serialize());
}

bool ClusterNode::ready() const {
  const cas::RaftCore* raft = raft_or_null();
  return raft != nullptr && raft->ready();
}

Status ClusterNode::accepts_writes() const {
  const cas::RaftCore* raft = raft_or_null();
  if (raft == nullptr) return stopped();
  if (raft->is_leader()) return Status();
  return Status(StatusCode::kNotLeader,
                not_leader_detail(raft->leader_hint()));
}

}  // namespace sinclave::server
