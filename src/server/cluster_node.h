// One member of a replicated CAS cluster: each incarnation is a CasService
// + a RaftCore (cas/replication.h) + the same server::CasServer frontend a
// standalone CAS runs, wired together through the ReplicationGate, plus
// the durable host-side artifacts — the sealed log blob and its monotonic
// counter — that survive enclave restarts.
//
// Responsibilities:
//   * implement the ReplicationGate: token arming and token spends are
//     proposed into the replicated log and only applied (on every node,
//     in log order) once majority-committed; accepts_writes() makes a
//     follower's server answer singleton retrieval with kNotLeader
//     carrying the leader hint, while introspection — and, via get_policy
//     on the service's policy table, reads generally — is served by every
//     replica;
//   * own the node lifecycle for failover drills: stop() kills the
//     incarnation (proposals failed, endpoints down), restart() boots a
//     FRESH incarnation over the SAME sealed store and counter — exactly
//     the restart an adversarial host controls, which is why a rolled-back
//     blob makes restart throw instead of serve.
//
// All nodes of a cluster share one verifier identity, an Ed25519 keypair
// copied into each, so clients pin a single identity across failover.
// Enclave signer keys stay RSA (SGX's SIGSTRUCT format).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cas/persistence.h"
#include "cas/replication.h"
#include "cas/service.h"
#include "common/mutex.h"
#include "common/status.h"
#include "crypto/ed25519.h"
#include "crypto/rsa.h"
#include "net/sim_network.h"
#include "quote/quote.h"
#include "server/cas_server.h"

namespace sinclave::server {

struct ClusterNodeConfig {
  /// Raft identity, peers, timeouts, seed. peers must include node_id.
  cas::RaftConfig raft;
  /// Each incarnation's serving frontend (workers, idle-session TTL, ...).
  CasServerConfig server;
};

class ClusterNode : public cas::ReplicationGate {
 public:
  /// `identity` is the cluster-wide Ed25519 verifier keypair (pass the
  /// same one to every node); `seed` derives this node's seal key, DRBGs,
  /// and election jitter.
  ClusterNode(net::SimNetwork* net, quote::AttestationService* attestation,
              crypto::Ed25519KeyPair identity, std::uint64_t seed,
              ClusterNodeConfig config);
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Signer keys are remembered and re-uploaded into every incarnation.
  void add_signer_key(const crypto::RsaKeyPair& signer);

  /// Boot an incarnation: fresh CasService + RaftCore + CasServer over the
  /// sealed store, election timer armed, endpoints bound. Throws when the
  /// persisted blob fails to unseal or is rolled back. Lifecycle calls
  /// (start/stop/restart) come from one control thread.
  void start();
  /// Kill the incarnation: in-flight proposals failed kUnavailable, then
  /// endpoints down. Durable state (store + counter) survives. Idempotent.
  void stop();
  /// stop() + start(): the host restarting the CAS enclave.
  void restart();
  bool running() const;

  /// Propose a policy install through the log (leader only; followers
  /// answer kNotLeader like any other write).
  Status install_policy(const cas::Policy& policy);

  /// ReplicationGate: called by this node's CasService on the serving
  /// paths, with no CAS lock held.
  Status register_token(const core::AttestationToken& token,
                        const std::string& session_name,
                        const sgx::Measurement& expected_mr) override;
  Status spend_token(const core::AttestationToken& token,
                     const std::string& session_name,
                     const sgx::Measurement& mr_enclave) override;
  /// Authoritative for negative token lookups only as a caught-up leader
  /// (RaftCore::ready()); a lagging replica's local miss must not become
  /// a verification verdict.
  bool ready() const override;
  /// Ok on the leader; kNotLeader with the best-known leader's address
  /// elsewhere, so the client re-routes instead of backing off.
  Status accepts_writes() const override;

  const std::string& address() const { return address_; }
  std::uint64_t node_id() const { return config_.raft.node_id; }

  /// Current-incarnation accessors (tests/bench; valid while running —
  /// retired incarnations stay alive until the node is destroyed, so a
  /// pointer observed just before a restart never dangles).
  cas::CasService& cas();
  CasServer& server();
  cas::RaftCore& raft();
  const cas::RaftCore& raft() const;

  /// Host-side durable state, exposed for rollback-attack tests: capture
  /// blob() before a spend, set_blob() it back after stop(), and start()
  /// must refuse.
  cas::SealedLogStore& store() { return store_; }
  cas::MonotonicCounter& counter() { return counter_; }

 private:
  /// One boot of the node. Member order is destruction order reversed:
  /// the server dies first (its collector points into the service), then
  /// the raft core (its apply callback writes the service).
  struct Incarnation {
    std::unique_ptr<cas::CasService> cas;
    std::unique_ptr<cas::RaftCore> raft;
    std::unique_ptr<CasServer> server;
  };
  Incarnation make_incarnation(std::uint64_t incarnation,
                               const std::vector<crypto::RsaKeyPair>& keys);
  cas::RaftCore* raft_or_null() const;

  net::SimNetwork* net_;
  quote::AttestationService* attestation_;
  crypto::Ed25519KeyPair identity_;
  const std::uint64_t seed_;
  const ClusterNodeConfig config_;
  std::string address_;

  cas::MonotonicCounter counter_;
  cas::SealedLogStore store_;

  mutable Mutex lifecycle_{LockRank::kClusterLifecycle, "server.cluster_node"};
  std::vector<crypto::RsaKeyPair> signer_keys_ GUARDED_BY(lifecycle_);
  bool running_ GUARDED_BY(lifecycle_) = false;
  std::uint64_t incarnation_ GUARDED_BY(lifecycle_) = 0;
  Incarnation current_ GUARDED_BY(lifecycle_);
  /// Dead incarnations, kept alive until ~ClusterNode: an in-flight
  /// request that raced a restart still holds valid pointers (its
  /// proposals fail kUnavailable on the stopped core).
  std::vector<Incarnation> retired_ GUARDED_BY(lifecycle_);
};

}  // namespace sinclave::server
