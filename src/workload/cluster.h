// ClusterBed — the N-node replicated-CAS fixture shared by
// tests/test_cluster.cpp and bench/bench_cluster.cpp.
//
// One simulated platform (CPU, quoting enclave, attestation service,
// network, user signer) hosting N server::ClusterNode replicas that share
// a single Ed25519 CAS identity key — to clients the cluster *is* one
// verifier behind several addresses. The bed owns the fixture session: a signed
// synthetic image plus the singleton policy for it, installed through
// whichever node wins the first election.
//
// The interesting helper is attested_spend(): the full client-side
// SinClave flow (credential retrieval through the cluster-aware CasClient,
// enclave construction, a quote bound to a fresh channel key, then the
// secure handshake that spends the one-time token), so a leader killed
// mid-flow surfaces as a typed outcome, never a hang. Both phases route by
// the SDK's one retry rule (a kNotLeader handshake rejection carries the
// leader hint); the spend reads no node's Raft state. Callers count
// per-token acceptances; the bed's audit_spends() then closes the ledger
// cluster-wide: every *running* replica must converge to the same spent
// count.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cas/client.h"
#include "cas/replication.h"
#include "cas/service.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/image.h"
#include "core/signer.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rsa.h"
#include "net/sim_network.h"
#include "quote/attestation_service.h"
#include "quote/quoting_enclave.h"
#include "runtime/starter.h"
#include "server/cluster_node.h"
#include "sgx/cpu.h"

namespace sinclave::workload {

struct ClusterBedConfig {
  std::uint64_t seed = 1;
  /// Replica count (node ids 1..nodes, addresses address_prefix + id).
  std::size_t nodes = 3;
  /// RSA size for the signer and attestation keys (1024 keeps tests fast).
  /// The shared CAS identity is Ed25519 whatever this says.
  std::size_t rsa_bits = 1024;
  std::string address_prefix = "cas-node";
  /// The fixture session default_policy() pins.
  std::string session_name = "cluster";
  /// Raft template: node_id/peers/seed are overwritten per node, and
  /// propose_timeout passes through — tests tighten it so partition
  /// scenarios fail fast instead of waiting out the default. (The election
  /// window, heartbeat, snapshot threshold and append batch are the
  /// kRaft* constants in cas/replication.h.)
  cas::RaftConfig raft;
};

class ClusterBed {
 public:
  explicit ClusterBed(ClusterBedConfig config = {});
  ~ClusterBed();

  ClusterBed(const ClusterBed&) = delete;
  ClusterBed& operator=(const ClusterBed&) = delete;

  const ClusterBedConfig& config() const { return config_; }
  net::SimNetwork& network() { return net_; }
  sgx::SgxCpu& cpu() { return cpu_; }
  quote::QuotingEnclave& qe() { return *qe_; }
  const crypto::Ed25519KeyPair& identity() const { return identity_; }
  const core::EnclaveImage& image() const { return image_; }
  const core::SinclaveSignedImage& signed_image() const {
    return signed_image_;
  }

  std::size_t size() const { return nodes_.size(); }
  server::ClusterNode& node(std::size_t index) { return *nodes_.at(index); }
  std::string address(std::size_t index) const;
  std::vector<std::string> addresses() const;

  /// The singleton policy for the fixture session (pinned to the bed's
  /// signer and signed image).
  cas::Policy default_policy() const;

  /// Poll the *running* nodes for a leader; on a tie (a deposed leader
  /// that has not yet heard the new term) the highest term wins. nullopt
  /// when no node claims leadership within `timeout`.
  std::optional<std::size_t> wait_for_leader(
      std::chrono::milliseconds timeout);

  /// Replicate `policy` through whichever node currently leads, retrying
  /// kNotLeader / kUnavailable while the election converges.
  Status install_policy(const cas::Policy& policy,
                        std::chrono::milliseconds timeout);

  /// wait_for_leader + install default_policy — returns the leader index.
  /// Throws Error when the cluster cannot elect or replicate in time.
  std::size_t bootstrap(std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(2000));

  /// Cluster-aware SDK client: primary = node `primary_index`, cluster
  /// list = every node, so kNotLeader hints re-route and dead peers
  /// rotate.
  cas::CasClient make_client(std::size_t primary_index = 0,
                             cas::RetryPolicy retry = {});

  /// Phase 1 of a spend: retrieve a credential through the cluster-aware
  /// client and construct the enclave it names. `instance.status` carries
  /// the typed failure when !ok().
  struct PreparedToken {
    cas::InstanceResult instance;
    runtime::StartedEnclave enclave;
    /// The preparing client's retry policy; the spend runs under it.
    cas::RetryPolicy retry;
    std::string error;  // non-retrieval preparation failure

    bool ok() const { return instance.ok() && enclave.ok() && error.empty(); }
  };
  PreparedToken prepare_token(cas::CasClient& client);

  /// Outcome of a spend (phase 2).
  struct AttestedSpend {
    /// The secure handshake accepted — the token was spent *here*.
    bool attested = false;
    /// The typed outcome when !attested (kOk: no handshake was sent).
    StatusCode reject = StatusCode::kOk;
    /// Its detail (or why no handshake was sent); may be empty.
    std::string error;
  };

  /// Phase 2: one quote bound to a fresh channel (`nonce` seeds its key),
  /// then cas::AttestedChannel::attest from `initial_target`, configured
  /// like the preparing client (cluster = addresses(), its RetryPolicy).
  /// The token is constant across attempts — that is the exactly-once
  /// property under test. A token ghost-spent by a killed leader surfaces
  /// as a rejection on retry: the server deliberately answers reuse with
  /// the *generic* kAttestationRejected (no token-state oracle for probing
  /// clients), so the bed's racers are always well-formed and any
  /// non-routing rejection means "already spent" — the ledger audit below
  /// is the authority either way. Thread-safe: the quote serializes on the
  /// bed's platform mutex (the simulated CPU and quoting enclave are not
  /// synchronized); the handshake runs concurrently.
  AttestedSpend spend_with_retry(const PreparedToken& prepared,
                                 std::uint64_t nonce,
                                 const std::string& initial_target);

  /// Convenience: prepare_token + spend_with_retry from the client's
  /// current (leader) address. `spent` is true when the token left the
  /// ledger on *some* node: accepted here, or spent by an earlier racer /
  /// a dying leader's committed proposal and refused as a reuse on retry.
  struct SpendOutcome {
    PreparedToken prepared;
    AttestedSpend spend;

    bool spent() const {
      return spend.attested || spend.reject == StatusCode::kTokenReused ||
             spend.reject == StatusCode::kAttestationRejected;
    }
  };
  SpendOutcome attested_spend(cas::CasClient& client, std::uint64_t nonce);

  /// Cluster-wide exactly-once audit: every running node must report the
  /// same tokens_used() == expected within `timeout` (replication lag is
  /// polled away, divergence is not).
  struct SpendAudit {
    bool converged = false;
    std::vector<std::size_t> used;  // per running node, node order
    std::string detail;             // filled when !converged
  };
  SpendAudit audit_spends(std::size_t expected,
                          std::chrono::milliseconds timeout);

 private:
  ClusterBedConfig config_;
  /// Serializes every touch of the unsynchronized simulated platform
  /// (enclave construction, EREPORT, quote signing) so harness calls are
  /// safe from racing threads. Never held across a network call.
  mutable Mutex platform_mutex_{LockRank::kWorkloadPlatform,
                                "workload.cluster_platform"};
  crypto::Drbg rng_;
  sgx::SgxCpu cpu_;
  net::SimNetwork net_;
  quote::AttestationService attestation_;
  std::unique_ptr<quote::QuotingEnclave> qe_;
  crypto::RsaKeyPair user_signer_;
  crypto::Ed25519KeyPair identity_;
  core::EnclaveImage image_;
  core::Signer signer_;
  core::SinclaveSignedImage signed_image_;
  std::vector<std::unique_ptr<server::ClusterNode>> nodes_;
};

}  // namespace sinclave::workload
