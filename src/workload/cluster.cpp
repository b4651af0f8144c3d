#include "workload/cluster.h"

#include <thread>
#include <utility>

#include "common/error.h"
#include "core/instance_page.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "runtime/starter.h"

namespace sinclave::workload {

namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

}  // namespace

ClusterBed::ClusterBed(ClusterBedConfig config)
    : config_(std::move(config)),
      rng_(crypto::Drbg::from_seed(config_.seed, "cluster-bed")),
      cpu_(sgx::SgxCpu::Config{config_.seed, {}, true}),
      user_signer_(crypto::RsaKeyPair::generate(rng_, config_.rsa_bits)),
      identity_(crypto::Ed25519KeyPair::generate(rng_)),
      image_(core::EnclaveImage::synthetic("cluster", 4 * sgx::kPageSize,
                                           8 * sgx::kPageSize)),
      signer_(&user_signer_),
      signed_image_(signer_.sign_sinclave(image_)) {
  crypto::Drbg qe_rng = crypto::Drbg(rng_.generate(16), "qe");
  qe_ = std::make_unique<quote::QuotingEnclave>(cpu_, qe_rng,
                                                config_.rsa_bits);
  attestation_.register_platform(qe_->attestation_key());

  std::vector<cas::RaftPeer> peers;
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    peers.push_back(cas::RaftPeer{
        i + 1, config_.address_prefix + std::to_string(i + 1)});
  }
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    server::ClusterNodeConfig node_config;
    node_config.raft = config_.raft;
    node_config.raft.node_id = i + 1;
    node_config.raft.peers = peers;
    node_config.raft.seed = config_.seed;
    // Two serving workers per replica, as perfbench's own servers run:
    // each extra worker grows its own malloc arena.
    node_config.server.workers = 2;
    // Per-node seed: each replica seals with its own key and — more
    // importantly — mints tokens from its own DRBG stream, so successive
    // leaders can never collide on token bytes.
    auto node = std::make_unique<server::ClusterNode>(
        &net_, &attestation_, identity_,
        config_.seed * 7919 + (i + 1) * 104729, std::move(node_config));
    node->add_signer_key(user_signer_);
    nodes_.push_back(std::move(node));
  }
  for (auto& node : nodes_) node->start();
}

ClusterBed::~ClusterBed() {
  // Stop every node before the network goes away (nodes hold net_).
  for (auto& node : nodes_) node->stop();
}

std::string ClusterBed::address(std::size_t index) const {
  return config_.address_prefix + std::to_string(index + 1);
}

std::vector<std::string> ClusterBed::addresses() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) out.push_back(address(i));
  return out;
}

cas::Policy ClusterBed::default_policy() const {
  cas::Policy policy;
  policy.session_name = config_.session_name;
  policy.expected_signer =
      crypto::sha256(user_signer_.public_key().modulus_be());
  policy.require_singleton = true;
  policy.base_hash = signed_image_.base_hash;
  policy.config.program = "noop";
  return policy;
}

std::optional<std::size_t> ClusterBed::wait_for_leader(
    std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  do {
    std::optional<std::size_t> best;
    std::uint64_t best_term = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i]->running()) continue;
      const cas::RaftStats stats = nodes_[i]->raft().stats();
      if (stats.is_leader && stats.term >= best_term) {
        best = i;
        best_term = stats.term;
      }
    }
    if (best.has_value()) return best;
    std::this_thread::sleep_for(2ms);
  } while (Clock::now() < deadline);
  return std::nullopt;
}

Status ClusterBed::install_policy(const cas::Policy& policy,
                                  std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  Status last(StatusCode::kUnavailable, "cluster: no node attempted");
  do {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i]->running()) continue;
      if (!nodes_[i]->raft().is_leader()) continue;
      last = nodes_[i]->install_policy(policy);
      if (last.ok()) return last;
    }
    std::this_thread::sleep_for(5ms);
  } while (Clock::now() < deadline);
  return last;
}

std::size_t ClusterBed::bootstrap(std::chrono::milliseconds timeout) {
  const std::optional<std::size_t> leader = wait_for_leader(timeout);
  if (!leader.has_value()) {
    throw Error("cluster bed: no leader elected within bootstrap timeout");
  }
  const Status installed = install_policy(default_policy(), timeout);
  if (!installed.ok()) {
    throw Error("cluster bed: policy install failed: " + installed.message());
  }
  return *leader;
}

cas::CasClient ClusterBed::make_client(std::size_t primary_index,
                                       cas::RetryPolicy retry) {
  cas::CasClientConfig client_config;
  client_config.address = address(primary_index);
  client_config.cluster = addresses();
  client_config.retry = retry;
  return cas::CasClient(&net_, std::move(client_config));
}

ClusterBed::PreparedToken ClusterBed::prepare_token(cas::CasClient& client) {
  PreparedToken out;
  out.retry = client.config().retry;
  out.instance =
      client.get_instance(config_.session_name, signed_image_.sigstruct);
  if (!out.instance.ok()) return out;

  core::InstancePage page;
  page.token = out.instance.token;
  page.verifier_id = out.instance.verifier_id;
  {
    MutexLock lock(platform_mutex_);
    out.enclave = runtime::start_enclave(
        cpu_, image_, out.instance.singleton_sigstruct, page);
  }
  if (!out.enclave.ok()) out.error = "enclave start failed";
  return out;
}

ClusterBed::AttestedSpend ClusterBed::spend_with_retry(
    const PreparedToken& prepared, std::uint64_t nonce,
    const std::string& initial_target) {
  cas::AttestedChannel channel(
      &net_,
      cas::CasClientConfig{.address = initial_target,
                           .cluster = addresses(),
                           .retry = prepared.retry},
      crypto::Drbg::from_seed(config_.seed * 1000003 + nonce,
                              "cluster-spend"));
  std::optional<quote::Quote> quote;
  {
    // EREPORT and quote signing mutate unsynchronized platform state —
    // serialize them; the handshake below runs outside the lock.
    MutexLock lock(platform_mutex_);
    const sgx::Report report =
        cpu_.ereport(prepared.enclave.id, qe_->target_info(),
                     net::channel_binding(channel.dh_public()));
    quote = qe_->generate_quote(report);
  }
  if (!quote.has_value())
    return AttestedSpend{false, StatusCode::kOk, "quote generation failed"};
  cas::AttestPayload payload;
  payload.session_name = config_.session_name;
  payload.quote = *quote;
  payload.token = prepared.instance.token;
  const Result<cas::AppConfig> spent =
      channel.attest(identity_.public_key(), payload);
  return AttestedSpend{spent.ok(), spent.status().code,
                       spent.status().detail};
}

ClusterBed::SpendOutcome ClusterBed::attested_spend(cas::CasClient& client,
                                                    std::uint64_t nonce) {
  SpendOutcome out;
  out.prepared = prepare_token(client);
  if (!out.prepared.ok()) return out;
  out.spend =
      spend_with_retry(out.prepared, nonce, client.current_address());
  return out;
}

ClusterBed::SpendAudit ClusterBed::audit_spends(
    std::size_t expected, std::chrono::milliseconds timeout) {
  SpendAudit audit;
  const auto deadline = Clock::now() + timeout;
  do {
    audit.used.clear();
    bool all_match = true;
    for (auto& node : nodes_) {
      if (!node->running()) continue;
      const std::size_t used = node->cas().tokens_used();
      audit.used.push_back(used);
      if (used != expected) all_match = false;
    }
    if (all_match && !audit.used.empty()) {
      audit.converged = true;
      return audit;
    }
    std::this_thread::sleep_for(5ms);
  } while (Clock::now() < deadline);
  audit.detail = "expected " + std::to_string(expected) + " spends, got [";
  for (std::size_t i = 0; i < audit.used.size(); ++i) {
    if (i != 0) audit.detail += ", ";
    audit.detail += std::to_string(audit.used[i]);
  }
  audit.detail += "] across running nodes";
  return audit;
}

}  // namespace sinclave::workload
