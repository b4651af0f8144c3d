// `start-cluster`: ClusterBed's attested spend against a 3-node
// replicated CAS (RSA-3072, no faults injected, clients pointed at the
// leader). Each op retrieves a credential through the cluster-aware
// client, constructs the enclave, quotes it and spends the token over an
// attested handshake; it commits two log entries on a majority — the
// token's registration and its spend. The replication layer (propose ->
// append -> sealed persist -> apply) runs here and not in `start`; only the
// replication rows (token_spend, raft.*, the registration commit inside
// get_instance) compare the two, since this bed's quoting enclave signs
// with RSA-3072 and an op here runs no config, volume or program.
#include <algorithm>
#include <chrono>
#include <string>

#include "workload/cluster.h"
#include "workloads.h"

namespace perfbench {

using namespace sinclave;
using namespace std::chrono_literals;

namespace {

struct RaftTotals {
  double proposals = 0;
  double proposals_failed = 0;
  double elections_started = 0;
  double snapshots_taken = 0;
  double heartbeat_rounds = 0;
};

RaftTotals raft_totals(workload::ClusterBed& bed) {
  RaftTotals totals;
  for (std::size_t n = 0; n < bed.size(); ++n) {
    const cas::RaftStats stats = bed.node(n).raft().stats();
    totals.proposals += static_cast<double>(stats.proposals);
    totals.proposals_failed += static_cast<double>(stats.proposals_failed);
    totals.elections_started += static_cast<double>(stats.elections_started);
    totals.snapshots_taken += static_cast<double>(stats.snapshots_taken);
    totals.heartbeat_rounds += static_cast<double>(stats.heartbeat_rounds);
  }
  return totals;
}

struct SecureTotals {
  double stripe_collisions = 0;
  double sessions_high_water = 0;
};

SecureTotals secure_totals(workload::ClusterBed& bed) {
  SecureTotals totals;
  for (std::size_t n = 0; n < bed.size(); ++n) {
    const auto stats = bed.node(n).cas().secure_channel_stats();
    totals.stripe_collisions += static_cast<double>(stats.stripe_collisions);
    totals.sessions_high_water = std::max(
        totals.sessions_high_water,
        static_cast<double>(stats.sessions_high_water));
  }
  return totals;
}

}  // namespace

RoundResult run_start_cluster_round(const Plan& plan, bool trace,
                                    Clock::time_point setup_started) {
  CpuRotation rotation;
  RoundResult result;
  workload::ClusterBedConfig config;
  config.seed = kFixtureSeed;
  config.nodes = 3;
  config.rsa_bits = 3072;
  workload::ClusterBed bed(config);
  rotation.stop();
  const std::size_t leader = bed.bootstrap(5000ms);

  std::vector<cas::CasClient> clients;
  for (std::size_t t = 0; t < plan.clients(); ++t)
    clients.push_back(bed.make_client(leader));

  std::size_t offset = 0;  // warm-up ops first, then the measured ones
  const OpFn op = [&](std::size_t t, std::size_t i, SpanSums& spans) {
    cas::CasClient& client = clients[t];
    const auto prepared = spans.time("cluster.prepare_token_ms",
                                     [&] { return bed.prepare_token(client); });
    if (!prepared.ok()) {
      return OpOutcome{false, prepared.instance.ok()
                                  ? prepared.error
                                  : prepared.instance.status.message()};
    }
    const auto spend = spans.time("cluster.spend_ms", [&] {
      return bed.spend_with_retry(prepared, plan.ops[t][offset + i],
                                  client.current_address());
    });
    bed.cpu().eremove(prepared.enclave.id);
    if (!spend.attested) {
      return OpOutcome{false, spend.error.empty()
                                  ? "spend rejected: " +
                                        std::string(status_message(spend.reject))
                                  : spend.error};
    }
    return OpOutcome{true, ""};
  };

  RoundResult warmup;
  run_window(plan.clients(), plan.warmup_per_thread, false, op, warmup);
  if (warmup.failed != 0) {
    result.failures.push_back("warm-up failed: " + warmup.failures.front());
    return result;
  }

  offset = plan.warmup_per_thread;
  const RaftTotals raft_before = raft_totals(bed);
  const SecureTotals secure_before = secure_totals(bed);
  const std::uint64_t trips_before = bed.network().round_trips();
  double redirects_before = 0.0;
  for (const auto& client : clients)
    redirects_before += static_cast<double>(client.stats().leader_redirects);
  result.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_started).count();
  run_window(plan.clients(), plan.ops_per_thread, trace, op, result);
  const RaftTotals raft_after = raft_totals(bed);
  const SecureTotals secure_after = secure_totals(bed);
  const std::uint64_t trips_after = bed.network().round_trips();

  // Every replica converges on the client-observed spend count: no spend
  // lost, none doubled.
  const std::size_t accepted = warmup.completed() + result.completed();
  const auto audit = bed.audit_spends(accepted, 5000ms);
  if (!audit.converged)
    result.failures.push_back("spend audit: " + audit.detail);
  if (!trace) return result;

  double redirects = -redirects_before;
  for (const auto& client : clients)
    redirects += static_cast<double>(client.stats().leader_redirects);
  Layers& layers = result.layers;
  add_layer(layers, "raft.proposals_per_op", Agg::kPerOp,
            raft_after.proposals - raft_before.proposals);
  add_layer(layers, "raft.proposals_failed", Agg::kTotal,
            raft_after.proposals_failed - raft_before.proposals_failed);
  add_layer(layers, "raft.elections_started", Agg::kTotal,
            raft_after.elections_started - raft_before.elections_started);
  add_layer(layers, "raft.snapshots_taken_per_op", Agg::kPerOp,
            raft_after.snapshots_taken - raft_before.snapshots_taken);
  add_layer(layers, "raft.heartbeat_rounds_per_s", Agg::kPerSecond,
            raft_after.heartbeat_rounds - raft_before.heartbeat_rounds);
  add_layer(layers, "raft.max_follower_lag", Agg::kMax,
            static_cast<double>(bed.node(leader).raft().stats()
                                    .max_follower_lag));
  add_layer(layers, "client.leader_redirects_per_op", Agg::kPerOp, redirects);
  add_layer(layers, "net.round_trips_per_op", Agg::kPerOp,
            static_cast<double>(trips_after - trips_before));
  add_layer(layers, "net.stripe_collisions_per_op", Agg::kPerOp,
            secure_after.stripe_collisions - secure_before.stripe_collisions);
  add_layer(layers, "net.sessions_open", Agg::kMax,
            secure_after.sessions_high_water);
  return result;
}

}  // namespace perfbench
