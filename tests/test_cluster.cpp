// Replicated-cluster failover suite: exactly-once token spend through
// leader kill, election liveness under scripted partitions, the sealed-log
// rollback gate on restart, a restarted follower's catch-up from a
// compacted log's snapshot, and client leader-following. Every
// test closes the spend ledger across ALL running replicas — a double
// spend anywhere in the cluster is a test failure, not a statistic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "cas/replication.h"
#include "common/error.h"
#include "common/status.h"
#include "net/fault_plan.h"
#include "runtime/enclave_runtime.h"
#include "runtime/program.h"
#include "workload/cluster.h"

namespace sinclave::workload {
namespace {

using namespace std::chrono_literals;

ClusterBedConfig fast_config(std::uint64_t seed) {
  ClusterBedConfig config;
  config.seed = seed;
  config.nodes = 3;
  // Tight propose timeout: partition tests should observe a typed
  // kUnavailable promptly, not wait out the production default.
  config.raft.propose_timeout = 500ms;
  return config;
}

/// Polls until every running replica holds `expected` armed, unspent
/// tokens — the arming of each issued credential reached the whole
/// cluster through the log, not only the serving node.
bool outstanding_everywhere(ClusterBed& bed, std::size_t expected,
                            std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  do {
    bool all = true;
    for (std::size_t n = 0; n < bed.size(); ++n) {
      if (bed.node(n).running() &&
          bed.node(n).cas().tokens_outstanding() != expected)
        all = false;
    }
    if (all) return true;
    std::this_thread::sleep_for(5ms);
  } while (std::chrono::steady_clock::now() < deadline);
  return false;
}

/// A SinClave runtime on the bed's platform, running "noop".
struct BedRuntime {
  explicit BedRuntime(ClusterBed& bed)
      : runtime(&bed.cpu(), &bed.qe(), &bed.network(), &programs,
                runtime::RuntimeMode::kSinclave,
                crypto::Drbg::from_seed(bed.config().seed, "bed-runtime")) {
    options.cas_identity = bed.identity().public_key();
    options.session_name = bed.config().session_name;
  }
  BedRuntime(const BedRuntime&) = delete;  // runtime points at programs
  BedRuntime& operator=(const BedRuntime&) = delete;

  runtime::ProgramRegistry programs = [] {
    runtime::ProgramRegistry registry;
    registry.register_program("noop", [](runtime::AppContext&) { return 0; });
    return registry;
  }();
  runtime::EnclaveRuntime runtime;
  runtime::RunOptions options;
};

TEST(Cluster, ElectsLeaderReplicatesAndConverges) {
  ClusterBed bed(fast_config(11));
  const std::size_t leader = bed.bootstrap();
  ASSERT_LT(leader, bed.size());

  cas::CasClient client = bed.make_client(leader);
  const std::size_t ops = 4;
  std::size_t spent = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const ClusterBed::SpendOutcome got = bed.attested_spend(client, i);
    ASSERT_TRUE(got.prepared.ok())
        << got.prepared.instance.status.message() << " " << got.prepared.error;
    EXPECT_TRUE(got.spend.attested)
        << to_string(got.spend.reject) << " " << got.spend.error;
    if (got.spent()) ++spent;
  }
  EXPECT_EQ(spent, ops);

  // Every replica — followers included — must apply the same spends.
  const ClusterBed::SpendAudit audit = bed.audit_spends(spent, 2000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
  ASSERT_EQ(audit.used.size(), 3u);

  // Commit/apply convergence is visible in the raft stats too.
  const std::uint64_t leader_commit =
      bed.node(leader).raft().stats().commit_index;
  EXPECT_GT(leader_commit, 0u);
}

TEST(Cluster, ReusedTokenIsRejectedEverywhere) {
  ClusterBed bed(fast_config(12));
  const std::size_t leader = bed.bootstrap();
  cas::CasClient client = bed.make_client(leader);

  const ClusterBed::PreparedToken prepared = bed.prepare_token(client);
  ASSERT_TRUE(prepared.ok());
  const ClusterBed::AttestedSpend first =
      bed.spend_with_retry(prepared, 1, bed.address(leader));
  ASSERT_TRUE(first.attested) << to_string(first.reject) << " " << first.error;

  // The same one-time token replayed over a fresh channel must be
  // refused — replication made the first spend durable, so this holds at
  // the leader and (after failover) everywhere. The rejection is the
  // deliberately generic kAttestationRejected: verification outcomes give
  // probing clients no token-state oracle.
  const ClusterBed::AttestedSpend replay =
      bed.spend_with_retry(prepared, 2, bed.address(leader));
  EXPECT_FALSE(replay.attested);
  EXPECT_EQ(replay.reject, StatusCode::kAttestationRejected) << replay.error;

  const ClusterBed::SpendAudit audit = bed.audit_spends(1, 2000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
}

TEST(Cluster, ClientPointedAtFollowerFollowsLeaderHint) {
  ClusterBed bed(fast_config(13));
  const std::size_t leader = bed.bootstrap();
  const std::size_t follower = (leader + 1) % bed.size();

  // Primary = a follower: the first attempt bounces kNotLeader with a
  // leader hint and the SDK re-routes immediately — no backoff sleep, so
  // a generous attempt budget is not needed.
  cas::CasClient client = bed.make_client(follower);
  const ClusterBed::PreparedToken prepared = bed.prepare_token(client);
  ASSERT_TRUE(prepared.ok()) << prepared.instance.status.message();

  // The follower's server refused before signing anything: it issued no
  // token and never reached its pool or the signer.
  const server::ServerMetrics& refused = bed.node(follower).server().metrics();
  EXPECT_GE(refused.get_instance.requests.load(), 1u);
  EXPECT_EQ(refused.tokens_issued.load(), 0u);
  EXPECT_EQ(refused.sigstruct_cache_misses.load(), 0u);
  // The leader's arming went through the log: every running replica
  // converges on the leader's count of armed, unspent tokens.
  EXPECT_EQ(bed.node(leader).cas().tokens_outstanding(), 1u);
  EXPECT_TRUE(outstanding_everywhere(bed, 1, 2000ms));

  const ClusterBed::AttestedSpend spend =
      bed.spend_with_retry(prepared, 99, client.current_address());
  EXPECT_TRUE(spend.attested) << to_string(spend.reject);

  const cas::CasClient::Stats stats = client.stats();
  EXPECT_GE(stats.leader_redirects, 1u);
  EXPECT_EQ(client.current_address(), bed.address(leader));

  const ClusterBed::SpendAudit audit = bed.audit_spends(1, 2000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
}

// The runtime finds the leader the way every SDK operation does: the
// follower refuses the handshake with kNotLeader and the leader hint, and
// the channel's retry rule follows it — with no cluster list and no look
// at any node's Raft state.
TEST(Cluster, RuntimePointedAtFollowerStartsTheSingleton) {
  ClusterBed bed(fast_config(18));
  const std::size_t leader = bed.bootstrap();
  const std::size_t follower = (leader + 1) % bed.size();
  cas::CasClient client = bed.make_client(leader);
  const ClusterBed::PreparedToken prepared = bed.prepare_token(client);
  ASSERT_TRUE(prepared.ok()) << prepared.instance.status.message();

  const auto rejected = [&] {
    return bed.node(follower).cas().secure_channel_stats().handshakes_rejected;
  };
  const auto opened = [&] {
    return bed.node(leader).cas().secure_channel_stats().sessions_opened;
  };
  const std::uint64_t rejected_before = rejected();
  const std::uint64_t opened_before = opened();
  BedRuntime rt(bed);
  rt.options.cas_address = bed.address(follower);
  const runtime::RunResult run = rt.runtime.run(prepared.enclave, rt.options);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.config.program, "noop");
  EXPECT_EQ(rejected(), rejected_before + 1);
  EXPECT_EQ(opened(), opened_before + 1);

  const ClusterBed::SpendAudit audit = bed.audit_spends(1, 2000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
}

// A leader killed while a singleton starts: the start completes or ends in
// a typed refusal, and the ledger holds at most one acceptance — exactly
// one when the enclave started.
TEST(Cluster, LeaderKilledMidStartStartsOrRefusesTyped) {
  ClusterBed bed(fast_config(19));
  const std::size_t leader = bed.bootstrap();
  cas::CasClient client = bed.make_client(leader);
  const ClusterBed::PreparedToken prepared = bed.prepare_token(client);
  ASSERT_TRUE(prepared.ok()) << prepared.instance.status.message();

  BedRuntime rt(bed);
  rt.options.cas_address = bed.address(leader);
  runtime::RunResult run;
  std::thread starter(
      [&] { run = rt.runtime.run(prepared.enclave, rt.options); });
  std::this_thread::sleep_for(1ms);
  bed.node(leader).stop();
  starter.join();
  if (run.ok) {
    EXPECT_EQ(run.config.program, "noop");
  } else {
    EXPECT_TRUE(run.error.starts_with("attest: ")) << run.error;
  }

  ASSERT_TRUE(bed.wait_for_leader(2000ms).has_value()) << "no successor";
  const ClusterBed::SpendAudit once = bed.audit_spends(1, 2000ms);
  if (run.ok) {
    EXPECT_TRUE(once.converged) << once.detail;
  } else {
    // Refused: the spend either died with the leader or landed with its
    // reply lost — never twice.
    EXPECT_TRUE(once.converged || bed.audit_spends(0, 100ms).converged)
        << once.detail;
  }
}

// A follower stops naming a leader it no longer hears from well before its
// election timeout, so the retry rule rotates instead of chasing the dead.
TEST(Cluster, StaleLeaderHintExpires) {
  ClusterBed bed(fast_config(20));
  const std::size_t leader = bed.bootstrap();
  bed.node(leader).stop();
  std::this_thread::sleep_for(4 * cas::kRaftHeartbeatInterval);
  for (std::size_t n = 0; n < bed.size(); ++n) {
    if (!bed.node(n).running()) continue;
    EXPECT_NE(bed.node(n).raft().leader_hint(), bed.address(leader))
        << "node " << n + 1;
  }
}

// A credential popped from a replica's pre-minted pool is armed through
// the log exactly like a freshly minted one: every replica — not only the
// serving leader — holds it armed, and it spends exactly once.
TEST(Cluster, PremintedCredentialIsArmedThroughTheLog) {
  ClusterBed bed(fast_config(21));
  const std::size_t leader = bed.bootstrap();
  server::CasServer& server = bed.node(leader).server();
  ASSERT_EQ(server.premint(bed.config().session_name,
                           bed.signed_image().sigstruct, 1),
            1u);

  cas::CasClient client = bed.make_client(leader);
  const ClusterBed::PreparedToken prepared = bed.prepare_token(client);
  ASSERT_TRUE(prepared.ok()) << prepared.instance.status.message();
  EXPECT_EQ(server.metrics().sigstruct_cache_hits.load(), 1u);
  EXPECT_EQ(server.metrics().sigstruct_cache_misses.load(), 0u);
  EXPECT_TRUE(outstanding_everywhere(bed, 1, 2000ms));

  const ClusterBed::AttestedSpend spend =
      bed.spend_with_retry(prepared, 7, bed.address(leader));
  EXPECT_TRUE(spend.attested) << to_string(spend.reject) << " " << spend.error;
  const ClusterBed::SpendAudit audit = bed.audit_spends(1, 2000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
  EXPECT_TRUE(outstanding_everywhere(bed, 0, 2000ms));
}

TEST(Cluster, ReplayStormAcrossLeaderKillSpendsExactlyOnce) {
  ClusterBed bed(fast_config(14));
  const std::size_t leader = bed.bootstrap();
  cas::CasClient client = bed.make_client(leader);

  // Prepare the storm while the original leader is healthy: each token
  // gets `racers` competing channels, each with its own quote.
  const std::size_t tokens = 4;
  const std::size_t racers = 2;
  std::vector<ClusterBed::PreparedToken> prepared;
  for (std::size_t t = 0; t < tokens; ++t) {
    prepared.push_back(bed.prepare_token(client));
    ASSERT_TRUE(prepared.back().ok())
        << prepared.back().instance.status.message();
  }

  std::vector<std::atomic<int>> accepted(tokens);
  std::vector<std::atomic<int>> reused(tokens);
  std::vector<std::thread> threads;
  const std::string target = bed.address(leader);
  for (std::size_t t = 0; t < tokens; ++t) {
    for (std::size_t r = 0; r < racers; ++r) {
      threads.emplace_back([&, t, r] {
        const ClusterBed::AttestedSpend got =
            bed.spend_with_retry(prepared[t], t * 100 + r, target);
        if (got.attested) accepted[t].fetch_add(1);
        // A non-routing rejection of a well-formed racer means the token
        // was already spent (the server keeps reuse rejections generic).
        if (!got.attested && got.error.empty() &&
            got.reject != StatusCode::kNotLeader &&
            got.reject != StatusCode::kUnavailable)
          reused[t].fetch_add(1);
      });
    }
  }
  // Kill the leader mid-storm: racers see accepted, kTokenReused, a typed
  // routing rejection, or a transport error — never a double acceptance.
  std::this_thread::sleep_for(3ms);
  bed.node(leader).stop();
  for (std::thread& th : threads) th.join();

  // Recovery round at the successor: every token not yet spent must spend
  // exactly once; every token already spent (including ghost spends by
  // the dying leader) must be refused as reused.
  const auto new_leader = bed.wait_for_leader(2000ms);
  ASSERT_TRUE(new_leader.has_value()) << "no successor elected";
  std::size_t spent = 0;
  for (std::size_t t = 0; t < tokens; ++t) {
    ASSERT_LE(accepted[t].load(), 1)
        << "token " << t << " accepted more than once during the storm";
    if (accepted[t].load() == 1 || reused[t].load() > 0) {
      ++spent;
      continue;
    }
    const ClusterBed::AttestedSpend retry =
        bed.spend_with_retry(prepared[t], 7000 + t, bed.address(*new_leader));
    const bool ghost = !retry.attested &&
                       retry.reject == StatusCode::kAttestationRejected;
    EXPECT_TRUE(retry.attested || ghost)
        << "token " << t << ": " << to_string(retry.reject) << " "
        << retry.error;
    if (retry.attested || ghost) ++spent;
  }
  EXPECT_EQ(spent, tokens);

  // Restart the killed node: it must rejoin, catch up, and agree on the
  // ledger — the sealed log forbids it from forgetting any spend.
  bed.node(leader).start();
  const ClusterBed::SpendAudit audit = bed.audit_spends(spent, 5000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
  ASSERT_EQ(audit.used.size(), 3u);
}

TEST(Cluster, TotalPartitionHaltsCommitsThenHealsAndRecovers) {
  ClusterBedConfig config = fast_config(15);
  config.raft.propose_timeout = 250ms;
  ClusterBed bed(config);
  const std::size_t leader = bed.bootstrap();

  // Script a full-mesh partition: every inter-node request dropped. No
  // majority is reachable from anywhere, so elections stall and the
  // leader cannot commit — proposals must fail *typed* within the propose
  // timeout, never hang.
  net::FaultPlan plan;
  plan.seed = 15;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    net::FaultWindow window;
    window.address_prefix = bed.address(i);
    window.faults.drop_request = 1.0;
    plan.windows.push_back(window);
  }
  bed.network().set_fault_plan(plan);

  cas::Policy partitioned = bed.default_policy();
  partitioned.session_name = "partitioned-install";
  const Status blocked = bed.node(leader).install_policy(partitioned);
  EXPECT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.code == StatusCode::kUnavailable ||
              blocked.code == StatusCode::kNotLeader)
      << to_string(blocked.code);

  // Heal: a leader must re-emerge within an election bound and the same
  // install must replicate cluster-wide.
  bed.network().set_fault_plan({});
  const auto healed = bed.wait_for_leader(2000ms);
  ASSERT_TRUE(healed.has_value()) << "no leader after heal";
  const Status installed = bed.install_policy(partitioned, 2000ms);
  EXPECT_TRUE(installed.ok()) << installed.message();

  cas::CasClient client = bed.make_client(*healed);
  const ClusterBed::SpendOutcome got = bed.attested_spend(client, 5);
  ASSERT_TRUE(got.prepared.ok()) << got.prepared.instance.status.message();
  EXPECT_TRUE(got.spend.attested) << to_string(got.spend.reject);
}

TEST(Cluster, IsolatedFollowerRejoinsAndCatchesUp) {
  ClusterBed bed(fast_config(16));
  const std::size_t leader = bed.bootstrap();
  const std::size_t isolated = (leader + 1) % bed.size();

  // Drop everything addressed to one follower: the remaining majority
  // keeps serving; the isolated node's election attempts cannot win (its
  // log falls behind) and must not wedge the cluster.
  net::FaultPlan plan;
  plan.seed = 16;
  net::FaultWindow window;
  window.address_prefix = bed.address(isolated);
  window.faults.drop_request = 1.0;
  plan.windows.push_back(window);
  bed.network().set_fault_plan(plan);

  cas::CasClient client = bed.make_client(leader);
  std::size_t spent = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const ClusterBed::SpendOutcome got = bed.attested_spend(client, 40 + i);
    ASSERT_TRUE(got.prepared.ok()) << got.prepared.instance.status.message();
    EXPECT_TRUE(got.spent()) << to_string(got.spend.reject);
    if (got.spent()) ++spent;
  }
  EXPECT_EQ(spent, 3u);

  // Heal: the rejoining follower must catch up to the full ledger.
  bed.network().set_fault_plan({});
  const ClusterBed::SpendAudit audit = bed.audit_spends(spent, 5000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
  ASSERT_EQ(audit.used.size(), 3u);
}

// Raft compaction and InstallSnapshot: a follower that was down while the
// leader compacted its log past everything the follower holds can only
// catch up from the snapshot, and boots from the snapshot it persisted.
TEST(Cluster, RestartedFollowerCatchesUpFromASnapshot) {
  ClusterBed bed(fast_config(18));
  const std::size_t leader = bed.bootstrap();
  const std::size_t follower = (leader + 1) % bed.size();
  const auto policy_name = [](std::size_t i) {
    std::string name = "snap-";
    name += std::to_string(i);
    return name;
  };

  bed.node(follower).stop();
  const std::size_t policies = cas::kRaftSnapshotThreshold + 44;
  for (std::size_t i = 0; i < policies; ++i) {
    cas::Policy policy = bed.default_policy();
    policy.session_name = policy_name(i);
    const Status installed = bed.install_policy(policy, 2000ms);
    ASSERT_TRUE(installed.ok()) << i << ": " << installed.message();
  }
  EXPECT_GE(bed.node(leader).raft().stats().snapshots_taken, 1u);

  // The leader's log no longer reaches back to the follower's last
  // entry: the follower catches up by InstallSnapshot.
  const std::string last = policy_name(policies - 1);
  bed.node(follower).start();
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (!bed.node(follower).cas().get_policy(last).has_value() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(bed.node(follower).cas().get_policy(last).has_value());
  EXPECT_GE(bed.node(follower).raft().stats().snapshots_installed, 1u);

  // Restarted again, it boots from its persisted snapshot before any
  // leader contact.
  bed.node(follower).stop();
  bed.node(follower).start();
  EXPECT_TRUE(bed.node(follower).cas().get_policy(policy_name(0)).has_value());

  // The cluster still spends exactly once, on all three nodes.
  cas::CasClient client = bed.make_client(leader);
  const ClusterBed::SpendOutcome got = bed.attested_spend(client, 90);
  ASSERT_TRUE(got.prepared.ok())
      << got.prepared.instance.status.message() << " " << got.prepared.error;
  EXPECT_TRUE(got.spend.attested)
      << to_string(got.spend.reject) << " " << got.spend.error;
  const ClusterBed::SpendAudit audit = bed.audit_spends(1, 3000ms);
  EXPECT_TRUE(audit.converged) << audit.detail;
  EXPECT_EQ(audit.used.size(), 3u);
}

TEST(Cluster, SealedStoreRollbackIsRefusedOnRestart) {
  ClusterBed bed(fast_config(17));
  const std::size_t leader = bed.bootstrap();
  const std::size_t victim = (leader + 1) % bed.size();

  // Snapshot the follower's sealed raft state, then advance it by
  // replicating a spend (every append persists through the monotonic
  // counter).
  const Bytes stale = bed.node(victim).store().blob();
  ASSERT_FALSE(stale.empty());

  cas::CasClient client = bed.make_client(leader);
  const ClusterBed::SpendOutcome got = bed.attested_spend(client, 77);
  ASSERT_TRUE(got.prepared.ok());
  ASSERT_TRUE(got.spend.attested);
  ASSERT_TRUE(bed.audit_spends(1, 2000ms).converged);

  // A restart from the stale blob is a rollback of a spent token — the
  // node must refuse to boot, not rejoin with pre-spend state.
  bed.node(victim).stop();
  bed.node(victim).store().set_blob(stale);
  EXPECT_THROW(bed.node(victim).start(), Error);
  EXPECT_FALSE(bed.node(victim).running());

  // The rest of the cluster is unharmed: majority still serves.
  const ClusterBed::SpendOutcome after = bed.attested_spend(client, 78);
  ASSERT_TRUE(after.prepared.ok())
      << after.prepared.instance.status.message();
  EXPECT_TRUE(after.spend.attested) << to_string(after.spend.reject);
}

}  // namespace
}  // namespace sinclave::workload
