// Kill-the-leader failover gate (ISSUE 10): a 3-node replicated CAS
// cluster serves an attested-spend fleet through a scripted leader kill
// and restart, and the run *gates* on the replication invariants rather
// than just reporting throughput:
//
//   * zero double-spends, asserted over ALL nodes — every replica must
//     converge to exactly the client-observed spend count,
//   * bounded recovery — the first spend that *starts* after the kill
//     lands within --recovery-bound-ms of it (a spend already in flight at
//     the old leader measures nothing about the election),
//   * availability through the window — spends succeed before the kill,
//     during the failover window (clients chase kNotLeader hints to the
//     successor), and after the killed node rejoins,
//   * typed failures only — no exception ever escapes the SDK/harness.
//
// Flags: --smoke shrinks the windows for sanitizer CI; --json F writes
// the machine-readable record (tools/run_benches.sh points it at
// BENCH_cluster.json); --seed N reseeds the whole platform. Exit status
// is 0 iff every gate holds.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "common/error.h"
#include "workload/cluster.h"

using namespace sinclave;
using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

namespace {

struct PhaseCounts {
  std::atomic<std::uint64_t> spent{0};
  std::atomic<std::uint64_t> failed{0};
};

double per_second(std::uint64_t ops, std::chrono::milliseconds window) {
  if (window.count() == 0) return 0.0;
  return static_cast<double>(ops) * 1000.0 /
         static_cast<double>(window.count());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  std::uint64_t seed = 1;
  std::int64_t recovery_bound_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--recovery-bound-ms") == 0 && i + 1 < argc)
      recovery_bound_ms = std::strtoll(argv[++i], nullptr, 10);
  }

  const std::size_t fleet = smoke ? 2 : 3;
  const std::chrono::milliseconds window(smoke ? 300 : 1000);

  workload::ClusterBedConfig config;
  config.seed = seed;
  config.nodes = 3;
  config.raft.propose_timeout = 500ms;
  workload::ClusterBed bed(config);
  const std::size_t leader = bed.bootstrap();
  std::printf("bench_cluster: 3 nodes, fleet=%zu, window=%lld ms, "
              "seed=%llu%s — leader is node %zu\n",
              fleet, static_cast<long long>(window.count()),
              static_cast<unsigned long long>(seed), smoke ? " [smoke]" : "",
              leader + 1);

  // Phases: 0 = pre-kill, 1 = failover window (leader dead), 2 = healed
  // (killed node restarted). Workers bucket each spend by the phase at
  // completion time; recovery counts only spends begun in phase 1 or
  // later, which the old leader can no longer serve.
  std::atomic<int> phase{0};
  std::atomic<bool> run{true};
  std::atomic<std::uint64_t> untyped{0};
  std::atomic<std::int64_t> first_recovered_ns{0};
  PhaseCounts counts[3];

  std::vector<cas::CasClient> clients;
  clients.reserve(fleet);
  for (std::size_t i = 0; i < fleet; ++i) {
    cas::RetryPolicy retry;
    // A spend whose reply died with the leader learns its outcome only
    // from the successor (as a reuse rejection), so a retry lasts one
    // election: the deadline, not the attempt count, ends it.
    retry.max_attempts = 64;
    retry.deadline = 500ms;
    // Pace the no-leader interval: hint-driven redirects stay immediate,
    // but blind retries while the successor campaigns back off in ms, not
    // the 200us default — the fleet probes, it does not storm.
    retry.initial_backoff = std::chrono::microseconds(1000);
    retry.max_backoff = std::chrono::microseconds(20'000);
    clients.push_back(bed.make_client(leader, retry));
  }

  Clock::time_point killed_at{};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < fleet; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t nonce = w * 1'000'000;
      while (run.load(std::memory_order_acquire)) {
        try {
          const int started = phase.load(std::memory_order_acquire);
          const workload::ClusterBed::SpendOutcome got =
              bed.attested_spend(clients[w], ++nonce);
          const int p = phase.load(std::memory_order_acquire);
          if (got.spent()) {
            counts[p].spent.fetch_add(1, std::memory_order_relaxed);
            if (started >= 1) {
              std::int64_t expected = 0;
              first_recovered_ns.compare_exchange_strong(
                  expected,
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
            }
          } else {
            counts[p].failed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (...) {
          untyped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(window);  // phase 0: healthy cluster

  killed_at = Clock::now();
  bed.node(leader).stop();
  phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(window);  // phase 1: failover + successor

  bed.node(leader).start();  // rejoin from the sealed log
  phase.store(2, std::memory_order_release);
  std::this_thread::sleep_for(window);  // phase 2: healed, 3 nodes again

  run.store(false, std::memory_order_release);
  for (std::thread& t : workers) t.join();

  const std::uint64_t pre = counts[0].spent.load();
  const std::uint64_t during = counts[1].spent.load();
  const std::uint64_t post = counts[2].spent.load();
  const std::uint64_t total_spent = pre + during + post;

  double recovery_ms = -1.0;
  if (first_recovered_ns.load() != 0) {
    recovery_ms =
        static_cast<double>(
            first_recovered_ns.load() -
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                killed_at.time_since_epoch())
                .count()) /
        1e6;
  }

  std::uint64_t redirects = 0;
  for (cas::CasClient& c : clients) redirects += c.stats().leader_redirects;

  // The ledger close: every running replica must agree on exactly the
  // client-observed spend count. Any divergence — a double apply, a lost
  // spend, a replica that forgot — fails the gate.
  const workload::ClusterBed::SpendAudit audit =
      bed.audit_spends(total_spent, 10'000ms);
  std::int64_t double_spends = 0;
  for (std::size_t used : audit.used) {
    const std::int64_t extra =
        static_cast<std::int64_t>(used) - static_cast<std::int64_t>(total_spent);
    if (extra > double_spends) double_spends = extra;
  }

  struct Gate {
    const char* name;
    bool ok;
  };
  std::vector<Gate> gates = {
      {"ledger converged on every node (zero double-spends)",
       audit.converged && double_spends == 0},
      {"spends succeeded before the kill", pre > 0},
      {"spends succeeded during the failover window", during > 0},
      {"spends succeeded after the killed node rejoined", post > 0},
      {"recovery within bound",
       recovery_ms >= 0.0 &&
           recovery_ms <= static_cast<double>(recovery_bound_ms)},
      {"no untyped failures escaped the harness", untyped.load() == 0},
  };
  bool all_passed = true;
  for (const Gate& g : gates) all_passed = all_passed && g.ok;

  std::printf("  pre-kill:  %llu spends (%.1f/s)\n",
              static_cast<unsigned long long>(pre), per_second(pre, window));
  std::printf("  failover:  %llu spends (%.1f/s), recovery %.1f ms\n",
              static_cast<unsigned long long>(during),
              per_second(during, window), recovery_ms);
  std::printf("  post-heal: %llu spends (%.1f/s)\n",
              static_cast<unsigned long long>(post), per_second(post, window));
  std::printf("  redirects=%llu failed=[%llu,%llu,%llu] untyped=%llu\n",
              static_cast<unsigned long long>(redirects),
              static_cast<unsigned long long>(counts[0].failed.load()),
              static_cast<unsigned long long>(counts[1].failed.load()),
              static_cast<unsigned long long>(counts[2].failed.load()),
              static_cast<unsigned long long>(untyped.load()));
  if (!audit.converged) std::printf("  LEDGER: %s\n", audit.detail.c_str());
  for (const Gate& g : gates)
    std::printf("  gate %-52s %s\n", g.name, g.ok ? "PASS" : "FAIL");
  std::printf("bench_cluster: %s\n", all_passed ? "ALL PASS" : "FAILURES");

  if (json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fprintf(f, "{\n");
      std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
      std::fprintf(f, "  \"seed\": %llu,\n",
                   static_cast<unsigned long long>(seed));
      std::fprintf(f, "  \"nodes\": 3,\n  \"fleet\": %zu,\n", fleet);
      std::fprintf(f, "  \"window_ms\": %lld,\n",
                   static_cast<long long>(window.count()));
      std::fprintf(f, "  \"pre_kill_spends\": %llu,\n",
                   static_cast<unsigned long long>(pre));
      std::fprintf(f, "  \"during_spends\": %llu,\n",
                   static_cast<unsigned long long>(during));
      std::fprintf(f, "  \"post_heal_spends\": %llu,\n",
                   static_cast<unsigned long long>(post));
      std::fprintf(f, "  \"pre_kill_per_s\": %.3f,\n",
                   per_second(pre, window));
      std::fprintf(f, "  \"during_per_s\": %.3f,\n",
                   per_second(during, window));
      std::fprintf(f, "  \"post_heal_per_s\": %.3f,\n",
                   per_second(post, window));
      std::fprintf(f, "  \"recovery_ms\": %.3f,\n", recovery_ms);
      std::fprintf(f, "  \"recovery_bound_ms\": %lld,\n",
                   static_cast<long long>(recovery_bound_ms));
      std::fprintf(f, "  \"leader_redirects\": %llu,\n",
                   static_cast<unsigned long long>(redirects));
      std::fprintf(f, "  \"double_spends\": %lld,\n",
                   static_cast<long long>(double_spends));
      std::fprintf(f, "  \"ledger_converged\": %s,\n",
                   audit.converged ? "true" : "false");
      std::fprintf(f, "  \"untyped_failures\": %llu,\n",
                   static_cast<unsigned long long>(untyped.load()));
      std::fprintf(f, "  \"gates\": [\n");
      for (std::size_t i = 0; i < gates.size(); ++i)
        std::fprintf(f, "    {\"name\": \"%s\", \"passed\": %s}%s\n",
                     gates[i].name, gates[i].ok ? "true" : "false",
                     i + 1 < gates.size() ? "," : "");
      std::fprintf(f, "  ],\n  \"all_passed\": %s\n}\n",
                   all_passed ? "true" : "false");
      std::fclose(f);
      std::printf("wrote %s\n", json_path);
    } else {
      std::printf("WARNING: could not open %s for writing\n", json_path);
    }
  }
  return all_passed ? 0 : 1;
}
