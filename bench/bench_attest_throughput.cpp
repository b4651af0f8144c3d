// Attested-session throughput: the one-exchange SecureServer under
// concurrent load.
//
// Every SinClave client must complete a quote-verified handshake before it
// gets its config, so the attested exchange is the serving layer's front
// door. The seed-era SecureServer serialized ALL handshakes — quote
// verification, DH, HKDF, and the identity signature included — behind one
// coarse mutex, so attested throughput was flat no matter how many
// workers the frontend ran. This bench drives concurrent FULL sessions
// (one attested exchange with a real quote + one-time token, whose sealed
// answer is the config) through server::CasServer and measures how
// session throughput scales with the worker count now that:
//
//   * the server keeps no per-client state: the exchange is one round
//     trip, and nothing is left to look up, lock or reap afterwards,
//   * all exchange crypto and the quote-verification hook run with no
//     lock held,
//   * token spends land in striped buckets and token minting draws from a
//     striped DRBG pool.
//
// Every planned session is prepared before any sweep runs (instance
// retrieval, enclave construction, EREPORT, quote, and the kAttest frame
// carrying the channel's record), and the phase table is reset only then.
// The timed region sends the frames over SimNetwork and keeps the answers
// — exactly the protocol work the server scales on, one exchange per
// session. The client half (the X25519 ladder, the Ed25519 verify and
// opening the sealed answer, which costs more than the server's half)
// runs after the sweep: every answer is finished then, and a rewritten,
// missing or refused one is a failed session. Timing it inside the sweep
// would put 8 client threads' crypto on the same cores as the workers and
// measure the host instead of the server's parallelism.
//
// Gate (like bench_fleet_throughput, enforced via exit status): >= 3x
// session throughput at 8 workers vs 1 worker with quote verification
// enabled. The full 3x bar needs >= 8 hardware threads; on smaller hosts
// the requirement degrades honestly (2x at >= 4, 1.2x at >= 2) and on a
// single-core host the scaling gate is waived (printed loudly) — the
// correctness invariants (zero failed sessions, every token spent exactly
// once, no exchange left open after a sweep) are always enforced.
//
// Flags: --smoke shrinks session counts for CI bit-rot checks; --json F
// writes the machine-readable trajectory record (tools/run_benches.sh
// points it at BENCH_attest.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "obs/trace.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

using namespace sinclave;
using FpMillis = std::chrono::duration<double, std::milli>;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kAddress = "cas.attest";
constexpr std::size_t kSessions = 4;  // distinct session policies

/// One fully prepared client: channel keys drawn, quote bound to them,
/// one-time token minted and registered, and the kAttest frame that
/// offers them built. The timed region sends the frame; the client half
/// finishes the answer afterwards.
struct Prepared {
  std::unique_ptr<net::SecureClient> client;
  Bytes offered;  // the serialized AttestPayload inside the record
  std::uint64_t request_id = 0;
  Bytes frame;
  Bytes answer;  // the reply frame; empty when the call failed
};

Prepared prepare_session(workload::Testbed& bed,
                         const core::EnclaveImage& image,
                         const sgx::SigStruct& common,
                         const std::string& session, std::uint64_t seed) {
  const cas::InstanceResult resp =
      bed.make_cas_client().get_instance(session, common);
  if (!resp.ok())
    throw Error("bench: instance retrieval failed: " + resp.status.message());

  core::InstancePage page;
  page.token = resp.token;
  page.verifier_id = resp.verifier_id;
  const auto enclave = runtime::start_enclave(
      bed.cpu(), image, resp.singleton_sigstruct, page);
  if (!enclave.ok()) throw Error("bench: enclave failed to initialize");

  Prepared p;
  p.client = std::make_unique<net::SecureClient>(
      crypto::Drbg::from_seed(seed, "attest-bench-channel"));
  const sgx::ReportData binding = net::channel_binding(p.client->dh_public());
  const sgx::Report report =
      bed.cpu().ereport(enclave.id, bed.qe().target_info(), binding);
  const auto quote = bed.qe().generate_quote(report);
  if (!quote.has_value()) throw Error("bench: quote generation failed");
  cas::AttestPayload payload;
  payload.session_name = session;
  payload.quote = *quote;
  payload.token = resp.token;
  p.offered = payload.serialize();
  p.request_id = seed;
  cas::Envelope env;
  env.command = cas::Command::kAttest;
  env.request_id = p.request_id;
  env.payload = p.client->offer(p.offered);
  p.frame = env.serialize();
  return p;
}

/// The client half of one exchange, run after the timed region: the
/// answer must be the kAttest reply to this session's request, accepted,
/// authentic under `identity`, and open to the policy's configuration.
bool finish_session(const Prepared& p,
                    const crypto::Ed25519PublicKey& identity) {
  try {
    const cas::Envelope reply = cas::Envelope::deserialize(p.answer);
    if (reply.command != cas::Command::kAttest ||
        reply.request_id != p.request_id)
      return false;
    const cas::AttestResponse resp =
        cas::AttestResponse::deserialize(reply.payload);
    if (!resp.ok()) return false;
    return cas::AppConfig::deserialize(
               p.client->finish(identity, p.offered, resp.acceptance))
               .program == "noop";
  } catch (const Error&) {  // IdentityMismatchError included
    return false;
  }
}

struct SweepResult {
  std::size_t workers = 0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// This sweep's contended DRBG-stripe leases (delta — the SecureServer
  /// and its monotone stats outlive each sweep's CasServer).
  std::uint64_t stripe_collisions = 0;
  /// Exchanges still open once the sweep's clients are done: must be 0,
  /// the server keeps nothing per client after answering.
  std::uint64_t open_sessions = 0;
  std::uint64_t failed = 0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::vector<Prepared> prepare_sweep(workload::Testbed& bed,
                                    const core::EnclaveImage& image,
                                    const sgx::SigStruct& common,
                                    const std::vector<std::string>& sessions,
                                    std::size_t total_sessions,
                                    std::uint64_t seed_base) {
  // Single-threaded: the simulated CPU's construction path is not the
  // system under test.
  std::vector<Prepared> prepared;
  prepared.reserve(total_sessions);
  for (std::size_t i = 0; i < total_sessions; ++i)
    prepared.push_back(prepare_session(bed, image, common,
                                       sessions[i % sessions.size()],
                                       seed_base + i));
  return prepared;
}

SweepResult run_sweep(workload::Testbed& bed, std::vector<Prepared>& prepared,
                      std::size_t workers, std::size_t client_threads) {
  server::CasServerConfig scfg;
  scfg.workers = workers;
  server::CasServer server(&bed.cas(), scfg);
  server.bind(bed.network(), kAddress);
  // The SecureServer (and its stats) lives on the CasService across
  // sweeps; report this sweep's collisions as a delta.
  const auto secure_before = bed.cas().secure_channel_stats();

  // The client threads start and connect before the clock does: the
  // timed region is the exchanges alone.
  std::atomic<std::size_t> next{0};
  std::latch ready(static_cast<std::ptrdiff_t>(client_threads) + 1);
  std::vector<std::vector<double>> latencies(client_threads);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      net::SimNetwork::Connection conn = bed.network().connect(kAddress);
      ready.arrive_and_wait();
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= prepared.size()) return;
        Prepared& p = prepared[i];
        const auto s0 = Clock::now();
        try {
          p.answer = conn.call(p.frame);
        } catch (const Error&) {
          continue;  // no answer: a failed session once checked
        }
        latencies[t].push_back(FpMillis(Clock::now() - s0).count());
      }
    });
  }
  ready.arrive_and_wait();
  const auto t0 = Clock::now();
  for (auto& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const auto secure_after = bed.cas().secure_channel_stats();
  server.unbind();

  SweepResult r;
  r.workers = workers;
  const crypto::Ed25519PublicKey& identity = bed.cas().identity();
  for (const Prepared& p : prepared)
    if (!finish_session(p, identity)) ++r.failed;
  const double completed =
      static_cast<double>(prepared.size() - r.failed);
  r.rps = wall_s > 0 ? completed / wall_s : 0.0;
  std::vector<double> merged;
  for (auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  r.p50_ms = percentile(merged, 0.50);
  r.p99_ms = percentile(merged, 0.99);
  r.stripe_collisions =
      secure_after.stripe_collisions - secure_before.stripe_collisions;
  r.open_sessions = secure_after.open_sessions;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  const std::size_t sessions_per_sweep = smoke ? 240 : 480;
  const std::size_t client_threads = smoke ? 8 : 16;
  const std::vector<std::size_t> worker_sweep =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8};

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== Attested-session throughput: one-exchange SecureServer ==\n");
  std::printf(
      "sessions/sweep=%zu clients=%zu hw-threads=%u (rsa-1024, quote "
      "verification ON)%s\n\n",
      sessions_per_sweep, client_threads, hw, smoke ? " [smoke]" : "");

  workload::TestbedConfig cfg;
  cfg.seed = 17;
  cfg.rsa_bits = 1024;
  workload::Testbed bed(cfg);

  const core::EnclaveImage image =
      core::EnclaveImage::synthetic("attest", 64 << 10, 256 << 10);
  const core::Signer signer(&bed.user_signer());
  const auto signed_image = signer.sign_sinclave(image);

  std::vector<std::string> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    cas::Policy policy;
    policy.session_name = "attest-" + std::to_string(i);
    policy.expected_signer =
        crypto::sha256(bed.user_signer().public_key().modulus_be());
    policy.require_singleton = true;
    policy.base_hash = signed_image.base_hash;
    policy.config.program = "noop";
    bed.cas().install_policy(policy);
    sessions.push_back(policy.session_name);
  }

  // --- single-session latency (the unit cost the sweep parallelizes) ----
  double single_ms = 0.0;
  {
    std::vector<Prepared> one = prepare_sweep(
        bed, image, signed_image.sigstruct, sessions, 1, 999);
    server::CasServerConfig scfg;
    scfg.workers = 1;
    server::CasServer server(&bed.cas(), scfg);
    server.bind(bed.network(), kAddress);
    const auto t0 = Clock::now();
    one.front().answer = bed.network().connect(kAddress).call(one.front().frame);
    const auto t1 = Clock::now();
    const bool accepted = finish_session(one.front(), bed.cas().identity());
    const auto t2 = Clock::now();
    server.unbind();
    if (!accepted) {
      std::printf("FAILED: warm-up session refused\n");
      return 1;
    }
    single_ms = FpMillis(t2 - t0).count();
    std::printf(
        "single attested exchange: %8.3f ms (round trip %.3f ms, client "
        "finish %.3f ms)\n\n",
        single_ms, FpMillis(t1 - t0).count(), FpMillis(t2 - t1).count());
  }

  // --- worker sweep: full sessions, quote verification on every one ----
  // Every sweep's sessions are prepared first; phase attribution restarts
  // after that, so the per-phase quantiles cover the exchanges, not the
  // preparation (quantiles are not delta-able).
  std::vector<std::vector<Prepared>> batches;
  for (std::size_t i = 0; i < worker_sweep.size(); ++i)
    batches.push_back(prepare_sweep(bed, image, signed_image.sigstruct,
                                    sessions, sessions_per_sweep,
                                    1000 * (i + 1)));
  obs::Tracer::instance().reset_phases();
  const std::size_t tokens_before = bed.cas().tokens_used();
  std::vector<SweepResult> results;
  std::uint64_t total_failed = 0;
  for (std::size_t i = 0; i < worker_sweep.size(); ++i) {
    const auto r = run_sweep(bed, batches[i], worker_sweep[i], client_threads);
    total_failed += r.failed;
    results.push_back(r);
  }

  std::printf("worker sweep, %zu full sessions each, %zu client threads:\n",
              sessions_per_sweep, client_threads);
  std::printf("  %-8s %14s %10s %10s %12s %10s\n", "workers", "sessions/s",
              "p50", "p99", "collisions", "left-open");
  for (const auto& r : results)
    std::printf("  %-8zu %14.1f %8.2fms %8.2fms %12llu %10llu\n", r.workers,
                r.rps, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.stripe_collisions),
                static_cast<unsigned long long>(r.open_sessions));

  // Per-phase latency attribution across the sweep (tracing stayed ON the
  // whole run — the <3% throughput budget vs the committed baseline is
  // the cost gate for exactly this).
  const auto phases = obs::Tracer::instance().phase_summaries();
  std::printf("\nper-phase latency attribution (tracing enabled):\n");
  std::printf("  %-24s %10s %12s %12s\n", "phase", "count", "p50", "p99");
  for (const auto& ph : phases)
    std::printf("  %-24s %10llu %10.1fus %10.1fus\n", ph.name,
                static_cast<unsigned long long>(ph.stats.count),
                static_cast<double>(ph.stats.p50.count()) / 1e3,
                static_cast<double>(ph.stats.p99.count()) / 1e3);

  // Correctness invariants: nothing failed, every prepared token was
  // spent exactly once (the striped spend store never double-spends or
  // loses a spend under contention), and no sweep left an exchange open.
  const std::size_t tokens_spent = bed.cas().tokens_used() - tokens_before;
  const std::size_t total_sessions =
      sessions_per_sweep * worker_sweep.size();
  const bool tokens_ok = tokens_spent == total_sessions;
  const bool closed_ok =
      std::all_of(results.begin(), results.end(),
                  [](const SweepResult& r) { return r.open_sessions == 0; });
  std::printf("\nfailed sessions: %llu %s\n",
              static_cast<unsigned long long>(total_failed),
              total_failed == 0 ? "(PASS)" : "(FAIL)");
  std::printf("tokens spent exactly once: %zu/%zu %s\n", tokens_spent,
              total_sessions, tokens_ok ? "(PASS)" : "(FAIL)");
  std::printf("exchanges left open after every sweep: 0 %s\n",
              closed_ok ? "(PASS)" : "(FAIL)");

  // Scaling gate, degraded honestly by available hardware parallelism:
  // the handshake path is pure CPU (quote verify + X25519 + Ed25519), so a
  // host with H threads can at best approach min(workers, H)x.
  const double scaling = results.front().rps > 0
                             ? results.back().rps / results.front().rps
                             : 0.0;
  const double required = hw >= 8 ? 3.0 : hw >= 4 ? 2.0 : hw >= 2 ? 1.2
                                                                  : 0.0;
  bool scaling_pass = true;
  if (required > 0.0) {
    scaling_pass = scaling >= required;
    std::printf("8 workers vs 1: %.2fx %s\n", scaling,
                scaling_pass
                    ? "(>= required scaling: PASS)"
                    : "(below required scaling: FAIL)");
    std::printf("required on this host: %.1fx (hw-threads=%u)\n", required,
                hw);
  } else {
    std::printf(
        "8 workers vs 1: %.2fx — scaling gate WAIVED (single hardware "
        "thread; the 3x bar is enforced on >= 8-thread hosts)\n",
        scaling);
  }

  if (json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fprintf(f, "{\n  \"smoke\": %s,\n  \"hw_threads\": %u,\n",
                   smoke ? "true" : "false", hw);
      std::fprintf(f, "  \"single_session_ms\": %.4f,\n", single_ms);
      std::fprintf(f, "  \"sweep\": [\n");
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::fprintf(
            f,
            "    {\"workers\": %zu, \"sessions_per_sec\": %.1f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"stripe_collisions\": %llu, \"open_sessions\": %llu}%s\n",
            r.workers, r.rps, r.p50_ms, r.p99_ms,
            static_cast<unsigned long long>(r.stripe_collisions),
            static_cast<unsigned long long>(r.open_sessions),
            i + 1 < results.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f, "  \"phases\": [\n");
      for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto& ph = phases[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"count\": %llu, \"p50_us\": %.1f, "
            "\"p99_us\": %.1f, \"mean_us\": %.1f}%s\n",
            ph.name, static_cast<unsigned long long>(ph.stats.count),
            static_cast<double>(ph.stats.p50.count()) / 1e3,
            static_cast<double>(ph.stats.p99.count()) / 1e3, static_cast<double>(ph.stats.mean().count()) / 1e3,
            i + 1 < phases.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f,
                   "  \"scaling_8w_vs_1w\": %.3f,\n  \"required\": %.2f,\n"
                   "  \"gate\": \"%s\"\n}\n",
                   scaling, required,
                   required == 0.0 ? "waived"
                                   : (scaling_pass ? "pass" : "fail"));
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path);
    } else {
      std::printf("\nWARNING: could not open %s for writing\n", json_path);
    }
  }

  return (total_failed == 0 && tokens_ok && closed_ok && scaling_pass) ? 0
                                                                     : 1;
}
