// Fleet throughput: the event-driven CAS serving layer under load.
//
// A fleet of starter clients hammers kGetInstance ("singleton
// page retrieval", the one protocol interaction SinClave adds per enclave
// start — Fig. 7c). Since the frontend became completion-driven, a request
// parks its backend-I/O stall on the timer wheel instead of a worker
// thread, so the old thread-per-request ceiling (workers / backend_io
// req/s) is gone. Four measurements pin the serving-layer properties down:
//
//  1. Cache effect on a single retrieval through the client endpoint:
//     a pre-minted cache hit skips the RSA-CRT signature (~2 ms at the
//     SGX key size; smaller at this benchmark's 1024-bit keys), the
//     dominant CPU cost of Fig. 7c, and the MRENCLAVE prediction too:
//     the pool serves by the stamp its credentials were minted under.
//
//  2. Batched vs serial minting: premint() coalesces its credentials
//     into CasService::mint_batch calls, paying the per-batch costs
//     (common-SigStruct verification, RNG lock, verifier id, signature
//     scratch arena) once per k credentials. Gate: batched
//     per-credential cost <= serial per-credential cost.
//
//  3. Closed-loop sync sweep, workers 1 -> 8, on the cached path with a
//     2 ms simulated backend stall. The event-driven frontend is
//     flat-at-the-top: even ONE worker sustains the whole 16-client
//     fleet, because no worker ever holds a stall. Gate: rps at 1 worker
//     >= 4x the thread-bound ceiling (1 worker / backend_io); cached-path
//     p50 at 8 workers stays within 2x backend_io.
//
//  4. Open-loop async mode (the acceptance bar of the async frontend):
//     64 logical clients multiplexed over 4 issuing threads fire Poisson
//     arrivals via async_call against 8 workers with an 8 ms backend
//     stall. Gate: sustained in-flight >= 4x worker threads.
//
// Keys are RSA-1024 to keep setup time sane; the *relative* effects are
// key-size independent (the cached path skips the signature entirely).
//
// Flags: --smoke shrinks request counts for CI bit-rot checks; --json F
// writes the machine-readable trajectory record (tools/run_benches.sh
// points it at BENCH_fleet.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cas/client.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "server/cas_server.h"
#include "workload/load_gen.h"
#include "workload/testbed.h"

using namespace sinclave;
using FpMillis = std::chrono::duration<double, std::milli>;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kAddress = "cas.fleet";
constexpr std::size_t kClients = 16;
constexpr std::size_t kSessions = 4;
constexpr auto kBackendIo = std::chrono::microseconds(2000);

struct SweepResult {
  std::size_t workers = 0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t max_in_flight = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  const std::size_t requests_per_client = smoke ? 10 : 50;
  // Kept full-size even under --smoke: the serial-vs-batch gate needs the
  // averaging, and 2x96 mints is milliseconds, not the slow part.
  const std::size_t mint_count = 96;

  std::printf("== Fleet throughput: event-driven CAS serving layer ==\n");
  std::printf("clients=%zu requests=%zu sessions=%zu backend-io=%lldus%s\n\n",
              kClients, kClients * requests_per_client, kSessions,
              static_cast<long long>(kBackendIo.count()),
              smoke ? " [smoke]" : "");

  workload::TestbedConfig cfg;
  cfg.seed = 91;
  cfg.rsa_bits = 1024;
  workload::Testbed bed(cfg);

  const core::EnclaveImage image =
      core::EnclaveImage::synthetic("fleet", 256 << 10, 4 << 20);
  const core::Signer signer(&bed.user_signer());
  const auto signed_image = signer.sign_sinclave(image);

  std::vector<std::string> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    cas::Policy policy;
    policy.session_name = "fleet-" + std::to_string(i);
    policy.expected_signer =
        crypto::sha256(bed.user_signer().public_key().modulus_be());
    policy.require_singleton = true;
    policy.base_hash = signed_image.base_hash;
    policy.config.program = "noop";
    bed.cas().install_policy(policy);
    sessions.push_back(policy.session_name);
  }

  // --- 1. cached vs uncached single-retrieval latency ---------------------
  double cold_ms = 0, warm_miss_ms = 0, hit_ms = 0;
  {
    server::CasServerConfig scfg;
    scfg.workers = 1;
    server::CasServer server(&bed.cas(), scfg);
    server.bind(bed.network(), kAddress);
    cas::CasClientConfig ccfg;
    ccfg.address = kAddress;
    cas::CasClient client(&bed.network(), ccfg);
    (void)client.connect();  // keep the connect out of the timed calls
    const auto retrieve = [&] {
      (void)client.get_instance(sessions[0], signed_image.sigstruct);
    };

    auto t0 = Clock::now();
    retrieve();  // cold: verify + predict + sign
    cold_ms = FpMillis(Clock::now() - t0).count();

    t0 = Clock::now();
    retrieve();  // warm memo, still signs
    warm_miss_ms = FpMillis(Clock::now() - t0).count();

    server.premint(sessions[0], signed_image.sigstruct, 1);
    t0 = Clock::now();
    retrieve();  // pre-minted: no RSA on the path
    hit_ms = FpMillis(Clock::now() - t0).count();

    std::printf("single retrieval (rsa-1024):\n");
    std::printf("  cold (verify+sign)        %8.3f ms\n", cold_ms);
    std::printf("  memoized verify, signing  %8.3f ms\n", warm_miss_ms);
    std::printf("  pre-minted cache hit      %8.3f ms\n\n", hit_ms);
  }

  // --- 2. batched vs serial minting (premint's unit economics) -----------
  // Interleaved best-of-3 chunks: per-credential cost is a few hundred
  // microseconds, so a transient scheduler stall in one chunk must not
  // decide the comparison.
  double serial_ms_per_cred = 0, batch_ms_per_cred = 0;
  {
    const auto policy = bed.cas().get_policy(sessions[0]);
    // Warm both paths (contexts, scratch TLS) outside the timed regions.
    (void)bed.cas().mint_credential(*policy, signed_image.sigstruct);
    (void)bed.cas().mint_batch(*policy, signed_image.sigstruct, 2);

    const std::size_t chunk = mint_count / 3;
    double serial_best = 1e99, batch_best = 1e99;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < chunk; ++i)
        (void)bed.cas().mint_credential(*policy, signed_image.sigstruct);
      serial_best = std::min(serial_best,
                             FpMillis(Clock::now() - t0).count() /
                                 static_cast<double>(chunk));
      t0 = Clock::now();
      const auto batch =
          bed.cas().mint_batch(*policy, signed_image.sigstruct, chunk);
      batch_best = std::min(batch_best,
                            FpMillis(Clock::now() - t0).count() /
                                static_cast<double>(batch.size()));
    }
    serial_ms_per_cred = serial_best;
    batch_ms_per_cred = batch_best;

    std::printf("minting 3x%zu credentials (rsa-1024), best chunk:\n", chunk);
    std::printf("  serial mint_credential    %8.3f ms/credential\n",
                serial_ms_per_cred);
    std::printf("  batched mint_batch        %8.3f ms/credential  (%.2fx)\n\n",
                batch_ms_per_cred, serial_ms_per_cred / batch_ms_per_cred);
  }

  // --- 3. closed-loop worker sweep on the cached retrieval path -----------
  const std::size_t total_requests = kClients * requests_per_client;
  std::vector<SweepResult> results;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    server::CasServerConfig scfg;
    scfg.workers = workers;
    scfg.sigstruct_cache_capacity = 2 * total_requests;
    scfg.backend_io = kBackendIo;
    server::CasServer server(&bed.cas(), scfg);
    server.bind(bed.network(), kAddress);

    // Warm the cached path: commons verified, and pre-minted credentials
    // per upcoming request (sessions are drawn from the seeded client
    // RNGs, so pad for the draw's variance).
    const std::size_t per_session = total_requests / kSessions + 64;
    for (const auto& session : sessions)
      server.premint(session, signed_image.sigstruct, per_session);

    workload::LoadGenConfig load;
    load.clients = kClients;
    load.requests_per_client = requests_per_client;
    load.address = kAddress;
    load.sessions = sessions;
    load.base_seed = 91;
    const auto run =
        workload::run_instance_load(bed.network(), signed_image.sigstruct,
                                    load);
    if (run.failed != 0) {
      std::printf("FAILED: %llu requests failed (%s)\n",
                  static_cast<unsigned long long>(run.failed),
                  run.first_error.c_str());
      return 1;
    }

    SweepResult r;
    r.workers = workers;
    r.rps = run.requests_per_sec();
    r.p50_ms = FpMillis(run.latency.p50).count();
    r.p99_ms = FpMillis(run.latency.p99).count();
    r.cache_hits = server.metrics().sigstruct_cache_hits.load();
    r.cache_misses = server.metrics().sigstruct_cache_misses.load();
    r.max_in_flight = server.metrics().max_in_flight.load();
    results.push_back(r);

    server.unbind();
  }

  std::printf("closed loop, cached path, %zu requests, %zu client threads:\n",
              total_requests, kClients);
  std::printf("  %-8s %12s %10s %10s %8s %8s %10s\n", "workers", "req/s",
              "p50", "p99", "hits", "misses", "max-infl");
  for (const auto& r : results)
    std::printf("  %-8zu %12.1f %8.2fms %8.2fms %8llu %8llu %10llu\n",
                r.workers, r.rps, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses),
                static_cast<unsigned long long>(r.max_in_flight));

  // The thread-bound ceiling a worker-pinned frontend cannot beat: with
  // stalls held on worker threads, W workers serve at most W/backend_io.
  const double ceiling_1w =
      1e6 / static_cast<double>(kBackendIo.count());  // req/s at 1 worker
  const double detach_factor = results.front().rps / ceiling_1w;
  const double p50_8w_ms = results.back().p50_ms;
  const double backend_ms = kBackendIo.count() / 1e3;
  std::printf(
      "\n1 worker vs thread-bound ceiling (%.0f req/s): %.1fx %s\n",
      ceiling_1w, detach_factor,
      detach_factor >= 4.0 ? "(>= 4x: stalls off-thread, PASS)"
                           : "(< 4x: FAIL)");
  std::printf("cached-path p50 at 8 workers: %.2fms %s\n", p50_8w_ms,
              p50_8w_ms <= 2.0 * backend_ms ? "(<= 2x backend-io: PASS)"
                                            : "(regressed: FAIL)");
  // Gate with a noise allowance: the batch path strictly removes work
  // (per-credential RSA verify, RNG lock, arena setup), so anything past
  // noise above serial is a real regression. Smoke runs on shared CI
  // runners get a wider band — their chunks are the same size but the
  // ambient scheduler noise is much larger.
  const double mint_tolerance = smoke ? 1.10 : 1.02;
  const bool mint_pass =
      batch_ms_per_cred <= serial_ms_per_cred * mint_tolerance;
  std::printf("batched vs serial minting: %.3f vs %.3f ms/cred %s\n",
              batch_ms_per_cred, serial_ms_per_cred,
              mint_pass ? "(batch <= serial: PASS)" : "(regressed: FAIL)");

  // --- 4. open-loop async mode: in-flight >> workers ----------------------
  constexpr std::size_t kOpenWorkers = 8;
  constexpr std::size_t kLogicalClients = 64;
  const std::size_t open_requests = smoke ? 8 : 25;  // per logical client
  constexpr auto kOpenBackendIo = std::chrono::microseconds(8000);
  constexpr auto kMeanInterarrival = std::chrono::microseconds(8000);

  server::CasServerConfig scfg;
  scfg.workers = kOpenWorkers;
  scfg.sigstruct_cache_capacity = 4096;
  scfg.backend_io = kOpenBackendIo;
  server::CasServer server(&bed.cas(), scfg);
  server.bind(bed.network(), kAddress);
  const std::size_t open_total = kLogicalClients * open_requests;
  for (const auto& session : sessions)
    server.premint(session, signed_image.sigstruct,
                   open_total / kSessions + 120);

  workload::LoadGenConfig load;
  load.mode = workload::LoadMode::kOpen;
  load.clients = 4;  // issuing threads
  load.logical_clients = kLogicalClients;
  load.requests_per_client = open_requests;
  load.mean_interarrival = kMeanInterarrival;
  load.address = kAddress;
  load.sessions = sessions;
  load.base_seed = 91;
  const auto run =
      workload::run_instance_load(bed.network(), signed_image.sigstruct,
                                  load);
  server.unbind();
  if (run.failed != 0) {
    std::printf("FAILED: %llu open-loop requests failed (%s)\n",
                static_cast<unsigned long long>(run.failed),
                run.first_error.c_str());
    return 1;
  }

  std::printf(
      "\nopen loop: %zu logical clients on %zu issuing threads, "
      "%zu workers, backend-io=%lldus, mean-interarrival=%lldus:\n",
      kLogicalClients, static_cast<std::size_t>(load.clients), kOpenWorkers,
      static_cast<long long>(kOpenBackendIo.count()),
      static_cast<long long>(kMeanInterarrival.count()));
  std::printf("  requests=%llu  req/s=%.1f  p50=%.2fms  p99=%.2fms\n",
              static_cast<unsigned long long>(run.ok),
              run.requests_per_sec(), FpMillis(run.latency.p50).count(),
              FpMillis(run.latency.p99).count());
  std::printf("  in-flight: sustained=%.1f  peak=%llu  (server peak=%llu)\n",
              run.sustained_in_flight,
              static_cast<unsigned long long>(run.max_in_flight),
              static_cast<unsigned long long>(
                  server.metrics().max_in_flight.load()));

  const double required = 4.0 * static_cast<double>(kOpenWorkers);
  std::printf("\nsustained in-flight vs %zu workers: %.1fx %s\n",
              kOpenWorkers,
              run.sustained_in_flight / static_cast<double>(kOpenWorkers),
              run.sustained_in_flight >= required
                  ? "(>= 4x workers: PASS)"
                  : "(< 4x workers: FAIL)");

  if (json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
      std::fprintf(f,
                   "  \"single_retrieval_ms\": {\"cold\": %.4f, "
                   "\"warm_miss\": %.4f, \"cache_hit\": %.4f},\n",
                   cold_ms, warm_miss_ms, hit_ms);
      std::fprintf(f,
                   "  \"mint\": {\"serial_ms_per_cred\": %.4f, "
                   "\"batch_ms_per_cred\": %.4f, \"speedup\": %.3f},\n",
                   serial_ms_per_cred, batch_ms_per_cred,
                   serial_ms_per_cred / batch_ms_per_cred);
      std::fprintf(f, "  \"closed_loop\": [\n");
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::fprintf(f,
                     "    {\"workers\": %zu, \"ops_per_sec\": %.1f, "
                     "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                     r.workers, r.rps, r.p50_ms, r.p99_ms,
                     i + 1 < results.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f,
                   "  \"open_loop\": {\"ops_per_sec\": %.1f, \"p50_ms\": "
                   "%.3f, \"p99_ms\": %.3f, \"sustained_in_flight\": %.1f, "
                   "\"max_in_flight\": %llu},\n",
                   run.requests_per_sec(), FpMillis(run.latency.p50).count(),
                   FpMillis(run.latency.p99).count(), run.sustained_in_flight,
                   static_cast<unsigned long long>(run.max_in_flight));
      // Per-phase attribution of the open-loop window (the load generator
      // scopes the tracer's phase histograms to its run).
      std::fprintf(f, "  \"phases\": [\n");
      for (std::size_t i = 0; i < run.phases.size(); ++i) {
        const auto& ph = run.phases[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"count\": %llu, \"p50_us\": %.1f, "
            "\"p99_us\": %.1f, \"mean_us\": %.1f}%s\n",
            ph.name, static_cast<unsigned long long>(ph.stats.count),
            static_cast<double>(ph.stats.p50.count()) / 1e3,
            static_cast<double>(ph.stats.p99.count()) / 1e3, static_cast<double>(ph.stats.mean().count()) / 1e3,
            i + 1 < run.phases.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path);
    } else {
      std::printf("\nWARNING: could not open %s for writing\n", json_path);
    }
  }

  const bool pass = detach_factor >= 4.0 &&
                    p50_8w_ms <= 2.0 * backend_ms && mint_pass &&
                    run.sustained_in_flight >= required;
  return pass ? 0 : 1;
}
