// `start`: the full singleton start against one CAS behind
// server::CasServer — retrieval with the on-demand SigStruct signed inline
// (no pre-minted pool), construction and EINIT, then the in-enclave
// runtime: quote, attested handshake spending the token, get_config,
// mounting and verifying an 8 x 64 KiB encrypted volume, a trivial program.
//
// Each client thread is one host with its own SgxCpu and QuotingEnclave
// (the simulated platform is not thread-safe; real starters run on
// separate machines). The per-host QEs keep their default 1024-bit
// attestation key — a stand-in for DCAP's ECDSA, off the paper's measured
// path — while the signer and the CAS use RSA-3072, the size SGX's
// SIGSTRUCT mandates.
#include <memory>
#include <string>

#include "core/image.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "fs/encrypted_volume.h"
#include "runtime/enclave_runtime.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace sinclave;

constexpr const char* kServerAddress = "cas.perfbench";
constexpr const char* kSession = "perfbench-start";
constexpr const char* kProgram = "perfbench-app";
constexpr std::size_t kVolumeFiles = 8;
constexpr std::size_t kVolumeFileBytes = 64 << 10;

/// One starter machine: its own CPU, quoting enclave and runtime.
struct Host {
  Host(std::size_t index, std::uint64_t runtime_seed, workload::Testbed& bed)
      : cpu(sgx::SgxCpu::Config{kFixtureSeed + 1 + index, {}, true}) {
    crypto::Drbg qe_rng =
        crypto::Drbg::from_seed(kFixtureSeed + 1 + index, "perfbench-qe");
    qe = std::make_unique<quote::QuotingEnclave>(cpu, qe_rng);
    bed.attestation().register_platform(qe->attestation_key());
    runtime = std::make_unique<runtime::EnclaveRuntime>(
        &cpu, qe.get(), &bed.network(), &bed.programs(),
        runtime::RuntimeMode::kSinclave,
        crypto::Drbg::from_seed(runtime_seed, "perfbench-runtime"));
  }

  sgx::SgxCpu cpu;
  std::unique_ptr<quote::QuotingEnclave> qe;
  std::unique_ptr<runtime::EnclaveRuntime> runtime;
};

}  // namespace

RoundResult run_start_round(const Plan& plan, bool trace,
                            Clock::time_point setup_started) {
  CpuRotation rotation;
  RoundResult result;
  workload::TestbedConfig config;
  config.seed = kFixtureSeed;
  config.rsa_bits = 3072;
  workload::Testbed bed(config);

  const core::EnclaveImage image =
      core::EnclaveImage::synthetic("perfbench-start", 64 << 10, 256 << 10);
  const core::Signer signer(&bed.user_signer());
  const core::SinclaveSignedImage signed_image = signer.sign_sinclave(image);

  crypto::Drbg fs_rng = crypto::Drbg::from_seed(kFixtureSeed, "perfbench-fs");
  const Bytes fs_key = fs_rng.generate(32);
  fs::EncryptedVolume volume(
      fs_key, crypto::Drbg::from_seed(kFixtureSeed, "perfbench-volume"));
  for (std::size_t f = 0; f < kVolumeFiles; ++f)
    volume.write_file("data/shard-" + std::to_string(f),
                      fs_rng.generate(kVolumeFileBytes));

  cas::Policy policy;
  policy.session_name = kSession;
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.require_singleton = true;
  policy.base_hash = signed_image.base_hash;
  policy.config.program = kProgram;
  policy.config.fs_key = fs_key;
  policy.config.fs_manifest_root = volume.manifest_root();
  bed.cas().install_policy(policy);
  bed.programs().register_program(kProgram, [](runtime::AppContext& ctx) {
    ctx.output = std::to_string(ctx.volume->list_files().size());
    return 0;
  });
  const std::string expected_output = std::to_string(kVolumeFiles);

  server::CasServerConfig server_config;
  server_config.workers = kServerWorkers;
  server::CasServer server(&bed.cas(), server_config);
  server.bind(bed.network(), kServerAddress);

  std::vector<std::unique_ptr<Host>> hosts;
  for (std::size_t t = 0; t < plan.clients(); ++t)
    hosts.push_back(std::make_unique<Host>(t, plan.thread_seeds[t], bed));

  runtime::RunOptions options;
  options.cas_address = kServerAddress;
  options.cas_identity = bed.cas().identity();
  options.session_name = kSession;
  options.volume_blobs = volume.host_export();

  const OpFn op = [&](std::size_t t, std::size_t, SpanSums& spans) {
    Host& host = *hosts[t];
    const runtime::SingletonStart started =
        spans.time("runtime.start_singleton_ms", [&] {
          return runtime::start_singleton_enclave(
              host.cpu, bed.network(), kServerAddress, image,
              signed_image.sigstruct, kSession);
        });
    if (!started.ok()) return OpOutcome{false, "start: " + started.error};
    const runtime::RunResult run = spans.time(
        "runtime.run_ms", [&] { return host.runtime->run(started.enclave,
                                                         options); });
    host.cpu.eremove(started.enclave.id);
    if (!run.ok) return OpOutcome{false, "run: " + run.error};
    if (run.program_output != expected_output)
      return OpOutcome{false, "program output " + run.program_output};
    return OpOutcome{true, ""};
  };

  rotation.stop();
  RoundResult warmup;
  run_window(plan.clients(), plan.warmup_per_thread, false, op, warmup);
  if (warmup.failed != 0) {
    result.failures.push_back("warm-up failed: " + warmup.failures.front());
    return result;
  }

  const std::size_t tokens_before = bed.cas().tokens_used();
  const std::uint64_t trips_before = bed.network().round_trips();
  const auto secure_before = bed.cas().secure_channel_stats();
  const std::uint64_t misses_before =
      server.metrics().sigstruct_cache_misses.load();
  const std::uint64_t hits_before =
      server.metrics().sigstruct_cache_hits.load();
  result.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_started).count();
  run_window(plan.clients(), plan.ops_per_thread, trace, op, result);

  // Exactly one token spent per successful start, none for a failed one.
  const std::size_t spent = bed.cas().tokens_used() - tokens_before;
  if (spent != result.completed())
    result.failures.push_back("tokens spent " + std::to_string(spent) +
                              " != successful starts " +
                              std::to_string(result.completed()));
  if (!trace) return result;

  const auto secure_after = bed.cas().secure_channel_stats();
  const std::uint64_t hits =
      server.metrics().sigstruct_cache_hits.load() - hits_before;
  const std::uint64_t misses =
      server.metrics().sigstruct_cache_misses.load() - misses_before;
  Layers& layers = result.layers;
  add_layer(layers, "server.cache_hit_ratio", Agg::kRatio,
            static_cast<double>(hits), static_cast<double>(hits + misses));
  add_layer(layers, "server.max_in_flight", Agg::kMax,
            static_cast<double>(server.metrics().max_in_flight.load()));
  add_layer(layers, "net.round_trips_per_op", Agg::kPerOp,
            static_cast<double>(bed.network().round_trips() - trips_before));
  add_layer(layers, "net.stripe_collisions_per_op", Agg::kPerOp,
            static_cast<double>(secure_after.stripe_collisions -
                                secure_before.stripe_collisions));
  add_layer(layers, "net.sessions_open", Agg::kMax,
            static_cast<double>(secure_after.sessions_high_water));
  return result;
}

}  // namespace perfbench
