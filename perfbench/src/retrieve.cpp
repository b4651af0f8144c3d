// `retrieve`: singleton page retrieval only — CasClient::get_instance
// against CasServer's instance endpoint, zipfian (theta 0.99) over 64
// sessions. Set-up pre-mints exactly the credentials the round's schedule
// will take, so the measured window is the cached path on every run: client
// SDK, envelope codec, sim network, worker queue, policy store, SigStruct
// cache and token registration, with almost no crypto. No RSA operation is
// on the measured path, so the fixture uses RSA-1024 to keep the pool fill
// short.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "cas/client.h"
#include "core/image.h"
#include "core/predictor.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "server/cas_server.h"
#include "workload/testbed.h"
#include "workloads.h"

namespace perfbench {

using namespace sinclave;

namespace {

constexpr const char* kServerAddress = "cas.perfbench";
/// Credentials a minting thread takes from the fill's cursor at a time.
constexpr std::size_t kMintChunk = 16;

}  // namespace

RoundResult run_retrieve_round(const Plan& plan, bool trace,
                               Clock::time_point setup_started) {
  CpuRotation rotation;
  RoundResult result;
  workload::TestbedConfig config;
  config.seed = kFixtureSeed;
  config.rsa_bits = 1024;
  workload::Testbed bed(config);

  const core::EnclaveImage image =
      core::EnclaveImage::synthetic("perfbench-retrieve", 64 << 10, 256 << 10);
  const core::Signer signer(&bed.user_signer());
  const core::SinclaveSignedImage signed_image = signer.sign_sinclave(image);
  const Hash256 signer_id =
      crypto::sha256(bed.user_signer().public_key().modulus_be());

  const std::vector<std::string> sessions = retrieve_session_names();
  for (const std::string& name : sessions) {
    cas::Policy policy;
    policy.session_name = name;
    policy.expected_signer = signer_id;
    policy.require_singleton = true;
    policy.base_hash = signed_image.base_hash;
    policy.config.program = "noop";
    bed.cas().install_policy(policy);
  }

  // Exactly the credentials the schedule takes, warm-up included.
  std::vector<std::size_t> demand(sessions.size(), 0);
  std::size_t total = 0;
  for (const auto& thread_ops : plan.ops) {
    for (const std::uint64_t s : thread_ops) ++demand[s];
    total += thread_ops.size();
  }
  server::CasServerConfig server_config;
  server_config.workers = kServerWorkers;
  server_config.sigstruct_cache_capacity = total;
  server::CasServer server(&bed.cas(), server_config);
  // The fill runs on one minting thread per client (premint is
  // thread-safe). They take the demand in small chunks from a shared
  // cursor, so a thread on a CPU the host has slowed takes fewer chunks
  // instead of holding the others up at the end.
  struct Chunk {
    std::size_t session;
    std::size_t count;
  };
  std::vector<Chunk> chunks;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (std::size_t left = demand[s]; left != 0;) {
      const std::size_t n = std::min(left, kMintChunk);
      chunks.push_back({s, n});
      left -= n;
    }
  }
  const std::size_t clients = plan.clients();
  std::vector<std::size_t> minted(clients, 0);
  rotation.stop();
  std::atomic<std::size_t> cursor{0};
  {
    std::vector<std::thread> minters;
    for (std::size_t t = 0; t < clients; ++t) {
      minters.emplace_back([&, t] {
        for (std::size_t c = cursor++; c < chunks.size(); c = cursor++) {
          minted[t] += server.premint(sessions[chunks[c].session],
                                      signed_image.sigstruct, chunks[c].count);
        }
      });
    }
    for (auto& minter : minters) minter.join();
  }
  if (const std::size_t filled =
          std::accumulate(minted.begin(), minted.end(), std::size_t{0});
      filled != total) {
    result.failures.push_back("pool fill minted " + std::to_string(filled) +
                              " of " + std::to_string(total));
    return result;
  }
  server.bind(bed.network(), kServerAddress);

  cas::CasClientConfig client_config;
  client_config.address = kServerAddress;
  std::vector<cas::CasClient> cas_clients;
  for (std::size_t t = 0; t < clients; ++t)
    cas_clients.emplace_back(&bed.network(), client_config);

  // Per-thread result slots, written only by their own thread.
  std::vector<std::vector<core::AttestationToken>> tokens(clients);
  std::vector<std::vector<int>> sample_slot(clients);
  for (std::size_t t = 0; t < clients; ++t) {
    tokens[t].resize(plan.ops_per_thread);
    sample_slot[t].assign(plan.ops_per_thread, -1);
  }
  for (std::size_t k = 0; k < plan.sampled.size(); ++k)
    sample_slot[plan.sampled[k].first][plan.sampled[k].second] =
        static_cast<int>(k);
  std::vector<std::optional<cas::InstanceResult>> samples(plan.sampled.size());

  std::size_t offset = 0;  // warm-up ops first, then the measured ones
  bool measuring = false;
  const OpFn op = [&](std::size_t t, std::size_t i, SpanSums& spans) {
    const std::string& session = sessions[plan.ops[t][offset + i]];
    cas::InstanceResult got =
        spans.time("client.get_instance_call_ms", [&] {
          return cas_clients[t].get_instance(session, signed_image.sigstruct);
        });
    if (!got.ok()) return OpOutcome{false, got.status.message()};
    if (measuring) {
      tokens[t][i] = got.token;
      if (const int slot = sample_slot[t][i]; slot >= 0)
        samples[static_cast<std::size_t>(slot)] = std::move(got);
    }
    return OpOutcome{true, ""};
  };

  RoundResult warmup;
  run_window(clients, plan.warmup_per_thread, false, op, warmup);
  if (warmup.failed != 0) {
    result.failures.push_back("warm-up failed: " + warmup.failures.front());
    return result;
  }

  offset = plan.warmup_per_thread;
  measuring = true;
  const std::uint64_t trips_before = bed.network().round_trips();
  const std::uint64_t hits_before =
      server.metrics().sigstruct_cache_hits.load();
  const std::uint64_t misses_before =
      server.metrics().sigstruct_cache_misses.load();
  result.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_started).count();
  run_window(clients, plan.ops_per_thread, trace, op, result);
  const std::uint64_t hits =
      server.metrics().sigstruct_cache_hits.load() - hits_before;
  const std::uint64_t misses =
      server.metrics().sigstruct_cache_misses.load() - misses_before;

  // Every token unique; every measured retrieval served from the pool.
  if (result.failed == 0) {
    std::vector<core::AttestationToken> all;
    for (const auto& thread_tokens : tokens)
      all.insert(all.end(), thread_tokens.begin(), thread_tokens.end());
    std::sort(all.begin(), all.end());
    if (std::adjacent_find(all.begin(), all.end()) != all.end())
      result.failures.push_back("a token was issued twice");
    if (misses != 0)
      result.failures.push_back(std::to_string(misses) +
                                " retrievals missed the pre-minted pool");
  }
  // A seeded sample of credentials: the SigStruct verifies under the
  // uploaded signer key and names exactly the measurement the verifier
  // predicts for an enclave carrying that token.
  const Hash256 verifier_id = bed.cas().verifier_id();
  for (std::size_t k = 0; k < samples.size(); ++k) {
    if (!samples[k].has_value()) continue;  // that op failed (counted)
    const cas::InstanceResult& got = *samples[k];
    core::InstancePage page;
    page.token = got.token;
    page.verifier_id = got.verifier_id;
    const bool ok =
        got.verifier_id == verifier_id &&
        got.singleton_sigstruct.signature_valid() &&
        got.singleton_sigstruct.mr_signer() == signer_id &&
        got.singleton_sigstruct.enclave_hash ==
            core::MeasurementPredictor::predict(signed_image.base_hash, page);
    if (!ok)
      result.failures.push_back("sampled credential " + std::to_string(k) +
                                " does not verify");
  }
  if (!trace) return result;

  Layers& layers = result.layers;
  add_layer(layers, "server.cache_hit_ratio", Agg::kRatio,
            static_cast<double>(hits), static_cast<double>(hits + misses));
  add_layer(layers, "server.max_in_flight", Agg::kMax,
            static_cast<double>(server.metrics().max_in_flight.load()));
  add_layer(layers, "net.round_trips_per_op", Agg::kPerOp,
            static_cast<double>(bed.network().round_trips() - trips_before));
  double redirects = 0.0;
  for (const auto& client : cas_clients)
    redirects += static_cast<double>(client.stats().leader_redirects);
  add_layer(layers, "client.leader_redirects_per_op", Agg::kPerOp, redirects);
  return result;
}

}  // namespace perfbench
