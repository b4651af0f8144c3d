#include "plan.h"

#include <cstdio>
#include <set>
#include <stdexcept>

#include "common.h"
#include "workload/load_gen.h"

namespace perfbench {

namespace {

void put_u64(sinclave::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

sinclave::Bytes Plan::serialize() const {
  sinclave::Bytes out(workload.begin(), workload.end());
  out.push_back(0);
  put_u64(out, seed);
  put_u64(out, warmup_per_thread);
  put_u64(out, ops_per_thread);
  for (const auto& thread_ops : ops) {
    put_u64(out, thread_ops.size());
    for (const std::uint64_t v : thread_ops) put_u64(out, v);
  }
  for (const std::uint64_t s : thread_seeds) put_u64(out, s);
  for (const auto& [thread, index] : sampled) {
    put_u64(out, thread);
    put_u64(out, index);
  }
  return out;
}

std::vector<std::string> retrieve_session_names() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kRetrieveSessions; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "retrieve-%02zu", i);
    names.emplace_back(name);
  }
  return names;
}

Plan make_plan(std::string_view workload, std::uint64_t seed,
               std::size_t clients, std::size_t warmup_per_thread,
               std::size_t ops_per_thread) {
  Plan plan;
  plan.workload = std::string(workload);
  plan.seed = seed;
  plan.warmup_per_thread = warmup_per_thread;
  plan.ops_per_thread = ops_per_thread;
  const std::size_t per_thread = warmup_per_thread + ops_per_thread;
  for (std::size_t t = 0; t < clients; ++t)
    plan.thread_seeds.push_back(mix64(seed ^ mix64(t + 1)));

  if (workload == "retrieve") {
    // The serving layer's own load-generator schedule: zipfian session
    // choice, closed loop, no think time.
    sinclave::workload::LoadGenConfig config;
    config.clients = clients;
    config.requests_per_client = per_thread;
    config.sessions = retrieve_session_names();
    config.session_dist = sinclave::workload::SessionDist::kZipfian;
    config.zipf_theta = kRetrieveZipfTheta;
    config.base_seed = seed;
    for (const auto& thread_requests :
         sinclave::workload::make_schedule(config)) {
      std::vector<std::uint64_t> sessions;
      for (const auto& request : thread_requests)
        sessions.push_back(request.session_index);
      plan.ops.push_back(std::move(sessions));
    }
    std::set<std::pair<std::size_t, std::size_t>> picked;
    std::uint64_t state = mix64(seed ^ 0x5A3B1E);
    while (picked.size() < std::min(kRetrieveSampled,
                                    clients * ops_per_thread)) {
      state = mix64(state);
      const std::size_t thread = state % clients;
      const std::size_t index = (state >> 8) % ops_per_thread;
      picked.emplace(thread, index);
    }
    plan.sampled.assign(picked.begin(), picked.end());
  } else if (workload == "start-cluster") {
    for (std::size_t t = 0; t < clients; ++t) {
      std::vector<std::uint64_t> nonces;
      for (std::size_t i = 0; i < per_thread; ++i)
        nonces.push_back(mix64(plan.thread_seeds[t] + i));
      plan.ops.push_back(std::move(nonces));
    }
  } else if (workload == "start") {
    plan.ops.assign(clients, std::vector<std::uint64_t>(per_thread));
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(workload));
  }
  return plan;
}

}  // namespace perfbench
