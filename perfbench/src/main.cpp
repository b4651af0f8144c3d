// perfbench — one workload, one fresh process, one JSON result.
//
//   perfbench --workload start|retrieve|start-cluster --seed N
//             --seconds S --trace 0|1
//
// Prints a line per round, a `record` line (environment stamp, per-round
// rows, every metric), and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer table with --trace 1. Exits 1 when a
// correctness check failed, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "plan.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The bounded latency figure is p90. p50 and p99 go to the `record` line
// only: on `retrieve` the median sits between two modes of the latency
// distribution whose mix follows the host, and p99 has about 11 samples
// beyond it per run, so a few seconds of host slowdown move it whole.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"latency_p90_ms", "ms"}, {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    // Means per measured op. Bench-side spans around the public calls;
    // with unattributed_ms they sum to op_latency_mean_ms.
    {"runtime.start_singleton_ms", "ms/op"},
    {"runtime.run_ms", "ms/op"},
    {"client.get_instance_call_ms", "ms/op"},
    {"cluster.prepare_token_ms", "ms/op"},
    {"cluster.spend_ms", "ms/op"},
    {"unattributed_ms", "ms/op"},
    {"op_latency_mean_ms", "ms/op"},
    {"runtime.run_self_ms", "ms/op"},
    // Tracer phases.
    {"crypto.dh_derive_ms", "ms/op"},
    {"crypto.identity_sign_ms", "ms/op"},
    {"crypto.hkdf_ms", "ms/op"},
    {"quote.quote_verify_ms", "ms/op"},
    {"cas.quote_check_ms", "ms/op"},
    {"cas.mint_ms", "ms/op"},
    {"cas.policy_load_ms", "ms/op"},
    {"cas.token_spend_ms", "ms/op"},
    {"client.get_instance_ms", "ms/op"},
    {"client.attest_ms", "ms/op"},
    {"client.get_config_ms", "ms/op"},
    {"server.queue_wait_ms", "ms/op"},
    {"server.serve_frame_ms", "ms/op"},
    {"server.respond_ms", "ms/op"},
    {"net.record_open_ms", "ms/op"},
    {"net.record_seal_ms", "ms/op"},
    // stats() counters.
    {"server.cache_hit_ratio", "ratio"},
    {"server.max_in_flight", "count"},
    {"net.round_trips_per_op", "count/op"},
    {"net.stripe_collisions_per_op", "count/op"},
    {"net.sessions_open", "count"},
    {"raft.proposals_per_op", "count/op"},
    {"raft.proposals_failed", "count"},
    {"raft.elections_started", "count"},
    {"raft.snapshots_taken_per_op", "count/op"},
    {"raft.heartbeat_rounds_per_s", "1/s"},
    {"raft.max_follower_lag", "count"},
    {"client.leader_redirects_per_op", "count/op"},
    // Whole-run figures of the traced pass.
    {"traced_ops_per_s", "1/s"},
    {"error_rate", "ratio"},
};

constexpr std::size_t kMinRounds = 3;
/// CPUs each round runs on: the fastest of those allowed when it starts.
/// The two clients and two workers need about two cores; three leave one
/// spare, and on a four-CPU host leave out the slowest.
constexpr std::size_t kRunCpus = 3;
constexpr std::size_t kMinRunOps = 1000;
/// A run never starts a round that could push it past this (the harness
/// must exit within 180 s).
constexpr double kMaxRunSeconds = 150.0;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "start|retrieve|start-cluster --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      continue;
    }
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || number < 0) {
      error = "bad number for " + flag + ": " + value;
      return false;
    }
    if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (options.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  return true;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_object(const std::map<std::string, double>& values,
                           const Metric* begin, const Metric* end) {
  std::string out = "{";
  for (const Metric* m = begin; m != end; ++m) {
    if (m != begin) out += ", ";
    const auto it = values.find(m->name);
    out += json_string(m->name) + ": {\"value\": " +
           json_number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + json_string(m->unit) + "}";
  }
  return out + "}";
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const std::vector<int> allowed = allowed_cpus();
  Options options;
  std::string error;
  if (!parse(argc, argv, options, error)) return usage(error.c_str());
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr)
    return usage(("unknown workload " + options.workload).c_str());

  // End-to-end runs measure with tracing off; the traced pass turns it on.
  sinclave::obs::Tracer::instance().set_enabled(options.trace);

  const std::size_t ops_per_thread = workload->ops_per_thread;
  // A run sets up at least kMinRounds fresh beds (setup_s is their median)
  // and measures at least kMinRunOps ops, so >= 10 samples lie beyond the
  // pooled p99; --seconds adds rounds beyond that.
  const std::size_t ops_per_round = ops_per_thread * workload->clients;
  const std::size_t min_rounds = std::max(
      kMinRounds, (kMinRunOps + ops_per_round - 1) / ops_per_round);
  const std::size_t rounds = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(options.seconds / workload->nominal_round_s)),
      min_rounds, 60);

  std::string env = "{\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                    ", \"signer_cas_rsa_bits\": " +
                    std::to_string(workload->signer_bits) +
                    ", \"qe_rsa_bits\": " +
                    std::to_string(workload->qe_bits) +
                    ", \"client_threads\": " + std::to_string(workload->clients) +
                    ", \"server_workers\": " + std::to_string(kServerWorkers) +
                    ", \"ops_per_round\": " + std::to_string(ops_per_round) +
                    ", \"rounds\": " + std::to_string(rounds) +
                    ", \"workload\": " + json_string(workload->name) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"fixture_seed\": " + std::to_string(kFixtureSeed) +
                    ", \"cpus_allowed\": " + json_string(cpu_list(allowed)) +
                    ", \"cpus_per_round\": " + std::to_string(kRunCpus) +
                    ", \"rotate_clients\": " +
                    (workload->rotate_clients ? "true" : "false") +
                    ", \"tracing\": " + (options.trace ? "true" : "false") +
                    "}";
  std::printf("env %s\n", env.c_str());
  std::fflush(stdout);

  std::vector<RoundResult> results;
  std::vector<std::string> round_cpus;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto round_started = Clock::now();
    const double elapsed =
        std::chrono::duration<double>(round_started - process_start).count();
    if (r > 0 && elapsed * static_cast<double>(r + 1) / static_cast<double>(r) >
                     kMaxRunSeconds) {
      std::printf("stopping after %zu rounds: run time budget spent\n", r);
      break;
    }
    const std::vector<int> cpus = fastest_cpus(allowed, kRunCpus);
    set_run_cpus(cpus, workload->rotate_clients);
    round_cpus.push_back(cpu_list(cpus));
    const Plan plan =
        make_plan(workload->name, mix64(options.seed + r), workload->clients,
                  workload->warmup_per_thread, ops_per_thread);
    RoundResult result =
        workload->run(plan, options.trace, r == 0 ? process_start
                                                  : round_started);
    std::printf(
        "round %zu on cpus %s: setup %.3f s, %llu ops (%llu failed) in "
        "%.3f s, %.1f ops/s, cpu %.3f ms/op\n",
        r, round_cpus.back().c_str(), result.setup_s,
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed), result.window_s,
        static_cast<double>(result.completed()) / result.window_s,
        result.cpu_s * 1e3 / static_cast<double>(result.completed()));
    for (const auto& f : result.failures) std::printf("  FAIL: %s\n", f.c_str());
    std::fflush(stdout);
    const bool failed = !result.failures.empty() || result.attempted == 0;
    results.push_back(std::move(result));
    if (failed) break;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t completed_ops = 0;
  std::vector<double> setup, rate, cpu, latency;
  Layers layers;
  for (const RoundResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.failures.empty() && r.attempted > 0;
    window_s += r.window_s;
    cpu_s += r.cpu_s;
    completed_ops += r.completed();
    setup.push_back(r.setup_s);
    const double completed = static_cast<double>(r.completed());
    rate.push_back(r.window_s > 0 ? completed / r.window_s : 0.0);
    cpu.push_back(completed > 0 ? r.cpu_s * 1e3 / completed : 0.0);
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    merge_layers(layers, r.layers);
  }
  correct = correct && failed == 0;

  // Rate, CPU per op and the percentiles are over the run's measured
  // windows taken together, on every workload. A host that slows for a few
  // seconds then moves them in proportion to the time it was slow; a median
  // over rounds would jump whole when half the rounds were slow. setup_s is
  // the median of the rounds' set-ups.
  const double completed_total = static_cast<double>(completed_ops);
  std::map<std::string, double> e2e = {
      {"setup_s", median(setup)},
      {"ops_per_s", window_s > 0 ? completed_total / window_s : 0.0},
      {"latency_p90_ms", percentile(latency, 0.90)},
      {"cpu_ms_per_op",
       completed_ops > 0 ? cpu_s * 1e3 / completed_total : 0.0},
      {"peak_rss_mb", peak_rss_mb()},
  };

  std::map<std::string, double> per_layer;
  for (const auto& [name, stat] : layers) {
    double v = stat.value;
    switch (stat.agg) {
      case Agg::kPerOp:
        v = attempted > 0 ? v / static_cast<double>(attempted) : 0.0;
        break;
      case Agg::kPerSecond:
        v = window_s > 0 ? v / window_s : 0.0;
        break;
      case Agg::kRatio:
        v = stat.den > 0 ? v / stat.den : 0.0;
        break;
      case Agg::kTotal:
      case Agg::kMax:
        break;
    }
    per_layer[name] = v;
  }
  if (per_layer.count("runtime.run_ms") != 0) {
    per_layer["runtime.run_self_ms"] = per_layer["runtime.run_ms"] -
                                       per_layer["client.attest_ms"] -
                                       per_layer["client.get_config_ms"];
  }
  per_layer["traced_ops_per_s"] = e2e["ops_per_s"];
  per_layer["error_rate"] =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;

  std::string rows = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RoundResult& r = results[i];
    if (i != 0) rows += ", ";
    rows += "{\"cpus\": " + json_string(round_cpus[i]) +
            ", \"setup_s\": " + json_number(r.setup_s) +
            ", \"window_s\": " + json_number(r.window_s) +
            ", \"ops\": " + std::to_string(r.attempted) +
            ", \"failed\": " + std::to_string(r.failed) +
            ", \"ops_per_s\": " + json_number(rate[i]) +
            ", \"cpu_ms_per_op\": " + json_number(cpu[i]) + "}";
  }
  rows += "]";
  const std::string e2e_json =
      metrics_object(e2e, std::begin(kEndToEnd), std::end(kEndToEnd));
  const std::string layer_json =
      options.trace ? metrics_object(per_layer, std::begin(kPerLayer),
                                     std::end(kPerLayer))
                    : "null";
  const std::string latency_json =
      "{\"samples\": " + std::to_string(latency.size()) +
      ", \"p50\": " + json_number(percentile(latency, 0.50)) +
      ", \"p90\": " + json_number(percentile(latency, 0.90)) +
      ", \"p99\": " + json_number(percentile(latency, 0.99)) + "}";
  std::printf("record {\"env\": %s, \"rounds\": %s, \"latency_ms\": %s, "
              "\"end_to_end\": %s, \"per_layer\": %s}\n",
              env.c_str(), rows.c_str(), latency_json.c_str(),
              e2e_json.c_str(), layer_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              (options.trace ? layer_json : e2e_json).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
