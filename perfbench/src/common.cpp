#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <latch>
#include <optional>
#include <thread>

namespace perfbench {

namespace {

/// Tracer phases folded into the per-layer table (mean ms per op).
constexpr std::pair<const char*, const char*> kPhaseLayers[] = {
    {"dh_derive", "crypto.dh_derive_ms"},
    {"identity_sign", "crypto.identity_sign_ms"},
    {"hkdf", "crypto.hkdf_ms"},
    {"quote_verify", "quote.quote_verify_ms"},
    {"quote_check", "cas.quote_check_ms"},
    {"mint", "cas.mint_ms"},
    {"policy_load", "cas.policy_load_ms"},
    {"token_spend", "cas.token_spend_ms"},
    {"client_get_instance", "client.get_instance_ms"},
    {"client_attest", "client.attest_ms"},
    {"client_get_config", "client.get_config_ms"},
    {"queue_wait", "server.queue_wait_ms"},
    {"serve_frame", "server.serve_frame_ms"},
    {"respond", "server.respond_ms"},
    {"record_open", "net.record_open_ms"},
    {"record_seal", "net.record_seal_ms"},
};

double ns_to_ms(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1e6;
}

struct RunCpus {
  std::vector<int> cpus;
  bool rotate_clients = false;
};

RunCpus& run_cpus() {
  static RunCpus run;
  return run;
}

void set_affinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof set, &set);
}

void spread_threads() {
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    set_affinity(std::stoi(task.path().filename().string()), run_cpus().cpus);
}

}  // namespace

void add_layer(Layers& layers, const std::string& name, Agg agg,
               double value, double den) {
  LayerStat& stat = layers[name];
  stat.agg = agg;
  if (agg == Agg::kMax) {
    stat.value = std::max(stat.value, value);
  } else {
    stat.value += value;
    stat.den += den;
  }
}

void merge_layers(Layers& into, const Layers& from) {
  for (const auto& [name, stat] : from)
    add_layer(into, name, stat.agg, stat.value, stat.den);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

std::vector<int> fastest_cpus(const std::vector<int>& allowed, std::size_t n) {
  if (allowed.size() <= n) return allowed;
  std::vector<double> seconds(allowed.size());
  {
    std::vector<std::thread> probes;
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      probes.emplace_back([&, i] {
        set_affinity(0, {allowed[i]});
        // Eight independent 64x64 -> 128-bit multiply chains: bound by the
        // core's multiplier throughput, which a busy sibling thread of
        // another tenant takes away. About 3 ms on an unshared core.
        unsigned __int128 lanes[8];
        for (int l = 0; l < 8; ++l) lanes[l] = 2 * l + 1;
        const auto t0 = Clock::now();
        for (int k = 0; k < 500000; ++k) {
          for (auto& x : lanes)
            x = static_cast<std::uint64_t>(x) *
                    static_cast<unsigned __int128>(0x9E3779B97F4A7C15ULL) +
                (x >> 64);
        }
        seconds[i] = std::chrono::duration<double>(Clock::now() - t0).count();
        std::uint64_t sink = 0;
        for (const auto x : lanes) sink ^= static_cast<std::uint64_t>(x);
        asm volatile("" : : "r"(sink));
      });
    }
    for (auto& probe : probes) probe.join();
  }
  std::vector<std::size_t> order(allowed.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return seconds[a] < seconds[b];
  });
  std::vector<int> chosen;
  for (std::size_t i = 0; i < n; ++i) chosen.push_back(allowed[order[i]]);
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

void set_run_cpus(std::vector<int> cpus, bool rotate_clients) {
  run_cpus() = RunCpus{std::move(cpus), rotate_clients};
  if (!run_cpus().cpus.empty()) spread_threads();
}

CpuRotation::CpuRotation() {
  if (run_cpus().cpus.size() <= 1) return;
  const pid_t tid = gettid();
  rotor_ = std::thread([this, tid] {
    const std::vector<int>& cpus = run_cpus().cpus;
    for (std::size_t k = 0; !stop_.load(); ++k) {
      set_affinity(tid, {cpus[k % cpus.size()]});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

void CpuRotation::stop() {
  if (!rotor_.joinable()) return;
  stop_ = true;
  rotor_.join();
  spread_threads();
}

void run_window(std::size_t clients, std::size_t ops_per_thread, bool trace,
                const OpFn& op, RoundResult& result) {
  struct ThreadOut {
    std::vector<double> latency_ms;
    double latency_sum_ms = 0.0;  // every op, failed ones included
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    SpanSums spans{false};
  };
  std::vector<ThreadOut> outs(clients);
  for (auto& out : outs) {
    out.spans = SpanSums(trace);
    out.latency_ms.reserve(ops_per_thread);
  }

  std::latch ready(static_cast<std::ptrdiff_t>(clients));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ThreadOut& out = outs[t];
      std::optional<CpuRotation> rotation;
      if (run_cpus().rotate_clients) rotation.emplace();
      ready.count_down();
      go.wait();
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const auto t0 = Clock::now();
        OpOutcome outcome;
        try {
          outcome = op(t, i, out.spans);
        } catch (const std::exception& e) {
          outcome.error = std::string("exception: ") + e.what();
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        out.latency_sum_ms += ms;
        if (outcome.ok) {
          out.latency_ms.push_back(ms);
        } else {
          ++out.failed;
          if (out.errors.size() < 3) out.errors.push_back(outcome.error);
        }
      }
    });
  }
  ready.wait();
  if (trace) sinclave::obs::Tracer::instance().reset_phases();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  go.count_down();
  for (auto& th : threads) th.join();
  result.window_s = std::chrono::duration<double>(Clock::now() - t0).count();
  result.cpu_s = process_cpu_seconds() - cpu0;

  double latency_sum_ms = 0.0;
  std::map<std::string, double> spans;
  for (auto& out : outs) {
    result.latency_ms.insert(result.latency_ms.end(), out.latency_ms.begin(),
                             out.latency_ms.end());
    result.attempted += ops_per_thread;
    result.failed += out.failed;
    for (auto& e : out.errors)
      if (result.failures.size() < 5) result.failures.push_back(e);
    latency_sum_ms += out.latency_sum_ms;
    for (const auto& [name, ms] : out.spans.sums()) spans[name] += ms;
  }
  if (!trace) return;

  // Bench-side rows plus the remainder sum to the mean op latency by
  // construction: unattributed = op latency - every bench-side span.
  double attributed_ms = 0.0;
  for (const auto& [name, ms] : spans) {
    add_layer(result.layers, name, Agg::kPerOp, ms);
    attributed_ms += ms;
  }
  add_layer(result.layers, "op_latency_mean_ms", Agg::kPerOp, latency_sum_ms);
  add_layer(result.layers, "unattributed_ms", Agg::kPerOp,
            latency_sum_ms - attributed_ms);
  for (const auto& row : sinclave::obs::Tracer::instance().phase_summaries()) {
    for (const auto& [phase, layer] : kPhaseLayers) {
      if (std::string_view(row.name) == phase)
        add_layer(result.layers, layer, Agg::kPerOp, ns_to_ms(row.stats.sum));
    }
  }
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
