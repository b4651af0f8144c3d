// Shared harness for the end-to-end benchmark: options, the fixed
// fixture constants, the closed-loop measurement window, per-layer
// accumulation, and the host probes (CPU time, peak RSS).
//
// A run is a sequence of rounds. Every round builds a fresh bed from the
// fixed fixture seed, warms it up, and then measures a fixed number of
// operations issued by closed-loop client threads (two, or one on
// start-cluster). The workload seed only drives the generated inputs (see
// plan.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seed of every fixture key (signer, CAS identity, quoting enclaves,
/// replicas): RSA key generation cost depends on the prime search, so a
/// fixed fixture seed makes every round's set-up do identical work.
inline constexpr std::uint64_t kFixtureSeed = 0x5EEDF1C5;
/// CasServer workers. With at most two client threads, demand stays near
/// two cores on a four-core host, so latency measures the program rather
/// than the scheduler.
inline constexpr std::size_t kServerWorkers = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// How a per-layer value folds across rounds.
enum class Agg {
  kPerOp,      // summed, then divided by measured ops (mean per op)
  kTotal,      // summed
  kMax,        // maximum
  kPerSecond,  // summed, then divided by measured window seconds
  kRatio,      // summed numerator over summed denominator
};

struct LayerStat {
  Agg agg = Agg::kPerOp;
  double value = 0.0;
  double den = 0.0;
};
using Layers = std::map<std::string, LayerStat>;

void add_layer(Layers& layers, const std::string& name, Agg agg,
               double value, double den = 0.0);
/// Folds `from` into `into` by each stat's aggregation rule.
void merge_layers(Layers& into, const Layers& from);

/// Outcome of one measured operation, as the op callback reports it.
struct OpOutcome {
  bool ok = false;
  std::string error;  // first failure detail when !ok
};

/// One round's measurements.
struct RoundResult {
  double setup_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;  // successful measured ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed end-of-round correctness checks and op failures (first few).
  std::vector<std::string> failures;
  Layers layers;

  std::uint64_t completed() const { return attempted - failed; }
};

/// Bench-side spans of one client thread: named wall-time sums (ms)
/// around public calls, recorded only in the traced pass.
class SpanSums {
 public:
  explicit SpanSums(bool enabled) : enabled_(enabled) {}
  /// Times `fn()` into the span `name` (or just runs it when disabled).
  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    const auto t0 = Clock::now();
    auto result = fn();
    sums_[name] +=
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    return result;
  }
  const std::map<std::string, double>& sums() const { return sums_; }

 private:
  bool enabled_;
  std::map<std::string, double> sums_;
};

/// The op callback: (client thread, op index within the thread, spans).
using OpFn = std::function<OpOutcome(std::size_t, std::size_t, SpanSums&)>;

// A shared host slows single virtual CPUs, each on its own, by up to 2x
// for seconds to minutes at a time. A thread that stays on one CPU is timed
// at the speed of the CPU it happened to land on; one that moves between
// them at their average. So each round runs on the CPUs that are fastest
// when it starts, and single threads move between them.

/// The CPUs this process may run on.
std::vector<int> allowed_cpus();
/// Runs a fixed multiply-bound loop (the kind of work bignum arithmetic
/// does) on every CPU of `allowed` at once and returns the `n` that ran it
/// fastest, in ascending order (all of them when there are no more than n).
std::vector<int> fastest_cpus(const std::vector<int>& allowed, std::size_t n);
/// Confines every thread of the process to `cpus`, as do threads started
/// later. With `rotate_clients`, every client thread of run_window runs
/// under a CpuRotation for the whole window.
void set_run_cpus(std::vector<int> cpus, bool rotate_clients);

/// Moves the thread that constructs it to the next run CPU every
/// millisecond until stop(), so a lone thread is timed at the average speed
/// of the CPUs rather than at that of the one it landed on. Each round
/// rotates the single-threaded part of its set-up (key generation, bed
/// construction) this way; so does start-cluster's client in its windows.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { stop(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Stops rotating, then lets every thread of the process run on all the
  /// run's CPUs again (threads started meanwhile inherited one CPU). Call
  /// it before any set-up work that runs on more than one thread.
  void stop();

 private:
  std::atomic<bool> stop_{false};
  std::thread rotor_;
};

/// Runs the measured window: `clients` threads each issue
/// `ops_per_thread` ops back to back (closed loop). Fills latency, window
/// and CPU time, attempted/failed counts, and — when tracing — the
/// bench-side span sums (kPerOp) plus `unattributed_ms` and
/// `op_latency_mean_ms`. With tracing on, the tracer's phase histograms
/// are reset at window start and folded into `result.layers` at the end.
void run_window(std::size_t clients, std::size_t ops_per_thread, bool trace,
                const OpFn& op, RoundResult& result);

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_seconds();
/// Peak resident set (VmHWM) of this process, MiB.
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank percentile of an unsorted sample, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// splitmix64 finalizer: decorrelates derived seeds.
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
