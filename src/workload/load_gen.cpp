#include "workload/load_gen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "cas/client.h"
#include "common/error.h"
#include "common/mutex.h"

namespace sinclave::workload {

namespace {

using Clock = std::chrono::steady_clock;

// Tiny explicit PRNG (splitmix64) so schedules are bit-identical across
// standard libraries — std::exponential_distribution's output is
// implementation-defined, which would break cross-toolchain determinism.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in (0, 1] — never 0, so log() below is always finite.
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

SplitMix64 client_rng(std::uint64_t base_seed, std::size_t client_index) {
  // Decorrelate adjacent seeds through one scramble round; splitmix's own
  // increment does the rest.
  SplitMix64 rng{base_seed ^ (0x5851f42d4c957f2dull *
                              (static_cast<std::uint64_t>(client_index) + 1))};
  rng.next();
  return rng;
}

}  // namespace

std::vector<std::vector<ScheduledRequest>> make_schedule(
    const LoadGenConfig& config) {
  if (config.sessions.empty()) throw Error("load gen: no sessions");
  const std::size_t streams = config.mode == LoadMode::kOpen
                                  ? config.logical_clients
                                  : config.clients;
  const double mean_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          config.mean_interarrival)
          .count();
  // Zipfian session choice samples the precomputed CDF by inverse
  // transform: session i (rank i+1) carries weight 1/(i+1)^theta, so
  // sessions[0] is the hottest. Same RNG stream as uniform mode — one
  // draw per request — so schedules stay a pure function of the config.
  std::vector<double> zipf_cdf;
  if (config.session_dist == SessionDist::kZipfian) {
    zipf_cdf.reserve(config.sessions.size());
    double total = 0.0;
    for (std::size_t i = 0; i < config.sessions.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), config.zipf_theta);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }
  const auto pick_session = [&](SplitMix64& rng) -> std::size_t {
    if (zipf_cdf.empty()) return rng.below(config.sessions.size());
    const double u = rng.unit();
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf.begin()),
        config.sessions.size() - 1);
  };

  std::vector<std::vector<ScheduledRequest>> schedule(streams);
  for (std::size_t c = 0; c < streams; ++c) {
    SplitMix64 rng = client_rng(config.base_seed, c);
    schedule[c].reserve(config.requests_per_client);
    double at_ns = 0.0;
    for (std::size_t i = 0; i < config.requests_per_client; ++i) {
      ScheduledRequest r;
      r.session_index = pick_session(rng);
      if (config.mode == LoadMode::kOpen) {
        // Exponential inter-arrival gaps via inverse CDF: a Poisson
        // arrival stream per logical client.
        at_ns += -mean_ns * std::log(rng.unit());
        r.at = std::chrono::nanoseconds(static_cast<std::int64_t>(at_ns));
      }
      schedule[c].push_back(r);
    }
  }
  return schedule;
}

namespace {

LoadGenResult run_closed_loop(net::SimNetwork& net,
                              const sgx::SigStruct& common_sigstruct,
                              const LoadGenConfig& config) {
  const auto schedule = make_schedule(config);

  LoadGenResult result;
  server::LatencyHistogram histogram;
  Mutex result_mutex{LockRank::kWorkloadResult, "workload.result"};
  // Measured, not assumed: a client that errors out early stops
  // contributing, so the observed concurrency can be below `clients`.
  std::atomic<std::uint64_t> in_flight{0}, max_in_flight{0};
  std::atomic<std::uint64_t> samples_sum{0}, samples{0};

  const auto client = [&](std::size_t client_index) {
    std::uint64_t ok = 0, failed = 0;
    std::string first_error;
    std::vector<std::string> tokens;
    tokens.reserve(config.requests_per_client);
    // The SDK, not hand-rolled frames. max_attempts = 1: a load generator
    // measures failures, it does not paper over them with retries.
    cas::CasClient client(
        &net, cas::CasClientConfig{.address = config.address,
                                   .retry = {.max_attempts = 1}});
    for (const ScheduledRequest& planned : schedule[client_index]) {
      server::atomic_fetch_max(
          max_in_flight,
          in_flight.fetch_add(1, std::memory_order_relaxed) + 1);
      const auto start = Clock::now();
      const cas::InstanceResult got = client.get_instance(
          config.sessions[planned.session_index], common_sigstruct);
      histogram.record(Clock::now() - start);
      samples_sum.fetch_add(in_flight.fetch_sub(1, std::memory_order_relaxed),
                            std::memory_order_relaxed);
      samples.fetch_add(1, std::memory_order_relaxed);

      if (got.ok()) {
        ++ok;
        tokens.push_back(got.token.hex());
      } else {
        ++failed;
        if (first_error.empty()) first_error = got.status.message();
      }
    }
    MutexLock lock(result_mutex);
    result.ok += ok;
    result.failed += failed;
    if (result.first_error.empty()) result.first_error = first_error;
    result.tokens.insert(result.tokens.end(), tokens.begin(), tokens.end());
  };

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c)
    threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  result.wall = Clock::now() - start;
  result.max_in_flight = max_in_flight.load();
  result.sustained_in_flight =
      samples.load() == 0
          ? 0.0
          : static_cast<double>(samples_sum.load()) /
                static_cast<double>(samples.load());
  result.latency = histogram.snapshot();
  return result;
}

/// Completion-side shared state of one open-loop run.
struct OpenLoopState {
  server::LatencyHistogram histogram;
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> max_in_flight{0};
  std::atomic<std::uint64_t> in_flight_samples_sum{0};
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> completed{0};
  // Guards the aggregates below + completion cv.
  Mutex mutex{LockRank::kWorkloadResult, "workload.open_loop"};
  CondVar all_done;
  std::uint64_t ok GUARDED_BY(mutex) = 0;
  std::uint64_t failed GUARDED_BY(mutex) = 0;
  std::string first_error GUARDED_BY(mutex);
  std::vector<std::string> tokens GUARDED_BY(mutex);
};

LoadGenResult run_open_loop(net::SimNetwork& net,
                            const sgx::SigStruct& common_sigstruct,
                            const LoadGenConfig& config) {
  const auto schedule = make_schedule(config);
  const std::size_t threads_n = std::max<std::size_t>(1, config.clients);
  auto state = std::make_shared<OpenLoopState>();

  // Each issuing thread owns the arrival streams of logical clients
  // c % threads_n == t, merged into one time-sorted lane.
  struct Arrival {
    std::chrono::nanoseconds at;
    std::size_t session_index;
  };
  std::vector<std::vector<Arrival>> lanes(threads_n);
  for (std::size_t c = 0; c < schedule.size(); ++c)
    for (const ScheduledRequest& r : schedule[c])
      lanes[c % threads_n].push_back(Arrival{r.at, r.session_index});
  for (auto& lane : lanes)
    std::sort(lane.begin(), lane.end(),
              [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  const auto on_complete = [state](Clock::time_point issued,
                                   const cas::InstanceResult& got) {
    state->histogram.record(Clock::now() - issued);
    // Sample the in-flight level as seen by this completion — averaging
    // these gives the sustained concurrency the serving layer actually
    // held, not just a momentary peak. The SDK already decoded and typed
    // the outcome; the mutex guards only the aggregates (completions are
    // delivered by the server's single timer thread — keep this short).
    const std::uint64_t level =
        state->in_flight.fetch_sub(1, std::memory_order_relaxed);
    state->in_flight_samples_sum.fetch_add(level, std::memory_order_relaxed);
    {
      MutexLock lock(state->mutex);
      if (got.ok()) {
        ++state->ok;
        state->tokens.push_back(got.token.hex());
      } else {
        ++state->failed;
        if (state->first_error.empty())
          state->first_error = got.status.message();
      }
      state->completed.fetch_add(1, std::memory_order_relaxed);
      state->all_done.notify_all();
    }
  };

  const auto start = Clock::now();
  const auto issuer = [&, state, on_complete](std::size_t thread_index) {
    const std::vector<Arrival>& lane = lanes[thread_index];
    // One SDK client per issuing thread; no retries (offered load is the
    // experiment). The async path never throws — dispatch failures
    // (listener gone, connect refused) are delivered through the callback
    // as typed kUnavailable results, so ok + failed always equals the
    // offered load without a separate abort path.
    cas::CasClient client(
        &net, cas::CasClientConfig{.address = config.address,
                                   .retry = {.max_attempts = 1}});
    for (const Arrival& arrival : lane) {
      std::this_thread::sleep_until(start + arrival.at);

      server::atomic_fetch_max(
          state->max_in_flight,
          state->in_flight.fetch_add(1, std::memory_order_relaxed) + 1);

      const auto issued = Clock::now();
      client.get_instance_async(
          config.sessions[arrival.session_index], common_sigstruct,
          [on_complete, issued](const cas::InstanceResult& got) {
            on_complete(issued, got);
          });
      state->issued.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> issuers;
  issuers.reserve(threads_n);
  for (std::size_t t = 0; t < threads_n; ++t) issuers.emplace_back(issuer, t);
  for (auto& t : issuers) t.join();

  // Every arrival was issued (or its lane aborted); wait for the tail of
  // completions still parked server-side. `issued` is final after the
  // joins, so the predicate cannot race a growing target.
  {
    MutexLock lock(state->mutex);
    while (state->completed.load() < state->issued.load())
      state->all_done.wait(state->mutex);
  }

  LoadGenResult result;
  result.wall = Clock::now() - start;
  {
    MutexLock lock(state->mutex);
    result.ok = state->ok;
    result.failed = state->failed;
    result.first_error = state->first_error;
    result.tokens = std::move(state->tokens);
  }
  result.latency = state->histogram.snapshot();
  result.max_in_flight = state->max_in_flight.load();
  // Every issued arrival — dispatch failures included — is delivered
  // through on_complete and samples the gauge, so completions equals
  // ok + failed here; keep dividing by the count that actually sampled.
  const std::uint64_t completions = state->completed.load();
  result.sustained_in_flight =
      completions == 0 ? 0.0
                       : static_cast<double>(
                             state->in_flight_samples_sum.load()) /
                             static_cast<double>(completions);
  return result;
}

}  // namespace

LoadGenResult run_instance_load(net::SimNetwork& net,
                                const sgx::SigStruct& common_sigstruct,
                                const LoadGenConfig& config) {
  if (config.sessions.empty()) throw Error("load gen: no sessions");
  // Validated here, on the caller's thread: the workers construct
  // CasClients from this config, and a constructor throw inside a
  // std::thread lambda would terminate the process instead of failing
  // the run.
  if (config.address.empty()) throw Error("load gen: no address");
  // Scope the per-phase attribution to this load window: quantiles are
  // not delta-able, so the histograms restart from zero here and the
  // result's phase rows cover exactly this run.
  obs::Tracer::instance().reset_phases();
  LoadGenResult result = config.mode == LoadMode::kOpen
                             ? run_open_loop(net, common_sigstruct, config)
                             : run_closed_loop(net, common_sigstruct, config);
  result.phases = obs::Tracer::instance().phase_summaries();
  return result;
}

}  // namespace sinclave::workload
