// Multi-client load generator for the CAS serving layer.
//
// Models a fleet of starters racing to bring up singleton enclaves, in two
// load modes:
//
//   * closed loop (kClosed) — N client threads each issue back-to-back
//     synchronous retrievals; concurrency is capped at N. This is the
//     classic benchmark shape, and what a thread-per-request frontend is
//     judged on.
//   * open loop (kOpen) — M logical clients, multiplexed over a few
//     issuing threads, fire requests on a precomputed arrival schedule via
//     Connection::async_call and never wait for responses before issuing
//     the next arrival. Offered load is independent of service latency, so
//     the in-flight count is free to climb far past the thread counts on
//     either side — exactly the regime an event-driven frontend exists
//     for.
//
// Both modes speak the wire through cas::CasClient (no hand-rolled
// frames); closed loop uses the sync path, open loop the completion-token
// async path.
//
// Reproducibility: every random decision (session choice, exponential
// inter-arrival gaps, closed-loop think gaps) is drawn from a
// per-logical-client RNG seeded from one base seed + the client index, and
// the whole arrival schedule is a pure function of the config —
// make_schedule(config) twice is bytewise identical
// (tests/test_workload.cpp asserts it).
//
// Latencies land in a shared wait-free histogram; the result carries
// aggregate requests/sec, tail percentiles, and (open loop) the sustained
// and maximum in-flight request counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/sim_network.h"
#include "obs/trace.h"
#include "server/metrics.h"
#include "sgx/sigstruct.h"

namespace sinclave::workload {

enum class LoadMode {
  kClosed,  // one synchronous request chain per client thread
  kOpen,    // scheduled async arrivals; in-flight not capped by threads
};

/// How each request picks its session.
enum class SessionDist {
  kUniform,  // every session equally likely
  kZipfian,  // session i drawn with weight 1/(i+1)^theta — hot-session
             // skew that stresses the SigStructCache's LRU eviction
};

/// Closed-loop think-time model: how long a client "thinks" before issuing
/// each request (the interactive-user component of classic closed-loop
/// models; without it, N clients degenerate to a saturation benchmark).
enum class ThinkTime {
  kNone,         // back-to-back (the saturating seed behavior)
  kConstant,     // exactly mean_think before every request
  kExponential,  // exponential with mean mean_think, per-client seeded
};

struct LoadGenConfig {
  LoadMode mode = LoadMode::kClosed;
  /// Issuing threads. Closed loop: one logical client per thread. Open
  /// loop: `logical_clients` arrival streams are multiplexed over these.
  std::size_t clients = 8;
  /// Requests each logical client issues.
  std::size_t requests_per_client = 100;
  /// The CAS node's client endpoint, which clients call directly.
  std::string address;
  /// Session names; each request picks one from its client RNG according
  /// to `session_dist` (sessions[0] is the hottest under kZipfian).
  std::vector<std::string> sessions;
  SessionDist session_dist = SessionDist::kUniform;
  /// Zipf skew exponent (kZipfian only). 0 degenerates to uniform; ~0.99
  /// is the classic web-workload fit; higher is hotter.
  double zipf_theta = 0.99;
  /// Base seed: logical client c draws from rng(base_seed, c), so runs
  /// are reproducible and clients are decorrelated.
  std::uint64_t base_seed = 1;
  /// Open loop only: independent arrival streams (the "fleet size").
  std::size_t logical_clients = 64;
  /// Open loop only: mean of the exponential inter-arrival gap per
  /// logical client.
  std::chrono::microseconds mean_interarrival{1000};
  /// Closed loop only: think-time model, sampled into the schedule (so a
  /// run's gaps are as deterministic as its session choices).
  ThinkTime think_time = ThinkTime::kNone;
  /// Mean think gap (kConstant: the exact gap; kExponential: the mean).
  std::chrono::microseconds mean_think{0};
};

/// One planned request of a logical client.
struct ScheduledRequest {
  std::size_t session_index = 0;
  /// Arrival time, relative to load start (always 0 in closed loop).
  std::chrono::nanoseconds at{0};
  /// Closed loop: think gap slept before issuing this request (0 under
  /// ThinkTime::kNone and in open loop).
  std::chrono::nanoseconds think{0};
};

/// The full deterministic arrival plan: one vector per logical client
/// (closed loop: per thread). Pure function of the config.
std::vector<std::vector<ScheduledRequest>> make_schedule(
    const LoadGenConfig& config);

struct LoadGenResult {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  /// First error string observed (diagnosis aid when failed > 0).
  std::string first_error;
  std::chrono::nanoseconds wall{0};
  server::LatencyHistogram::Snapshot latency;
  /// Tokens returned by successful retrievals (tests assert uniqueness);
  /// hex-encoded.
  std::vector<std::string> tokens;
  /// Peak concurrent requests in flight (client-side view).
  std::uint64_t max_in_flight = 0;
  /// Mean in-flight count sampled at each completion — the "sustained"
  /// concurrency the serving layer actually held.
  double sustained_in_flight = 0.0;
  /// Per-phase latency attribution of this load window (run_instance_load
  /// resets the tracer's phase histograms at load start, so the rows cover
  /// exactly this run): client_attempt, queue_wait, serve_frame,
  /// policy_load, verify_common, credential, respond, the request_* roots,
  /// ... — every phase that recorded at least one span.
  std::vector<obs::Tracer::PhaseSummary> phases;

  double requests_per_sec() const {
    if (wall.count() == 0) return 0.0;
    return static_cast<double>(ok + failed) * 1e9 /
           static_cast<double>(wall.count());
  }
};

/// Run the load: every request sends `common_sigstruct` for its session and
/// expects a singleton credential back.
LoadGenResult run_instance_load(net::SimNetwork& net,
                                const sgx::SigStruct& common_sigstruct,
                                const LoadGenConfig& config);

}  // namespace sinclave::workload
