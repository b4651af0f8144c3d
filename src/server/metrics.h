// Serving-layer metrics: atomic counters, gauges, and latency histograms.
//
// The latency histogram itself now lives in the base observability layer
// (obs/histogram.h) so every layer shares one quantile tracker; the
// aliases below keep the original sinclave::server spellings working.
// Everything here is wait-free on the record path (relaxed atomics) so
// the hot path never serializes on observability.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/histogram.h"
#include "obs/registry.h"

namespace sinclave::server {

using obs::atomic_fetch_max;
using LatencyHistogram = obs::LatencyHistogram;

/// Per-wire-command counters: one block per protocol command so traffic,
/// failures, and tails are attributable to the command that caused them.
struct CommandMetrics {
  std::atomic<std::uint64_t> requests{0};
  /// Typed non-ok responses: sheds, expired deadlines, protocol-level
  /// refusals and, for kAttest, rejected handshakes (whose finer split is
  /// CasService's channel_* series).
  std::atomic<std::uint64_t> errors{0};
  LatencyHistogram latency;
};

/// All counters the CAS serving layer exports. Plain atomics — callers
/// increment directly; export happens through the obs::MetricsRegistry
/// (collect()). (The secure channel's counters live on CasService as the
/// channel_* series.)
struct ServerMetrics {
  /// Singleton retrieval (Command::kGetInstance), and every frame whose
  /// envelope header does not decode or names no other command.
  CommandMetrics get_instance;
  /// The attested exchange (Command::kAttest), answered with the sealed
  /// configuration.
  CommandMetrics attest;
  /// Introspection (Command::kIntrospect).
  CommandMetrics introspect;

  /// Protocol-level refusals, any command: frames answered with the
  /// matching typed status instead of being dropped (a kAttest record of
  /// another version or shape included).
  std::atomic<std::uint64_t> malformed_frames{0};
  std::atomic<std::uint64_t> unsupported_version_frames{0};
  std::atomic<std::uint64_t> unknown_command_frames{0};

  std::atomic<std::uint64_t> sigstruct_cache_hits{0};
  std::atomic<std::uint64_t> sigstruct_cache_misses{0};
  std::atomic<std::uint64_t> preminted_credentials{0};
  std::atomic<std::uint64_t> tokens_issued{0};
  /// Batch mint calls issued by premint() (each batch signs up to
  /// CasServer::kMintBatch credentials in one go).
  std::atomic<std::uint64_t> mint_batches{0};

  /// Requests accepted but not yet responded to (the event-driven
  /// frontend's core gauge: how much work is parked on timers/queues
  /// rather than pinned to worker threads), plus its high-water mark.
  /// max_in_flight doubles as the admission queue's depth high-water:
  /// with an admission_limit configured it can exceed the limit by at
  /// most the number of concurrently-shedding client threads.
  std::atomic<std::uint64_t> requests_in_flight{0};
  std::atomic<std::uint64_t> max_in_flight{0};

  /// Graceful degradation: requests answered kUnavailable+retry-after by
  /// admission control instead of being queued, and requests answered
  /// kDeadlineExceeded because their deadline could not be met (queue
  /// wait ate it, or the remaining budget cannot cover the backend
  /// stall). Both are also counted in the per-command errors — so
  /// `requests == ok_responses + errors` stays the closing equation, and
  /// these two break the errors down by overload cause.
  std::atomic<std::uint64_t> requests_shed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};

  /// Gauge helpers: enter bumps the in-flight count and its watermark.
  void enter_in_flight();
  void leave_in_flight();

  /// Copies every counter/gauge/histogram into a registry snapshot; the
  /// collector CasServer registers forwards here.
  void collect(obs::MetricsSnapshot& snap) const;
};

}  // namespace sinclave::server
