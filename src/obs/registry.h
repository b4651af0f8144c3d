// Unified metrics registry: one place every subsystem's counters surface.
//
// The registry does not own any counter — that would force every layer to
// route its hot path through a central object. Instead it follows the
// collector model: each subsystem keeps its wait-free atomics exactly where
// they live today (ServerMetrics, SecureServer::Stats, DrbgPool, ...) and
// registers a *collector* callback that copies them into a MetricsSnapshot
// on demand. Snapshots are cold-path only; the record path never touches
// the registry.
//
// A snapshot renders three ways:
//   to_prometheus() — Prometheus text exposition format (TYPE lines,
//     cumulative _bucket{le=...} series in seconds, _sum/_count),
//   to_json()       — one JSON object for tooling and the benches,
//   to_text()       — the human "name value" dump, one pair per line.
//
// Collectors run under the registry mutex, which makes teardown exact:
// remove_collector() returning guarantees no snapshot is still inside the
// removed callback, so an object may unregister in its destructor and then
// die.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/histogram.h"

namespace sinclave::obs {

/// A point-in-time copy of every registered metric, in collection order.
struct MetricsSnapshot {
  struct Entry {
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
    Kind kind = Kind::kCounter;
    std::string name;
    std::uint64_t value = 0;  // counters and gauges
    LatencyHistogram::Snapshot stats;  // histograms
    std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
  };

  std::vector<Entry> entries;

  /// Builder API used by collectors. Names are bare (no "sinclave_"
  /// prefix; the Prometheus renderer adds it) and must be unique across
  /// all collectors — exporters render duplicates as-is, garbling the
  /// Prometheus output, so collisions are the registrant's bug.
  void counter(std::string name, std::uint64_t value);
  void gauge(std::string name, std::uint64_t value);
  void histogram(std::string name, const LatencyHistogram& h);

  const Entry* find(const std::string& name) const;

  std::string to_prometheus() const;
  std::string to_json() const;
  std::string to_text() const;
};

class MetricsRegistry {
 public:
  using Collector = std::function<void(MetricsSnapshot&)>;

  /// Register a collector; returns a handle for remove_collector.
  /// Collectors run in registration order at every snapshot(), under the
  /// registry mutex — keep them cheap and never call back into the
  /// registry from inside one (self-deadlock).
  std::uint64_t add_collector(Collector fn) REQUIRES_NOT(mutex_);

  /// Blocks until no snapshot is running the collector, then removes it.
  void remove_collector(std::uint64_t id) REQUIRES_NOT(mutex_);

  MetricsSnapshot snapshot() const REQUIRES_NOT(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kMetricsRegistry, "obs.metrics_registry"};
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  std::vector<std::pair<std::uint64_t, Collector>> collectors_
      GUARDED_BY(mutex_);
};

}  // namespace sinclave::obs
