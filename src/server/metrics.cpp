#include "server/metrics.h"

namespace sinclave::server {

void ServerMetrics::enter_in_flight() {
  atomic_fetch_max(
      max_in_flight,
      requests_in_flight.fetch_add(1, std::memory_order_relaxed) + 1);
}

void ServerMetrics::leave_in_flight() {
  requests_in_flight.fetch_sub(1, std::memory_order_relaxed);
}

void ServerMetrics::collect(obs::MetricsSnapshot& snap) const {
  const auto command = [&](const char* name, const CommandMetrics& cmd) {
    const std::string base(name);
    snap.counter(base + "_requests", cmd.requests.load());
    snap.counter(base + "_errors", cmd.errors.load());
    snap.histogram(base + "_latency", cmd.latency);
  };
  command("get_instance", get_instance);
  command("attest", attest);
  command("introspect", introspect);
  snap.counter("malformed_frames", malformed_frames.load());
  snap.counter("unsupported_version_frames", unsupported_version_frames.load());
  snap.counter("unknown_command_frames", unknown_command_frames.load());
  snap.counter("sigstruct_cache_hits", sigstruct_cache_hits.load());
  snap.counter("sigstruct_cache_misses", sigstruct_cache_misses.load());
  snap.counter("preminted_credentials", preminted_credentials.load());
  snap.counter("tokens_issued", tokens_issued.load());
  snap.counter("mint_batches", mint_batches.load());
  snap.gauge("requests_in_flight", requests_in_flight.load());
  snap.gauge("max_in_flight", max_in_flight.load());
  snap.counter("requests_shed", requests_shed.load());
  snap.counter("deadline_exceeded", deadline_exceeded.load());
}

}  // namespace sinclave::server
