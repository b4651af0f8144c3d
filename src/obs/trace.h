// Request tracing: named phases recorded into lock-free per-thread rings.
//
// Model. A request is identified by a TraceContext — a process-unique
// trace_id allocated when the frontend accepts the frame, plus the two
// wire-visible correlators: the envelope's request_id (peeked from the
// cleartext header when there is one; 0 for encrypted frames whose
// envelope only decrypts inside the session) and the secure-channel
// session_id (0 until the handshake allocates one). Phases are recorded
// as Spans: RAII on a single thread (Span), or explicit start/end records
// for phases that cross threads (CasServer's accept→serve→stall→respond
// machine parks work on timers, so its root and stall phases are recorded
// with record_phase_span / record_phase_root when the request completes).
//
// Hot-path discipline (same as metrics.h): recording a span acquires no
// lock and performs no heap allocation. Every span lands twice:
//   1. in its Phase's LatencyHistogram (wait-free relaxed atomics) — this
//      is what the per-phase p50/p99 bench attribution reads, and
//   2. in the recording thread's fixed-capacity ring buffer (single
//      writer, overwrite-oldest) — this is what trace assembly reads.
// Ring slots are relaxed atomics guarded by a per-slot seqlock (odd while
// the writer is mid-slot, +2 per write), so the cold-path collector can
// snapshot a live ring without locks, torn reads, or TSAN reports: a slot
// whose sequence changed or is odd is simply discarded as overwritten.
//
// The first span a thread ever records registers its ring with the Tracer
// (one mutex acquisition per thread lifetime, not per span). Rings of dead
// threads are adopted by new threads instead of leaking, so thread churn
// does not grow memory without bound.
//
// Collection is on demand: collect() drains every ring, groups records by
// trace_id, and returns completed traces (those whose root — depth 0 —
// span was recorded), most recent first. Traces whose root exceeds the
// configurable slow threshold are additionally copied into a small
// bounded slow-request log so a burst of fast traffic cannot overwrite
// the evidence of a slow request before anyone looks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace sinclave::obs {

class Tracer;
class Ring;

/// Identity of one request's trace. Copyable, 24 bytes, no ownership.
struct TraceContext {
  std::uint64_t trace_id = 0;   // process-unique; 0 = "not traced"
  std::uint64_t request_id = 0; // envelope request id (0 if not peekable)
  std::uint64_t session_id = 0; // secure-channel handshake (0 = none yet)

  bool active() const { return trace_id != 0; }
};

/// A named phase: the unit of latency attribution. Phases are interned by
/// Tracer::phase(name) and live forever (the tracer is a leaky singleton),
/// so instrumentation sites hold `static Phase&` references and pay zero
/// lookup per span. The name must outlive the process (string literal).
class Phase {
 public:
  const char* name() const { return name_; }
  LatencyHistogram& latency() { return latency_; }
  const LatencyHistogram& latency() const { return latency_; }

 private:
  friend class Tracer;
  explicit Phase(const char* name) : name_(name) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  const char* name_;
  LatencyHistogram latency_;
};

/// Installs a TraceContext for the current thread for its lifetime (RAII,
/// nests by save/restore). Spans recorded on this thread while the scope
/// is active carry the context into the thread's ring; without an active
/// scope a Span still feeds its Phase histogram but writes no ring record.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// True if some scope is active on the calling thread.
  static bool active();

  /// Current thread's context (inactive context if no scope).
  static TraceContext current();

  /// Late-binds the session id into the active scope (the handshake
  /// allocates the id mid-request, after the scope opened). No-op when no
  /// scope is active. Spans recorded after this carry the session id;
  /// trace assembly propagates it to the whole trace.
  static void set_session(std::uint64_t session_id);

 private:
  TraceContext saved_ctx_;
  std::uint32_t saved_depth_;
};

/// RAII span: records `now - construction time` into the phase histogram
/// and (under an active TraceScope) the thread's ring at destruction.
/// No lock, no allocation, two clock reads.
class Span {
 public:
  explicit Span(Phase& phase);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Phase* phase_;
  std::int64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool armed_ = false;
};

/// One span as drained from a ring.
struct CollectedSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t depth = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A completed request: the root span plus every phase recorded under the
/// same trace_id, ordered by start time (root first on ties of depth).
struct Trace {
  std::uint64_t trace_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<CollectedSpan> spans;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide tracer. Leaky singleton: instance() never destructs, so
/// Spans in static-destruction order and exiting threads stay safe.
class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 2048;
  static constexpr std::size_t kSlowLogCapacity = 16;

  static Tracer& instance();

  /// Tracing is on by default (the <3% throughput budget is the bench
  /// gate). Disabling stops new ring writes and trace-id allocation;
  /// phase histograms also stop (Spans disarm entirely).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Steady-clock nanoseconds (process-relative; all span timestamps).
  static std::int64_t now_ns();

  /// Allocates a fresh trace id (0 is never returned). Returns 0 when
  /// tracing is disabled, so `ctx.active()` stays the single gate.
  std::uint64_t new_trace_id();

  /// Interns a phase by name (pointer-stable forever). Cold: call once
  /// per site via `static Phase& p = Tracer::instance().phase("x");`.
  Phase& phase(const char* name);

  /// Snapshot of every interned phase, in interning order.
  std::vector<const Phase*> phases() const;

  /// Zeroes every phase histogram (bench sweeps re-measure from scratch;
  /// quantiles are not delta-able so reset is the only way to attribute
  /// a window).
  void reset_phases();

  /// Explicit (non-RAII) record for phases that cross threads: feeds the
  /// phase histogram and writes a ring record on the *calling* thread
  /// using the given context (no TraceScope needed).
  void record_phase_span(Phase& phase, const TraceContext& ctx,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::uint32_t depth);

  /// Records the depth-0 root span, completing the trace, and feeds the
  /// slow-request accounting (threshold check is one compare; the slow
  /// log itself is populated at collect time, never on the hot path).
  void record_phase_root(Phase& phase, const TraceContext& ctx,
                         std::int64_t start_ns, std::int64_t end_ns);

  /// Root spans whose duration met the slow threshold (hot-path counter;
  /// exact even when the ring has since overwritten the trace).
  std::uint64_t slow_count() const {
    return slow_total_.load(std::memory_order_relaxed);
  }

  /// Slow-request threshold; <= 0 disables slow tracking. Default 50 ms.
  void set_slow_threshold(std::chrono::nanoseconds t);
  std::chrono::nanoseconds slow_threshold() const;

  /// Drain all rings and assemble completed traces, most recent first,
  /// at most `max_traces`. Also harvests new slow traces into the slow
  /// log. Cold path: takes the collection mutex, allocates freely.
  std::vector<Trace> collect(std::size_t max_traces);

  /// One row of phase_summaries(): a phase that recorded >= 1 span.
  struct PhaseSummary {
    const char* name = "";
    LatencyHistogram::Snapshot stats;
  };
  /// Latency summary of every phase with a nonzero count, in interning
  /// order — what benches print/emit as the per-phase p50/p99 attribution
  /// (pair with reset_phases() to scope the attribution to a window).
  std::vector<PhaseSummary> phase_summaries() const;

  /// The retained slow-request log, oldest first (harvests pending rings
  /// first, so it is current as of the call).
  std::vector<Trace> slow_traces();

  /// Human-readable span tree (indent by depth, offsets from root start).
  static std::string render(const Trace& trace);

  /// Test isolation: hide everything recorded so far from future
  /// collect()/slow_traces() calls and clear the slow log. Does not touch
  /// rings (live writers own them) or phase histograms (reset_phases).
  void reset_traces();

  // Internals for Span/TraceScope (logically private; public so the
  // thread-local machinery in trace.cpp can reach them).
  std::uint32_t enter_span();
  void exit_span(Phase& phase, std::int64_t start_ns, std::uint32_t depth);

 private:
  Tracer();
  ~Tracer() = delete;  // leaky

  Ring& thread_ring();
  void write_record(const TraceContext& ctx, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint32_t depth);
  std::vector<Trace> assemble_locked(std::size_t max_traces);

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::int64_t> slow_threshold_ns_;
  std::atomic<std::uint64_t> slow_total_{0};

  struct State;
  State* state_;  // never freed
};

}  // namespace sinclave::obs
