// Tests for the observability layer:
//  * LatencyHistogram export — known bucket fills, the Prometheus golden
//    format (cumulative _bucket{le=...} in seconds, _sum/_count), JSON and
//    text shapes, and merge-racing-export coherence (a TSAN target),
//  * MetricsRegistry collector semantics — ordering, exact removal
//    (destructor safety), snapshot-under-concurrency,
//  * the Tracer — span-tree assembly with late-bound correlators, ring
//    overwrite-oldest, the slow-request log, reset isolation, per-phase
//    summaries, and collect-while-recording (TSAN),
//  * the introspection endpoint end to end: metrics formats, version
//    gating, the channel_* series as the attested exchange's one metrics
//    source, and the acceptance flow — a full attested exchange through
//    the test bed's server::CasServer whose span tree is then retrieved
//    via CasClient::introspect().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "cas/service.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

namespace sinclave::obs {
namespace {

using namespace std::chrono_literals;

// Index of the bucket a duration lands in, via the public bound API.
std::size_t bucket_index(std::chrono::nanoseconds d) {
  const std::int64_t bound = LatencyHistogram::bucket_bound(d).count();
  const auto& bounds = LatencyHistogram::bucket_bounds_ns();
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
    if (bounds[i] == bound) return i;
  ADD_FAILURE() << "bound " << bound << " not in the table";
  return 0;
}

// The exporters' seconds formatting ("%.9g of ns/1e9") — reproduced here
// so golden assertions track the documented format, not a copied string.
std::string seconds(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(ns) / 1e9);
  return std::string(buf);
}

TEST(LatencyHistogramExport, KnownBucketFill) {
  LatencyHistogram h;
  for (int i = 0; i < 3; ++i) h.record(2us);
  for (int i = 0; i < 2; ++i) h.record(10us);
  h.record(1ms);

  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[bucket_index(2us)], 3u);
  EXPECT_EQ(counts[bucket_index(10us)], 2u);
  EXPECT_EQ(counts[bucket_index(1ms)], 1u);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 6u);

  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 3 * 2us + 2 * 10us + 1ms);
  EXPECT_EQ(s.max, std::chrono::nanoseconds(1ms));  // exact, not bucketed
  // Quantiles resolve to bucket upper bounds: the 3rd of 6 samples sits in
  // the 2us bucket, the 5th in the 10us bucket.
  EXPECT_EQ(s.p50, LatencyHistogram::bucket_bound(2us));
  EXPECT_EQ(s.p90, LatencyHistogram::bucket_bound(10us));
  EXPECT_LE(s.p50.count(), s.p90.count());
  EXPECT_LE(s.p90.count(), s.p99.count());
  EXPECT_LE(s.p99.count(), s.max.count());
}

TEST(LatencyHistogramExport, PrometheusGoldenFormat) {
  LatencyHistogram h;
  h.record(2us);
  h.record(10us);

  MetricsSnapshot snap;
  snap.counter("requests_total", 7);
  snap.gauge("in_flight", 3);
  snap.histogram("rtt", h);
  const std::string out = snap.to_prometheus();

  // Counters and gauges: sinclave_ prefix plus a TYPE line each.
  EXPECT_NE(out.find("# TYPE sinclave_requests_total counter\n"
                     "sinclave_requests_total 7\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE sinclave_in_flight gauge\n"
                     "sinclave_in_flight 3\n"),
            std::string::npos);

  // Histograms: _seconds suffix, cumulative buckets in seconds, +Inf,
  // _sum, and _count equal to the bucket series total.
  EXPECT_NE(out.find("# TYPE sinclave_rtt_seconds histogram\n"),
            std::string::npos);
  const auto& bounds = LatencyHistogram::bucket_bounds_ns();
  const std::string b2us = "sinclave_rtt_seconds_bucket{le=\"" +
                           seconds(bounds[bucket_index(2us)]) + "\"} 1\n";
  const std::string b10us = "sinclave_rtt_seconds_bucket{le=\"" +
                            seconds(bounds[bucket_index(10us)]) + "\"} 2\n";
  EXPECT_NE(out.find(b2us), std::string::npos) << out;
  EXPECT_NE(out.find(b10us), std::string::npos) << out;
  EXPECT_NE(out.find("sinclave_rtt_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("sinclave_rtt_seconds_sum " + seconds(12'000) + "\n"),
            std::string::npos);
  EXPECT_NE(out.find("sinclave_rtt_seconds_count 2\n"), std::string::npos);

  // Cumulative monotonicity across the whole bucket series.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  std::size_t seen = 0;
  while ((pos = out.find("_bucket{le=\"", pos)) != std::string::npos) {
    const std::size_t val = out.find("} ", pos);
    ASSERT_NE(val, std::string::npos);
    const std::uint64_t v = std::stoull(out.substr(val + 2));
    EXPECT_GE(v, prev);
    prev = v;
    pos = val;
    ++seen;
  }
  EXPECT_EQ(seen, LatencyHistogram::kBuckets + 1);  // all bounds + +Inf
}

TEST(LatencyHistogramExport, JsonAndTextShapes) {
  LatencyHistogram h;
  h.record(2us);

  MetricsSnapshot snap;
  snap.counter("requests_total", 7);
  snap.gauge("in_flight", 3);
  snap.histogram("rtt", h);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\": {\"requests_total\": 7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\": {\"in_flight\": 3}"), std::string::npos);
  EXPECT_NE(json.find("\"rtt\": {\"count\": 1"), std::string::npos);
  // Only occupied buckets are emitted.
  const std::string bucket =
      "\"buckets\": [{\"le_ns\": " +
      std::to_string(
          LatencyHistogram::bucket_bounds_ns()[bucket_index(2us)]) +
      ", \"count\": 1}]";
  EXPECT_NE(json.find(bucket), std::string::npos) << json;

  const std::string text = snap.to_text();
  EXPECT_NE(text.find("requests_total"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);

  // find() resolves by bare name.
  ASSERT_NE(snap.find("rtt"), nullptr);
  EXPECT_EQ(snap.find("rtt")->stats.count, 1u);
  EXPECT_EQ(snap.find("absent"), nullptr);
}

// A writer merging + recording while another thread exports: TSAN must be
// clean, and every observed snapshot must satisfy the coherence contract.
TEST(LatencyHistogramExport, MergeWhileExportKeepsInvariants) {
  LatencyHistogram dst;
  LatencyHistogram src;
  for (int i = 0; i < 8; ++i) src.record(std::chrono::microseconds(1 << i));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 300 && !stop.load(); ++i) {
      dst.merge(src);
      dst.record(std::chrono::microseconds(i % 50 + 1));
    }
    stop.store(true);
  });

  std::uint64_t last_count = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    MetricsSnapshot snap;
    snap.histogram("racing", dst);
    const auto* e = snap.find("racing");
    ASSERT_NE(e, nullptr);
    EXPECT_LE(e->stats.p50.count(), e->stats.p90.count());
    EXPECT_LE(e->stats.p90.count(), e->stats.p99.count());
    EXPECT_LE(e->stats.p99.count(), e->stats.max.count());
    // Bucket-derived _count never exceeds what stats.count saw (buckets
    // are copied first).
    std::uint64_t bucket_total = 0;
    for (auto c : e->buckets) bucket_total += c;
    EXPECT_LE(bucket_total, e->stats.count);
    EXPECT_GE(e->stats.count, last_count);  // no reset: monotone
    last_count = e->stats.count;
    (void)snap.to_prometheus();
  }
  writer.join();
}

TEST(MetricsRegistry, CollectorsRunInOrderAndRemoveIsExact) {
  MetricsRegistry reg;
  const std::uint64_t a =
      reg.add_collector([](MetricsSnapshot& s) { s.counter("a", 1); });
  const std::uint64_t b =
      reg.add_collector([](MetricsSnapshot& s) { s.counter("b", 2); });

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "a");  // registration order
  EXPECT_EQ(snap.entries[1].name, "b");

  reg.remove_collector(a);
  snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].name, "b");
  reg.remove_collector(b);
  EXPECT_TRUE(reg.snapshot().entries.empty());
  reg.remove_collector(a);  // double remove: harmless
}

// remove_collector() returning guarantees no snapshot is mid-callback —
// the property that lets registrants unregister from their destructors.
TEST(MetricsRegistry, RemoveWhileSnapshottingIsSafe) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) (void)reg.snapshot();
  });

  for (int i = 0; i < 100; ++i) {
    auto calls = std::make_shared<std::atomic<int>>(0);
    const std::uint64_t id = reg.add_collector(
        [calls](MetricsSnapshot& s) { s.counter("x", ++*calls); });
    (void)reg.snapshot();
    reg.remove_collector(id);
    const int after_remove = calls->load();
    (void)reg.snapshot();
    (void)reg.snapshot();
    EXPECT_EQ(calls->load(), after_remove);  // never called again
  }
  stop.store(true);
  reader.join();
}

TEST(Tracer, AssemblesSpanTreeWithCorrelators) {
  Tracer& tracer = Tracer::instance();
  tracer.reset_traces();
  Phase& p_root = tracer.phase("test_root");
  Phase& p_outer = tracer.phase("test_outer");
  Phase& p_inner = tracer.phase("test_inner");
  Phase& p_late = tracer.phase("test_late");

  TraceContext ctx;
  ctx.trace_id = tracer.new_trace_id();
  ctx.request_id = 77;
  const std::int64_t t0 = Tracer::now_ns();
  {
    TraceScope scope(ctx);
    {
      Span outer(p_outer);
      Span inner(p_inner);
    }
    // The handshake allocates the session id mid-request.
    TraceScope::set_session(555);
    { Span late(p_late); }
    tracer.record_phase_root(p_root, TraceScope::current(), t0,
                             Tracer::now_ns());
  }
  EXPECT_FALSE(TraceScope::active());  // scope restored

  const std::vector<Trace> traces = tracer.collect(8);
  const Trace* found = nullptr;
  for (const Trace& t : traces)
    if (t.trace_id == ctx.trace_id) found = &t;
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->request_id, 77u);
  // Propagated from the one span recorded after set_session.
  EXPECT_EQ(found->session_id, 555u);
  ASSERT_EQ(found->spans.size(), 4u);
  // Root first (earliest start, lowest depth on ties), depths as nested.
  EXPECT_STREQ(found->spans[0].name, "test_root");
  EXPECT_EQ(found->spans[0].depth, 0u);
  const auto find_span = [&](const char* name) -> const CollectedSpan* {
    for (const CollectedSpan& s : found->spans)
      if (std::string(s.name) == name) return &s;
    return nullptr;
  };
  ASSERT_NE(find_span("test_outer"), nullptr);
  EXPECT_EQ(find_span("test_outer")->depth, 1u);
  ASSERT_NE(find_span("test_inner"), nullptr);
  EXPECT_EQ(find_span("test_inner")->depth, 2u);
  EXPECT_EQ(find_span("test_late")->depth, 1u);

  // The renderer shows every span with its indentation.
  const std::string rendered = Tracer::render(*found);
  EXPECT_NE(rendered.find("test_root"), std::string::npos);
  EXPECT_NE(rendered.find("  test_inner"), std::string::npos);
}

TEST(Tracer, RingOverwritesOldestKeepsNewest) {
  Tracer& tracer = Tracer::instance();
  tracer.reset_traces();
  Phase& p = tracer.phase("test_churn");

  // All on this one thread: one ring, so capacity + extra roots must
  // evict exactly the oldest extras.
  constexpr std::size_t kExtra = 64;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < Tracer::kRingCapacity + kExtra; ++i) {
    TraceContext ctx;
    ctx.trace_id = tracer.new_trace_id();
    const std::int64_t now = Tracer::now_ns();
    tracer.record_phase_root(p, ctx, now, now);
    ids.push_back(ctx.trace_id);
  }

  const std::vector<Trace> traces = tracer.collect(2 * Tracer::kRingCapacity);
  ASSERT_EQ(traces.size(), Tracer::kRingCapacity);
  std::vector<std::uint64_t> got;
  for (const Trace& t : traces) got.push_back(t.trace_id);
  // Newest first; the first kExtra recorded ids were overwritten.
  EXPECT_EQ(got.front(), ids.back());
  for (std::size_t i = 0; i < kExtra; ++i)
    EXPECT_EQ(std::find(got.begin(), got.end(), ids[i]), got.end())
        << "id " << ids[i] << " should have been overwritten";
  EXPECT_NE(std::find(got.begin(), got.end(), ids[kExtra]), got.end());
}

TEST(Tracer, SlowLogRetainsSlowTraces) {
  Tracer& tracer = Tracer::instance();
  tracer.reset_traces();
  const std::chrono::nanoseconds saved = tracer.slow_threshold();
  tracer.set_slow_threshold(1ms);
  Phase& p = tracer.phase("test_slow_root");

  const std::uint64_t before = tracer.slow_count();

  // One fast trace (stays out of the log) and one synthetic 2ms trace.
  TraceContext fast;
  fast.trace_id = tracer.new_trace_id();
  const std::int64_t t0 = Tracer::now_ns();
  tracer.record_phase_root(p, fast, t0, t0 + 1000);

  TraceContext slow;
  slow.trace_id = tracer.new_trace_id();
  slow.request_id = 99;
  tracer.record_phase_root(p, slow, t0, t0 + 2'000'000);

  EXPECT_EQ(tracer.slow_count(), before + 1);
  const std::vector<Trace> log = tracer.slow_traces();
  ASSERT_FALSE(log.empty());
  const Trace& last = log.back();
  EXPECT_EQ(last.trace_id, slow.trace_id);
  EXPECT_GE(last.duration_ns(), 1'000'000);
  for (const Trace& t : log) EXPECT_NE(t.trace_id, fast.trace_id);

  // Harvest is once per trace: a second look must not duplicate.
  const std::size_t size = log.size();
  EXPECT_EQ(tracer.slow_traces().size(), size);
  tracer.set_slow_threshold(saved);
}

TEST(Tracer, ResetTracesHidesHistory) {
  Tracer& tracer = Tracer::instance();
  Phase& p = tracer.phase("test_reset");

  TraceContext ctx;
  ctx.trace_id = tracer.new_trace_id();
  const std::int64_t now = Tracer::now_ns();
  tracer.record_phase_root(p, ctx, now, now);
  tracer.reset_traces();

  for (const Trace& t : tracer.collect(2 * Tracer::kRingCapacity))
    EXPECT_NE(t.trace_id, ctx.trace_id);
  EXPECT_TRUE(tracer.slow_traces().empty());
}

TEST(Tracer, PhaseSummariesScopeToWindow) {
  Tracer& tracer = Tracer::instance();
  tracer.reset_phases();
  Phase& pa = tracer.phase("test_window_a");
  Phase& pb = tracer.phase("test_window_b");

  TraceContext ctx;  // inactive: histograms record, rings don't
  tracer.record_phase_span(pa, ctx, 0, 5'000, 1);
  tracer.record_phase_span(pa, ctx, 0, 5'000, 1);
  tracer.record_phase_span(pb, ctx, 0, 9'000, 1);

  const auto rows = tracer.phase_summaries();
  const auto find_row = [&](const char* name) -> const Tracer::PhaseSummary* {
    for (const auto& r : rows)
      if (std::string(r.name) == name) return &r;
    return nullptr;
  };
  ASSERT_NE(find_row("test_window_a"), nullptr);
  EXPECT_EQ(find_row("test_window_a")->stats.count, 2u);
  EXPECT_EQ(find_row("test_window_a")->stats.max, 5us);
  ASSERT_NE(find_row("test_window_b"), nullptr);
  EXPECT_EQ(find_row("test_window_b")->stats.count, 1u);
  // Every returned row recorded something in this window.
  for (const auto& r : rows) EXPECT_GT(r.stats.count, 0u);

  tracer.reset_phases();
  EXPECT_EQ(find_row("test_window_a"), find_row("test_window_a"));
  for (const auto& r : tracer.phase_summaries())
    EXPECT_NE(std::string(r.name), "test_window_a");
}

// Writers record spans under live scopes while a collector drains their
// rings: the seqlock must keep TSAN quiet and the data untorn.
TEST(Tracer, CollectWhileRecordingIsSafe) {
  Tracer& tracer = Tracer::instance();
  tracer.reset_traces();
  Phase& p_work = tracer.phase("test_race_work");
  Phase& p_root = tracer.phase("test_race_root");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 2000; ++i) {
        TraceContext ctx;
        ctx.trace_id = tracer.new_trace_id();
        ctx.request_id = static_cast<std::uint64_t>(w * 10000 + i);
        const std::int64_t t0 = Tracer::now_ns();
        {
          TraceScope scope(ctx);
          Span span(p_work);
        }
        tracer.record_phase_root(p_root, ctx, t0, Tracer::now_ns());
      }
    });
  }

  std::thread collector([&] {
    while (!stop.load()) {
      for (const Trace& t : tracer.collect(16)) {
        EXPECT_NE(t.trace_id, 0u);
        for (const CollectedSpan& s : t.spans) {
          EXPECT_EQ(s.trace_id, t.trace_id);  // untorn slot
          EXPECT_GE(s.end_ns, s.start_ns);
        }
      }
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true);
  collector.join();
}

}  // namespace
}  // namespace sinclave::obs

// ---------------------------------------------------------------------------
// The introspection endpoint end to end.
// ---------------------------------------------------------------------------

namespace sinclave::cas {
namespace {

class ObsIntrospectionTest : public ::testing::Test {
 protected:
  ObsIntrospectionTest()
      : bed_(workload::TestbedConfig{.seed = 91}),
        image_(core::EnclaveImage::synthetic("obs", sgx::kPageSize,
                                             4 * sgx::kPageSize)),
        signer_(&bed_.user_signer()),
        signed_(signer_.sign_sinclave(image_)) {
    Policy p;
    p.session_name = "s";
    p.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    p.require_singleton = true;
    p.base_hash = signed_.base_hash;
    p.config.program = "noop";
    bed_.cas().install_policy(p);
  }

  workload::Testbed bed_;
  core::EnclaveImage image_;
  core::Signer signer_;
  core::SinclaveSignedImage signed_;
};

TEST_F(ObsIntrospectionTest, MetricsFormatsOverTheBedServer) {
  CasClient client = bed_.make_cas_client();

  IntrospectRequest req;
  req.format = MetricsFormat::kPrometheus;
  IntrospectResponse resp = client.introspect(req);
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_NE(resp.metrics.find("# TYPE sinclave_tokens_outstanding gauge"),
            std::string::npos)
      << resp.metrics;
  EXPECT_NE(resp.metrics.find("sinclave_tokens_spent"), std::string::npos);

  req.format = MetricsFormat::kText;
  resp = client.introspect(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp.metrics.find("tokens_outstanding"), std::string::npos);
  EXPECT_EQ(resp.metrics.find("sinclave_"), std::string::npos);

  req.format = MetricsFormat::kJson;
  resp = client.introspect(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp.metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(resp.metrics.find("\"tokens_spent\""), std::string::npos);

  // An out-of-range format byte is a typed refusal, not a crash.
  req.format = static_cast<MetricsFormat>(9);
  resp = client.introspect(req);
  EXPECT_EQ(resp.status.code, StatusCode::kMalformedRequest);
}

TEST_F(ObsIntrospectionTest, FutureVersionIntrospectIsTyped) {
  // A future-version kIntrospect envelope: typed refusal decodable by the
  // future client (the Status prefix layout is frozen).
  Envelope fut;
  fut.version = kProtocolVersion + 1;
  fut.command = Command::kIntrospect;
  fut.request_id = 9;
  fut.payload = IntrospectRequest{}.serialize();
  auto conn = bed_.network().connect(bed_.cas_address());
  const Envelope reply = Envelope::deserialize(conn.call(fut.serialize()));
  EXPECT_EQ(reply.command, Command::kIntrospect);
  EXPECT_EQ(reply.request_id, 9u);
  const IntrospectResponse refused =
      IntrospectResponse::deserialize(reply.payload);
  EXPECT_EQ(refused.status.code, StatusCode::kUnsupportedVersion);
}

// The acceptance flow: a full attested exchange through the bed's
// server::CasServer, whose span tree — root plus at least five named
// phases — is then retrieved through the introspection endpoint of the
// same server.
TEST_F(ObsIntrospectionTest, AttestTraceRetrievableViaIntrospection) {
  obs::Tracer::instance().reset_traces();

  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
      signed_.sigstruct, "s");
  ASSERT_TRUE(start.ok()) << start.error;

  AttestedChannel channel(&bed_.network(),
                          CasClientConfig{.address = bed_.cas_address()},
                          crypto::Drbg::from_seed(17, "obs-chan"));
  const sgx::Report report =
      bed_.cpu().ereport(start.enclave.id, bed_.qe().target_info(),
                         net::channel_binding(channel.dh_public()));
  const auto quote = bed_.qe().generate_quote(report);
  ASSERT_TRUE(quote.has_value());
  AttestPayload payload;
  payload.session_name = "s";
  payload.quote = *quote;
  payload.token = start.token;
  ASSERT_TRUE(channel.attest(bed_.cas().identity(), payload).ok());

  CasClient client = bed_.make_cas_client();
  IntrospectRequest req;
  req.max_traces = 32;
  const IntrospectResponse resp = client.introspect(req);
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_NE(resp.metrics.find("\"attest_requests\""), std::string::npos)
      << resp.metrics;

  const auto find_trace =
      [&](const char* root,
          std::optional<std::uint64_t> request_id =
              std::nullopt) -> const TraceReport* {
    for (const TraceReport& t : resp.traces) {
      if (request_id.has_value() && t.request_id != *request_id) continue;
      for (const TraceReport::Phase& p : t.phases)
        if (p.depth == 0 && p.name == root) return &t;
    }
    return nullptr;
  };
  const auto has_phase = [](const TraceReport& t, const char* name) {
    for (const TraceReport::Phase& p : t.phases)
      if (p.name == name) return true;
    return false;
  };

  // The attest trace, joined to the client's by the request id it sent:
  // accept -> handshake crypto -> sealing the answer -> respond, >= 5
  // phases.
  const TraceReport* sent = find_trace("client_attest");
  ASSERT_NE(sent, nullptr) << "no client_attest trace in introspection";
  ASSERT_NE(sent->request_id, 0u);
  const TraceReport* attest = find_trace("request_attest", sent->request_id);
  ASSERT_NE(attest, nullptr) << "no request_attest trace for request "
                             << sent->request_id;
  EXPECT_GE(attest->phases.size(), 5u);
  EXPECT_NE(attest->session_id, 0u);  // late-bound by the handshake
  EXPECT_GT(attest->duration_ns, 0);
  EXPECT_TRUE(has_phase(*attest, "queue_wait"));
  EXPECT_TRUE(has_phase(*attest, "quote_verify"));
  EXPECT_TRUE(has_phase(*attest, "record_seal"));
  EXPECT_TRUE(has_phase(*attest, "respond"));
  for (const TraceReport::Phase& p : attest->phases) {
    EXPECT_GE(p.offset_ns, 0);
    EXPECT_LE(p.offset_ns + p.duration_ns, attest->duration_ns);
  }

  // The instance retrieval the starter performed is there too.
  EXPECT_NE(find_trace("request_get_instance"), nullptr);
}

// The attested exchange's channel counters have one source: CasService's
// channel_* series, read straight from the SecureServer at every snapshot.
TEST_F(ObsIntrospectionTest, SecureChannelSeriesComeFromTheService) {
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), bed_.cas_address(), image_,
      signed_.sigstruct, "s");
  ASSERT_TRUE(start.ok()) << start.error;
  AttestedChannel channel(&bed_.network(),
                          CasClientConfig{.address = bed_.cas_address()},
                          crypto::Drbg::from_seed(18, "obs-channel"));
  const sgx::Report report =
      bed_.cpu().ereport(start.enclave.id, bed_.qe().target_info(),
                         net::channel_binding(channel.dh_public()));
  const auto quote = bed_.qe().generate_quote(report);
  ASSERT_TRUE(quote.has_value());
  AttestPayload payload;
  payload.session_name = "s";
  payload.quote = *quote;
  payload.token = start.token;
  ASSERT_TRUE(channel.attest(bed_.cas().identity(), payload).ok());

  const obs::MetricsSnapshot snap = bed_.cas().metrics_registry().snapshot();
  const net::SecureServer::Stats stats = bed_.cas().secure_channel_stats();
  const auto* opened = snap.find("channel_sessions_opened");
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->value, 1u);
  EXPECT_EQ(opened->value, stats.sessions_opened);
  const auto* high_water = snap.find("channel_sessions_high_water");
  ASSERT_NE(high_water, nullptr);
  EXPECT_EQ(high_water->value, stats.sessions_high_water);
  ASSERT_NE(snap.find("channel_stripe_collisions"), nullptr);
  // The serving layer exports no copies.
  EXPECT_EQ(snap.find("secure_sessions_opened"), nullptr);
  EXPECT_EQ(snap.find("secure_sessions_high_water"), nullptr);
  EXPECT_EQ(snap.find("handshake_stripe_collisions"), nullptr);
}

}  // namespace
}  // namespace sinclave::cas
