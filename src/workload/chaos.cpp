#include "workload/chaos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "attack/impersonator.h"
#include "attack/report_server.h"
#include "cas/client.h"
#include "common/error.h"
#include "common/mutex.h"
#include "core/instance_page.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "obs/registry.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

namespace sinclave::workload {

namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

constexpr const char* kSession = "chaos";

/// One deployed testbed with a sinclave singleton session installed —
/// the common substrate every scenario abuses.
struct Fixture {
  Testbed bed;
  core::EnclaveImage image;
  core::Signer signer;
  core::SinclaveSignedImage signed_image;

  explicit Fixture(std::uint64_t seed)
      : bed(TestbedConfig{.seed = seed, .rsa_bits = 1024}),
        image(core::EnclaveImage::synthetic("chaos", 4 * sgx::kPageSize,
                                            8 * sgx::kPageSize)),
        signer(&bed.user_signer()),
        signed_image(signer.sign_sinclave(image)) {
    cas::Policy policy;
    policy.session_name = kSession;
    policy.expected_signer =
        crypto::sha256(bed.user_signer().public_key().modulus_be());
    policy.require_singleton = true;
    policy.base_hash = signed_image.base_hash;
    policy.config.program = "noop";
    bed.cas().install_policy(policy);
  }
};

/// A racer's channel config: one wire attempt, so every attempt the
/// scenario counts is exactly one exchange.
cas::CasClientConfig one_attempt(const std::string& address) {
  return cas::CasClientConfig{.address = address,
                              .retry = {.max_attempts = 1}};
}

/// Thread-shared outcome sink (rank kWorkloadResult, like load_gen's
/// aggregation lock — held only for bookkeeping, never across calls).
struct Outcomes {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> typed{0};
  std::atomic<std::uint64_t> untyped{0};
  std::atomic<std::uint64_t> attempts{0};

  Mutex mutex{LockRank::kWorkloadResult, "workload.chaos_outcomes"};
  std::set<std::string> tokens GUARDED_BY(mutex);
  bool duplicate_token GUARDED_BY(mutex) = false;
  std::vector<std::string> unexpected GUARDED_BY(mutex);

  void note_token(const std::string& hex) REQUIRES_NOT(mutex) {
    MutexLock lock(mutex);
    if (!tokens.insert(hex).second) duplicate_token = true;
  }
  void note_unexpected(std::string what) REQUIRES_NOT(mutex) {
    MutexLock lock(mutex);
    if (unexpected.size() < 8) unexpected.push_back(std::move(what));
  }
  std::uint64_t token_count() REQUIRES_NOT(mutex) {
    MutexLock lock(mutex);
    return tokens.size();
  }
};

/// One synchronous retrieval through the SDK, classified. Status codes
/// outside `allowed` are recorded as criteria violations; exceptions
/// escaping the SDK (there must be none) count as untyped.
void run_op(cas::CasClient& client, const Fixture& fx, Outcomes& out,
            std::initializer_list<StatusCode> allowed) {
  try {
    const cas::InstanceResult got =
        client.get_instance(kSession, fx.signed_image.sigstruct);
    out.attempts.fetch_add(got.attempts, std::memory_order_relaxed);
    if (got.ok()) {
      out.ok.fetch_add(1, std::memory_order_relaxed);
      out.note_token(got.token.hex());
      return;
    }
    out.typed.fetch_add(1, std::memory_order_relaxed);
    if (std::find(allowed.begin(), allowed.end(), got.status.code) ==
        allowed.end())
      out.note_unexpected(std::string("unexpected status code: ") +
                          to_string(got.status.code));
  } catch (...) {
    out.untyped.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Criteria helper: a failed check appends its description; passed =
/// failures.empty() at the end.
void check(ChaosScenarioResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

void fill_counts(ChaosScenarioResult& r, Outcomes& out) {
  r.ok = out.ok.load();
  r.typed_failures = out.typed.load();
  r.untyped_failures = out.untyped.load();
  r.attempts = out.attempts.load();
  check(r, out.untyped.load() == 0,
        "exceptions escaped the SDK (failures must be typed Status)");
  MutexLock lock(out.mutex);
  check(r, !out.duplicate_token, "a one-time token was delivered twice");
  for (const std::string& u : out.unexpected) r.failures.push_back(u);
}

// --- connection-churn -------------------------------------------------------
//
// Per-op fresh clients through resets and request drops: every connection
// is torn down and rebuilt, failures stay typed, tokens stay unique, and
// the network serves cleanly once the plan heals.
ChaosScenarioResult scenario_connection_churn(const ChaosConfig& cfg) {
  ChaosScenarioResult r;
  r.name = "connection-churn";
  Fixture fx(cfg.seed);
  const std::size_t ops = cfg.smoke ? 40 : 200;

  net::FaultPlan plan;
  plan.seed = cfg.seed;
  auto& faults = plan.per_endpoint[fx.bed.cas_address()];
  faults.reset = 0.25;
  faults.drop_request = 0.10;
  fx.bed.network().set_fault_plan(plan);

  Outcomes out;
  for (std::size_t i = 0; i < ops; ++i) {
    cas::RetryPolicy retry;
    retry.max_attempts = 6;
    retry.initial_backoff = 20us;
    retry.max_backoff = 200us;
    retry.jitter_seed = cfg.seed * 7919 + i + 1;
    cas::CasClient client = fx.bed.make_cas_client(retry);
    run_op(client, fx, out, {StatusCode::kUnavailable});
  }
  r.ops = ops;
  const auto stats = fx.bed.network().fault_stats();
  r.faults_injected = stats.total_faults();

  fx.bed.network().set_fault_plan({});  // heal
  cas::CasClient clean = fx.bed.make_cas_client();
  run_op(clean, fx, out, {});
  ++r.ops;

  fill_counts(r, out);
  check(r, stats.total_faults() > 0, "the fault plan never fired");
  check(r, out.ok.load() >= ops / 2, "most operations should survive churn");
  check(r, out.token_count() == out.ok.load(),
        "every success must deliver its own token");
  return r;
}

// --- mid-handshake-drops ----------------------------------------------------
//
// Secure-channel handshakes under request AND response drops. The crux:
// a response-dropped handshake spends the token server-side while the
// client sees a transport failure — the retry after healing must then be
// *rejected*, never double-attested. After one healed retry round every
// token is spent exactly once.
ChaosScenarioResult scenario_mid_handshake(const ChaosConfig& cfg) {
  ChaosScenarioResult r;
  r.name = "mid-handshake-drops";
  Fixture fx(cfg.seed + 101);
  const std::size_t n = cfg.smoke ? 4 : 8;
  const std::size_t used_before = fx.bed.cas().tokens_used();

  // Honest preparation (no faults yet): one token + booted enclave each.
  std::vector<core::AttestationToken> tokens;
  std::vector<sgx::SgxCpu::EnclaveId> enclaves;
  cas::CasClient preparer = fx.bed.make_cas_client();
  for (std::size_t t = 0; t < n; ++t) {
    const cas::InstanceResult resp =
        preparer.get_instance(kSession, fx.signed_image.sigstruct);
    if (!resp.ok()) {
      r.failures.push_back("honest token preparation failed");
      return r;
    }
    core::InstancePage page;
    page.token = resp.token;
    page.verifier_id = resp.verifier_id;
    const auto enclave = runtime::start_enclave(
        fx.bed.cpu(), fx.image, resp.singleton_sigstruct, page);
    if (!enclave.ok()) {
      r.failures.push_back("enclave start failed during preparation");
      return r;
    }
    tokens.push_back(resp.token);
    enclaves.push_back(enclave.id);
  }

  Outcomes out;
  /// One handshake attempt for token `t` over a fresh channel; true iff
  /// the client observed acceptance.
  const auto try_attest = [&](std::size_t t, std::uint64_t salt) {
    cas::AttestedChannel channel(
        &fx.bed.network(), one_attempt(fx.bed.cas_address()),
        crypto::Drbg::from_seed(cfg.seed * 1000 + t * 16 + salt,
                                "chaos-handshake"));
    const sgx::Report report =
        fx.bed.cpu().ereport(enclaves[t], fx.bed.qe().target_info(),
                             net::channel_binding(channel.dh_public()));
    const auto quote = fx.bed.qe().generate_quote(report);
    if (!quote.has_value()) {
      out.note_unexpected("quote generation failed");
      return false;
    }
    cas::AttestPayload payload;
    payload.session_name = kSession;
    payload.quote = *quote;
    payload.token = tokens[t];
    out.attempts.fetch_add(1, std::memory_order_relaxed);
    try {
      if (channel.attest(fx.bed.cas().identity(), payload).ok()) {
        out.ok.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      out.typed.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error&) {
      out.typed.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      out.untyped.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  };

  net::FaultPlan plan;
  plan.seed = cfg.seed + 101;
  auto& faults = plan.per_endpoint[fx.bed.cas_address()];
  faults.drop_request = 0.30;
  faults.drop_response = 0.25;
  fx.bed.network().set_fault_plan(plan);

  std::vector<bool> succeeded(n, false);
  for (std::size_t t = 0; t < n; ++t) succeeded[t] = try_attest(t, 0);
  const auto stats = fx.bed.network().fault_stats();
  r.faults_injected = stats.total_faults();

  // Heal, then retry every handshake the client believes failed. A token
  // ghost-spent by a dropped response must be rejected here.
  fx.bed.network().set_fault_plan({});
  for (std::size_t t = 0; t < n; ++t)
    if (!succeeded[t]) succeeded[t] = try_attest(t, 1);

  r.ops = out.attempts.load();
  fill_counts(r, out);
  const std::size_t spent = fx.bed.cas().tokens_used() - used_before;
  check(r, spent == n,
        "after healing and one retry round, every token must be spent "
        "exactly once (spent=" + std::to_string(spent) +
            " expected=" + std::to_string(n) + ")");
  check(r, out.ok.load() <= n, "more client successes than tokens");
  return r;
}

// --- replay-storm -----------------------------------------------------------
//
// Every one-time token replayed by racing channels (each with its own
// valid quote bound to its own key) under injected delay jitter: exactly
// one racer per token may win, and the spend ledger closes.
ChaosScenarioResult scenario_replay_storm(const ChaosConfig& cfg) {
  ChaosScenarioResult r;
  r.name = "replay-storm";
  Fixture fx(cfg.seed + 202);
  const std::size_t n = cfg.smoke ? 4 : 8;
  const std::size_t racers = cfg.smoke ? 2 : 3;
  const std::size_t used_before = fx.bed.cas().tokens_used();

  struct Attempt {
    std::unique_ptr<cas::AttestedChannel> channel;
    cas::AttestPayload payload;
    std::size_t token_index = 0;
  };
  std::vector<Attempt> attempts;
  cas::CasClient preparer = fx.bed.make_cas_client();
  for (std::size_t t = 0; t < n; ++t) {
    const cas::InstanceResult resp =
        preparer.get_instance(kSession, fx.signed_image.sigstruct);
    if (!resp.ok()) {
      r.failures.push_back("honest token preparation failed");
      return r;
    }
    core::InstancePage page;
    page.token = resp.token;
    page.verifier_id = resp.verifier_id;
    const auto enclave = runtime::start_enclave(
        fx.bed.cpu(), fx.image, resp.singleton_sigstruct, page);
    if (!enclave.ok()) {
      r.failures.push_back("enclave start failed during preparation");
      return r;
    }
    for (std::size_t racer = 0; racer < racers; ++racer) {
      Attempt a;
      a.channel = std::make_unique<cas::AttestedChannel>(
          &fx.bed.network(), one_attempt(fx.bed.cas_address()),
          crypto::Drbg::from_seed(cfg.seed * 500 + t * racers + racer,
                                  "chaos-replay"));
      const sgx::Report report = fx.bed.cpu().ereport(
          enclave.id, fx.bed.qe().target_info(),
          net::channel_binding(a.channel->dh_public()));
      const auto quote = fx.bed.qe().generate_quote(report);
      if (!quote.has_value()) {
        r.failures.push_back("quote generation failed");
        return r;
      }
      a.payload.session_name = kSession;
      a.payload.quote = *quote;
      a.payload.token = resp.token;
      a.token_index = t;
      attempts.push_back(std::move(a));
    }
  }

  net::FaultPlan plan;
  plan.seed = cfg.seed + 202;
  auto& faults = plan.per_endpoint[fx.bed.cas_address()];
  faults.delay = 0.5;
  faults.delay_amount = 200us;
  fx.bed.network().set_fault_plan(plan);

  Outcomes out;
  std::vector<std::atomic<int>> accepted(n);
  std::vector<std::thread> threads;
  threads.reserve(attempts.size());
  for (Attempt& a : attempts) {
    threads.emplace_back([&fx, &out, &accepted, &a] {
      out.attempts.fetch_add(1, std::memory_order_relaxed);
      try {
        if (a.channel->attest(fx.bed.cas().identity(), a.payload).ok()) {
          out.ok.fetch_add(1, std::memory_order_relaxed);
          accepted[a.token_index].fetch_add(1, std::memory_order_relaxed);
        } else {
          out.typed.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const Error&) {
        out.typed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        out.untyped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stats = fx.bed.network().fault_stats();
  r.faults_injected = stats.total_faults();
  fx.bed.network().set_fault_plan({});

  r.ops = attempts.size();
  fill_counts(r, out);
  for (std::size_t t = 0; t < n; ++t)
    check(r, accepted[t].load() == 1,
          "token " + std::to_string(t) + " attested " +
              std::to_string(accepted[t].load()) + " times (want 1)");
  const std::size_t spent = fx.bed.cas().tokens_used() - used_before;
  check(r, spent == n, "spend ledger did not close: spent=" +
                           std::to_string(spent) + " tokens=" +
                           std::to_string(n));
  check(r, out.ok.load() == n,
        "client-observed wins must equal the token count");
  return r;
}

// --- byzantine-impersonator -------------------------------------------------
//
// The paper's §3 TEE impersonator (report server coerced out of a
// baseline-signed victim) attacking the sinclave session *while* honest
// traffic runs through light faults: zero steals, honest traffic intact.
ChaosScenarioResult scenario_byzantine(const ChaosConfig& cfg) {
  ChaosScenarioResult r;
  r.name = "byzantine-impersonator";
  Fixture fx(cfg.seed + 303);
  constexpr const char* kReportServerAddr = "chaos.report-server";
  attack::register_report_server(fx.bed.programs());

  // A token the adversary observed honestly — replay fodder.
  const cas::InstanceResult observed = fx.bed.make_cas_client().get_instance(
      kSession, fx.signed_image.sigstruct);
  if (!observed.ok()) {
    r.failures.push_back("honest token preparation failed");
    return r;
  }

  // Boot the victim as a report server the classic way: baseline-signed
  // image, attacker-operated verifier with a coerced session.
  const core::SignedImage baseline = fx.signer.sign_baseline(fx.image);
  crypto::Drbg attacker_rng = fx.bed.child_rng("chaos-attacker");
  cas::CasService attacker_cas(
      &fx.bed.attestation(), crypto::Ed25519KeyPair::generate(attacker_rng),
      fx.bed.child_rng("chaos-attacker-cas"));
  attacker_cas.add_signer_key(fx.bed.user_signer());
  server::CasServer attacker_server(&attacker_cas);
  attacker_server.bind(fx.bed.network(), "cas.chaos-attacker");
  cas::Policy coerced;
  coerced.session_name = "coerced";
  coerced.expected_signer =
      crypto::sha256(fx.bed.user_signer().public_key().modulus_be());
  coerced.expected_mr_enclave = baseline.sigstruct.enclave_hash;
  coerced.config.program = attack::kReportServerProgram;
  coerced.config.args = {kReportServerAddr};
  attacker_cas.install_policy(coerced);

  const auto victim =
      runtime::start_enclave(fx.bed.cpu(), fx.image, baseline.sigstruct);
  if (!victim.ok()) {
    r.failures.push_back("victim enclave failed to start");
    return r;
  }
  auto rt = fx.bed.make_runtime(runtime::RuntimeMode::kBaseline);
  runtime::RunOptions boot;
  boot.cas_address = "cas.chaos-attacker";
  boot.cas_identity = attacker_cas.identity();
  boot.session_name = "coerced";
  if (!rt.run(victim, boot).ok) {
    r.failures.push_back("report server failed to boot");
    return r;
  }

  // Now the chaos: light faults on the user's CAS while honest clients
  // and the impersonator race.
  net::FaultPlan plan;
  plan.seed = cfg.seed + 303;
  plan.per_endpoint[fx.bed.cas_address()].drop_request = 0.08;
  plan.per_endpoint[fx.bed.cas_address()].delay = 0.3;
  plan.per_endpoint[fx.bed.cas_address()].delay_amount = 100us;
  fx.bed.network().set_fault_plan(plan);

  Outcomes out;
  const std::size_t honest_ops = cfg.smoke ? 10 : 30;
  std::vector<std::thread> honest;
  for (std::size_t c = 0; c < 2; ++c) {
    honest.emplace_back([&fx, &out, &cfg, c, honest_ops] {
      cas::RetryPolicy retry;
      retry.max_attempts = 5;
      retry.initial_backoff = 50us;
      retry.max_backoff = 1000us;
      retry.jitter_seed = cfg.seed * 31 + c + 1;
      cas::CasClient client = fx.bed.make_cas_client(retry);
      for (std::size_t i = 0; i < honest_ops; ++i)
        run_op(client, fx, out, {StatusCode::kUnavailable});
    });
  }

  std::uint64_t steals = 0;
  std::uint64_t attack_attempts = 0;
  attack::TeeImpersonator impersonator(&fx.bed.network(), &fx.bed.qe(),
                                       kReportServerAddr,
                                       fx.bed.child_rng("chaos-imp"));
  const std::size_t raids = cfg.smoke ? 4 : 8;
  for (std::size_t m = 0; m < raids; ++m) {
    ++attack_attempts;
    try {
      const auto attempt = impersonator.steal_config(
          fx.bed.cas_address(), fx.bed.cas().identity(), kSession,
          m % 2 == 0 ? std::optional<core::AttestationToken>(observed.token)
                     : std::nullopt);
      if (attempt.succeeded()) ++steals;
    } catch (const Error&) {
      // A transport failure is a failed raid, which is the point.
    } catch (...) {
      out.untyped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (std::thread& t : honest) t.join();
  const auto stats = fx.bed.network().fault_stats();
  r.faults_injected = stats.total_faults();
  fx.bed.network().set_fault_plan({});

  r.ops = 2 * honest_ops + attack_attempts;
  fill_counts(r, out);
  check(r, steals == 0,
        "the impersonator stole secrets " + std::to_string(steals) +
            " time(s) — must be zero");
  check(r, out.ok.load() >= 1, "honest traffic was wiped out");
  check(r, out.token_count() == out.ok.load(),
        "every honest success must deliver its own token");
  return r;
}

// --- backend-brownout -------------------------------------------------------
//
// The acceptance gate: 30% request drops into a shedding, deadlined
// CasServer under closed-loop retrying clients. Every failure typed,
// every token spent at most once, and the accounting closes exactly:
//
//   client attempts   == server requests + injector-dropped requests
//   client successes  == server requests - server errors
//   server errors     == requests shed + deadlines exceeded
ChaosScenarioResult scenario_backend_brownout(const ChaosConfig& cfg) {
  ChaosScenarioResult r;
  r.name = "backend-brownout";
  Fixture fx(cfg.seed + 404);

  server::CasServerConfig sc;
  sc.workers = 2;
  sc.backend_io = 2000us;
  sc.admission_limit = 6;
  sc.shed_retry_after = std::chrono::milliseconds{1};
  sc.request_deadline = 4000us;
  server::CasServer server(&fx.bed.cas(), sc);
  server.bind(fx.bed.network(), "cas.brownout");
  const std::uint64_t fault_metrics_id =
      fx.bed.network().register_fault_metrics(fx.bed.cas().metrics_registry());

  net::FaultPlan plan;
  plan.seed = cfg.seed + 404;
  plan.per_endpoint["cas.brownout"].drop_request = 0.30;
  fx.bed.network().set_fault_plan(plan);

  Outcomes out;
  const std::size_t clients = 8;
  const std::size_t ops_per_client = cfg.smoke ? 15 : 50;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&fx, &out, &cfg, c, ops_per_client] {
      cas::RetryPolicy retry;
      retry.max_attempts = 4;
      retry.initial_backoff = 200us;
      retry.max_backoff = 2000us;
      retry.deadline = std::chrono::microseconds{200'000};
      retry.jitter_seed = cfg.seed * 1000 + c + 1;
      cas::CasClient client(
          &fx.bed.network(),
          cas::CasClientConfig{.address = "cas.brownout", .retry = retry});
      for (std::size_t i = 0; i < ops_per_client; ++i)
        run_op(client, fx, out,
               {StatusCode::kUnavailable, StatusCode::kDeadlineExceeded});
    });
  }
  for (std::thread& t : threads) t.join();

  // Snapshot through the unified registry BEFORE healing (set_fault_plan
  // resets the injector), proving the fault counters surface end to end.
  const obs::MetricsSnapshot snap = fx.bed.cas().metrics_registry().snapshot();
  const auto stats = fx.bed.network().fault_stats();
  r.faults_injected = stats.total_faults();
  fx.bed.network().set_fault_plan({});
  server.unbind();
  fx.bed.cas().metrics_registry().remove_collector(fault_metrics_id);

  r.ops = clients * ops_per_client;
  fill_counts(r, out);

  const server::ServerMetrics& m = server.metrics();
  const std::uint64_t requests = m.get_instance.requests.load();
  const std::uint64_t errors = m.get_instance.errors.load();
  r.requests_shed = m.requests_shed.load();
  r.deadline_exceeded = m.deadline_exceeded.load();

  check(r, out.attempts.load() == requests + stats.requests_dropped,
        "attempt accounting does not close: attempts=" +
            std::to_string(out.attempts.load()) + " server_requests=" +
            std::to_string(requests) + " dropped=" +
            std::to_string(stats.requests_dropped));
  check(r, out.ok.load() == requests - errors,
        "success accounting does not close: ok=" +
            std::to_string(out.ok.load()) + " server_ok=" +
            std::to_string(requests - errors));
  check(r, errors == r.requests_shed + r.deadline_exceeded,
        "server errors beyond shed+deadline: errors=" +
            std::to_string(errors) + " shed=" +
            std::to_string(r.requests_shed) + " deadline=" +
            std::to_string(r.deadline_exceeded));
  check(r, m.tokens_issued.load() == out.ok.load(),
        "minted tokens must equal delivered successes (no token minted "
        "for a shed or expired request): minted=" +
            std::to_string(m.tokens_issued.load()) + " ok=" +
            std::to_string(out.ok.load()));
  check(r, out.token_count() == out.ok.load(),
        "every success must deliver its own token");
  check(r, stats.requests_dropped > 0, "the fault plan never fired");
  const obs::MetricsSnapshot::Entry* dropped =
      snap.find("net_fault_requests_dropped");
  check(r, dropped != nullptr &&
               dropped->value == stats.requests_dropped,
        "injector counters missing from the unified metrics snapshot");
  check(r, server.timers().pending() == 0,
        "timer wheel still holds stalls after unbind");
  return r;
}

// --- partition-and-heal -----------------------------------------------------
//
// A scripted total partition (window on the injector's logical clock)
// trips the client circuit breaker after three straight wire failures;
// everything after fails fast without touching the wire. The partition
// window expires, the cooldown lapses, and the very next probe closes the
// breaker — clean traffic resumes.
ChaosScenarioResult scenario_partition_heal(const ChaosConfig& cfg) {
  ChaosScenarioResult r;
  r.name = "partition-and-heal";
  Fixture fx(cfg.seed + 505);

  net::FaultPlan plan;
  plan.seed = cfg.seed + 505;
  net::FaultWindow window;
  window.from_op = 0;
  window.until_op = 3;
  window.address_prefix = fx.bed.cas_address();
  window.faults.drop_request = 1.0;
  plan.windows.push_back(window);
  fx.bed.network().set_fault_plan(plan);

  cas::RetryPolicy retry;
  retry.max_attempts = 1;  // the breaker, not the retry loop, is on trial
  retry.breaker_threshold = 3;
  retry.breaker_cooldown = std::chrono::microseconds{50'000};
  retry.jitter_seed = cfg.seed + 1;
  cas::CasClient client = fx.bed.make_cas_client(retry);

  Outcomes out;
  std::uint64_t fast_fails_observed = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    try {
      const cas::InstanceResult got =
          client.get_instance(kSession, fx.signed_image.sigstruct);
      out.attempts.fetch_add(got.attempts, std::memory_order_relaxed);
      if (got.ok()) {
        out.ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        out.typed.fetch_add(1, std::memory_order_relaxed);
        if (got.attempts == 0) {
          ++fast_fails_observed;
          if (got.status.message() != breaker_open_detail())
            out.note_unexpected("fast-fail without the breaker detail");
        }
      }
    } catch (...) {
      out.untyped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const cas::CasClient::Stats mid = client.stats();
  check(r, mid.breaker_trips == 1,
        "breaker should trip exactly once during the partition (trips=" +
            std::to_string(mid.breaker_trips) + ")");
  check(r, mid.breaker_fast_fails == 5 && fast_fails_observed == 5,
        "operations after the trip must fail fast without touching the "
        "wire (fast_fails=" + std::to_string(mid.breaker_fast_fails) + ")");
  check(r, out.ok.load() == 0, "no operation may succeed mid-partition");

  // Partition over (the window covered ops 0..2 of the logical clock);
  // wait out the cooldown, then traffic must flow — first op is the probe
  // that closes the breaker.
  std::this_thread::sleep_for(70ms);
  for (std::size_t i = 0; i < 10; ++i)
    run_op(client, fx, out, {});
  const auto stats = fx.bed.network().fault_stats();
  r.faults_injected = stats.total_faults();
  fx.bed.network().set_fault_plan({});

  r.ops = 18;
  r.breaker_trips = client.stats().breaker_trips;
  fill_counts(r, out);
  check(r, out.ok.load() == 10, "all post-heal operations must succeed");
  check(r, client.stats().breaker_trips == 1,
        "breaker must stay closed after healing");
  check(r, stats.requests_dropped == 3,
        "the partition window must drop exactly the three probe requests "
        "(dropped=" + std::to_string(stats.requests_dropped) + ")");
  return r;
}

using ScenarioFn = ChaosScenarioResult (*)(const ChaosConfig&);

struct NamedScenario {
  const char* name;
  ScenarioFn run;
};

constexpr NamedScenario kScenarios[] = {
    {"connection-churn", scenario_connection_churn},
    {"mid-handshake-drops", scenario_mid_handshake},
    {"replay-storm", scenario_replay_storm},
    {"byzantine-impersonator", scenario_byzantine},
    {"backend-brownout", scenario_backend_brownout},
    {"partition-and-heal", scenario_partition_heal},
};

}  // namespace

std::vector<std::string> chaos_scenario_names() {
  std::vector<std::string> names;
  for (const NamedScenario& s : kScenarios) names.emplace_back(s.name);
  return names;
}

ChaosScenarioResult run_chaos_scenario(const std::string& name,
                                       const ChaosConfig& config) {
  for (const NamedScenario& s : kScenarios) {
    if (name != s.name) continue;
    const auto start = Clock::now();
    ChaosScenarioResult r = s.run(config);
    r.passed = r.failures.empty();
    r.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
    return r;
  }
  throw Error("chaos: unknown scenario: " + name);
}

std::vector<ChaosScenarioResult> run_chaos_suite(const ChaosConfig& config) {
  std::vector<ChaosScenarioResult> results;
  for (const NamedScenario& s : kScenarios)
    results.push_back(run_chaos_scenario(s.name, config));
  return results;
}

}  // namespace sinclave::workload
