// Fig. 7c — "SinClave operation durations": the wall-clock breakdown of
// singleton page retrieval, the one protocol interaction SinClave adds.
//
// Components (paper, on their testbed):
//   open/close connection (O/C)      3.74 ms   (network latency, injected)
//   verify received SigStruct        0.4  ms   (RSA-3072 verify, measured)
//   calc expected measurement        32   us   (resume+page+finalize,
//                                               measured)
//   sign on-demand SigStruct         4.93 ms   (RSA-3072 CRT sign, measured)
//   CAS misc (encrypted DB, policy)  rest of 26.3 ms total
//
// Our CAS's policy engine is leaner than SCONE CAS, so "misc" is smaller in
// absolute terms; the crypto components and the ordering of costs are the
// reproducible part (see EXPERIMENTS.md). The CAS-side rows are the
// tracer's per-phase totals over the measured retrievals (the `sign`,
// `predict`, `verify_common` and `policy_load` spans of the serving path).
#include <chrono>
#include <cstdio>
#include <string_view>

#include "cas/client.h"
#include "core/predictor.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "obs/trace.h"
#include "workload/testbed.h"

using namespace sinclave;
using Clock = std::chrono::steady_clock;
using FpMillis = std::chrono::duration<double, std::milli>;

namespace {

/// Total milliseconds a tracer phase recorded since the last reset.
double phase_total_ms(const char* name) {
  for (const auto& row : obs::Tracer::instance().phase_summaries()) {
    if (std::string_view(row.name) == name)
      return FpMillis(row.stats.sum).count();
  }
  return 0.0;
}

}  // namespace

int main() {
  std::printf("== Fig 7c: singleton page retrieval breakdown ==\n");
  std::printf("(setup: generating RSA-3072 keys...)\n");

  workload::TestbedConfig cfg;
  cfg.seed = 70;
  cfg.rsa_bits = 3072;
  cfg.latency.connect = std::chrono::microseconds(3740);  // the paper's O/C
  cfg.latency.round_trip = std::chrono::microseconds(350);
  cfg.latency.real_sleep = true;
  workload::Testbed bed(cfg);

  const core::EnclaveImage image =
      core::EnclaveImage::synthetic("fig7c", 1 << 20, 4 << 20);
  const core::Signer signer(&bed.user_signer());
  const core::SinclaveSignedImage si = signer.sign_sinclave(image);

  cas::Policy policy;
  policy.session_name = "fig7c";
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.require_singleton = true;
  policy.base_hash = si.base_hash;
  policy.config.program = "noop";
  policy.config.secrets["s"] = Bytes(256, 1);
  bed.cas().install_policy(policy);

  constexpr int kIterations = 30;
  double connect_ms = 0, request_ms = 0, verify_ms = 0, calc_ms = 0;
  double total_ms = 0;
  obs::Tracer::instance().reset_phases();

  for (int i = 0; i < kIterations; ++i) {
    const auto t0 = Clock::now();

    // 1. Open the connection to the verifier (O/C) — eager connect()
    // through the SDK, so the setup cost stays separately measurable.
    cas::CasClient client = bed.make_cas_client();
    if (const Status s = client.connect(); !s.ok()) {
      std::printf("FATAL: %s\n", s.message().c_str());
      return 1;
    }
    const auto t1 = Clock::now();

    // 2. Request token + on-demand SigStruct.
    const cas::InstanceResult resp =
        client.get_instance("fig7c", si.sigstruct);
    if (!resp.ok()) {
      std::printf("FATAL: %s\n", resp.status.message().c_str());
      return 1;
    }
    const auto t2 = Clock::now();

    // 3. Starter-side verification of the received SigStruct.
    const bool ok = resp.singleton_sigstruct.signature_valid();
    const auto t3 = Clock::now();

    // 4. Starter-side expected-measurement calculation (cross-check).
    core::InstancePage page;
    page.token = resp.token;
    page.verifier_id = resp.verifier_id;
    const sgx::Measurement expect =
        core::MeasurementPredictor::predict(*policy.base_hash, page);
    const auto t4 = Clock::now();
    if (!ok || expect != resp.singleton_sigstruct.enclave_hash) {
      std::printf("FATAL: retrieval verification failed\n");
      return 1;
    }

    connect_ms += FpMillis(t1 - t0).count();
    request_ms += FpMillis(t2 - t1).count();
    verify_ms += FpMillis(t3 - t2).count();
    calc_ms += FpMillis(t4 - t3).count();
    total_ms += FpMillis(t4 - t0).count();
  }
  const double cas_sign_ms = phase_total_ms("sign");
  const double cas_policy_ms = phase_total_ms("policy_load");
  const double cas_verify_ms = phase_total_ms("verify_common");
  const double cas_predict_ms = phase_total_ms("predict");

  const double n = kIterations;
  const double misc =
      request_ms / n - cas_sign_ms / n - cas_verify_ms / n -
      cas_predict_ms / n - cas_policy_ms / n;
  std::printf("\nmean over %d retrievals (ms):\n", kIterations);
  std::printf("  %-36s %8.3f   (paper: 3.74)\n",
              "open connection (O/C)", connect_ms / n);
  std::printf("  %-36s %8.3f   (paper: 0.4)\n",
              "verify sigstruct (starter side)", verify_ms / n);
  std::printf("  %-36s %8.3f   (paper: 0.032)\n",
              "calc expected measurement", calc_ms / n);
  std::printf("  %-36s %8.3f   (paper: 4.93)\n",
              "sign on-demand sigstruct (CAS)", cas_sign_ms / n);
  std::printf("  %-36s %8.3f   (paper: n/a, part of misc)\n",
              "CAS policy lookup", cas_policy_ms / n);
  std::printf("  %-36s %8.3f   (paper: ~17, dominated by CAS engine)\n",
              "misc (network RTT + CAS residue)", misc);
  std::printf("  %-36s %8.3f   (paper: 26.3)\n", "TOTAL", total_ms / n);
  return 0;
}
