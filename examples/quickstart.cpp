// Quickstart: deploy an application as a SinClave singleton enclave.
//
// Walks the full paper workflow end to end, printing each step:
//   1. the signer measures the image with interruptible SHA-256 and
//      produces the common SigStruct + base enclave hash,
//   2. the user installs a singleton policy (base hash + secrets) at their
//      CAS and uploads the signer key,
//   3. the (untrusted) starter requests a one-time token + on-demand
//      SigStruct and constructs the individualized enclave,
//   4. the runtime attests through the quoting enclave and receives the
//      configuration over a channel bound to the quote,
//   5. the application runs with its secrets.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "workload/testbed.h"

using namespace sinclave;

int main() {
  std::printf("== SinClave quickstart ==\n\n");

  // One simulated platform: CPU + quoting enclave + attestation service +
  // the user's CAS (with the user's signer key uploaded).
  workload::Testbed bed(workload::TestbedConfig{.seed = 2024});
  std::printf("[platform] CPU, quoting enclave and CAS ready\n");

  // The application: a payment service that needs a database password.
  bed.programs().register_program("payment-service",
                                  [](runtime::AppContext& ctx) {
    const Bytes& pw = ctx.config->secrets.at("db-password");
    ctx.output = "connected to db with password of " +
                 std::to_string(pw.size()) + " bytes";
    return 0;
  });

  // 1. Signer: measure + sign (SinClave path -> also emits the base hash).
  const core::EnclaveImage image = core::EnclaveImage::synthetic(
      "payment-service", /*code=*/64 << 10, /*heap=*/1 << 20);
  const core::Signer signer(&bed.user_signer());
  const core::SinclaveSignedImage signed_image = signer.sign_sinclave(image);
  std::printf("[signer] common MRENCLAVE  %s\n",
              signed_image.sigstruct.enclave_hash.hex().c_str());
  std::printf("[signer] base hash state   %s... (%llu bytes hashed)\n",
              to_hex(signed_image.base_hash.state.encode()).substr(0, 16).c_str(),
              static_cast<unsigned long long>(
                  signed_image.base_hash.state.byte_count));

  // 2. User: install the singleton policy with the secret.
  cas::Policy policy;
  policy.session_name = "payments-prod";
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.require_singleton = true;
  policy.base_hash = signed_image.base_hash;
  policy.config.program = "payment-service";
  policy.config.secrets["db-password"] = to_bytes("correct-horse-battery");
  bed.cas().install_policy(policy);
  std::printf("[user]   policy 'payments-prod' installed at CAS\n");

  // 2b. The wire API is typed end to end: the CasClient SDK returns
  // StatusCodes, not strings to match — e.g. probing a session that does
  // not exist:
  cas::CasClient cas_client = bed.make_cas_client();
  const cas::InstanceResult probe =
      cas_client.get_instance("no-such-session", signed_image.sigstruct);
  std::printf("[client] probe 'no-such-session' -> %s (\"%s\")\n",
              to_string(probe.status.code), probe.status.message().c_str());

  // 3. Starter: token + on-demand SigStruct -> individualized enclave.
  const runtime::SingletonStart start = runtime::start_singleton_enclave(
      bed.cpu(), bed.network(), bed.cas_address(), image,
      signed_image.sigstruct, "payments-prod");
  if (!start.ok()) {
    std::printf("FATAL: %s\n", start.error.c_str());
    return 1;
  }
  std::printf("[starter] token            %s\n", start.token.hex().c_str());
  std::printf("[starter] singleton MRENCLAVE %s\n",
              bed.cpu().identity(start.enclave.id).mr_enclave.hex().c_str());
  std::printf("          (differs from the common MRENCLAVE above: the\n"
              "           instance page individualizes the measurement)\n");

  // 4+5. Runtime: attest (the answer is the config), run.
  runtime::EnclaveRuntime rt = bed.make_runtime(runtime::RuntimeMode::kSinclave);
  runtime::RunOptions options;
  options.cas_address = bed.cas_address();
  options.cas_identity = bed.cas().identity();
  options.session_name = "payments-prod";
  const runtime::RunResult result = rt.run(start.enclave, options);
  if (!result.ok) {
    std::printf("FATAL: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("[enclave] attested; config received; program says: %s\n",
              result.program_output.c_str());
  std::printf("[cas]     tokens used: %zu (this one can never attest again)\n",
              bed.cas().tokens_used());

  std::printf("\nquickstart complete.\n");
  return 0;
}
