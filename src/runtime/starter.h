// The starter: untrusted system software that constructs enclaves.
//
// Loads an EnclaveImage onto the simulated CPU page by page (measured),
// optionally materializes an instance page (SinClave path), and runs EINIT
// with the supplied SigStruct. The starter is *outside* the TCB — in the
// attack scenarios the adversary plays this role, constructing victim
// enclaves with configurations of their choosing.
#pragma once

#include <optional>
#include <string>

#include "cas/protocol.h"
#include "core/image.h"
#include "core/instance_page.h"
#include "net/sim_network.h"
#include "sgx/cpu.h"

namespace sinclave::runtime {

/// Handle to a constructed (and, on success, initialized) enclave.
struct StartedEnclave {
  sgx::SgxCpu::EnclaveId id = 0;
  Verdict einit_verdict = Verdict::kMalformed;
  std::uint64_t instance_page_offset = 0;

  bool ok() const { return einit_verdict == Verdict::kOk; }
};

/// Construct and initialize an enclave from an image.
/// `instance_page`: nullopt -> common enclave (zeroed instance page).
StartedEnclave start_enclave(
    sgx::SgxCpu& cpu, const core::EnclaveImage& image,
    const sgx::SigStruct& sigstruct,
    const std::optional<core::InstancePage>& instance_page = std::nullopt,
    const std::optional<sgx::EinitToken>& launch_token = std::nullopt);

/// Full SinClave starter flow ("Singleton Page Retrieval", Fig. 7c):
/// request token + on-demand SigStruct from the verifier (kGetInstance),
/// materialize the instance page, construct, EINIT.
struct SingletonStart {
  StartedEnclave enclave;
  core::AttestationToken token;
  Hash256 verifier_id;
  /// Typed outcome of the retrieval (the CasClient status) — what retry
  /// logic and tests should branch on.
  Status status;
  std::string error;  // human-readable; set when !ok()

  bool ok() const { return error.empty() && enclave.ok(); }
};

SingletonStart start_singleton_enclave(sgx::SgxCpu& cpu,
                                       net::SimNetwork& net,
                                       const std::string& cas_address,
                                       const core::EnclaveImage& image,
                                       const sgx::SigStruct& common_sigstruct,
                                       const std::string& session_name);

}  // namespace sinclave::runtime
