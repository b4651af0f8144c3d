// The in-enclave runtime (the SCONE runtime stand-in).
//
// After EINIT the runtime takes control inside the enclave:
//   1. reads the instance page,
//   2. attests to the verifier over a channel bound to the quote, in one
//      exchange whose answer is the configuration (program, args, env,
//      secrets, FS key),
//   3. mounts and verifies the encrypted volume against the configured
//      manifest root ("completeness"),
//   4. loads and runs the configured program.
//
// Two builds exist:
//   * kBaseline  — today's behaviour: the runtime trusts whatever verifier
//     address/identity the (untrusted!) host passed on the command line.
//     This is the flaw §3 exploits: the adversary points the enclave at
//     their own verifier and configures it into a report server.
//   * kSinclave  — the paper's fix: a singleton enclave only speaks to the
//     verifier whose identity is measured into its instance page, presents
//     its one-time token, and refuses configuration in every other case.
//     A common (zero-page) enclave cannot obtain configuration at all.
//
// Each enclave instance is configured at most once (re-configuration of a
// running enclave would reintroduce the reuse attack).
#pragma once

#include <set>

#include "cas/protocol.h"
#include "crypto/drbg.h"
#include "net/secure_channel.h"
#include "quote/quoting_enclave.h"
#include "runtime/program.h"
#include "runtime/starter.h"

namespace sinclave::runtime {

enum class RuntimeMode { kBaseline, kSinclave };

struct RunOptions {
  /// Where the host says the verifier lives (attacker controlled).
  std::string cas_address;
  /// Who the host says the verifier is: its Ed25519 channel identity
  /// (attacker controlled; in SinClave mode the runtime cross-checks it
  /// against the instance page).
  crypto::Ed25519PublicKey cas_identity;
  std::string session_name;
  /// Host-provided encrypted volume (ciphertext blobs; attacker can swap
  /// or tamper — the manifest check must catch it).
  std::map<std::string, Bytes> volume_blobs;
};

struct RunResult {
  bool ok = false;
  /// Failure stage description (stable prefixes asserted by tests).
  std::string error;
  int exit_code = -1;
  std::string program_output;
  /// The configuration that was applied (empty when !ok).
  cas::AppConfig config;
};

class EnclaveRuntime {
 public:
  EnclaveRuntime(sgx::SgxCpu* cpu, quote::QuotingEnclave* qe,
                 net::SimNetwork* net, const ProgramRegistry* programs,
                 RuntimeMode mode, crypto::Drbg rng);

  /// Full startup sequence for an initialized enclave.
  RunResult run(const StartedEnclave& enclave, const RunOptions& options);

  RuntimeMode mode() const { return mode_; }

 private:
  sgx::SgxCpu* cpu_;
  quote::QuotingEnclave* qe_;
  net::SimNetwork* net_;
  const ProgramRegistry* programs_;
  RuntimeMode mode_;
  crypto::Drbg rng_;
  std::set<sgx::SgxCpu::EnclaveId> configured_;
};

}  // namespace sinclave::runtime
