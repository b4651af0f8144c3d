// The TEE impersonator (§3.2/§3.3).
//
// Speaks the verifier's attestation protocol *without running in any
// enclave* (the paper's 75-line CAS-client adaptation). The only genuinely
// enclave-backed step — producing a report whose REPORTDATA commits to the
// impersonator's channel key — is outsourced to the report server running
// inside the victim enclave. The quote the verifier then sees is valid,
// names the expected MRENCLAVE/MRSIGNER, and binds the *impersonator's*
// channel: against the baseline flow the verifier cannot tell the
// difference and hands over the user's secrets.
#pragma once

#include <optional>
#include <string>

#include "cas/protocol.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "net/sim_network.h"
#include "quote/quoting_enclave.h"

namespace sinclave::attack {

struct ImpersonationAttempt {
  /// Secrets obtained from the verifier; set iff the attack succeeded.
  std::optional<cas::AppConfig> stolen_config;
  /// Failure stage, for tests: "report-server-unreachable",
  /// "quoting-failed", "handshake-rejected" or "connect-failed".
  std::string failure;

  bool succeeded() const { return stolen_config.has_value(); }
};

class TeeImpersonator {
 public:
  /// `report_server_address`: where the coerced victim enclave serves
  /// reports. The quoting enclave is a platform service the (local)
  /// adversary can invoke like any other software.
  TeeImpersonator(net::SimNetwork* net, quote::QuotingEnclave* qe,
                  std::string report_server_address, crypto::Drbg rng);

  /// Run the attack against a verifier: obtain the configuration of
  /// `session_name` without ever executing the attested code path.
  /// `token`: in SinClave mode the adversary may replay a token they
  /// observed or requested themselves.
  ImpersonationAttempt steal_config(
      const std::string& cas_address,
      const crypto::Ed25519PublicKey& cas_identity,
      const std::string& session_name,
      const std::optional<core::AttestationToken>& token = std::nullopt);

 private:
  net::SimNetwork* net_;
  quote::QuotingEnclave* qe_;
  std::string report_server_address_;
  crypto::Drbg rng_;
};

}  // namespace sinclave::attack
