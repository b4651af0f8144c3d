// Full-stack deployment fixture: one simulated platform with everything
// the paper's system model needs (Fig. 3) — CPU, quoting enclave, TEE
// provider attestation service, the user's trusted verifier (CAS, served
// by a default-config server::CasServer) with the user's signer key
// uploaded, a network, and a program registry.
//
// Used by integration tests, examples, and the macro benchmarks.
#pragma once

#include <memory>
#include <string>

#include "cas/client.h"
#include "cas/service.h"
#include "crypto/drbg.h"
#include "net/sim_network.h"
#include "quote/attestation_service.h"
#include "quote/quoting_enclave.h"
#include "runtime/enclave_runtime.h"
#include "server/cas_server.h"
#include "sgx/cpu.h"

namespace sinclave::workload {

struct TestbedConfig {
  std::uint64_t seed = 1;
  net::LatencyModel latency{};
  /// RSA size for the signer and attestation keys. 1024 keeps test setup
  /// fast; benchmarks touching signature latency use 3072 (the SGX size).
  /// The CAS channel identity is Ed25519 whatever this says.
  std::size_t rsa_bits = 1024;
  /// Address the user's CAS serves on.
  std::string cas_address = "cas.user";
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);

  const TestbedConfig& config() const { return config_; }

  sgx::SgxCpu& cpu() { return cpu_; }
  net::SimNetwork& network() { return net_; }
  quote::QuotingEnclave& qe() { return *qe_; }
  quote::AttestationService& attestation() { return attestation_; }
  cas::CasService& cas() { return *cas_; }
  /// The frontend bound at cas_address(). Tests that read the metrics
  /// registry or introspect go through this server: a second CasServer
  /// over cas() registers colliding collector names.
  server::CasServer& server() { return *server_; }
  runtime::ProgramRegistry& programs() { return programs_; }
  const crypto::RsaKeyPair& user_signer() const { return user_signer_; }

  const std::string& cas_address() const { return config_.cas_address; }

  /// Fresh deterministic child RNG (domain separated by label).
  crypto::Drbg child_rng(std::string_view label);

  /// Build a runtime instance in the given mode.
  runtime::EnclaveRuntime make_runtime(runtime::RuntimeMode mode);

  /// SDK client bound to this bed's network and CAS address.
  cas::CasClient make_cas_client(cas::RetryPolicy retry = {});

 private:
  TestbedConfig config_;
  crypto::Drbg rng_;
  sgx::SgxCpu cpu_;
  net::SimNetwork net_;
  quote::AttestationService attestation_;
  std::unique_ptr<quote::QuotingEnclave> qe_;
  crypto::RsaKeyPair user_signer_;
  std::unique_ptr<cas::CasService> cas_;
  runtime::ProgramRegistry programs_;
  std::unique_ptr<server::CasServer> server_;  // dies first: it borrows cas_
};

}  // namespace sinclave::workload
