#include "workload/testbed.h"

namespace sinclave::workload {

Testbed::Testbed(const TestbedConfig& config)
    : config_(config),
      rng_(crypto::Drbg::from_seed(config.seed, "testbed")),
      cpu_(sgx::SgxCpu::Config{config.seed, {}, true}),
      net_(config.latency),
      user_signer_(crypto::RsaKeyPair::generate(rng_, config.rsa_bits)) {
  crypto::Drbg qe_rng = child_rng("qe");
  qe_ = std::make_unique<quote::QuotingEnclave>(cpu_, qe_rng,
                                                config.rsa_bits);
  attestation_.register_platform(qe_->attestation_key());

  crypto::Drbg cas_rng = child_rng("cas");
  cas_ = std::make_unique<cas::CasService>(
      &attestation_, crypto::Ed25519KeyPair::generate(cas_rng),
      child_rng("cas-service"));
  cas_->add_signer_key(user_signer_);
  server_ = std::make_unique<server::CasServer>(cas_.get());
  server_->bind(net_, config.cas_address);
}

crypto::Drbg Testbed::child_rng(std::string_view label) {
  return crypto::Drbg(rng_.generate(16), label);
}

runtime::EnclaveRuntime Testbed::make_runtime(runtime::RuntimeMode mode) {
  return runtime::EnclaveRuntime(&cpu_, qe_.get(), &net_, &programs_, mode,
                                 child_rng("runtime"));
}

cas::CasClient Testbed::make_cas_client(cas::RetryPolicy retry) {
  return cas::CasClient(
      &net_, cas::CasClientConfig{.address = config_.cas_address,
                                  .retry = retry});
}

}  // namespace sinclave::workload
