#include "runtime/enclave_runtime.h"

#include "cas/client.h"
#include "crypto/sha256.h"

namespace sinclave::runtime {

EnclaveRuntime::EnclaveRuntime(sgx::SgxCpu* cpu, quote::QuotingEnclave* qe,
                               net::SimNetwork* net,
                               const ProgramRegistry* programs,
                               RuntimeMode mode, crypto::Drbg rng)
    : cpu_(cpu), qe_(qe), net_(net), programs_(programs), mode_(mode),
      rng_(std::move(rng)) {
  if (!cpu_ || !qe_ || !net_ || !programs_)
    throw Error("runtime: all components required");
}

RunResult EnclaveRuntime::run(const StartedEnclave& enclave,
                              const RunOptions& options) {
  RunResult result;
  if (!enclave.ok()) {
    result.error = "start: enclave failed to initialize";
    return result;
  }
  if (configured_.contains(enclave.id)) {
    result.error = "start: enclave instance was already configured";
    return result;
  }

  // 1. Read and interpret the instance page.
  std::optional<core::InstancePage> page;
  try {
    page = core::InstancePage::parse(
        cpu_->read_page(enclave.id, enclave.instance_page_offset));
  } catch (const ParseError& e) {
    result.error = std::string("instance-page: ") + e.what();
    return result;
  }

  std::optional<core::AttestationToken> token;
  if (mode_ == RuntimeMode::kSinclave) {
    if (!page.has_value()) {
      // Common enclave: may compute, but never receives configuration.
      result.error =
          "singleton: common enclave cannot obtain configuration";
      return result;
    }
    // Only the verifier measured into this very enclave is acceptable.
    const Hash256 claimed_id = crypto::sha256(options.cas_identity.view());
    if (claimed_id != page->verifier_id) {
      result.error = "singleton: refusing to talk to unexpected verifier";
      return result;
    }
    token = page->token;
  }

  // 2. Channel-bound attestation through the client SDK (whose retry rule
  // follows a follower's leader hint); the verifier's answer is the
  // configuration (program, args, env, secrets, FS key).
  if (options.cas_address.empty()) {
    result.error = "attest: no verifier address";
    return result;
  }
  cas::AttestedChannel channel(
      net_, cas::CasClientConfig{.address = options.cas_address},
      crypto::Drbg(rng_.generate(16), "runtime-channel"));
  const sgx::ReportData binding =
      net::channel_binding(channel.dh_public());
  const sgx::Report report =
      cpu_->ereport(enclave.id, qe_->target_info(), binding);
  const auto q = qe_->generate_quote(report);
  if (!q.has_value()) {
    result.error = "attest: quoting enclave rejected the report";
    return result;
  }

  cas::AttestPayload payload;
  payload.session_name = options.session_name;
  payload.quote = *q;
  payload.token = token;

  std::optional<Result<cas::AppConfig>> cfg;
  try {
    cfg.emplace(channel.attest(options.cas_identity, payload));
  } catch (const Error& e) {
    result.error = std::string("attest: ") + e.what();
    return result;
  }
  if (!cfg->ok()) {
    result.error =
        cfg->status().code == StatusCode::kAttestationRejected
            ? "attest: verifier rejected attestation"
            : "attest: " + cfg->status().message();
    return result;
  }
  configured_.insert(enclave.id);
  result.config = std::move(*cfg).value();

  // 3. Mount + verify the encrypted volume (completeness of FS state).
  std::optional<fs::EncryptedVolume> volume;
  if (!result.config.fs_key.empty()) {
    volume = fs::EncryptedVolume::adopt(
        result.config.fs_key, crypto::Drbg(rng_.generate(16), "runtime-fs"),
        options.volume_blobs);
    Hash256 root;
    try {
      root = volume->manifest_root();
    } catch (const Error&) {
      result.error = "volume: file integrity verification failed";
      return result;
    }
    if (root != result.config.fs_manifest_root) {
      result.error = "volume: manifest does not match configuration";
      return result;
    }
  }

  // 4. Load and run the configured program.
  const Program* program = programs_->find(result.config.program);
  if (program == nullptr) {
    result.error = "program: not found: " + result.config.program;
    return result;
  }

  AppContext ctx;
  ctx.config = &result.config;
  ctx.volume = volume.has_value() ? &*volume : nullptr;
  ctx.network = net_;
  // Capture the CPU (which outlives any runtime instance), not `this`:
  // programs may stash the report API in long-lived handlers (the report
  // server does exactly that).
  ctx.make_report = [cpu = cpu_, id = enclave.id](
                        const sgx::TargetInfo& target,
                        const sgx::ReportData& data) {
    return cpu->ereport(id, target, data);
  };

  result.exit_code = (*program)(ctx);
  result.program_output = std::move(ctx.output);
  result.ok = result.exit_code == 0;
  if (!result.ok) result.error = "program: nonzero exit";
  return result;
}

}  // namespace sinclave::runtime
