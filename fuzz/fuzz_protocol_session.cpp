// Structured stateful protocol fuzzing.
//
// The input bytes decode into a SEQUENCE OF OPERATIONS against a live
// CasService served by a server::CasServer (one worker, so the per-input
// cost stays bounded) on a simulated network — valid singleton retrievals,
// honest attestations, token-replay attempts, introspection, garbage
// frames and garbage handshake records, interleaved across two policy
// sessions with distinct configurations. After EVERY operation the global
// invariants must hold:
//
//   * exactly-once token spend: used tokens == accepted attestations,
//     outstanding == minted - used, and a replayed token is rejected;
//   * every accepted attestation returned exactly its own policy's
//     configuration, in the answer to its own request id (the client
//     SDK's reply check), and a garbage handshake record never attests;
//   * nothing is kept per client: the secure channel has no exchange in
//     flight once its answer is out;
//   * total accounting: every request produced a decodable answer — an
//     envelope, even for garbage — so issued == ok + errors, nothing
//     dropped, nothing thrown.
//
// The per-iteration services are rebuilt from scratch; the expensive
// immutable platform (RSA keys, SGX CPU, quoting enclave, signed image)
// is shared. Started enclaves do accumulate on the shared CPU across
// iterations — bounded by the per-input attest cap, and irrelevant to the
// properties checked.
#include "harnesses.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cas/client.h"
#include "cas/service.h"
#include "common/error.h"
#include "common/serial.h"
#include "core/signer.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "fuzz_util.h"
#include "net/secure_channel.h"
#include "net/sim_network.h"
#include "quote/quoting_enclave.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "sgx/cpu.h"

namespace sinclave::fuzz {
namespace {

struct Platform {
  crypto::RsaKeyPair signer_key;
  crypto::Ed25519KeyPair identity;
  sgx::SgxCpu cpu;
  crypto::Drbg qe_rng;
  quote::QuotingEnclave qe;
  core::EnclaveImage image;
  core::Signer signer;
  core::SinclaveSignedImage signed_image;

  static crypto::RsaKeyPair make_key(std::uint64_t seed, const char* pers) {
    crypto::Drbg rng = crypto::Drbg::from_seed(seed, pers);
    return crypto::RsaKeyPair::generate(rng, 1024);
  }

  static crypto::Ed25519KeyPair make_identity() {
    crypto::Drbg rng = crypto::Drbg::from_seed(32, "fuzz-session-identity");
    return crypto::Ed25519KeyPair::generate(rng);
  }

  Platform()
      : signer_key(make_key(31, "fuzz-session-signer")),
        identity(make_identity()),
        cpu(sgx::SgxCpu::Config{}),
        qe_rng(crypto::Drbg::from_seed(33, "fuzz-session-qe")),
        qe(cpu, qe_rng),
        image(core::EnclaveImage::synthetic("fuzz", sgx::kPageSize,
                                            2 * sgx::kPageSize)),
        signer(&signer_key),
        signed_image(signer.sign_sinclave(image)) {}
};

Platform& platform() {
  static Platform p;
  return p;
}

/// One decoded-op interpreter run. Owns everything mutable so each fuzz
/// input starts from an identical world.
class SessionMachine {
 public:
  explicit SessionMachine(FuzzInput& in) : in_(in) {
    Platform& p = platform();
    attestation_.register_platform(p.qe.attestation_key());
    cas_ = std::make_unique<cas::CasService>(
        &attestation_, p.identity,
        crypto::Drbg::from_seed(34, "fuzz-session-cas"));
    cas_->add_signer_key(p.signer_key);
    for (const char* name : {"alpha", "beta"}) {
      cas::Policy policy;
      policy.session_name = name;
      policy.expected_signer =
          crypto::sha256(p.signer_key.public_key().modulus_be());
      policy.require_singleton = true;
      policy.base_hash = p.signed_image.base_hash;
      policy.config.program = std::string("prog-") + name;
      policy.config.secrets["key"] = to_bytes(name);
      cas_->install_policy(policy);
      configs_[name] = policy.config;
    }
    server_ = std::make_unique<server::CasServer>(
        cas_.get(), server::CasServerConfig{.workers = 1});
    server_->bind(net_, "cas");
  }

  void run() {
    int ops = 0;
    while (!in_.empty() && ops++ < 12) {
      switch (in_.u8() % 6) {
        case 0: mint(); break;
        case 1: attest_honest(); break;
        case 2: attest_replay(); break;
        case 3: introspect(); break;
        case 4: garbage_instance(); break;
        case 5: garbage_secure(); break;
      }
      check_invariants();
    }
  }

 private:
  struct Minted {
    core::AttestationToken token;
    sgx::SigStruct sigstruct;
    Hash256 verifier_id;
    std::string session;
    bool spent = false;
  };

  const char* pick_session() { return in_.boolean() ? "alpha" : "beta"; }

  Bytes call(Bytes frame) {
    ++issued_;
    const Bytes answer = net_.connect("cas").call(frame);
    require(!answer.empty(), "client endpoint went silent");
    return answer;
  }

  /// Wrap a payload in a v1 envelope and return the decoded response
  /// payload.
  Bytes enveloped_round_trip(cas::Command command, const Bytes& payload) {
    cas::Envelope env;
    env.command = command;
    env.request_id = ++next_request_id_;
    env.payload = payload;
    const Bytes answer = call(env.serialize());
    const cas::Envelope reply = cas::Envelope::deserialize(answer);
    require(reply.request_id == env.request_id,
            "response request id does not echo the request");
    return reply.payload;
  }

  void mint() {
    Platform& p = platform();
    cas::InstanceRequest req;
    req.session_name = pick_session();
    req.common_sigstruct = p.signed_image.sigstruct;
    const Bytes payload =
        enveloped_round_trip(cas::Command::kGetInstance, req.serialize());
    const auto resp = cas::InstanceResponse::deserialize(payload);
    require(resp.ok(), "valid instance request refused");
    ++ok_;
    Minted m;
    m.token = resp.token;
    m.sigstruct = resp.singleton_sigstruct;
    m.verifier_id = resp.verifier_id;
    m.session = req.session_name;
    minted_.push_back(std::move(m));
  }

  /// Start the enclave for a minted credential and attest over the secure
  /// channel with a fresh client, one attempt. Returns the configuration
  /// CAS answered with, or nullopt when it refused.
  std::optional<cas::AppConfig> attest_with(const Minted& m,
                                            std::uint64_t client_seed) {
    Platform& p = platform();
    core::InstancePage page;
    page.token = m.token;
    page.verifier_id = m.verifier_id;
    const auto enclave =
        runtime::start_enclave(p.cpu, p.image, m.sigstruct, page);
    require(enclave.ok(), "predicted singleton enclave failed EINIT");
    cas::AttestedChannel channel(
        &net_, cas::CasClientConfig{.address = "cas",
                                    .retry = {.max_attempts = 1}},
        crypto::Drbg::from_seed(client_seed, "fuzz-session-client"));
    const sgx::Report report =
        p.cpu.ereport(enclave.id, p.qe.target_info(),
                      net::channel_binding(channel.dh_public()));
    const auto quote = p.qe.generate_quote(report);
    require(quote.has_value(), "quoting enclave refused a genuine report");
    cas::AttestPayload payload;
    payload.session_name = m.session;
    payload.quote = *quote;
    payload.token = m.token;
    ++issued_;
    Result<cas::AppConfig> config = channel.attest(cas_->identity(), payload);
    if (!config.ok()) return std::nullopt;
    return std::move(config).value();
  }

  void attest_honest() {
    if (attests_ >= 3) return;  // enclave starts are the expensive op
    Minted* fresh = nullptr;
    for (Minted& m : minted_)
      if (!m.spent) fresh = &m;
    if (fresh == nullptr) return;
    ++attests_;
    auto config = attest_with(*fresh, 100 + attests_);
    require(config.has_value(),
            "honest attestation with an unspent token rejected");
    ++ok_;
    fresh->spent = true;
    ++spent_;
    answers_.emplace_back(fresh->session, std::move(*config));
  }

  void attest_replay() {
    if (attests_ >= 3) return;
    Minted* used = nullptr;
    for (Minted& m : minted_)
      if (m.spent) used = &m;
    if (used == nullptr) return;
    ++attests_;
    require(!attest_with(*used, 200 + attests_).has_value(),
            "token replay accepted: singleton guarantee broken");
    ++errors_;
  }

  void introspect() {
    // Fuzz-shaped introspect payload: defaults, a valid request, or raw
    // bytes — the endpoint must answer a decodable IntrospectResponse
    // (ok or a typed error) in every case.
    Bytes payload;
    if (in_.boolean()) {
      cas::IntrospectRequest req;
      req.max_traces = in_.u8();
      req.include_slow = in_.boolean();
      payload = req.serialize();
    } else {
      payload = in_.chunk();
    }
    const Bytes reply =
        enveloped_round_trip(cas::Command::kIntrospect, payload);
    const auto resp = cas::IntrospectResponse::deserialize(reply);
    if (resp.ok())
      ++ok_;
    else
      ++errors_;
  }

  void garbage_instance() {
    const Bytes frame = in_.chunk();
    // In principle the fuzzer could evolve a garbage frame into a VALID
    // retrieval (it has the policy name in the corpus); account for any
    // token such a frame mints so the exactness of the invariant survives.
    const std::size_t before = cas_->tokens_outstanding();
    const Bytes answer = call(frame);
    garbage_minted_ += cas_->tokens_outstanding() - before;
    // Whatever came in, the answer must be an envelope.
    try {
      (void)cas::Envelope::deserialize(answer);
    } catch (const Error&) {
      require(false, "client endpoint answered garbage with garbage");
    }
    ++errors_;
  }

  void garbage_secure() {
    // A garbage handshake record in a well-formed kAttest envelope: typed
    // refusal, never an attestation.
    const Bytes payload =
        enveloped_round_trip(cas::Command::kAttest, in_.chunk());
    try {
      require(!cas::AttestResponse::deserialize(payload).ok(),
              "a garbage handshake record attested");
    } catch (const Error&) {
      require(false, "client endpoint answered a garbage record undecodably");
    }
    ++errors_;
  }

  void check_invariants() {
    require(cas_->tokens_used() == spent_,
            "token spend count diverged from accepted attestations");
    require(cas_->tokens_outstanding() ==
                minted_.size() - spent_ + garbage_minted_,
            "outstanding tokens diverged from mint/spend bookkeeping");
    for (const auto& [session, config] : answers_)
      require(config == configs_.at(session),
              "an attestation was answered with another policy's config");
    require(cas_->secure_channel_stats().open_sessions == 0,
            "an exchange stayed open after its answer");
    require(issued_ == ok_ + errors_,
            "a request vanished: issued != ok + errors");
  }

  FuzzInput& in_;
  quote::AttestationService attestation_;
  std::unique_ptr<cas::CasService> cas_;
  net::SimNetwork net_;
  std::unique_ptr<server::CasServer> server_;  // unbinds before net_ dies
  std::map<std::string, cas::AppConfig> configs_;  // per policy session
  std::vector<Minted> minted_;
  /// Every accepted attestation: its policy session and the config CAS
  /// answered with.
  std::vector<std::pair<std::string, cas::AppConfig>> answers_;
  std::uint64_t next_request_id_ = 0;
  std::size_t spent_ = 0;
  std::size_t garbage_minted_ = 0;
  int attests_ = 0;
  std::uint64_t issued_ = 0, ok_ = 0, errors_ = 0;
};

}  // namespace

int run_protocol_session(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  SessionMachine machine(in);
  machine.run();
  return 0;
}

}  // namespace sinclave::fuzz
