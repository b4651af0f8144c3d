// Structured stateful protocol fuzzing.
//
// The input bytes decode into a SEQUENCE OF OPERATIONS against a live
// CasService served by a server::CasServer (one worker, so the per-input
// cost stays bounded) on a simulated network — valid singleton retrievals,
// honest attestations, token-replay attempts, config fetches,
// introspection, raw garbage frames on both endpoints, and idle sweeps
// that reap every open session, interleaved across two policy sessions.
// After EVERY operation the global invariants must hold:
//
//   * exactly-once token spend: used tokens == accepted attestations,
//     outstanding == minted - used, and a replayed token is rejected;
//   * no session leak: the secure channel's open-session count equals the
//     number of accepted handshakes minus the reaped ones (CAS never
//     closes implicitly);
//   * a reaped session stays dead: its client's next config fetch is
//     refused with a typed kSessionNotAttested;
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

#include <chrono>
#include <memory>
#include <string>
#include <vector>

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
      policy.config.program = "prog";
      cas_->install_policy(policy);
    }
    server_ = std::make_unique<server::CasServer>(
        cas_.get(), server::CasServerConfig{.workers = 1});
    server_->bind(net_, "cas");
  }

  void run() {
    int ops = 0;
    while (!in_.empty() && ops++ < 12) {
      switch (in_.u8() % 8) {
        case 0: mint(); break;
        case 1: attest_honest(); break;
        case 2: attest_replay(); break;
        case 3: get_config(); break;
        case 4: introspect(); break;
        case 5: garbage_instance(); break;
        case 6: garbage_secure(); break;
        case 7: reap(); break;
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

  Bytes call_instance(Bytes frame) {
    ++issued_;
    const Bytes answer = net_.connect("cas.instance").call(frame);
    require(!answer.empty(), "instance endpoint went silent");
    return answer;
  }

  /// Wrap a payload in a v1 envelope and return the decoded response
  /// payload.
  Bytes enveloped_round_trip(cas::Command command, const Bytes& payload) {
    cas::Envelope env;
    env.command = command;
    env.request_id = ++next_request_id_;
    env.payload = payload;
    const Bytes answer = call_instance(env.serialize());
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
  /// channel with a fresh client. Returns whether CAS accepted.
  bool attest_with(Minted& m, std::uint64_t client_seed,
                   std::unique_ptr<net::SecureClient>* keep) {
    Platform& p = platform();
    core::InstancePage page;
    page.token = m.token;
    page.verifier_id = m.verifier_id;
    const auto enclave =
        runtime::start_enclave(p.cpu, p.image, m.sigstruct, page);
    require(enclave.ok(), "predicted singleton enclave failed EINIT");
    auto client = std::make_unique<net::SecureClient>(
        crypto::Drbg::from_seed(client_seed, "fuzz-session-client"));
    const sgx::Report report =
        p.cpu.ereport(enclave.id, p.qe.target_info(),
                      net::channel_binding(client->dh_public()));
    const auto quote = p.qe.generate_quote(report);
    require(quote.has_value(), "quoting enclave refused a genuine report");
    cas::AttestPayload payload;
    payload.session_name = m.session;
    payload.quote = *quote;
    payload.token = m.token;
    ++issued_;
    const auto outcome = client->connect(
        net_.connect("cas"), cas_->identity(),
        cas::encode_attest_payload(payload));
    if (outcome.has_value() && keep != nullptr) *keep = std::move(client);
    return outcome.has_value();
  }

  void attest_honest() {
    if (attests_ >= 3) return;  // enclave starts are the expensive op
    Minted* fresh = nullptr;
    for (Minted& m : minted_)
      if (!m.spent) fresh = &m;
    if (fresh == nullptr) return;
    ++attests_;
    std::unique_ptr<net::SecureClient> client;
    require(attest_with(*fresh, 100 + attests_, &client),
            "honest attestation with an unspent token rejected");
    ++ok_;
    fresh->spent = true;
    ++spent_;
    ++accepted_sessions_;
    clients_.push_back(std::move(client));
  }

  void attest_replay() {
    if (attests_ >= 3) return;
    Minted* used = nullptr;
    for (Minted& m : minted_)
      if (m.spent) used = &m;
    if (used == nullptr) return;
    ++attests_;
    require(!attest_with(*used, 200 + attests_, nullptr),
            "token replay accepted: singleton guarantee broken");
    ++errors_;
  }

  /// One config fetch over `client`'s session: kOk with the policy's
  /// config, or the typed status its record was refused with.
  StatusCode fetch_config(net::SecureClient& client) {
    cas::Envelope env;
    env.command = cas::Command::kGetConfig;
    env.request_id = ++next_request_id_;
    ++issued_;
    try {
      const Bytes answer = client.call(env.serialize());
      const cas::Envelope reply = cas::Envelope::deserialize(answer);
      const auto resp = cas::ConfigResponse::deserialize(reply.payload);
      require(resp.ok() && resp.config.program == "prog",
              "attested session could not fetch its config");
      ++ok_;
      return StatusCode::kOk;
    } catch (const net::RecordRejectedError& e) {
      ++errors_;
      return e.code();
    }
  }

  void get_config() {
    if (clients_.empty()) return;
    const std::size_t i =
        in_.below(static_cast<std::uint32_t>(clients_.size()));
    const StatusCode want =
        i < reaped_ ? StatusCode::kSessionNotAttested : StatusCode::kOk;
    require(fetch_config(*clients_[i]) == want,
            "config fetch disagrees with its session's state");
  }

  void reap() {
    // Every open session is idle past a 1 ns TTL, so one sweep of every
    // stripe reaps them all.
    std::size_t reaped = 0;
    for (std::size_t i = 0; i < net::SecureServer::kStripes; ++i)
      reaped += cas_->sweep_idle_sessions(std::chrono::nanoseconds(1));
    require(reaped_ + reaped == accepted_sessions_,
            "a full sweep with a tiny TTL left a session open");
    reaped_ = accepted_sessions_;
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
    const Bytes answer = call_instance(frame);
    garbage_minted_ += cas_->tokens_outstanding() - before;
    // Whatever came in, the answer must be an envelope.
    try {
      (void)cas::Envelope::deserialize(answer);
    } catch (const Error&) {
      require(false, "instance endpoint answered garbage with garbage");
    }
    ++errors_;
  }

  void garbage_secure() {
    ++issued_;
    const Bytes answer = net_.connect("cas").call(in_.chunk());
    require(!answer.empty(), "secure endpoint went silent on garbage");
    ++errors_;
  }

  void check_invariants() {
    require(cas_->tokens_used() == spent_,
            "token spend count diverged from accepted attestations");
    require(cas_->tokens_outstanding() ==
                minted_.size() - spent_ + garbage_minted_,
            "outstanding tokens diverged from mint/spend bookkeeping");
    require(cas_->secure_channel_stats().open_sessions ==
                accepted_sessions_ - reaped_,
            "open sessions diverged from accepted minus reaped handshakes");
    for (std::size_t i = 0; i < reaped_; ++i)
      require(fetch_config(*clients_[i]) == StatusCode::kSessionNotAttested,
              "a reaped session was not refused typed");
    require(issued_ == ok_ + errors_,
            "a request vanished: issued != ok + errors");
  }

  FuzzInput& in_;
  quote::AttestationService attestation_;
  std::unique_ptr<cas::CasService> cas_;
  net::SimNetwork net_;
  std::unique_ptr<server::CasServer> server_;  // unbinds before net_ dies
  std::vector<Minted> minted_;
  std::vector<std::unique_ptr<net::SecureClient>> clients_;
  std::uint64_t next_request_id_ = 0;
  std::size_t spent_ = 0;
  std::size_t garbage_minted_ = 0;
  std::size_t accepted_sessions_ = 0;
  std::size_t reaped_ = 0;  // clients_[0, reaped_) had their sessions reaped
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
