// Seed-corpus generator for the fuzz harnesses (fuzz/).
//
// Usage: gen_corpus <output-dir>
//
// Writes one subdirectory per harness, each holding a handful of VALID
// inputs produced by the library's own serializers (plus a few crafted
// hostile ones). Seeds matter twice: libFuzzer mutates from them instead
// of rediscovering the wire format byte by byte, and the standalone gcc
// driver replays + mutates them so even the fallback flavor starts from
// deep program states. Everything here is deterministic (fixed Drbg
// seeds) — running the tool twice yields identical corpora.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cas/persistence.h"
#include "cas/protocol.h"
#include "cas/replication.h"
#include "cas/service.h"
#include "common/serial.h"
#include "core/signer.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "quote/attestation_service.h"
#include "sgx/sigstruct.h"

namespace stdfs = std::filesystem;
using namespace sinclave;

namespace {

void write_seed(const stdfs::path& dir, const std::string& name,
                const Bytes& bytes) {
  stdfs::create_directories(dir);
  std::ofstream f(dir / name, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Harness inputs start with a mode byte; prepend it.
Bytes mode(std::uint8_t m, const Bytes& body = {}) {
  Bytes out(1 + body.size(), m);
  std::copy(body.begin(), body.end(), out.begin() + 1);
  return out;
}

Bytes text(const char* s) {
  const std::string str(s);
  return Bytes(str.begin(), str.end());
}

/// u16-length-prefixed chunk, the FuzzInput::chunk() encoding.
Bytes chunk(const Bytes& body) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(body.size()));
  const Bytes prefix = std::move(w).take();
  Bytes out = prefix;
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gen_corpus <output-dir>\n");
    return 2;
  }
  const stdfs::path out(argv[1]);

  // Shared fixtures: one RSA key (keygen dominates the tool's runtime),
  // one synthetic signed image.
  crypto::Drbg rng = crypto::Drbg::from_seed(41, "gen-corpus");
  const crypto::RsaKeyPair key = crypto::RsaKeyPair::generate(rng, 1024);
  const core::EnclaveImage image =
      core::EnclaveImage::synthetic("corpus", sgx::kPageSize,
                                    2 * sgx::kPageSize);
  core::Signer signer(&key);
  const core::SinclaveSignedImage signed_image = signer.sign_sinclave(image);
  core::AttestationToken token;
  token.data.fill(0xA5);

  // --- fuzz_envelope ------------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_envelope";
    cas::InstanceRequest req;
    req.session_name = "alpha";
    req.common_sigstruct = signed_image.sigstruct;
    write_seed(dir, "instance_request", mode(2, req.serialize()));

    cas::Envelope env;
    env.command = cas::Command::kGetInstance;
    env.request_id = 7;
    env.payload = req.serialize();
    write_seed(dir, "envelope_get_instance", mode(0, env.serialize()));
    write_seed(dir, "frame_get_instance", mode(10, env.serialize()));

    cas::InstanceResponse resp;
    resp.status = Status(StatusCode::kOk);
    resp.token = token;
    resp.singleton_sigstruct = signed_image.sigstruct;
    write_seed(dir, "instance_response", mode(3, resp.serialize()));
    write_seed(dir, "raw_instance_frame", mode(4, req.serialize()));

    cas::AttestPayload attest;
    attest.session_name = "alpha";
    attest.token = token;
    write_seed(dir, "attest_payload", mode(5, attest.serialize()));

    cas::AppConfig config;
    config.program = "prog";
    config.args = {"-v", "--mode=strict"};
    config.env["K"] = "V";
    write_seed(dir, "app_config", mode(1, config.serialize()));
    // A kAttest reply: ok, with an acceptance of the channel's shape
    // (share | signature | sealed answer) that no verifier signed.
    ByteWriter acceptance;
    acceptance.bytes(Bytes(32, 0x09));
    acceptance.bytes(Bytes(64, 0x5A));
    acceptance.bytes(config.serialize());
    cas::AttestResponse attest_reply;
    attest_reply.status = Status(StatusCode::kOk);
    attest_reply.acceptance = std::move(acceptance).take();
    write_seed(dir, "attest_response", mode(6, attest_reply.serialize()));
    write_seed(dir, "hostile_attest_reply",
               mode(12, attest_reply.serialize()));

    cas::IntrospectRequest intro_req;
    intro_req.max_traces = 4;
    intro_req.include_slow = true;
    write_seed(dir, "introspect_request", mode(8, intro_req.serialize()));

    cas::IntrospectResponse intro_resp;
    intro_resp.status = Status(StatusCode::kOk);
    intro_resp.metrics = "{\"requests\":1}";
    write_seed(dir, "introspect_response", mode(9, intro_resp.serialize()));
  }

  // --- fuzz_status_details ------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_status_details";
    write_seed(dir, "retry_after", mode(0, text("retry-after-ms=1500")));
    write_seed(dir, "compose_parse",
               mode(1, Bytes{0x10, 0x27, 0x00, 0x00, 'a', 't', 't'}));
    write_seed(dir, "wire_bytes", mode(2, Bytes{0x07, 'd', 'e', 't'}));
    write_seed(dir, "status_prefix", mode(3, text("\x05 deadline exceeded")));
    write_seed(dir, "leader_hint",
               mode(4, chunk(text("not the leader (leader=cas-node2)"))));
  }

  // --- fuzz_sigstruct_quote -----------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_sigstruct_quote";
    write_seed(dir, "signed_sigstruct",
               mode(0, signed_image.sigstruct.serialize()));
    write_seed(dir, "report", mode(1, sgx::Report{}.serialize()));
    write_seed(dir, "target_info", mode(2, sgx::TargetInfo{}.serialize()));
    write_seed(dir, "quote", mode(3, quote::Quote{}.serialize()));
    crypto::Sha256 h;
    const Bytes block(64, 0x42);
    h.update(block);
    write_seed(dir, "sha_state", mode(4, h.export_state().encode()));
  }

  // --- fuzz_bignum_diff ---------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_bignum_diff";
    crypto::Drbg nums = crypto::Drbg::from_seed(42, "gen-corpus-bignum");
    for (std::uint8_t m = 0; m < 5; ++m) {
      write_seed(dir, "mode" + std::to_string(m),
                 mode(m, nums.generate(48)));
    }
    // Mode 5, the multiply-accumulate row: length 64, random limbs, so the
    // seed alone runs eight trips of the 8-limb loop.
    Bytes row{64, 0};
    const Bytes limbs = nums.generate(8 * 129);
    row.insert(row.end(), limbs.begin(), limbs.end());
    write_seed(dir, "mode5", mode(5, row));
    // Mode 6, X25519 against the BigInt ladder: scalar, the non-canonical
    // flag, u. One seed per flag value.
    for (std::uint8_t noncanonical = 0; noncanonical < 2; ++noncanonical) {
      Bytes ladder = nums.generate(32);
      ladder.push_back(noncanonical);
      const Bytes u = nums.generate(32);
      ladder.insert(ladder.end(), u.begin(), u.end());
      write_seed(dir, noncanonical ? "mode6_noncanonical" : "mode6",
                 mode(6, ladder));
    }
    // Mode 7, Ed25519's scalars mod L: a 64-byte digest, then r, k, a.
    write_seed(dir, "mode7", mode(7, nums.generate(64 + 3 * 32)));
    // Mode 8, the three-leg IFMA kernel: per leg a length byte and a
    // 1024-bit modulus, then for each of the two operands a length byte
    // and 131 bytes (the harness reduces them below 2p).
    Bytes kernel;
    for (int leg = 0; leg < 3; ++leg) {
      kernel.push_back(127);
      const Bytes modulus = nums.generate(128);
      kernel.insert(kernel.end(), modulus.begin(), modulus.end());
      for (int operand = 0; operand < 2; ++operand) {
        kernel.push_back(130);
        const Bytes digits = nums.generate(131);
        kernel.insert(kernel.end(), digits.begin(), digits.end());
      }
    }
    write_seed(dir, "mode8", mode(8, kernel));
  }

  // --- fuzz_sha_aead_diff -------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_sha_aead_diff";
    write_seed(dir, "oneshot", mode(0, text("the quick brown fox")));
    Bytes split = mode(1);
    split.push_back(7);   // cut1
    split.push_back(64);  // cut2
    Bytes long_msg(200, 0x31);
    split.insert(split.end(), long_msg.begin(), long_msg.end());
    write_seed(dir, "streaming_splits", split);
    Bytes resume = mode(2);
    resume.push_back(2);  // blocks
    resume.insert(resume.end(), long_msg.begin(), long_msg.end());
    write_seed(dir, "export_resume", resume);
    Bytes aead = mode(3);
    const Bytes ikm(16, 0x11), nonce(12, 0x22);
    aead.insert(aead.end(), ikm.begin(), ikm.end());
    aead.insert(aead.end(), nonce.begin(), nonce.end());
    aead.push_back(5);  // flip lo
    aead.push_back(0);  // flip hi
    const Bytes ad_chunk = chunk(text("record-ad"));
    aead.insert(aead.end(), ad_chunk.begin(), ad_chunk.end());
    const Bytes pt = text("attested plaintext");
    aead.insert(aead.end(), pt.begin(), pt.end());
    write_seed(dir, "aead_roundtrip", aead);
    // Mode 4: AES-256, counter0 = 0xfffffffe (little-endian u32), one
    // byte of misalignment, nine whole blocks and a 6-byte tail.
    Bytes ctr = mode(4);
    ctr.push_back(1);  // 32-byte key
    const Bytes aes_key(32, 0x33), ctr_nonce(12, 0x44);
    ctr.insert(ctr.end(), aes_key.begin(), aes_key.end());
    ctr.insert(ctr.end(), ctr_nonce.begin(), ctr_nonce.end());
    const Bytes counter0{0xfe, 0xff, 0xff, 0xff};
    ctr.insert(ctr.end(), counter0.begin(), counter0.end());
    ctr.push_back(1);  // offset
    const Bytes ctr_msg(150, 0x55);
    ctr.insert(ctr.end(), ctr_msg.begin(), ctr_msg.end());
    write_seed(dir, "aes_ctr_wrap", ctr);
    // Mode 5: a key longer than the block (hashed first), split mid-block.
    Bytes hmac = mode(5);
    const Bytes long_key = chunk(Bytes(80, 0x66));
    hmac.insert(hmac.end(), long_key.begin(), long_key.end());
    const Bytes cut{37, 0, 0, 0};  // little-endian u32
    hmac.insert(hmac.end(), cut.begin(), cut.end());
    hmac.insert(hmac.end(), long_msg.begin(), long_msg.end());
    write_seed(dir, "hmac_long_key", hmac);
    // Mode 6: SHA-512 in nine pieces: eight cuts of 0..299 bytes (one
    // byte each), the third crossing the 128-byte block, then the rest.
    Bytes sha512_split = mode(6, Bytes{5, 100, 60, 0, 128, 1, 7, 2});
    const Bytes sha512_msg(300, 0x77);
    sha512_split.insert(sha512_split.end(), sha512_msg.begin(),
                        sha512_msg.end());
    write_seed(dir, "sha512_streaming", sha512_split);
  }

  // --- fuzz_persistence ---------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_persistence";
    // A structurally genuine sealed blob (own key — the harness's golden
    // key differs, so this exercises the bad-seal path with a blob whose
    // framing is perfect).
    const Bytes seal_key = rng.generate(32);
    cas::MonotonicCounter counter;
    const Bytes sealed =
        cas::seal_state(seal_key, counter, text("state"), rng);
    write_seed(dir, "foreign_sealed_blob", mode(0, sealed));
    write_seed(dir, "corrupt_unseal", mode(1, Bytes{4, 0, 0, 0, 0x10,
                                                    9, 0, 0, 0}));
    // A genuine exported state for the import modes.
    quote::AttestationService attestation;
    crypto::Drbg identity_rng =
        crypto::Drbg::from_seed(44, "gen-corpus-identity");
    cas::CasService cas(&attestation,
                        crypto::Ed25519KeyPair::generate(identity_rng),
                        crypto::Drbg::from_seed(43, "gen-corpus-cas"));
    cas::Policy policy;
    policy.session_name = "p0";
    policy.expected_signer = crypto::sha256(key.public_key().modulus_be());
    policy.require_singleton = true;
    policy.config.program = "prog";
    cas.install_policy(policy);
    sgx::Measurement mr;
    mr.data.fill(0x5A);
    cas.register_token(token, "p0", mr);
    write_seed(dir, "import_genuine", mode(2, cas.export_state()));
    write_seed(dir, "import_corrupt_offset", mode(3, Bytes{12, 0, 0, 0, 2}));
    write_seed(dir, "roundtrip", mode(4));
  }

  // --- fuzz_secure_record -------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_secure_record";
    // A record of a retired type: the data record version 3 had after its
    // handshake (u8 1 | u64 session | u64 counter | ciphertext).
    ByteWriter record;
    record.u8(1);
    record.u64(1);
    record.u64(3);
    record.bytes(text("ciphertext?"));
    const Bytes data_record = std::move(record).take();
    write_seed(dir, "garbage_records", mode(0, chunk(data_record)));
    write_seed(dir, "evil_handshake", mode(2, data_record));
    // Well-formed handshakes with a real X25519 share: version 5, which
    // the accept-all server answers, and version 4, which it refuses
    // typed before its hook.
    crypto::X25519Bytes scalar;
    crypto::Drbg::from_seed(43, "gen-corpus-handshake")
        .generate(scalar.data(), scalar.size());
    const crypto::X25519Bytes share = crypto::x25519_public(scalar);
    for (const std::uint8_t version : {4, 5}) {
      ByteWriter hello;
      hello.u8(version);
      hello.bytes(ByteView{share.data(), share.size()});
      hello.bytes(text("hello"));
      write_seed(dir, "handshake_v" + std::to_string(version),
                 mode(0, chunk(std::move(hello).take())));
    }
    // The relay modes: a kind, a u32 position, then the filler. Mode 1
    // rewrites the server's share (kind 0 flips bit 9), mode 3 the sealed
    // answer (kind 1 with bit 8 of the position set cuts 5 bytes), mode 5
    // the signature (kind 1: S + L, no position or filler needed).
    write_seed(dir, "relay_share_bit", mode(1, Bytes{0, 9, 0, 0, 0}));
    write_seed(dir, "relay_sealed_cut", mode(3, Bytes{1, 4, 1, 0, 0}));
    write_seed(dir, "relay_s_plus_l", mode(5, Bytes{1, 0, 0, 0, 0}));
  }

  // --- fuzz_replication ---------------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_replication";
    cas::LogEntry entry;
    entry.term = 3;
    entry.command = cas::LogCommand::kSpendToken;
    entry.entry_id = (1ull << 56) | 7;
    cas::TokenCommand spend;
    spend.token = token;
    spend.session_name = "cluster";
    spend.mr_enclave.data.fill(0x3C);
    entry.payload = spend.serialize();
    write_seed(dir, "log_entry_spend", mode(0, entry.serialize()));
    write_seed(dir, "token_command", mode(0, spend.serialize()));

    cas::VoteRequestMsg vote;
    vote.term = 5;
    vote.candidate_id = 2;
    vote.last_log_index = 9;
    vote.last_log_term = 4;
    write_seed(dir, "vote_request", mode(1, vote.serialize()));

    cas::AppendRequestMsg append;
    append.term = 5;
    append.leader_id = 2;
    append.prev_log_index = 8;
    append.prev_log_term = 4;
    append.leader_commit = 8;
    append.entries.push_back(entry);
    write_seed(dir, "append_request", mode(2, append.serialize()));

    cas::SnapshotRequestMsg snap;
    snap.term = 6;
    snap.leader_id = 3;
    snap.last_included_index = 12;
    snap.last_included_term = 5;
    snap.state = text("exported-cas-state");
    write_seed(dir, "snapshot_request", mode(3, snap.serialize()));

    cas::RaftReply reply;
    reply.status = Status(StatusCode::kNotLeader, "not leader (leader=n2)");
    reply.body = cas::AppendResponseMsg{5, false, 0, 8}.serialize();
    write_seed(dir, "raft_reply", mode(4, reply.serialize()));

    write_seed(dir, "constructed_fields",
               mode(5, rng.generate(96)));
    write_seed(dir, "sealed_store", mode(6, rng.generate(64)));

    cas::Envelope raft_env;
    raft_env.version = cas::kReplicationVersion;
    raft_env.command = cas::Command::kVoteRequest;
    raft_env.request_id = 11;
    raft_env.payload = vote.serialize();
    write_seed(dir, "frame_vote", mode(7, mode(0, raft_env.serialize())));
    write_seed(dir, "frame_hostile",
               mode(7, mode(0, text("not an envelope at all"))));
  }

  // --- fuzz_protocol_session ----------------------------------------------
  {
    const stdfs::path dir = out / "fuzz_protocol_session";
    // Op streams: op byte % 6, then that op's operands (see the harness).
    write_seed(dir, "mint_attest_replay",
               Bytes{0, 1,      // mint alpha
                     1,         // attest honest
                     2,         // replay the spent token
                     3, 1, 1, 4, 0});  // introspect with a valid request
    write_seed(dir, "garbage_then_honest",
               Bytes{4, 4, 0, 'j', 'u', 'n', 'k',  // garbage instance frame
                     5, 2, 0, 'x', 'y',            // garbage secure record
                     0, 0,                          // mint beta
                     1});                           // attest it
    write_seed(dir, "double_mint", Bytes{0, 1, 0, 0, 1, 1, 2, 2});
    write_seed(dir, "attest_both_sessions",
               Bytes{0, 1, 0, 0,  // mint alpha, mint beta
                     1, 1,        // attest beta, then alpha
                     2});         // replay a spent token
  }

  std::printf("gen_corpus: seeds written under %s\n", out.string().c_str());
  return 0;
}
