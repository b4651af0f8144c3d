// Heap-allocation accounting for the signing hot path.
//
// This binary replaces the global operator new with a counting wrapper —
// which is why these tests live alone in their own test executable — and
// asserts the tentpole property of the windowed Montgomery kernels: after
// one warm-up call (which grows the scratch arena and the output's limb
// storage), steady-state exponentiation performs ZERO heap allocations.
// The old implementation allocated two vectors per modular multiplication,
// ~4,600 allocations per RSA-3072 signature. The wrapper also tracks live
// blocks (allocations minus deallocations), which is how the CAS is held to
// bounded memory: an attested exchange must leave nothing behind, and a
// pooled credential keeps only what is its own.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include "cas/client.h"
#include "core/signer.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "obs/trace.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    g_live.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
namespace {
// Every form of delete frees here. (A sized delete forwarding to
// `operator delete(p)` reads to GCC as that delete called on a malloc'd
// pointer, once the replaced operator new is inlined.)
void release(void* p) noexcept {
  if (p != nullptr) g_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace sinclave::crypto {
namespace {

BigInt rand_odd_modulus(Drbg& rng, std::size_t bytes) {
  Bytes buf = rng.generate(bytes);
  buf[0] |= 0x80;
  buf[bytes - 1] |= 0x01;
  return BigInt::from_bytes_be(buf);
}

TEST(Allocation, SteadyStateWindowedExpIsAllocationFree) {
  Drbg rng = Drbg::from_seed(7, "alloc-exp");
  // 1536-bit modulus with a 1536-bit exponent: the shape of an RSA-3072
  // CRT half under the old two-prime split (the worst case this kernel
  // serves).
  const BigInt m = rand_odd_modulus(rng, 192);
  const Montgomery ctx(m);
  const BigInt base = BigInt::from_bytes_be(rng.generate(192));
  const BigInt exponent = BigInt::from_bytes_be(rng.generate(192));

  Montgomery::Scratch scratch;
  BigInt out;
  ctx.exp(base, exponent, scratch, &out);  // warm-up: arena + out grow here
  const BigInt expected = out;

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 5; ++i) ctx.exp(base, exponent, scratch, &out);
  const std::uint64_t allocated = g_allocations.load() - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(out, expected);
}

TEST(Allocation, SteadyStateExpU64AndMulModAreAllocationFree) {
  Drbg rng = Drbg::from_seed(8, "alloc-u64");
  const BigInt m = rand_odd_modulus(rng, 128);
  const Montgomery ctx(m);
  const BigInt a = BigInt::from_bytes_be(rng.generate(128));
  const BigInt b = BigInt::from_bytes_be(rng.generate(128));

  Montgomery::Scratch scratch;
  BigInt out;
  ctx.exp_u64(a, kRsaPublicExponent, scratch, &out);  // warm-up
  ctx.mul_mod(a, b, scratch, &out);
  ctx.reduce(a, scratch, &out);

  const std::uint64_t before = g_allocations.load();
  ctx.exp_u64(a, kRsaPublicExponent, scratch, &out);
  ctx.mul_mod(a, b, scratch, &out);
  ctx.reduce(a, scratch, &out);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Allocation, SteadyStateSignAllocationCountIsSmallAndFlat) {
  // The full sign path still materializes its results (the padded
  // message, the signature bytes, a handful of CRT intermediates) — but
  // the count must be small, and constant across calls: no hidden
  // per-multiplication allocations sneaking back in.
  Drbg rng = Drbg::from_seed(9, "alloc-sign");
  const RsaKeyPair kp = RsaKeyPair::generate(rng, 1024);
  const Bytes msg = to_bytes("steady-state signing");

  Montgomery::Scratch scratch;
  (void)kp.sign_pkcs1_sha256(msg, scratch);  // warm-up

  const std::uint64_t before = g_allocations.load();
  (void)kp.sign_pkcs1_sha256(msg, scratch);
  const std::uint64_t second = g_allocations.load() - before;
  (void)kp.sign_pkcs1_sha256(msg, scratch);
  const std::uint64_t third = g_allocations.load() - before - second;

  EXPECT_EQ(second, third);
  EXPECT_LE(second, 40u);
}

TEST(Allocation, SteadyStateCtrAndHmacAreAllocationFree) {
  // The volume mount's bulk work: CTR over a 64 KiB file and its MAC. The
  // warm-up pays the one-time CPUID probes of both dispatchers.
  Drbg rng = Drbg::from_seed(10, "alloc-symmetric");
  const Aes cipher(rng.generate(32));
  const Bytes nonce = rng.generate(12);
  const Bytes mac_key = rng.generate(32);
  const Bytes msg = rng.generate(64 * 1024);
  Bytes out(msg.size());
  aes_ctr_xor(cipher, nonce, 0, msg, out.data());
  const Hash256 expected = hmac_sha256(mac_key, msg);

  const std::uint64_t before = g_allocations.load();
  aes_ctr_xor(cipher, nonce, 0, msg, out.data());
  const Hash256 tag = hmac_sha256(mac_key, msg);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(tag, expected);
}

TEST(Allocation, WarmX25519LadderIsAllocationFree) {
  // The channel's key agreement: both ladders run on fixed 32-byte arrays
  // and stack limbs. The warm-up pays any one-time cost of the first call.
  Drbg rng = Drbg::from_seed(11, "alloc-x25519");
  X25519Bytes a;
  X25519Bytes b;
  rng.generate(a.data(), a.size());
  rng.generate(b.data(), b.size());
  const X25519Bytes b_public = x25519_public(b);
  const X25519Bytes expected = x25519(a, b_public);

  const std::uint64_t before = g_allocations.load();
  const X25519Bytes a_public = x25519_public(a);
  const X25519Bytes secret = x25519(a, b_public);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(secret, expected);
  EXPECT_EQ(x25519(b, a_public), expected);
}

TEST(Allocation, WarmEd25519SignAndVerifyAreAllocationFree) {
  // The channel's identity signature: SHA-512, the scalar reduction and
  // the windowed multiplication all run on fixed arrays and stack limbs,
  // on both the signing and the verifying side.
  Drbg rng = Drbg::from_seed(12, "alloc-ed25519");
  const Ed25519KeyPair key = Ed25519KeyPair::generate(rng);
  const Bytes transcript(32, 0x5a);
  const Ed25519Signature warm = key.sign(transcript);
  ASSERT_TRUE(key.public_key().verify(transcript, warm));

  const std::uint64_t before = g_allocations.load();
  const Ed25519Signature signature = key.sign(transcript);
  const bool verified = key.public_key().verify(transcript, signature);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_TRUE(verified);
  EXPECT_EQ(signature, warm);  // deterministic (RFC 8032 §5.1.6)
}

}  // namespace
}  // namespace sinclave::crypto

namespace sinclave::obs {
namespace {

TEST(Allocation, SteadyStateSpanRecordingIsAllocationFree) {
  // The tracing hot path must never allocate: a span is two clock reads,
  // a histogram record, and a seqlocked ring-slot write. The first span a
  // thread records registers its ring with the tracer and the first use
  // of a phase interns it — both one-time costs paid by this warm-up.
  Tracer& tracer = Tracer::instance();
  Phase& phase = tracer.phase("alloc_test_phase");
  TraceContext ctx;
  ctx.trace_id = tracer.new_trace_id();
  ctx.request_id = 42;
  TraceScope scope(ctx);
  { Span warmup(phase); }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    Span span(phase);
  }
  // Explicit cross-thread records share the same ring write path.
  tracer.record_phase_span(phase, ctx, 0, 1000, 1);
  tracer.record_phase_root(phase, ctx, 0, 1000);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Allocation, SpanWithoutScopeIsAllocationFree) {
  Tracer& tracer = Tracer::instance();
  Phase& phase = tracer.phase("alloc_test_scopeless");
  { Span warmup(phase); }  // ring registration (thread may be fresh)

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    Span span(phase);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace sinclave::obs

namespace sinclave::server {
namespace {

using namespace std::chrono_literals;

// An attestation leaves nothing behind on the server, whatever the
// server's configuration: the exchange answers with the sealed
// configuration and keeps no session, so the CAS stays bounded over
// arbitrarily many attests.
TEST(Allocation, AttestedExchangesLeaveNoAllocationBehind) {
  workload::Testbed bed(workload::TestbedConfig{.seed = 81});
  const auto image = core::EnclaveImage::synthetic("alloc", sgx::kPageSize,
                                                   sgx::kPageSize);
  const sgx::SigStruct sigstruct =
      core::Signer(&bed.user_signer()).sign_baseline(image).sigstruct;
  cas::Policy policy;
  policy.session_name = "baseline";
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.expected_mr_enclave = sigstruct.enclave_hash;
  bed.cas().install_policy(policy);
  const auto enclave = runtime::start_enclave(bed.cpu(), image, sigstruct);
  ASSERT_TRUE(enclave.ok());
  CasServerConfig config;
  config.workers = 1;
  CasServer server(&bed.cas(), config);
  server.bind(bed.network(), "cas.alloc");

  std::uint64_t seed = 0;
  const auto attest_64 = [&] {
    for (int i = 0; i < 64; ++i) {
      cas::AttestedChannel channel(
          &bed.network(), cas::CasClientConfig{.address = "cas.alloc"},
          crypto::Drbg::from_seed(++seed, "alloc-channel"));
      cas::AttestPayload payload;
      payload.session_name = "baseline";
      payload.quote = bed.qe()
                          .generate_quote(bed.cpu().ereport(
                              enclave.id, bed.qe().target_info(),
                              net::channel_binding(channel.dh_public())))
                          .value();
      ASSERT_TRUE(channel.attest(bed.cas().identity(), payload).ok());
    }
  };

  // The warm-up grows what is allocated once and kept: thread rings,
  // interned phases, the DRBG stripes.
  attest_64();
  const std::int64_t baseline = g_live.load();
  attest_64();
  // The worker thread may still be freeing its last finished job; what
  // stays behind for good is the leak.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (g_live.load() != baseline &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(g_live.load() - baseline, 0);
  EXPECT_EQ(bed.cas().secure_channel_stats().open_sessions, 0u);
}

// A pooled credential keeps its token, MRENCLAVE and signature; the
// common SigStruct its pool-mates share (signer modulus, verify context,
// metadata) is kept once, in the session's stamp. So preminting into a
// warm pool adds at most two live blocks per credential: its signature and
// its share of a deque node.
TEST(Allocation, PooledCredentialsHoldAtMostTwoBlocksEach) {
  workload::Testbed bed(workload::TestbedConfig{.seed = 83});
  const auto image = core::EnclaveImage::synthetic("alloc-pool", sgx::kPageSize,
                                                   sgx::kPageSize);
  const core::SinclaveSignedImage signed_image =
      core::Signer(&bed.user_signer()).sign_sinclave(image);
  cas::Policy policy;
  policy.session_name = "pool";
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.require_singleton = true;
  policy.base_hash = signed_image.base_hash;
  bed.cas().install_policy(policy);
  CasServerConfig config;
  config.workers = 1;
  CasServer server(&bed.cas(), config);

  // The warm-up makes the session's entry (its remembered stamp and
  // pool) and the signer's contexts, which the 64 below share.
  constexpr std::size_t kCredentials = 64;
  ASSERT_EQ(server.premint("pool", signed_image.sigstruct, kCredentials),
            kCredentials);
  const std::int64_t before = g_live.load();
  ASSERT_EQ(server.premint("pool", signed_image.sigstruct, kCredentials),
            kCredentials);
  const double per_credential =
      static_cast<double>(g_live.load() - before) / kCredentials;
  EXPECT_LE(per_credential, 2.0)
      << per_credential << " live blocks per pooled credential";
  EXPECT_EQ(server.sigstruct_cache().pooled("pool"), 2 * kCredentials);
}

}  // namespace
}  // namespace sinclave::server
