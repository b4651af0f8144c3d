// Fig. 7a — "Compilation duration": native vs baseline (SCONE signer) vs
// SinClave signer.
//
// "Compilation" here is building the enclave image (codegen stand-in) plus
// — for the two signing paths — measuring every page of the enclave and
// producing the SigStruct:
//   native    : image build only              (paper: 0.033 s)
//   baseline  : + optimized measurement + RSA (paper: 1.52 s)
//   SinClave  : + interruptible measurement with per-operation state
//               export + RSA                  (paper: 6.26 s, ~4x baseline
//               although the raw hash ratio is only ~2.25x — the
//               per-operation suspend/resume entry/exit costs dominate)
#include <benchmark/benchmark.h>

#include "core/image.h"
#include "core/signer.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"

namespace {

using namespace sinclave;

// A mid-size service enclave: 8 MiB code + 56 MiB heap = 64 MiB measured.
constexpr std::size_t kCodeBytes = 8u << 20;
constexpr std::uint64_t kHeapBytes = 56u << 20;

const crypto::RsaKeyPair& signer_key() {
  static const crypto::RsaKeyPair key = [] {
    crypto::Drbg rng = crypto::Drbg::from_seed(7, "fig7a-key");
    return crypto::RsaKeyPair::generate(rng, 3072);
  }();
  return key;
}

core::EnclaveImage compile_image() {
  // The codegen stand-in: materialize the image from a prebuilt template
  // (object code is compiled once; the signer-relevant work is downstream).
  static const core::EnclaveImage template_image =
      core::EnclaveImage::synthetic("fig7a", kCodeBytes, kHeapBytes);
  return template_image;
}

void BM_NativeCompile(benchmark::State& state) {
  compile_image();  // build the template outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_image());
  }
}

void BM_BaselineSign(benchmark::State& state) {
  compile_image();
  const core::Signer signer(&signer_key());
  for (auto _ : state) {
    const core::EnclaveImage image = compile_image();
    benchmark::DoNotOptimize(signer.sign_baseline(image));
  }
}

void BM_SinClaveSign(benchmark::State& state) {
  compile_image();
  const core::Signer signer(&signer_key());
  for (auto _ : state) {
    const core::EnclaveImage image = compile_image();
    benchmark::DoNotOptimize(signer.sign_sinclave(image));
  }
}

// Pure RSA-3072 signature throughput — the CPU cost a CAS pays per minted
// on-demand SigStruct (the measurement work above is per *image*, but the
// signature is per *singleton credential*). items_per_second is the "sign
// ops/s" number tracked across PRs in BENCH_signing.json.
void BM_RsaSign3072(benchmark::State& state) {
  const crypto::RsaKeyPair& key = signer_key();
  const Bytes msg = to_bytes("sigstruct-under-bench");
  crypto::Montgomery::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign_pkcs1_sha256(msg, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// One CRT leg of that signature on the per-leg kernel: a 1024-bit
// Montgomery::exp with the leg's full-size exponent (d mod p - 1). This is
// what every prime costs on two-prime keys and on CPUs without AVX-512
// IFMA; BM_RsaSign3072 runs its three legs in lockstep where IFMA exists.
void BM_ModExp1024Leg(benchmark::State& state) {
  const crypto::RsaKeyPair& key = signer_key();
  const crypto::BigInt p = key.prime_factors().front();
  const crypto::BigInt exponent =
      key.private_exponent().mod(p - crypto::BigInt{1});
  const crypto::Montgomery leg(p);
  const crypto::BigInt base =
      crypto::BigInt::from_bytes_be(Bytes(128, 0x5a)).mod(p);
  crypto::Montgomery::Scratch scratch;
  crypto::BigInt out;
  for (auto _ : state) {
    leg.exp(base, exponent, scratch, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// RSA-3072 verification with the cached per-key context (65537 ladder) —
// the per-retrieval cost of checking a common SigStruct when the serving
// layer's verify-once memo misses.
void BM_RsaVerify3072(benchmark::State& state) {
  const crypto::RsaKeyPair& key = signer_key();
  const Bytes msg = to_bytes("sigstruct-under-bench");
  const Bytes sig = key.sign_pkcs1_sha256(msg);
  const crypto::RsaPublicKey& pub = key.public_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pub.verify_pkcs1_sha256(msg, sig));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Ed25519 sign and verify over a 32-byte transcript hash — the CAS
// channel's per-handshake identity signature, which used to be a second
// RSA-3072 signature like the one above.
const crypto::Ed25519KeyPair& identity_key() {
  static const crypto::Ed25519KeyPair key = [] {
    crypto::Drbg rng = crypto::Drbg::from_seed(7, "fig7a-identity");
    return crypto::Ed25519KeyPair::generate(rng);
  }();
  return key;
}

void BM_Ed25519Sign(benchmark::State& state) {
  const Bytes transcript(32, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(identity_key().sign(transcript));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Ed25519Verify(benchmark::State& state) {
  const Bytes transcript(32, 0x5a);
  const crypto::Ed25519Signature sig = identity_key().sign(transcript);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        identity_key().public_key().verify(transcript, sig));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_NativeCompile)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BaselineSign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SinClaveSign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RsaSign3072)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModExp1024Leg)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RsaVerify3072)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Ed25519Sign)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Ed25519Verify)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
