// Unit + property tests for the symmetric crypto substrate: SHA-256 (both
// variants, including the interruptible state export that implements the
// paper's base enclave hash), HMAC, HKDF, DRBG, AES, AEAD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_fast.h"
#include "crypto/sha512.h"
#include "crypto/x25519.h"

namespace sinclave::crypto {
namespace {

// --- SHA-256 known-answer tests (FIPS 180-4 / NIST CAVP vectors) ---

struct ShaVector {
  const char* message;
  const char* digest_hex;
};

const ShaVector kShaVectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"The quick brown fox jumps over the lazy dog",
     "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"},
};

class Sha256Vectors : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256Vectors, InterruptibleMatchesStandard) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256(to_bytes(v.message)).hex(), v.digest_hex);
}

TEST_P(Sha256Vectors, FastMatchesStandard) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256_fast(to_bytes(v.message)).hex(), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(Kat, Sha256Vectors, ::testing::ValuesIn(kShaVectors));

TEST(Sha256, MillionA) {
  // Classic FIPS long test: 1,000,000 repetitions of 'a'.
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Property: chunked updates produce the same digest as a single update,
// for both implementations, across many split points.
class Sha256Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Chunking, SplitInvariance) {
  const std::size_t split = GetParam();
  Bytes msg(257);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);

  const Hash256 expect = sha256(msg);
  if (split > msg.size()) return;

  Sha256 a;
  a.update(ByteView{msg.data(), split});
  a.update(ByteView{msg.data() + split, msg.size() - split});
  EXPECT_EQ(a.finalize(), expect);

  Sha256Fast b;
  b.update(ByteView{msg.data(), split});
  b.update(ByteView{msg.data() + split, msg.size() - split});
  EXPECT_EQ(b.finalize(), expect);
}

INSTANTIATE_TEST_SUITE_P(Splits, Sha256Chunking,
                         ::testing::Values(0, 1, 7, 63, 64, 65, 128, 200, 256,
                                           257));

// Property: both implementations agree on random messages of many lengths.
class Sha256Agreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Agreement, FastEqualsInterruptible) {
  Drbg rng = Drbg::from_seed(GetParam(), "sha-agreement");
  const Bytes msg = rng.generate(GetParam());
  EXPECT_EQ(sha256(msg), sha256_fast(msg));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256Agreement,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 1000, 4096, 10000));

// --- The paper's core primitive: interruptible state export/resume ---

TEST(Sha256Interruptible, ExportResumeEqualsOneShot) {
  Bytes msg(640);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i);

  Sha256 first;
  first.update(ByteView{msg.data(), 256});
  ASSERT_TRUE(first.exportable());
  const Sha256State mid = first.export_state();

  // The state travels (e.g. signer -> verifier) as 44 bytes...
  const Bytes wire = mid.encode();
  EXPECT_EQ(wire.size(), 44u);
  const Sha256State decoded = Sha256State::decode(wire);
  EXPECT_EQ(decoded, mid);

  // ...and the verifier resumes and finishes the computation.
  Sha256 second = Sha256::resume(decoded);
  second.update(ByteView{msg.data() + 256, msg.size() - 256});
  EXPECT_EQ(second.finalize(), sha256(msg));
}

TEST(Sha256Interruptible, ExportRequiresBlockAlignment) {
  Sha256 h;
  h.update(to_bytes("short"));
  EXPECT_FALSE(h.exportable());
  EXPECT_THROW(h.export_state(), Error);
}

TEST(Sha256Interruptible, ExportAtEveryBlockBoundary) {
  Bytes msg(64 * 8);
  Drbg rng = Drbg::from_seed(1, "block-boundaries");
  rng.generate(msg.data(), msg.size());
  const Hash256 expect = sha256(msg);

  for (std::size_t blocks = 0; blocks <= 8; ++blocks) {
    Sha256 a;
    a.update(ByteView{msg.data(), blocks * 64});
    Sha256 b = Sha256::resume(a.export_state());
    b.update(ByteView{msg.data() + blocks * 64, msg.size() - blocks * 64});
    EXPECT_EQ(b.finalize(), expect) << "boundary " << blocks;
  }
}

TEST(Sha256Interruptible, DecodeRejectsGarbage) {
  EXPECT_THROW(Sha256State::decode(Bytes(44, 0)), ParseError);
  Sha256 h;
  Bytes wire = h.export_state().encode();
  wire[36] = 3;  // low byte of the length counter -> unaligned byte_count
  EXPECT_THROW(Sha256State::decode(wire), ParseError);
  wire.pop_back();
  EXPECT_THROW(Sha256State::decode(wire), ParseError);
}

TEST(Sha256Interruptible, UseAfterFinalizeThrows) {
  Sha256 h;
  h.update(to_bytes("x"));
  (void)h.finalize();
  EXPECT_THROW(h.update(to_bytes("y")), Error);
  EXPECT_THROW(h.finalize(), Error);
  EXPECT_THROW(h.export_state(), Error);
}

TEST(Sha256Interruptible, ByteCountTracksMessageOnly) {
  Sha256 h;
  h.update(Bytes(130, 0));
  EXPECT_EQ(h.byte_count(), 130u);
}

// --- HMAC (RFC 4231 vectors) ---

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(mac.hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(mac.hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(mac.hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, StreamingEqualsOneShot) {
  const Bytes key = to_bytes("streaming-key");
  const Bytes msg = to_bytes("part one|part two|part three");
  HmacSha256 h(key);
  h.update(to_bytes("part one|"));
  h.update(to_bytes("part two|"));
  h.update(to_bytes("part three"));
  EXPECT_EQ(h.finalize(), hmac_sha256(key, msg));
}

TEST(Hmac, TruncatedVariant) {
  const Bytes key = to_bytes("k");
  const auto full = hmac_sha256(key, to_bytes("m"));
  const auto trunc = hmac_sha256_128(key, to_bytes("m"));
  EXPECT_TRUE(ct_equal(trunc.view(), ByteView{full.data.data(), 16}));
}

// --- HKDF (RFC 5869 test case 1) ---

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengthLimit) {
  const Bytes prk(32, 1);
  EXPECT_NO_THROW(hkdf_expand(prk, {}, 255 * 32));
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), Error);
}

TEST(Hkdf, DistinctInfoDistinctKeys) {
  const Bytes ikm(32, 7);
  EXPECT_NE(hkdf({}, ikm, to_bytes("a"), 32), hkdf({}, ikm, to_bytes("b"), 32));
}

// --- DRBG ---

TEST(Drbg, DeterministicAcrossInstances) {
  Drbg a = Drbg::from_seed(42, "test");
  Drbg b = Drbg::from_seed(42, "test");
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, PersonalizationSeparatesStreams) {
  Drbg a = Drbg::from_seed(42, "alpha");
  Drbg b = Drbg::from_seed(42, "beta");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a = Drbg::from_seed(42);
  Drbg b = Drbg::from_seed(42);
  b.reseed(to_bytes("extra"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, UniformStaysBelowBound) {
  Drbg rng = Drbg::from_seed(7);
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(13), 13u);
}

TEST(Drbg, UniformZeroBoundThrows) {
  Drbg rng = Drbg::from_seed(7);
  EXPECT_THROW(rng.uniform(0), Error);
}

TEST(Drbg, UniformCoversRange) {
  Drbg rng = Drbg::from_seed(11);
  bool seen[5] = {};
  for (int i = 0; i < 200; ++i) seen[rng.uniform(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// --- AES (FIPS 197 appendix vectors) ---

TEST(Aes, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView{ct, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView{ct, 16}), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(17, 0)), Error);
  EXPECT_THROW(Aes(Bytes(24, 0)), Error);  // AES-192 intentionally unsupported
}

TEST(AesCtr, XorIsInvolution) {
  Drbg rng = Drbg::from_seed(3);
  const Bytes key = rng.generate(32);
  const Bytes nonce = rng.generate(12);
  const Bytes msg = rng.generate(1000);
  const Aes aes(key);

  Bytes ct(msg.size());
  aes_ctr_xor(aes, nonce, 0, msg, ct.data());
  EXPECT_NE(ct, msg);
  Bytes back(msg.size());
  aes_ctr_xor(aes, nonce, 0, ct, back.data());
  EXPECT_EQ(back, msg);
}

TEST(AesCtr, CounterOffsetIsStreamSeek) {
  // Keystream starting at counter 2 must equal the tail of the keystream
  // starting at counter 0 — CTR counters address absolute block positions.
  const Aes aes(Bytes(32, 9));
  const Bytes nonce(12, 1);
  Bytes s0(48, 0), s2(16, 0);
  aes_ctr_xor(aes, nonce, 0, Bytes(48, 0), s0.data());
  aes_ctr_xor(aes, nonce, 2, Bytes(16, 0), s2.data());
  EXPECT_EQ(Bytes(s0.begin() + 32, s0.end()), s2);
}

TEST(AesCtr, Sp80038aCtrAes256) {
  // NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt): the initial counter block
  // f0f1..fcfdfeff is our 12-byte nonce followed by counter0 big-endian.
  const Aes aes(from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"));
  const Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafb");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  Bytes ct(pt.size());
  aes_ctr_xor(aes, nonce, 0xfcfdfeff, pt, ct.data());
  EXPECT_EQ(to_hex(ct),
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6");
}

// Counter mode spelled out over the portable block cipher: one
// encrypt_block per 16-byte counter block, nonce || counter big-endian.
Bytes reference_ctr(const Aes& aes, ByteView nonce, std::uint32_t counter,
                    ByteView in) {
  Bytes out(in.size());
  std::uint8_t block[16];
  std::uint8_t keystream[16];
  std::memcpy(block, nonce.data(), 12);
  for (std::size_t pos = 0; pos < in.size(); pos += 16, ++counter) {
    for (int i = 0; i < 4; ++i)
      block[12 + i] = static_cast<std::uint8_t>(counter >> (24 - 8 * i));
    aes.encrypt_block(block, keystream);
    for (std::size_t i = 0; i < 16 && pos + i < in.size(); ++i)
      out[pos + i] = in[pos + i] ^ keystream[i];
  }
  return out;
}

TEST(AesCtr, MatchesEncryptBlockReferenceAtEveryLength) {
  // Every length 0..300 covers the eight-block batches, single whole
  // blocks and every partial tail; counter0 = 0xfffffffe crosses the
  // 32-bit wrap; both buffers sit one byte off their allocation's
  // alignment.
  Drbg rng = Drbg::from_seed(12, "aes-ctr-diff");
  for (const std::size_t key_size : {16u, 32u}) {
    const Aes aes(rng.generate(key_size));
    const Bytes nonce = rng.generate(12);
    const Bytes msg = rng.generate(301);
    for (const std::uint32_t counter0 : {0u, 0xfffffffeu}) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const ByteView in{msg.data() + 1, len};
        Bytes out(len + 1);
        aes_ctr_xor(aes, nonce, counter0, in, out.data() + 1);
        ASSERT_EQ(Bytes(out.begin() + 1, out.end()),
                  reference_ctr(aes, nonce, counter0, in))
            << "key " << key_size << " counter0 " << counter0 << " len "
            << len;
      }
    }
  }
}

TEST(AesCtr, EmptyInputNeverTouchesOutput) {
  // Aead::open of an empty ciphertext hands over an empty vector's data(),
  // which may be null.
  const Aes aes(Bytes(16, 1));
  aes_ctr_xor(aes, Bytes(12, 2), 0, ByteView{}, nullptr);
}

// --- AEAD ---

TEST(Aead, SealOpenRoundTrip) {
  Drbg rng = Drbg::from_seed(5);
  const Aead aead(rng.generate(32));
  const Bytes nonce = rng.generate(12);
  const Bytes msg = to_bytes("attested configuration payload");
  const Bytes ad = to_bytes("session-17");

  const Bytes sealed = aead.seal(nonce, msg, ad);
  EXPECT_EQ(sealed.size(), msg.size() + kAeadTagSize);
  const auto opened = aead.open(nonce, sealed, ad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(Aead, DetectsCiphertextTampering) {
  Drbg rng = Drbg::from_seed(6);
  const Aead aead(rng.generate(32));
  const Bytes nonce = rng.generate(12);
  Bytes sealed = aead.seal(nonce, to_bytes("secret"), {});
  sealed[0] ^= 1;
  EXPECT_FALSE(aead.open(nonce, sealed, {}).has_value());
}

TEST(Aead, DetectsTagTampering) {
  Drbg rng = Drbg::from_seed(6);
  const Aead aead(rng.generate(32));
  const Bytes nonce = rng.generate(12);
  Bytes sealed = aead.seal(nonce, to_bytes("secret"), {});
  sealed.back() ^= 1;
  EXPECT_FALSE(aead.open(nonce, sealed, {}).has_value());
}

TEST(Aead, DetectsAssociatedDataMismatch) {
  Drbg rng = Drbg::from_seed(6);
  const Aead aead(rng.generate(32));
  const Bytes nonce = rng.generate(12);
  const Bytes sealed = aead.seal(nonce, to_bytes("secret"), to_bytes("ad-1"));
  EXPECT_FALSE(aead.open(nonce, sealed, to_bytes("ad-2")).has_value());
}

TEST(Aead, DetectsNonceMismatch) {
  Drbg rng = Drbg::from_seed(6);
  const Aead aead(rng.generate(32));
  const Bytes sealed = aead.seal(Bytes(12, 1), to_bytes("secret"), {});
  EXPECT_FALSE(aead.open(Bytes(12, 2), sealed, {}).has_value());
}

TEST(Aead, RejectsTooShortCiphertext) {
  const Aead aead(Bytes(32, 3));
  EXPECT_FALSE(aead.open(Bytes(12, 0), Bytes(8, 0), {}).has_value());
}

TEST(Aead, EmptyPlaintextStillAuthenticated) {
  const Aead aead(Bytes(32, 4));
  const Bytes nonce(12, 7);
  const Bytes sealed = aead.seal(nonce, {}, to_bytes("ad"));
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  EXPECT_TRUE(aead.open(nonce, sealed, to_bytes("ad")).has_value());
  EXPECT_FALSE(aead.open(nonce, sealed, to_bytes("xx")).has_value());
}

TEST(Aead, DistinctKeysCannotOpen) {
  const Aead a(Bytes(32, 1));
  const Aead b(Bytes(32, 2));
  const Bytes nonce(12, 0);
  const Bytes sealed = a.seal(nonce, to_bytes("m"), {});
  EXPECT_FALSE(b.open(nonce, sealed, {}).has_value());
}

// --- X25519 (RFC 7748) ---

X25519Bytes x25519_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  X25519Bytes out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

std::string hex_of(const X25519Bytes& v) {
  return to_hex(ByteView{v.data(), v.size()});
}

X25519Bytes draw_scalar(Drbg& rng) {
  X25519Bytes k;
  rng.generate(k.data(), k.size());
  return k;
}

TEST(X25519, Rfc7748Section52Vectors) {
  EXPECT_EQ(hex_of(x25519(
                x25519_hex("a546e36bf0527c9d3b16154b82465edd"
                           "62144c0ac1fc5a18506a2244ba449ac4"),
                x25519_hex("e6db6867583030db3594c1a424b15f7c"
                           "726624ec26b3353b10a903a6d0ab1c4c"))),
            "c3da55379de9c6908e94ea4df28d084f"
            "32eccf03491c71f754b4075577a28552");
  // This u has bit 255 set: the ladder must mask it.
  EXPECT_EQ(hex_of(x25519(
                x25519_hex("4b66e9d4d1b4673c5ad22691957d6af5"
                           "c11b6421e0ea01d42ca4169e7918ba0d"),
                x25519_hex("e5210f12786811d3f4b7959d0538ae2c"
                           "31dbe7106fc03c3efc4cd549c715a493"))),
            "95cbde9476e8907d7aade45cb4b873f8"
            "8b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748Section52IteratedVector) {
  // k, u = X25519(k, u), k from k = u = 9. RFC 7748 also gives the value
  // after 1,000,000 iterations; at about 80 us a ladder that is some 80 s,
  // so only the 1 and 1,000 checkpoints run here.
  X25519Bytes k = x25519_hex(
      "0900000000000000000000000000000000000000000000000000000000000000");
  X25519Bytes u = k;
  for (int i = 1; i <= 1000; ++i) {
    const X25519Bytes next = x25519(k, u);
    u = k;
    k = next;
    if (i == 1) {
      EXPECT_EQ(hex_of(k),
                "422c8e7a6227d7bca1350b3e2bb7279f"
                "7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(hex_of(k),
            "684cf59ba83309552800ef566f2f4d3c"
            "1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, Rfc7748Section61DiffieHellman) {
  const X25519Bytes alice = x25519_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const X25519Bytes bob = x25519_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const X25519Bytes alice_public = x25519_public(alice);
  const X25519Bytes bob_public = x25519_public(bob);
  EXPECT_EQ(hex_of(alice_public),
            "8520f0098930a754748b7ddcb43ef75a"
            "0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_of(bob_public),
            "de9edb7d7b7dc1b4d35b61c2ece43537"
            "3f8343c85b78674dadfc7e146f882b4f");
  const std::string shared =
      "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
  EXPECT_EQ(hex_of(x25519(alice, bob_public)), shared);
  EXPECT_EQ(hex_of(x25519(bob, alice_public)), shared);
}

TEST(X25519, TopBitOfUIsMasked) {
  Drbg rng = Drbg::from_seed(40, "x25519");
  for (int i = 0; i < 4; ++i) {
    const X25519Bytes k = draw_scalar(rng);
    X25519Bytes u = draw_scalar(rng);
    u[31] &= 0x7f;
    X25519Bytes u_top = u;
    u_top[31] |= 0x80;
    EXPECT_EQ(x25519(k, u_top), x25519(k, u));
  }
}

TEST(X25519, NonCanonicalUIsReduced) {
  // u + p for u = 2..18 still fits in 255 bits; it must act as u, with or
  // without bit 255 set on top.
  Drbg rng = Drbg::from_seed(41, "x25519");
  const X25519Bytes k = draw_scalar(rng);
  for (std::uint8_t u0 = 2; u0 < 19; ++u0) {
    X25519Bytes u{};
    u[0] = u0;
    X25519Bytes u_plus_p;
    u_plus_p.fill(0xff);
    u_plus_p[0] = static_cast<std::uint8_t>(0xed + u0);  // p = 2^255 - 19
    u_plus_p[31] = 0x7f;
    EXPECT_EQ(x25519(k, u_plus_p), x25519(k, u)) << int{u0};
    u_plus_p[31] |= 0x80;
    EXPECT_EQ(x25519(k, u_plus_p), x25519(k, u)) << int{u0};
  }
}

TEST(X25519, SmallOrderPeerSharesThrow) {
  // u = 0, u = 1, the two points of order 8, and p - 1, p and p + 1 (the
  // last two are u = 0 and u = 1 unreduced): a clamped scalar is a
  // multiple of 8, so each yields the all-zero secret.
  const char* const kSmallOrder[] = {
      "0000000000000000000000000000000000000000000000000000000000000000",
      "0100000000000000000000000000000000000000000000000000000000000000",
      "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
      "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
  };
  Drbg rng = Drbg::from_seed(42, "x25519");
  const X25519Bytes k = draw_scalar(rng);
  for (const char* u : kSmallOrder)
    EXPECT_THROW(x25519(k, x25519_hex(u)), Error) << u;
}

TEST(X25519, SharedSecretAgreement) {
  Drbg rng = Drbg::from_seed(43, "x25519");
  const X25519Bytes alice = draw_scalar(rng);
  const X25519Bytes bob = draw_scalar(rng);
  EXPECT_EQ(x25519(alice, x25519_public(bob)),
            x25519(bob, x25519_public(alice)));
}

TEST(X25519, DistinctScalarsDistinctSecrets) {
  Drbg rng = Drbg::from_seed(44, "x25519");
  const X25519Bytes a = draw_scalar(rng);
  const X25519Bytes b = draw_scalar(rng);
  const X25519Bytes c_public = x25519_public(draw_scalar(rng));
  EXPECT_NE(x25519(a, c_public), x25519(b, c_public));
}

// --- DrbgPool ---

TEST(DrbgPool, SingleThreadedDrawsAreDeterministic) {
  // Round-robin stripe choice: with no contention the k-th lease lands on
  // stripe k mod N, so two pools forked from the same root produce the
  // same sequence — seeded tests stay reproducible through the pool.
  DrbgPool a(Drbg::from_seed(9, "pool"), "label", 4);
  DrbgPool b(Drbg::from_seed(9, "pool"), "label", 4);
  for (int i = 0; i < 12; ++i) {
    const Bytes from_a = a.lease().rng().generate(16);
    EXPECT_EQ(from_a, b.lease().rng().generate(16));
  }
  EXPECT_EQ(a.collisions(), 0u);
}

TEST(DrbgPool, StripesAreIndependentGenerators) {
  DrbgPool pool(Drbg::from_seed(10, "pool"), "label", 4);
  // Four consecutive leases visit four distinct stripes; their outputs
  // must all differ (each stripe is domain-separated from the others).
  std::vector<Bytes> draws;
  for (int i = 0; i < 4; ++i)
    draws.push_back(pool.lease().rng().generate(32));
  for (std::size_t i = 0; i < draws.size(); ++i)
    for (std::size_t j = i + 1; j < draws.size(); ++j)
      EXPECT_NE(draws[i], draws[j]);
}

TEST(DrbgPool, ConcurrentLeasesYieldDistinctBytes) {
  DrbgPool pool(Drbg::from_seed(11, "pool"), "label", 4);
  constexpr int kThreads = 8;
  constexpr int kDrawsPerThread = 50;
  std::vector<std::vector<Bytes>> out(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kDrawsPerThread; ++i)
        out[static_cast<std::size_t>(t)].push_back(
            pool.lease().rng().generate(32));
    });
  for (auto& t : threads) t.join();
  // A DRBG never repeats 32-byte outputs; across stripes the domain
  // separation guarantees the same. Any duplicate means two threads tore
  // one generator's state.
  std::set<Hash256> seen;
  for (const auto& per_thread : out)
    for (const auto& draw : per_thread)
      EXPECT_TRUE(seen.insert(Hash256::from_view(draw)).second)
          << "duplicate DRBG output";
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kThreads * kDrawsPerThread));
}


// --- SHA-512 (FIPS 180-4) ---

std::string sha512_hex(ByteView data) {
  const Sha512Digest d = sha512(data);
  return to_hex(ByteView{d.data(), d.size()});
}

TEST(Sha512, Fips180OneBlock) {
  EXPECT_EQ(sha512_hex(to_bytes("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, Fips180TwoBlock) {
  // The 896-bit example: 112 bytes, so the padding spills into a second
  // block.
  EXPECT_EQ(sha512_hex(to_bytes(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  // Streamed in 1000-byte pieces, which straddle the 128-byte blocks.
  const Bytes chunk(1000, 'a');
  Sha512 h;
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const Sha512Digest d = h.finalize();
  EXPECT_EQ(to_hex(ByteView{d.data(), d.size()}),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// --- Ed25519 (RFC 8032) ---

struct Ed25519Vector {
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

// RFC 8032 §7.1: TEST 1, 2, 3 and TEST SHA(abc), whose message is
// SHA-512("abc").
const Ed25519Vector kEd25519Vectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
    {"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
};

template <std::size_t N>
std::array<std::uint8_t, N> array_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  std::array<std::uint8_t, N> out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

Ed25519PublicKey ed25519_key_hex(std::string_view hex) {
  return Ed25519PublicKey(array_hex<32>(hex));
}

class Ed25519Vectors : public ::testing::TestWithParam<Ed25519Vector> {};

TEST_P(Ed25519Vectors, Rfc8032Section71) {
  const Ed25519Vector& v = GetParam();
  const Ed25519KeyPair key = Ed25519KeyPair::from_seed(array_hex<32>(v.seed));
  EXPECT_EQ(to_hex(key.public_key().view()), v.public_key);
  const Bytes message = from_hex(v.message);
  const Ed25519Signature signature = key.sign(message);
  EXPECT_EQ(to_hex(ByteView{signature.data(), signature.size()}),
            v.signature);
  EXPECT_TRUE(ed25519_key_hex(v.public_key)
                  .verify(message, from_hex(v.signature)));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Ed25519Vectors,
                         ::testing::ValuesIn(kEd25519Vectors));

// TEST 3 of RFC 8032 §7.1, the base of the refusal cases below.
const Ed25519Vector& ed25519_test3() { return kEd25519Vectors[2]; }

// L = 2^252 + 27742317777372353535851937790883648493, little-endian.
constexpr const char* kEd25519L =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

/// TEST 3's signature with S replaced.
Bytes with_s(std::string_view s_hex) {
  Bytes sig = from_hex(ed25519_test3().signature);
  const Bytes s = from_hex(s_hex);
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

TEST(Ed25519, RefusesSOfLOrMore) {
  const Ed25519PublicKey key = ed25519_key_hex(ed25519_test3().public_key);
  const Bytes message = from_hex(ed25519_test3().message);
  // S = L, and S + L: the same residue as the valid S, but not canonical.
  EXPECT_FALSE(key.verify(message, with_s(kEd25519L)));
  Bytes sig = from_hex(ed25519_test3().signature);
  const Bytes l = from_hex(kEd25519L);
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + l[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  ASSERT_EQ(carry, 0u);
  EXPECT_FALSE(key.verify(message, sig));
  EXPECT_TRUE(key.verify(message, from_hex(ed25519_test3().signature)));
}

TEST(Ed25519, RefusesKeysThatDoNotDecode) {
  // With A the identity (y = 1, x = 0), [S]B - [k]A = [S]B whatever k is,
  // so R = B, S = 1 verifies for any message under the canonical encoding.
  // Each bad encoding of that same point must be refused by decoding.
  const Bytes message = to_bytes("any message");
  const Bytes sig = from_hex(
      "5866666666666666666666666666666666666666666666666666666666666666"
      "0100000000000000000000000000000000000000000000000000000000000000");
  EXPECT_TRUE(ed25519_key_hex("01000000000000000000000000000000"
                              "00000000000000000000000000000000")
                  .verify(message, sig));
  const char* const kBadIdentities[] = {
      // y = p + 1: not canonical.
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      // x = 0 with the sign bit set, asking for x = -0.
      "0100000000000000000000000000000000000000000000000000000000000080",
  };
  for (const char* bad : kBadIdentities)
    EXPECT_FALSE(ed25519_key_hex(bad).verify(message, sig)) << bad;

  const Bytes test3_message = from_hex(ed25519_test3().message);
  const Bytes test3_sig = from_hex(ed25519_test3().signature);
  const char* const kBadKeys[] = {
      // y = p + 3: y = 3 is on the curve, but the encoding is not
      // canonical.
      "f0ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      // y = 2: (y^2 - 1) / (d y^2 + 1) is not a square.
      "0200000000000000000000000000000000000000000000000000000000000000",
      // y = p - 1 has x = 0 too; the sign bit asks for x = -0.
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
  };
  for (const char* bad : kBadKeys)
    EXPECT_FALSE(ed25519_key_hex(bad).verify(test3_message, test3_sig))
        << bad;
  // A default key is the all-ones encoding, y = 2^255 - 1 >= p.
  EXPECT_FALSE(Ed25519PublicKey().verify(test3_message, test3_sig));
}

TEST(Ed25519, RefusesEverySingleBitFlip) {
  const Ed25519KeyPair key =
      Ed25519KeyPair::from_seed(array_hex<32>(ed25519_test3().seed));
  const Bytes message = to_bytes("handshake transcript");
  const Ed25519Signature good = key.sign(message);
  const Bytes sig(good.begin(), good.end());
  ASSERT_TRUE(key.public_key().verify(message, sig));
  for (std::size_t bit = 0; bit < 8 * sig.size(); ++bit) {
    Bytes flipped = sig;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(key.public_key().verify(message, flipped)) << bit;
  }
  for (std::size_t bit = 0; bit < 8 * message.size(); ++bit) {
    Bytes flipped = message;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(key.public_key().verify(flipped, sig)) << bit;
  }
  for (std::size_t bit = 0; bit < 8 * kEd25519PublicKeyBytes; ++bit) {
    Ed25519PublicKey::Encoding flipped = key.public_key().bytes();
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(Ed25519PublicKey(flipped).verify(message, sig)) << bit;
  }
}

TEST(Ed25519, RefusesSignaturesOfAnotherLength) {
  const Ed25519PublicKey key = ed25519_key_hex(ed25519_test3().public_key);
  const Bytes message = from_hex(ed25519_test3().message);
  const Bytes sig = from_hex(ed25519_test3().signature);
  EXPECT_FALSE(key.verify(message, ByteView(sig).first(63)));
  Bytes longer = sig;
  longer.push_back(0);
  EXPECT_FALSE(key.verify(message, longer));
  EXPECT_FALSE(key.verify(message, Bytes{}));
}

BigInt from_le(ByteView le) {
  Bytes be(le.begin(), le.end());
  std::reverse(be.begin(), be.end());
  return BigInt::from_bytes_be(be);
}

TEST(Ed25519, ScalarArithmeticMatchesBigInt) {
  // Signing rarely shows a missed final subtraction (a nonce or challenge
  // off by L names the same point), so the reductions are checked on
  // their own: random digests, about a tenth of which need the
  // subtraction, and the extremes.
  const BigInt l = BigInt::from_hex(
      "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed");
  Drbg rng = Drbg::from_seed(45, "ed25519-scalars");
  for (int i = 0; i < 300; ++i) {
    std::array<std::uint8_t, 64> wide;
    rng.generate(wide.data(), wide.size());
    if (i == 0) wide.fill(0xff);  // 2^512 - 1
    if (i == 1) wide.fill(0);
    const detail::Ed25519Scalar reduced = detail::ed25519_reduce(wide);
    EXPECT_EQ(from_le(reduced), from_le(wide).mod(l)) << i;

    detail::Ed25519Scalar r, k, a;
    rng.generate(r.data(), r.size());
    rng.generate(k.data(), k.size());
    rng.generate(a.data(), a.size());
    if (i == 0) r.fill(0xff), k.fill(0xff), a.fill(0xff);
    EXPECT_EQ(from_le(detail::ed25519_muladd(k, a, r)),
              (from_le(r) + from_le(k) * from_le(a)).mod(l))
        << i;
  }
}

TEST(Ed25519, GeneratedKeysSignAndVerify) {
  Drbg rng = Drbg::from_seed(44, "ed25519");
  const Ed25519KeyPair a = Ed25519KeyPair::generate(rng);
  const Ed25519KeyPair b = Ed25519KeyPair::generate(rng);
  EXPECT_NE(a.public_key(), b.public_key());
  const Bytes message = to_bytes("m");
  const Ed25519Signature sig = a.sign(message);
  EXPECT_TRUE(a.public_key().verify(message, sig));
  EXPECT_FALSE(b.public_key().verify(message, sig));
}

}  // namespace
}  // namespace sinclave::crypto
