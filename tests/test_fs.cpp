// Tests for the encrypted volume: confidentiality, integrity under host
// tampering, and the manifest-root completeness binding.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/drbg.h"
#include "fs/encrypted_volume.h"

namespace sinclave::fs {
namespace {

crypto::Drbg rng(std::uint64_t seed) {
  return crypto::Drbg::from_seed(seed, "fs-tests");
}

EncryptedVolume make_volume(std::uint64_t seed = 1) {
  auto r = rng(seed);
  const Bytes key = r.generate(32);
  return EncryptedVolume(key, rng(seed + 1000));
}

TEST(EncryptedVolume, WriteReadRoundTrip) {
  auto v = make_volume();
  v.write_file("app/main.py", to_bytes("print('hello')"));
  const auto content = v.read_file("app/main.py");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, to_bytes("print('hello')"));
}

TEST(EncryptedVolume, MissingFileIsNullopt) {
  auto v = make_volume();
  EXPECT_FALSE(v.read_file("nope").has_value());
  EXPECT_FALSE(v.exists("nope"));
}

TEST(EncryptedVolume, OverwriteReplacesContent) {
  auto v = make_volume();
  v.write_file("f", to_bytes("v1"));
  v.write_file("f", to_bytes("v2"));
  EXPECT_EQ(*v.read_file("f"), to_bytes("v2"));
}

TEST(EncryptedVolume, RemoveDeletes) {
  auto v = make_volume();
  v.write_file("f", to_bytes("x"));
  v.remove_file("f");
  EXPECT_FALSE(v.exists("f"));
}

TEST(EncryptedVolume, ListIsSortedAndComplete) {
  auto v = make_volume();
  v.write_file("b", {});
  v.write_file("a", {});
  v.write_file("c", {});
  EXPECT_EQ(v.list_files(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(EncryptedVolume, PlaintextNeverOnHost) {
  auto v = make_volume();
  const std::string secret = "API_KEY=supersecret";
  v.write_file("config", to_bytes(secret));
  const Bytes& blob = v.host_blob("config");
  const std::string hay(blob.begin(), blob.end());
  EXPECT_EQ(hay.find("supersecret"), std::string::npos);
}

TEST(EncryptedVolume, HostTamperingDetected) {
  auto v = make_volume();
  v.write_file("f", to_bytes("data"));
  v.host_blob("f")[20] ^= 1;
  EXPECT_FALSE(v.read_file("f").has_value());
}

TEST(EncryptedVolume, HostTruncationDetected) {
  auto v = make_volume();
  v.write_file("f", to_bytes("data"));
  v.host_blob("f").pop_back();
  EXPECT_FALSE(v.read_file("f").has_value());
  v.host_replace_blob("f", Bytes(4, 0));  // shorter than a nonce
  EXPECT_FALSE(v.read_file("f").has_value());
}

TEST(EncryptedVolume, BlobSwapDetected) {
  // The file name is associated data: moving ciphertext between names must
  // fail even though the blob itself is authentic.
  auto v = make_volume();
  v.write_file("allowed_users", to_bytes("alice"));
  v.write_file("blocked_users", to_bytes("mallory"));
  const Bytes blocked = v.host_blob("blocked_users");
  v.host_replace_blob("allowed_users", blocked);
  EXPECT_FALSE(v.read_file("allowed_users").has_value());
}

TEST(EncryptedVolume, WrongKeyCannotRead) {
  auto v = make_volume(7);
  v.write_file("f", to_bytes("data"));
  auto r = rng(99);
  EncryptedVolume stolen = EncryptedVolume::adopt(
      r.generate(32), rng(100), v.host_export());
  EXPECT_FALSE(stolen.read_file("f").has_value());
}

TEST(EncryptedVolume, AdoptWithCorrectKeyReads) {
  auto r = rng(8);
  const Bytes key = r.generate(32);
  EncryptedVolume original(key, rng(9));
  original.write_file("f", to_bytes("content"));
  EncryptedVolume reopened =
      EncryptedVolume::adopt(key, rng(10), original.host_export());
  EXPECT_EQ(*reopened.read_file("f"), to_bytes("content"));
}

TEST(Manifest, DeterministicAcrossEncryptions) {
  // The manifest root binds plaintext content, not ciphertext: two volumes
  // with identical files but different nonces/keys agree.
  auto v1 = make_volume(20);
  auto v2 = make_volume(30);
  for (auto* v : {&v1, &v2}) {
    v->write_file("a", to_bytes("1"));
    v->write_file("b", to_bytes("2"));
  }
  EXPECT_EQ(v1.manifest_root(), v2.manifest_root());
}

TEST(Manifest, SensitiveToContentAndNames) {
  auto v1 = make_volume(21);
  v1.write_file("a", to_bytes("1"));
  const Hash256 root1 = v1.manifest_root();

  v1.write_file("a", to_bytes("2"));
  const Hash256 root_changed = v1.manifest_root();
  EXPECT_NE(root1, root_changed);

  auto v2 = make_volume(22);
  v2.write_file("b", to_bytes("1"));  // same content, different name
  EXPECT_NE(root1, v2.manifest_root());
}

TEST(Manifest, SensitiveToAddedAndRemovedFiles) {
  auto v = make_volume(23);
  v.write_file("a", to_bytes("1"));
  const Hash256 one = v.manifest_root();
  v.write_file("b", to_bytes("2"));
  EXPECT_NE(v.manifest_root(), one);
  v.remove_file("b");
  EXPECT_EQ(v.manifest_root(), one);
}

TEST(Manifest, TamperedVolumeThrows) {
  auto v = make_volume(24);
  v.write_file("a", to_bytes("1"));
  v.host_blob("a").back() ^= 1;
  EXPECT_THROW(v.manifest_root(), Error);
}

TEST(Manifest, EmptyVolumeHasStableRoot) {
  EXPECT_EQ(make_volume(25).manifest_root(), make_volume(26).manifest_root());
}

// Bytes that outlive a process: policies pin fs_manifest_root and hosts
// keep sealed volumes across rebuilds, so a round trip is not enough. The
// root and one sealed blob of a fixed-seed volume are pinned to hex. The
// 150-byte file is nine whole AES blocks and a 6-byte tail.
TEST(Manifest, FixedSeedVolumeMatchesGolden) {
  auto v = make_volume(40);
  v.write_file("app/main.py", to_bytes("print('hello')"));
  Bytes table(150);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<std::uint8_t>(7 * i + 3);
  v.write_file("data/table.bin", table);

  EXPECT_EQ(v.manifest_root().hex(),
            "140430b44f1b56589c6f274e194ba19f54c6fcc5bac75aae6a6f929f09849aa6");
  EXPECT_EQ(to_hex(v.host_blob("data/table.bin")),
            "809b62ef56ce551e7c1f4f0b1c211dcb55c398ad807f998e182074521447c67c"
            "65d81eac8be0869a8363699abdb731d29f195aa3fd73d23bfc48b1088ea0d1d0"
            "fe11a331d7d1a317660cdfff3fe8bdc9a761038b11f39cb8543256d445947d25"
            "d43cf7cb0f117d0c1bd38f5cf069f60dde21e2324947fe3ee8752d696d5d28d7"
            "2fae445fe4e6c67e6bbf80b81b3d2c993b22d07a9d2cbcba0b7e8ad5ab432c44"
            "59d13df3270b82c85ac9f4895d04e7041263");
}

TEST(EncryptedVolume, TotalBytesCountsPlaintext) {
  auto v = make_volume(27);
  v.write_file("a", Bytes(100, 1));
  v.write_file("b", Bytes(28, 2));
  EXPECT_EQ(v.total_plaintext_bytes(), 128u);
}

}  // namespace
}  // namespace sinclave::fs
