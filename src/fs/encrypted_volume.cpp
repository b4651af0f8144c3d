#include "fs/encrypted_volume.h"

#include "common/error.h"
#include "crypto/sha256_fast.h"

namespace sinclave::fs {

EncryptedVolume::EncryptedVolume(ByteView key256, crypto::Drbg rng)
    : aead_(key256), rng_(std::move(rng)) {}

EncryptedVolume EncryptedVolume::adopt(ByteView key256, crypto::Drbg rng,
                                       std::map<std::string, Bytes> blobs) {
  EncryptedVolume v(key256, std::move(rng));
  v.blobs_ = std::move(blobs);
  return v;
}

void EncryptedVolume::write_file(const std::string& name, ByteView content) {
  const Bytes nonce = rng_.generate(crypto::kAeadNonceSize);
  const Bytes sealed = aead_.seal(nonce, content, to_bytes(name));
  blobs_[name] = concat({nonce, sealed});
}

std::optional<Bytes> EncryptedVolume::read_file(const std::string& name) const {
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) return std::nullopt;
  const Bytes& blob = it->second;
  if (blob.size() < crypto::kAeadNonceSize) return std::nullopt;
  const ByteView nonce{blob.data(), crypto::kAeadNonceSize};
  const ByteView sealed{blob.data() + crypto::kAeadNonceSize,
                        blob.size() - crypto::kAeadNonceSize};
  return aead_.open(nonce, sealed, to_bytes(name));
}

bool EncryptedVolume::exists(const std::string& name) const {
  return blobs_.contains(name);
}

void EncryptedVolume::remove_file(const std::string& name) {
  blobs_.erase(name);
}

std::vector<std::string> EncryptedVolume::list_files() const {
  std::vector<std::string> names;
  names.reserve(blobs_.size());
  for (const auto& [name, blob] : blobs_) names.push_back(name);
  return names;  // std::map iterates in lexicographic order already
}

Hash256 EncryptedVolume::manifest_root() const {
  crypto::Sha256Fast h;
  h.update(to_bytes("sinclave-fs-manifest-v1"));
  for (const auto& [name, blob] : blobs_) {
    const auto content = read_file(name);
    if (!content.has_value())
      throw Error("manifest: file failed verification: " + name);
    const Hash256 file_hash = crypto::sha256_fast(*content);
    h.update(to_bytes(name));
    const std::uint8_t sep = 0;
    h.update(ByteView{&sep, 1});
    h.update(file_hash.view());
  }
  return h.finalize();
}

std::uint64_t EncryptedVolume::total_plaintext_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, blob] : blobs_) {
    const auto content = read_file(name);
    if (content.has_value()) total += content->size();
  }
  return total;
}

Bytes& EncryptedVolume::host_blob(const std::string& name) {
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) throw Error("host: no such blob: " + name);
  return it->second;
}

void EncryptedVolume::host_replace_blob(const std::string& name, Bytes blob) {
  blobs_[name] = std::move(blob);
}

}  // namespace sinclave::fs
