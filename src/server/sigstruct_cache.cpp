#include "server/sigstruct_cache.h"

#include <utility>

namespace sinclave::server {

SigStructCache::SigStructCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SigStructCache::discard_pool(Entry& entry) {
  total_ -= entry.credentials.size();
  entry.credentials.clear();
  if (entry.lru_position != lru_.end()) {
    lru_.erase(entry.lru_position);
    entry.lru_position = lru_.end();
  }
}

void SigStructCache::evict_over_capacity() {
  // Discard the oldest credentials of the least recently used sessions.
  // Unissued tokens were never registered, so a discarded credential is
  // dead weight, not a dangling capability.
  while (total_ > capacity_) {
    Entry& victim = *lru_.back();
    victim.credentials.pop_front();
    --total_;
    if (victim.credentials.empty()) {
      lru_.pop_back();
      victim.lru_position = lru_.end();
    }
  }
}

void SigStructCache::remember(const std::string& session,
                              const Hash256& signer, MintStamp stamp) {
  MutexLock lock(mutex_);
  const auto [it, created] = entries_.try_emplace(session);
  Entry& entry = it->second;
  if (created) entry.lru_position = lru_.end();
  // Credentials minted from another stamp are stale: discarded whole,
  // never served.
  if (created || entry.stamp != stamp) {
    discard_pool(entry);
    entry.stamp = std::move(stamp);
  }
  entry.signer = signer;
}

bool SigStructCache::verified(const std::string& session,
                              const Hash256& signer,
                              const core::BaseHash& base_hash,
                              const sgx::SigStruct& common) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(session);
  return it != entries_.end() &&
         it->second.remembers(signer, base_hash, common);
}

SigStructCache::Lookup SigStructCache::take(const std::string& session,
                                            const Hash256& signer,
                                            const core::BaseHash& base_hash,
                                            const sgx::SigStruct& common) {
  Lookup found;
  std::optional<Pooled> popped;
  {
    MutexLock lock(mutex_);
    const auto it = entries_.find(session);
    if (it == entries_.end() ||
        !it->second.remembers(signer, base_hash, common))
      return found;
    found.verified = true;
    Entry& entry = it->second;
    if (entry.credentials.empty()) return found;
    popped = std::move(entry.credentials.front());
    entry.credentials.pop_front();
    --total_;
    if (entry.credentials.empty()) {
      lru_.erase(entry.lru_position);
      entry.lru_position = lru_.end();
    } else {
      lru_.splice(lru_.begin(), lru_, entry.lru_position);
    }
  }
  // `common` equals the stamp, so the rebuilt SigStruct is the minted one.
  cas::MintedCredential& credential = found.credential.emplace();
  credential.token = popped->token;
  credential.mr_enclave = popped->mr_enclave;
  credential.sigstruct = common;
  credential.sigstruct.enclave_hash = popped->mr_enclave;
  credential.sigstruct.signature = std::move(popped->signature);
  return found;
}

std::size_t SigStructCache::put_all(
    const std::string& session, const MintStamp& stamp,
    std::vector<cas::MintedCredential> credentials) {
  if (credentials.empty()) return 0;
  MutexLock lock(mutex_);
  const auto it = entries_.find(session);
  if (it == entries_.end() || it->second.stamp != stamp) return 0;
  Entry& entry = it->second;
  for (cas::MintedCredential& credential : credentials) {
    entry.credentials.push_back(
        Pooled{credential.token, credential.mr_enclave,
               std::move(credential.sigstruct.signature)});
  }
  total_ += credentials.size();
  if (entry.lru_position == lru_.end()) {
    lru_.push_front(&entry);
    entry.lru_position = lru_.begin();
  } else {
    lru_.splice(lru_.begin(), lru_, entry.lru_position);
  }
  evict_over_capacity();
  return credentials.size();
}

std::size_t SigStructCache::pooled(const std::string& session) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(session);
  return it == entries_.end() ? 0 : it->second.credentials.size();
}

std::size_t SigStructCache::size() const {
  MutexLock lock(mutex_);
  return total_;
}

std::size_t SigStructCache::sessions() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

}  // namespace sinclave::server
