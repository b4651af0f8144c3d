#include "server/sigstruct_cache.h"

namespace sinclave::server {

namespace {
/// The stamp a retrieval pops by is the verify memo's, the very one
/// premint deposited under, so the address usually decides.
bool same_stamp(const MintStamp& a, const MintStamp& b) {
  return &a == &b || a == b;
}
}  // namespace

SigStructCache::SigStructCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

SigStructCache::SessionPool& SigStructCache::touch(
    const std::string& session) {
  auto it = pools_.find(session);
  if (it == pools_.end()) {
    it = pools_.emplace(session, std::make_shared<SessionPool>()).first;
    lru_.push_front(session);
    it->second->lru_position = lru_.begin();
  } else {
    lru_.splice(lru_.begin(), lru_, it->second->lru_position);
  }
  return *it->second;
}

void SigStructCache::evict_over_capacity() {
  // Walk sessions from least recently used, discarding their oldest
  // pre-minted credentials. Unissued tokens were never registered, so a
  // discarded credential is dead weight, not a dangling capability. Pools
  // drained to zero are erased entirely (concurrent holders keep the pool
  // alive through their shared_ptr and simply miss).
  auto it = lru_.end();
  while (total_.load() > capacity_ && it != lru_.begin()) {
    --it;
    const std::string victim = *it;
    const std::shared_ptr<SessionPool> pool = pools_.at(victim);
    bool empty;
    {
      MutexLock pool_lock(pool->mutex);
      while (total_.load() > capacity_ && !pool->runs.empty()) {
        Run& oldest = pool->runs.front();
        oldest.credentials.pop_front();
        if (oldest.credentials.empty()) pool->runs.pop_front();
        --total_;
      }
      empty = pool->runs.empty();
    }
    if (empty) {
      pools_.erase(victim);
      it = lru_.erase(it);
    }
  }
}

void SigStructCache::erase_if_drained(const std::string& session) {
  // Takes and flushes erase the pools they drained, same as eviction
  // does, so the session map stays bounded by live credentials — not by
  // every session ever served. The local shared_ptr keeps the pool (and
  // the mutex inside it) alive until after the lock is released.
  std::shared_ptr<SessionPool> pool;
  MutexLock lock(mutex_);
  const auto it = pools_.find(session);
  if (it == pools_.end()) return;
  pool = it->second;
  {
    MutexLock pool_lock(pool->mutex);
    if (!pool->runs.empty()) return;  // repopulated meanwhile
    lru_.erase(pool->lru_position);
    pools_.erase(it);
  }
}

std::size_t SigStructCache::put_all(
    const std::string& session, std::shared_ptr<const MintStamp> stamp,
    std::vector<cas::MintedCredential> credentials) {
  if (credentials.empty()) return 0;
  const std::size_t n = credentials.size();
  MutexLock lock(mutex_);
  SessionPool& pool = touch(session);
  {
    MutexLock pool_lock(pool.mutex);
    if (pool.runs.empty() || !same_stamp(*pool.runs.back().stamp, *stamp))
      pool.runs.emplace_back().stamp = std::move(stamp);
    std::deque<Pooled>& run = pool.runs.back().credentials;
    for (cas::MintedCredential& credential : credentials)
      run.push_back(Pooled{credential.token, credential.mr_enclave,
                           std::move(credential.sigstruct.signature)});
    total_ += n;
  }
  if (total_.load() > capacity_) evict_over_capacity();
  return n;
}

std::optional<cas::MintedCredential> SigStructCache::take(
    const std::string& session, const MintStamp& stamp) {
  std::shared_ptr<SessionPool> pool;
  {
    MutexLock lock(mutex_);
    const auto it = pools_.find(session);
    if (it == pools_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second->lru_position);
    pool = it->second;
  }
  std::optional<Pooled> popped;
  bool drained;
  {
    MutexLock pool_lock(pool->mutex);
    // Runs minted from another stamp are stale: discarded whole, never
    // served.
    while (!pool->runs.empty() &&
           !same_stamp(*pool->runs.front().stamp, stamp)) {
      total_ -= pool->runs.front().credentials.size();
      pool->runs.pop_front();
    }
    if (!pool->runs.empty()) {
      Run& current = pool->runs.front();
      popped = std::move(current.credentials.front());
      current.credentials.pop_front();
      if (current.credentials.empty()) pool->runs.pop_front();
      --total_;
    }
    drained = pool->runs.empty();
  }
  if (drained) erase_if_drained(session);
  if (!popped.has_value()) return std::nullopt;

  cas::MintedCredential credential;
  credential.token = popped->token;
  credential.mr_enclave = popped->mr_enclave;
  credential.sigstruct = stamp.common;
  credential.sigstruct.enclave_hash = popped->mr_enclave;
  credential.sigstruct.signature = std::move(popped->signature);
  return credential;
}

std::size_t SigStructCache::flush(const std::string& session) {
  MutexLock lock(mutex_);
  const auto it = pools_.find(session);
  if (it == pools_.end()) return 0;
  // Local shared_ptr keeps the pool (and its locked mutex) alive past the
  // map erase below.
  const std::shared_ptr<SessionPool> pool = it->second;
  std::size_t n = 0;
  {
    MutexLock pool_lock(pool->mutex);
    for (const Run& run : pool->runs) n += run.credentials.size();
    pool->runs.clear();
    total_ -= n;
  }
  // Drained by definition — erase inline rather than re-acquiring the
  // locks through erase_if_drained.
  lru_.erase(pool->lru_position);
  pools_.erase(it);
  return n;
}

std::size_t SigStructCache::pooled(const std::string& session) const {
  std::shared_ptr<SessionPool> pool;
  {
    MutexLock lock(mutex_);
    const auto it = pools_.find(session);
    if (it == pools_.end()) return 0;
    pool = it->second;
  }
  MutexLock pool_lock(pool->mutex);
  std::size_t n = 0;
  for (const Run& run : pool->runs) n += run.credentials.size();
  return n;
}

std::size_t SigStructCache::sessions() const {
  MutexLock lock(mutex_);
  return pools_.size();
}

}  // namespace sinclave::server
