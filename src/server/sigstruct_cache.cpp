#include "server/sigstruct_cache.h"

namespace sinclave::server {

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
      while (total_.load() > capacity_ && !pool->credentials.empty()) {
        pool->credentials.pop_front();
        --total_;
      }
      empty = pool->credentials.empty();
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
    if (!pool->credentials.empty()) return;  // repopulated meanwhile
    lru_.erase(pool->lru_position);
    pools_.erase(it);
  }
}

std::size_t SigStructCache::put_all(
    const std::string& session,
    std::vector<cas::MintedCredential> credentials) {
  if (credentials.empty()) return 0;
  const std::size_t n = credentials.size();
  MutexLock lock(mutex_);
  SessionPool& pool = touch(session);
  {
    MutexLock pool_lock(pool.mutex);
    for (cas::MintedCredential& credential : credentials)
      pool.credentials.push_back(std::move(credential));
    total_ += n;
  }
  if (total_.load() > capacity_) evict_over_capacity();
  return n;
}

std::optional<cas::MintedCredential> SigStructCache::take_if(
    const std::string& session,
    const std::function<bool(const cas::MintedCredential&)>& valid) {
  std::shared_ptr<SessionPool> pool;
  {
    MutexLock lock(mutex_);
    const auto it = pools_.find(session);
    if (it == pools_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second->lru_position);
    pool = it->second;
  }
  std::optional<cas::MintedCredential> result;
  bool drained;
  {
    MutexLock pool_lock(pool->mutex);
    // Credentials `valid` rejects are stale: discarded, not served.
    while (!pool->credentials.empty()) {
      cas::MintedCredential cred = std::move(pool->credentials.front());
      pool->credentials.pop_front();
      --total_;
      if (valid(cred)) {
        result = std::move(cred);
        break;
      }
    }
    drained = pool->credentials.empty();
  }
  if (drained) erase_if_drained(session);
  return result;
}

std::size_t SigStructCache::flush(const std::string& session) {
  MutexLock lock(mutex_);
  const auto it = pools_.find(session);
  if (it == pools_.end()) return 0;
  // Local shared_ptr keeps the pool (and its locked mutex) alive past the
  // map erase below.
  const std::shared_ptr<SessionPool> pool = it->second;
  std::size_t n;
  {
    MutexLock pool_lock(pool->mutex);
    n = pool->credentials.size();
    pool->credentials.clear();
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
  return pool->credentials.size();
}

std::size_t SigStructCache::sessions() const {
  MutexLock lock(mutex_);
  return pools_.size();
}

}  // namespace sinclave::server
