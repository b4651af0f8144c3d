// LRU cache of pre-minted on-demand SigStructs.
//
// Every singleton enclave needs a unique MRENCLAVE, so an on-demand
// SigStruct can never be *reused* — a "cache hit" here means the RSA-CRT
// signature (about 2.1 ms at 3072 bit: perfbench `start`'s traced
// `cas.mint_ms` on a shared 4-core x86-64 host) and the MRENCLAVE
// prediction were already paid ahead of time: CasServer::premint signs
// credentials (token + predicted MRENCLAVE + signed SigStruct) into
// per-session pools, and a retrieval pops one instead of signing inline.
// One-time-token and singleton accounting are untouched: a pooled
// credential's token is registered with CasService only at the moment it
// is issued, and registered exactly once because the pop under the
// per-session lock hands each credential to exactly one request.
//
// Credentials are deposited under a MintStamp: what they were minted
// from, the policy's base hash and the verified common SigStruct. An
// on-demand SigStruct is its common one with another enclave hash and
// signature (core/on_demand.h), so the pool keeps the stamp once and, per
// credential, only the token, the MRENCLAVE and the signature; take()
// rebuilds the SigStruct, byte for byte the minted one, after the pop.
// Consecutive deposits under one stamp share a run; a take discards
// whole every run stamped otherwise than the request (a rotated policy, a
// re-signed image, a premint that raced either), so a take compares
// stamps and hashes nothing.
//
// Pools are keyed by session; capacity is bounded across sessions, and
// the pool of the least-recently-served session is evicted first (its
// unsold credentials are simply discarded — their tokens were never
// registered, so nothing can spend them). A session pool drained to
// zero — by eviction, take, or flush — is erased outright, so the session
// map is bounded by live credentials, not by sessions ever served.
#pragma once

#include <atomic>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cas/service.h"
#include "common/mutex.h"
#include "core/base_hash.h"

namespace sinclave::server {

/// What a pool's credentials were minted from: CasService::mint_batch
/// under a policy with `base_hash`, from the verified `common` SigStruct.
struct MintStamp {
  core::BaseHash base_hash;
  sgx::SigStruct common;

  friend bool operator==(const MintStamp&, const MintStamp&) = default;
};

class SigStructCache {
 public:
  explicit SigStructCache(std::size_t capacity = 4096);

  /// Deposit a batch of pre-minted, not-yet-issued credentials for
  /// `session` under one lock acquisition, in order. Each must have been
  /// minted from `stamp` (its SigStruct is stamp->common with its own
  /// enclave hash and signature). May evict from the least-recently-used
  /// sessions if over capacity. Returns the number deposited.
  std::size_t put_all(const std::string& session,
                      std::shared_ptr<const MintStamp> stamp,
                      std::vector<cas::MintedCredential> credentials)
      EXCLUDES(mutex_);

  /// Pop the oldest credential `session` holds under `stamp`, discarding
  /// whole every older run deposited under another stamp (they are
  /// stale). Hit: the credential as minted, and the caller serves it (and
  /// must register its token). Miss: nullopt, mint inline. The pool lock
  /// covers the stamp comparison and the pop; the SigStruct is rebuilt
  /// after it.
  std::optional<cas::MintedCredential> take(const std::string& session,
                                            const MintStamp& stamp)
      EXCLUDES(mutex_);

  /// Discard every pooled credential of one session. Returns the number
  /// discarded.
  std::size_t flush(const std::string& session) EXCLUDES(mutex_);

  /// Credentials pooled for one session / across all sessions.
  std::size_t pooled(const std::string& session) const EXCLUDES(mutex_);
  std::size_t size() const { return total_.load(); }
  std::size_t capacity() const { return capacity_; }
  /// Distinct sessions currently holding a pool (bounded by eviction).
  std::size_t sessions() const EXCLUDES(mutex_);

 private:
  /// What a pooled credential keeps of its own; the rest is its stamp's.
  struct Pooled {
    core::AttestationToken token;
    sgx::Measurement mr_enclave;
    Bytes signature;
  };
  /// Consecutive deposits under one stamp, oldest first; never empty
  /// while in a pool.
  struct Run {
    std::shared_ptr<const MintStamp> stamp;
    std::deque<Pooled> credentials;
  };
  struct SessionPool {
    mutable Mutex mutex{LockRank::kSigstructPool, "server.sigstruct_pool"};
    std::deque<Run> runs GUARDED_BY(mutex);
    /// Position in the LRU list (most recently used at the front).
    /// Guarded by the *cache* mutex_, not the pool mutex — it indexes
    /// cache-level state (a cross-object guard TSA cannot spell).
    std::list<std::string>::iterator lru_position;
  };

  /// Find-or-create the session pool and mark it most recently used.
  SessionPool& touch(const std::string& session) REQUIRES(mutex_);
  void evict_over_capacity() REQUIRES(mutex_);
  /// Erase `session`'s pool if it holds no credentials (keeps the session
  /// map bounded).
  void erase_if_drained(const std::string& session) REQUIRES_NOT(mutex_);

  const std::size_t capacity_;
  // Guards pools_ map + lru_ list.
  mutable Mutex mutex_{LockRank::kSigstructCache, "server.sigstruct_cache"};
  // shared_ptr (not unique_ptr): take works on the pool outside mutex_,
  // and eviction may erase the map entry meanwhile.
  std::unordered_map<std::string, std::shared_ptr<SessionPool>> pools_
      GUARDED_BY(mutex_);
  std::list<std::string> lru_ GUARDED_BY(mutex_);
  std::atomic<std::size_t> total_{0};
};

}  // namespace sinclave::server
