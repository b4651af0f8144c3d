// The serving path's session table: per session, one entry behind one
// mutex holding the verify-once memo and the pool of pre-minted
// credentials.
//
// A singleton retrieval (Fig. 7c) costs an RSA verification of the
// received common SigStruct, the MRENCLAVE prediction and an RSA-CRT
// signature of the on-demand SigStruct (about 2.1 ms at 3072 bit:
// perfbench `start`'s traced `cas.mint_ms` on a shared 4-core x86-64
// host). The table pays all three ahead of time:
//
//   * remember() records, once CasServer::check_common has verified a
//     session's common SigStruct, the policy's signer pin and base hash
//     with it (the entry's MintStamp), so a later retrieval sending the
//     same SigStruct under the same policy skips the verification;
//   * put_all() pools credentials CasServer::premint minted under the
//     remembered stamp; a deposit under any other stamp (a premint that
//     raced a policy rotation or a re-signed image) is discarded;
//   * take() is a retrieval's memo check and pop in one lookup, comparing
//     the request with the stamp in place.
//
// So every pooled credential was minted under its session's stamp:
// remembering another stamp discards the pool, and an equal one keeps it
// (two premints verifying one session at once). An on-demand SigStruct is
// its common one with another enclave hash and signature
// (core/on_demand.h), so a credential keeps only its token, MRENCLAVE and
// signature, and take() rebuilds the SigStruct after the lock. A pooled
// token is registered with CasService only when issued, and exactly once:
// the pop under the lock hands each credential to one request.
//
// Only remember() creates an entry, after a verification succeeded, so the
// table is bounded by installed policies. Pooled credentials are bounded
// by `capacity` across sessions; the least-recently-used session's oldest
// are evicted first (their tokens were never registered, so nothing can
// spend them).
#pragma once

#include <cstddef>
#include <deque>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cas/service.h"
#include "common/mutex.h"
#include "core/base_hash.h"

namespace sinclave::server {

/// What a session's credentials are minted from: CasService::mint_batch
/// under a policy with `base_hash`, from the verified `common` SigStruct.
struct MintStamp {
  core::BaseHash base_hash;
  sgx::SigStruct common;

  friend bool operator==(const MintStamp&, const MintStamp&) = default;
};

class SigStructCache {
 public:
  explicit SigStructCache(std::size_t capacity = 4096);

  /// What a retrieval's lookup found.
  struct Lookup {
    /// The session remembers the request's common SigStruct as verified
    /// under the policy's signer pin and base hash.
    bool verified = false;
    /// A hit (only when verified): the oldest credential pooled under
    /// that stamp, as minted; the caller serves it and registers its
    /// token. Empty: mint inline.
    std::optional<cas::MintedCredential> credential;
  };

  /// Remember that `session`'s common SigStruct `stamp.common` verified
  /// against signer pin `signer` and `stamp.base_hash`. Call only after
  /// verifying it: later lookups skip the RSA verification. A stamp equal
  /// to the remembered one keeps the pool; any other discards it.
  void remember(const std::string& session, const Hash256& signer,
                MintStamp stamp) EXCLUDES(mutex_);

  /// Whether `session` remembers `common` as verified under `signer` and
  /// `base_hash` (compared in place, as take() does).
  bool verified(const std::string& session, const Hash256& signer,
                const core::BaseHash& base_hash,
                const sgx::SigStruct& common) const EXCLUDES(mutex_);

  /// A retrieval's one lookup: the memo check, and on a match the pop of
  /// the oldest pooled credential, under one lock acquisition. The
  /// SigStruct is rebuilt from `common` after it.
  Lookup take(const std::string& session, const Hash256& signer,
              const core::BaseHash& base_hash, const sgx::SigStruct& common)
      EXCLUDES(mutex_);

  /// Deposit a batch of pre-minted, not-yet-issued credentials for
  /// `session`, in order, under one lock acquisition. Each must have been
  /// minted from `stamp` (its SigStruct is stamp.common with its own
  /// enclave hash and signature). Unless `session` remembers `stamp`, the
  /// batch is stale and discarded. May evict from the least-recently-used
  /// sessions if over capacity. Returns the number deposited.
  std::size_t put_all(const std::string& session, const MintStamp& stamp,
                      std::vector<cas::MintedCredential> credentials)
      EXCLUDES(mutex_);

  /// Credentials pooled for one session / across all sessions.
  std::size_t pooled(const std::string& session) const EXCLUDES(mutex_);
  std::size_t size() const EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  /// Sessions currently holding pooled credentials.
  std::size_t sessions() const EXCLUDES(mutex_);

 private:
  /// What a pooled credential keeps of its own; the rest is its stamp's.
  struct Pooled {
    core::AttestationToken token;
    sgx::Measurement mr_enclave;
    Bytes signature;
  };
  struct Entry {
    Hash256 signer;
    MintStamp stamp;
    /// Minted under `stamp`, oldest first.
    std::deque<Pooled> credentials;
    /// Position in lru_ while `credentials` is non-empty, else lru_.end().
    std::list<Entry*>::iterator lru_position;

    /// Compared in place: a lookup builds no MintStamp.
    bool remembers(const Hash256& pin, const core::BaseHash& base_hash,
                   const sgx::SigStruct& common) const {
      return signer == pin && stamp.base_hash == base_hash &&
             stamp.common == common;
    }
  };

  void discard_pool(Entry& entry) REQUIRES(mutex_);
  void evict_over_capacity() REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_{LockRank::kSigstructCache, "server.sigstruct_cache"};
  // Entries are never erased, so the pointers in lru_ stay valid.
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  /// Entries holding credentials, most recently used first.
  std::list<Entry*> lru_ GUARDED_BY(mutex_);
  std::size_t total_ GUARDED_BY(mutex_) = 0;
};

}  // namespace sinclave::server
