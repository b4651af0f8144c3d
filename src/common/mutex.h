#pragma once

// Annotated mutex wrappers + the debug lock-rank deadlock detector.
//
// Every mutex in src/ is a `sinclave::Mutex` or `sinclave::SharedMutex`
// (tools/lint_invariants.py fails the build on raw std::mutex outside this
// header and its .cpp). That buys two layers of enforcement:
//
//  1. Compile time — the wrappers carry Clang Thread Safety Analysis
//     attributes (common/thread_annotations.h), so GUARDED_BY members,
//     REQUIRES/REQUIRES_NOT contracts and scoped guards are checked by the
//     clang `-Wthread-safety -Werror` CI build.
//
//  2. Debug runtime — every mutex carries a static LockRank. A
//     thread-local held-rank stack asserts that acquisition order is
//     strictly rank-decreasing and never recursive, which deterministically
//     catches *potential* deadlocks (any cycle in the lock graph implies a
//     rank inversion on some thread) that TSAN can only catch when the
//     losing interleaving actually runs. This subsumes the old ad-hoc
//     `tls_secure_server_locks_held` counter in net/secure_channel.cpp.
//
// The detector is compiled in always and gated by a relaxed atomic flag:
// on by default in debug builds (!NDEBUG), off in release, overridable
// either way with SINCLAVE_LOCK_RANK=0/1 in the environment or
// lockrank::set_enabled() (used by tests/test_lockrank.cpp to exercise the
// detector in release builds).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace sinclave {

/// Global lock ordering, one rank per lock role. Higher rank = outer lock:
/// while holding a lock, a thread may only acquire locks of *strictly
/// lower* rank. The table mirrors the real call graph (see README "Static
/// analysis & invariants" for the prose version):
///
///   - workload/client aggregates sit on top: they are entered from user
///     threads holding nothing and call down into the SDK;
///   - the server frontend (its session table, the SigStruct cache) sits
///     above the metrics registry, whose collectors reach into service
///     shards;
///   - cas/ service locks: signer map above the RSA context lock (moving a
///     keypair into the map locks the source key's context), token stripes
///     above the observe hook;
///   - leaves (trace registration, DRBG stripes, sim-network core) are
///     acquired with callbacks and crypto already outside all locks.
enum class LockRank : std::uint16_t {
  kWorkloadPlatform = 112,  // ClusterBed's simulated-CPU/QE serialization
                            // (SgxCpu and QuotingEnclave are not internally
                            // synchronized; held across enclave construction
                            // and quoting, never across network calls)
  kWorkloadResult = 110,    // load_gen result aggregation / open-loop state
  kClientConnection = 100,  // cas::CasClient connection cache
  kClientBreaker = 98,      // cas::CasClient circuit-breaker state
  kSigstructCache = 90,     // server::SigStructCache session table
  kThreadPool = 86,         // server::ThreadPool queue
  kMetricsRegistry = 80,    // obs::MetricsRegistry collector list
  kClusterLifecycle = 76,   // server::ClusterNode incarnation swap (held
                            // across a restart's RaftCore start and
                            // endpoint bind, both lower)
  kClusterRaft = 64,        // cas::RaftCore consensus state (above the CAS
                            // ranks: the leader applies committed entries
                            // into the policy table / token stripes while
                            // holding it)
  kCasSigner = 60,          // cas::CasService signer key map
  kCasRng = 58,             // cas::CasService root RNG
  kCasPolicyDb = 56,        // cas::CasService policy table (shared)
  kCasTokenStripe = 54,     // cas::CasService token-spend stripe
  kCasObserve = 48,         // cas::CasService attestation observer hook
  kCryptoRsaCtx = 40,       // crypto::RsaPublicKey verify-context build
  kCryptoDrbg = 38,         // crypto::DrbgPool stripe
  kNetCore = 30,            // net::SimNetwork listener/in-flight core
  kNetFault = 29,           // net::FaultInjector trace log
  kNetWaiter = 28,          // net::SimNetwork synchronous-call waiter
  kTimerWheel = 26,         // net::TimerWheel heap
  kObsTrace = 10,           // obs::Tracer cold-path state (phase registry)
};

namespace lockrank {

/// True when the lock-rank detector is active. Resolved once from the
/// build type (!NDEBUG => on) and the SINCLAVE_LOCK_RANK env override;
/// set_enabled() changes it afterwards. One relaxed load on the fast path.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Number of ranked locks the calling thread currently holds.
std::size_t held_count() noexcept;

/// Aborts (when enabled) if the calling thread holds any ranked lock.
/// This is the runtime form of REQUIRES_NOT(<everything>): it guards the
/// crypto-heavy paths ("handshake crypto outside locks") where the set of
/// locks that must be free is every lock in the process.
void assert_none_held(const char* what) noexcept;

namespace internal {
void check_acquire(const void* mutex, LockRank rank, const char* name,
                   const char* mode) noexcept;
void note_acquired(const void* mutex, LockRank rank, const char* name,
                   const char* mode) noexcept;
void note_released(const void* mutex) noexcept;
}  // namespace internal

}  // namespace lockrank

/// std::mutex with TSA annotations and a static lock rank.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE();
  void unlock() RELEASE();
  bool try_lock() TRY_ACQUIRE(true);

  /// Dynamic "I know this is held" assertion for paths the static
  /// analysis cannot follow (no-op at runtime; informs TSA only).
  void assert_held() const ASSERT_CAPABILITY(this) {}

  LockRank rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  std::mutex m_;
  const LockRank rank_;
  const char* const name_;
};

/// std::shared_mutex with TSA annotations and a static lock rank.
/// Shared (reader) acquisition follows the same rank rules as exclusive:
/// a reader still participates in deadlock cycles via queued writers.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE();
  void unlock() RELEASE();
  void lock_shared() ACQUIRE_SHARED();
  void unlock_shared() RELEASE_SHARED();

  LockRank rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  std::shared_mutex m_;
  const LockRank rank_;
  const char* const name_;
};

/// Scoped exclusive lock (abseil-style MutexLock). The only way most code
/// should take a Mutex: the scoped form is what TSA tracks through block
/// structure.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with sinclave::Mutex. Waiting releases and
/// reacquires through Mutex::unlock()/lock(), so the lock-rank stack stays
/// correct across the wait (popped while blocked, re-checked on wake).
///
/// TSA note: prefer explicit `while (!cond) cv.wait(mu);` loops at call
/// sites over the predicate overload — the analysis sees guarded-member
/// reads inline in the calling function, but cannot see through a
/// predicate lambda.
class CondVar {
 public:
  void wait(Mutex& mu) REQUIRES(mu);
  std::cv_status wait_until(Mutex& mu,
                            std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu);
  std::cv_status wait_for(Mutex& mu, std::chrono::nanoseconds rel)
      REQUIRES(mu);

  /// Predicate form, for test helpers; see the TSA note above.
  template <class Pred>
  void wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) wait(mu);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace sinclave
