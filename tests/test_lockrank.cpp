// Tests for the debug lock-rank deadlock detector (common/mutex.h).
//
// The detector aborts the process on a violation, so the violating cases
// are gtest death tests: the statement runs in a child process and the
// parent asserts it died with the diagnostic on stderr. The suite forces
// the detector on via lockrank::set_enabled(true) so it works identically
// in Release (tier-1) and Debug builds.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/mutex.h"

namespace sinclave {
namespace {

// Threads are spawned below, so the forking "fast" death-test style would
// be unsound; threadsafe re-executes the test body in a fresh child.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    lockrank::set_enabled(true);
  }
  void TearDown() override { lockrank::set_enabled(true); }

  // Ranks only matter relative to each other; these mirror a real chain.
  Mutex outer_{LockRank::kCasSigner, "test.outer"};       // rank 60
  Mutex inner_{LockRank::kCryptoRsaCtx, "test.inner"};    // rank 40
  Mutex inner2_{LockRank::kCryptoDrbg, "test.inner2"};    // rank 38
  Mutex peer_{LockRank::kCryptoRsaCtx, "test.peer"};      // rank 40 (equal)
};

TEST_F(LockRankTest, CorrectOrderPasses) {
  EXPECT_EQ(lockrank::held_count(), 0u);
  {
    MutexLock a(outer_);
    EXPECT_EQ(lockrank::held_count(), 1u);
    {
      MutexLock b(inner_);
      MutexLock c(inner2_);
      EXPECT_EQ(lockrank::held_count(), 3u);
    }
    EXPECT_EQ(lockrank::held_count(), 1u);
  }
  EXPECT_EQ(lockrank::held_count(), 0u);
}

TEST_F(LockRankTest, RankInversionDies) {
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        MutexLock a(inner_);
        MutexLock b(outer_);  // 60 while holding 40: inversion
      },
      "rank inversion");
}

TEST_F(LockRankTest, EqualRankDies) {
  // Two locks of the same rank must never nest: each side of an AB/BA
  // deadlock is individually "equal rank under equal rank".
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        MutexLock a(inner_);
        MutexLock b(peer_);
      },
      "rank inversion");
}

TEST_F(LockRankTest, RecursiveAcquisitionDies) {
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        outer_.lock();
        outer_.lock();
      },
      "recursive acquisition");
}

TEST_F(LockRankTest, SuccessfulTryLockIsCheckedStrictly) {
  // An out-of-order try_lock that SUCCEEDS still establishes a deadlock-
  // capable order against the blocking path, so it dies like lock().
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        MutexLock a(inner_);
        (void)outer_.try_lock();
      },
      "rank inversion");
}

TEST_F(LockRankTest, FailedTryLockLeavesStackUntouched) {
  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    MutexLock lock(outer_);
    locked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!locked.load()) std::this_thread::yield();
  EXPECT_FALSE(outer_.try_lock());
  EXPECT_EQ(lockrank::held_count(), 0u);
  release.store(true);
  holder.join();
}

TEST_F(LockRankTest, HeldStackIsPerThread) {
  // This thread parks on an inner (low-rank) lock; another thread may
  // still run a full outer->inner chain — ranks are per thread, not
  // global state.
  MutexLock low(inner2_);
  std::thread other([&] {
    EXPECT_EQ(lockrank::held_count(), 0u);
    MutexLock a(outer_);
    MutexLock b(inner_);
    EXPECT_EQ(lockrank::held_count(), 2u);
  });
  other.join();
  EXPECT_EQ(lockrank::held_count(), 1u);
}

TEST_F(LockRankTest, CondVarWaitReleasesAndReacquiresRank) {
  CondVar cv;
  Mutex mu(LockRank::kThreadPool, "test.cv");
  bool flag = false;
  std::atomic<bool> waiting{false};

  std::thread waiter([&] {
    MutexLock lock(mu);
    EXPECT_EQ(lockrank::held_count(), 1u);
    waiting.store(true);
    while (!flag) cv.wait(mu);
    // Reacquired through the wait: the rank stack must be intact.
    EXPECT_EQ(lockrank::held_count(), 1u);
  });

  while (!waiting.load()) std::this_thread::yield();
  {
    // Acquiring mu here proves the waiter released it inside wait() —
    // and that its rank entry was popped (this thread's stack is its own,
    // but a still-held mu would simply deadlock this lock).
    MutexLock lock(mu);
    flag = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_EQ(lockrank::held_count(), 0u);
}

TEST_F(LockRankTest, SharedMutexFollowsSameRankRules) {
  SharedMutex db(LockRank::kCasPolicyDb, "test.db");
  {
    MutexLock a(outer_);
    ReaderLock r(db);  // 56 under 60: fine
    EXPECT_EQ(lockrank::held_count(), 2u);
  }
  {
    WriterLock w(db);
    MutexLock b(inner_);  // 40 under 56: fine
  }
  EXPECT_EQ(lockrank::held_count(), 0u);
}

TEST_F(LockRankTest, SharedReaderAboveHigherRankDies) {
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        SharedMutex db(LockRank::kCasPolicyDb, "test.db");
        MutexLock a(inner_);  // 40
        ReaderLock r(db);     // 56 over 40: inversion, reader or not
      },
      "rank inversion");
}

TEST_F(LockRankTest, SharedReacquisitionDies) {
  // reader -> (queued writer) -> same-thread reader deadlocks on a real
  // shared_mutex; the detector refuses the reacquisition outright.
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        SharedMutex db(LockRank::kCasPolicyDb, "test.db");
        db.lock_shared();
        db.lock_shared();
      },
      "recursive acquisition");
}

TEST_F(LockRankTest, AssertNoneHeldPassesWhenFree) {
  lockrank::assert_none_held("test section");  // must not abort
}

TEST_F(LockRankTest, AssertNoneHeldDiesUnderAnyLock) {
  EXPECT_DEATH(
      {
        lockrank::set_enabled(true);
        MutexLock a(inner2_);
        lockrank::assert_none_held("handshake crypto");
      },
      "must run with no locks held");
}

TEST_F(LockRankTest, DisabledDetectorIgnoresViolations) {
  lockrank::set_enabled(false);
  EXPECT_FALSE(lockrank::enabled());
  // The same shapes that die above run silently with the detector off
  // (different mutexes, so no real deadlock — only the *order* is wrong).
  inner_.lock();
  outer_.lock();
  outer_.unlock();
  inner_.unlock();
  lockrank::set_enabled(true);
  EXPECT_TRUE(lockrank::enabled());
  EXPECT_EQ(lockrank::held_count(), 0u);
  // And a release of a lock taken while disabled is silently ignored.
  lockrank::set_enabled(false);
  outer_.lock();
  lockrank::set_enabled(true);
  outer_.unlock();
  EXPECT_EQ(lockrank::held_count(), 0u);
}

}  // namespace
}  // namespace sinclave
