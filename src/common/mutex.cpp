#include "common/mutex.h"

#include <cstdio>
#include <cstdlib>

namespace sinclave {

namespace lockrank {

namespace {

struct Held {
  const void* mutex;
  LockRank rank;
  const char* name;
  const char* mode;  // "exclusive" | "shared"
};

// Deepest real chain today is 3 (e.g. registry -> rng -> nothing); 32
// leaves headroom without a heap allocation in the lock path.
constexpr std::size_t kMaxHeld = 32;

thread_local Held t_held[kMaxHeld];
thread_local std::size_t t_depth = 0;

// -1 = unresolved, 0 = off, 1 = on. Resolved lazily so the env override
// works without any static-init ordering requirements.
std::atomic<int> g_enabled{-1};

int resolve_enabled() noexcept {
#ifdef NDEBUG
  bool on = false;
#else
  bool on = true;
#endif
  if (const char* env = std::getenv("SINCLAVE_LOCK_RANK"))
    on = env[0] != '0';
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                    std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

void dump_held_stack() noexcept {
  for (std::size_t i = 0; i < t_depth; ++i)
    std::fprintf(stderr, "  held[%zu]: %s (rank %u, %s, %p)\n", i,
                 t_held[i].name, static_cast<unsigned>(t_held[i].rank),
                 t_held[i].mode, t_held[i].mutex);
}

[[noreturn]] void die(const char* kind, const void* mutex, LockRank rank,
                      const char* name, const char* mode) noexcept {
  std::fprintf(stderr,
               "lock-rank violation: %s acquiring %s (rank %u, %s, %p); "
               "locks held by this thread:\n",
               kind, name, static_cast<unsigned>(rank), mode, mutex);
  dump_held_stack();
  std::fflush(stderr);
  std::abort();
}

}  // namespace

bool enabled() noexcept {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) v = resolve_enabled();
  return v == 1;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t held_count() noexcept { return t_depth; }

void assert_none_held(const char* what) noexcept {
  if (!enabled() || t_depth == 0) return;
  std::fprintf(stderr,
               "lock-rank violation: %s must run with no locks held; "
               "locks held by this thread:\n",
               what);
  dump_held_stack();
  std::fflush(stderr);
  std::abort();
}

namespace internal {

void check_acquire(const void* mutex, LockRank rank, const char* name,
                   const char* mode) noexcept {
  if (!enabled() || t_depth == 0) return;
  for (std::size_t i = 0; i < t_depth; ++i)
    if (t_held[i].mutex == mutex)
      die("recursive acquisition", mutex, rank, name, mode);
  const Held& top = t_held[t_depth - 1];
  if (rank >= top.rank)
    die("rank inversion (acquisition order must be strictly "
        "rank-decreasing)",
        mutex, rank, name, mode);
}

void note_acquired(const void* mutex, LockRank rank, const char* name,
                   const char* mode) noexcept {
  if (!enabled()) return;
  if (t_depth == kMaxHeld)
    die("held-lock stack overflow", mutex, rank, name, mode);
  t_held[t_depth++] = Held{mutex, rank, name, mode};
}

void note_released(const void* mutex) noexcept {
  if (!enabled() || t_depth == 0) return;
  // Search from the top: releases are LIFO in practice, but a lock taken
  // while the detector was disabled (or before set_enabled(true)) may be
  // absent — that release is silently ignored.
  for (std::size_t i = t_depth; i-- > 0;) {
    if (t_held[i].mutex != mutex) continue;
    for (std::size_t j = i + 1; j < t_depth; ++j) t_held[j - 1] = t_held[j];
    --t_depth;
    return;
  }
}

}  // namespace internal

}  // namespace lockrank

void Mutex::lock() {
  lockrank::internal::check_acquire(this, rank_, name_, "exclusive");
  m_.lock();
  lockrank::internal::note_acquired(this, rank_, name_, "exclusive");
}

void Mutex::unlock() {
  m_.unlock();
  lockrank::internal::note_released(this);
}

bool Mutex::try_lock() {
  if (!m_.try_lock()) return false;
  // A successful out-of-order try_lock is a real ordering violation: the
  // thread now holds locks in an order that can deadlock against the
  // blocking path, so it is checked as strictly as lock().
  lockrank::internal::check_acquire(this, rank_, name_, "exclusive");
  lockrank::internal::note_acquired(this, rank_, name_, "exclusive");
  return true;
}

void SharedMutex::lock() {
  lockrank::internal::check_acquire(this, rank_, name_, "exclusive");
  m_.lock();
  lockrank::internal::note_acquired(this, rank_, name_, "exclusive");
}

void SharedMutex::unlock() {
  m_.unlock();
  lockrank::internal::note_released(this);
}

void SharedMutex::lock_shared() {
  // Same-thread shared reacquisition is forbidden too (check_acquire's
  // recursion scan): it deadlocks against a writer queued between the two
  // reader acquisitions.
  lockrank::internal::check_acquire(this, rank_, name_, "shared");
  m_.lock_shared();
  lockrank::internal::note_acquired(this, rank_, name_, "shared");
}

void SharedMutex::unlock_shared() {
  m_.unlock_shared();
  lockrank::internal::note_released(this);
}

void CondVar::wait(Mutex& mu) {
  // condition_variable_any drives mu.unlock()/mu.lock(), so the rank
  // stack is popped while blocked and re-checked on reacquisition.
  cv_.wait(mu);
}

std::cv_status CondVar::wait_until(
    Mutex& mu, std::chrono::steady_clock::time_point deadline) {
  return cv_.wait_until(mu, deadline);
}

std::cv_status CondVar::wait_for(Mutex& mu, std::chrono::nanoseconds rel) {
  return cv_.wait_for(mu, rel);
}

}  // namespace sinclave
