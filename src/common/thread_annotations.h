// Clang thread-safety annotations for the project's hand-rolled
// concurrency surface, plus the capability-annotated mutex wrappers the
// annotations attach to.
//
// The snapshot cache's unpublish-then-patch refresh, the ingest
// pipeline's one-request-per-lane handshake, the index publisher's
// defer-publish catch-up and the tenant registry's admission buckets
// all carry locking invariants that TSan can only check on the
// interleavings a test happens to hit.
// These macros let clang prove them on *every* build:
//
//   clang++ -Wthread-safety -Werror    (the CI static-analysis job)
//
// while expanding to nothing on GCC (and any compiler without the
// attribute), so the annotated tree stays a plain C++17 build there.
//
// Conventions (enforced by tools/lint/dta_lint.py rule `raw-mutex`):
//   * Lock-guarded classes hold a dta::Mutex, never a bare std::mutex
//     — libstdc++'s std::mutex carries no capability attributes, so
//     clang cannot see acquires through std::lock_guard and would flag
//     every guarded access as unlocked.
//   * Scopes lock with dta::MutexLock (RAII, scoped_capability).
//   * Data a mutex protects is declared DTA_GUARDED_BY(mu_); private
//     *_locked() helpers that expect the lock held are declared
//     DTA_REQUIRES(mu_) — annotations can name a parameter's member
//     too, e.g. DTA_REQUIRES(entry.refresh_mu).
//   * DTA_NO_THREAD_SAFETY_ANALYSIS is a last resort; every use needs
//     a comment explaining why the analysis cannot see the invariant.
#pragma once

#include <mutex>

#if defined(__clang__)
#define DTA_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DTA_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

// Class-level: the annotated type is a lockable capability / RAII scope.
#define DTA_CAPABILITY(x) DTA_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
#define DTA_SCOPED_CAPABILITY DTA_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// Data members: which capability guards the member (or, for pointers,
// the pointed-to data).
#define DTA_GUARDED_BY(x) DTA_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
#define DTA_PT_GUARDED_BY(x) DTA_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// Functions: capabilities they acquire, release, require held, or
// require *not* held (lock-order declarations ride on REQUIRES too).
#define DTA_ACQUIRE(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define DTA_RELEASE(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define DTA_TRY_ACQUIRE(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define DTA_REQUIRES(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define DTA_EXCLUDES(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define DTA_ACQUIRED_BEFORE(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define DTA_ACQUIRED_AFTER(...) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define DTA_RETURN_CAPABILITY(x) \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))
#define DTA_NO_THREAD_SAFETY_ANALYSIS \
  DTA_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace dta {

// std::mutex with the capability attribute clang's analysis needs.
// Zero-cost: the wrapper is exactly a std::mutex (same layout, inlined
// forwarding), it only exists to carry annotations.
class DTA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DTA_ACQUIRE() { mu_.lock(); }
  void unlock() DTA_RELEASE() { mu_.unlock(); }
  bool try_lock() DTA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // For interop that needs the raw handle (condition variables). The
  // analysis cannot follow locks taken through it; prefer MutexLock.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII lock scope over dta::Mutex — std::lock_guard with the
// scoped_capability attribute, so guarded accesses inside the scope
// type-check.
class DTA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DTA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DTA_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace dta
