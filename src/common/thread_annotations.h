/// \file thread_annotations.h
/// \brief Clang thread-safety annotations and the annotated locking
/// primitives every concurrent structure in src/ is built on.
///
/// The serving stack is a long-running threaded process (predictd's
/// connection threads, the dispatcher, the worker pool, the sharded
/// solve cache), and its determinism guarantee — served responses
/// byte-identical to offline evaluation — rests on lock discipline.
/// These macros make that discipline machine-checked: under Clang,
/// `-Wthread-safety` (enabled for all clang builds in CMakeLists.txt)
/// turns "this member is read without its mutex" and "these functions
/// acquire locks in conflicting orders" into compile errors. Under
/// other compilers the annotations expand to nothing and the wrappers
/// are zero-cost veneers over the std primitives.
///
/// Usage pattern (see solve_cache.h for a complete example):
///
/// \code{.cc}
///   class Counter {
///    public:
///     void Add(int n) {
///       MutexLock lock(mu_);
///       total_ += n;          // OK: mu_ held
///     }
///    private:
///     mutable Mutex mu_;
///     int total_ GUARDED_BY(mu_) = 0;  // unlocked access = compile error
///   };
/// \endcode
///
/// Condition waits go through `CondVar::Wait(MutexLock&)` with an
/// explicit `while` loop around the wait. Do NOT use the predicate
/// overloads of std::condition_variable: the predicate lambda is a
/// separate function to the analysis, so guarded reads inside it would
/// warn even though the lock is held.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// Expand to Clang's thread-safety attributes under any compiler that
// implements them (Clang; GCC parses but ignores __attribute__ names it
// does not know, so the allowlist keeps gcc -Wattributes quiet).
#if defined(__clang__) && defined(__has_attribute)
#define MRPERF_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MRPERF_THREAD_ANNOTATION__(x)
#endif

/// Marks a type as a lockable capability ("mutex").
#define CAPABILITY(x) MRPERF_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY MRPERF_THREAD_ANNOTATION__(scoped_lockable)

/// Declares that a data member is protected by the given mutex.
#define GUARDED_BY(x) MRPERF_THREAD_ANNOTATION__(guarded_by(x))

/// Declares that the data a pointer member points to is protected by
/// the given mutex (the pointer itself is not).
#define PT_GUARDED_BY(x) MRPERF_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Declares a static lock-acquisition order between mutexes; violations
/// of the order are flagged as potential deadlocks.
#define ACQUIRED_BEFORE(...) \
  MRPERF_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  MRPERF_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// The function must be called with the given capabilities held (and
/// does not release them).
#define REQUIRES(...) \
  MRPERF_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define ACQUIRE(...) \
  MRPERF_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// The function releases the capability (which must be held on entry).
#define RELEASE(...) \
  MRPERF_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `ret`.
#define TRY_ACQUIRE(ret, ...) \
  MRPERF_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))

/// The function must NOT be called with the given capabilities held
/// (it acquires them itself — calling with them held would deadlock).
#define EXCLUDES(...) MRPERF_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held (analysis trusts it).
#define ASSERT_CAPABILITY(x) \
  MRPERF_THREAD_ANNOTATION__(assert_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) MRPERF_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the access is in fact safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  MRPERF_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace mrperf {

class CondVar;

/// \brief std::mutex with capability annotations.
///
/// libstdc++'s std::mutex carries no annotations, so the analysis
/// cannot see through it; this wrapper is how every lock acquisition in
/// src/ becomes visible to `-Wthread-safety`. Prefer `MutexLock` over
/// calling Lock()/Unlock() directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// \brief RAII lock over a `Mutex` (std::lock_guard / std::unique_lock
/// replacement); the scope of a `MutexLock` is the critical section the
/// analysis checks guarded accesses against.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {}  // lock_'s destructor unlocks

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// \brief Condition variable usable with `Mutex`/`MutexLock`.
///
/// Wait() atomically releases the lock while blocked and reacquires it
/// before returning, exactly like std::condition_variable — the
/// capability is held at entry and exit, which is all the (per-thread)
/// analysis needs. Spurious wakeups happen; always wait in a
/// `while (!condition)` loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  /// Wait() with a timeout; false iff it timed out (the lock is held
  /// either way). Same spurious-wakeup rule: re-check the condition.
  bool WaitFor(MutexLock& lock, std::chrono::milliseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mrperf
