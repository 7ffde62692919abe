// Annotated mutual-exclusion primitives for Clang Thread Safety Analysis.
//
// std::mutex and std::lock_guard carry no capability attributes, so code
// using them directly cannot be checked by -Wthread-safety. These thin
// wrappers add the attributes (and nothing else: Mutex is exactly a
// std::mutex, MutexLock exactly a lock_guard). Every concurrent
// subsystem in the tree uses them; see DESIGN.md §12 for the conventions.
#ifndef SILOZ_SRC_BASE_MUTEX_H_
#define SILOZ_SRC_BASE_MUTEX_H_

#include <mutex>

#include "src/base/thread_annotations.h"

namespace siloz {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Tells the analysis (not the runtime) that this mutex is held. Used at
  // the top of lambdas that execute while the enclosing scope holds the
  // lock — rollback closures, allocator callbacks — since
  // the analysis examines a lambda body with an empty lock set.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

// RAII lock, analysis-visible (unlike std::lock_guard<Mutex>).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_MUTEX_H_
