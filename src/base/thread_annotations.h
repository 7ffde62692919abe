// Clang Thread Safety Analysis annotation macros.
//
// These expand to Clang's capability attributes when compiling with Clang
// (where -Wthread-safety turns them into compile-time lock-discipline
// checks; the CI static-analysis leg builds with -Werror=thread-safety) and
// to nothing elsewhere, so GCC builds are unaffected. Naming follows the
// Clang documentation and Abseil's thread_annotations.h; only the macros the
// tree uses are defined.
//
// Convention (DESIGN.md §12): every member protected by a siloz::Mutex is
// declared GUARDED_BY(mu) and touched only under a MutexLock on mu.
#ifndef SILOZ_SRC_BASE_THREAD_ANNOTATIONS_H_
#define SILOZ_SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SILOZ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SILOZ_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

// Data members (and globals): which capability protects them.
#define GUARDED_BY(x) SILOZ_THREAD_ANNOTATION(guarded_by(x))

// Functions that acquire / release capabilities.
#define ACQUIRE(...) SILOZ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) SILOZ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Type declarations.
#define CAPABILITY(x) SILOZ_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY SILOZ_THREAD_ANNOTATION(scoped_lockable)

#endif  // SILOZ_SRC_BASE_THREAD_ANNOTATIONS_H_
