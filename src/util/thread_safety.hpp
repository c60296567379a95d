#pragma once

/// Clang thread-safety-analysis annotation macros (no-ops elsewhere).
///
/// These wrap the capability attributes understood by clang's
/// `-Wthread-safety` analysis (promoted to `-Werror=thread-safety` by the
/// top-level CMakeLists wherever the compiler supports the flag), giving
/// the repo's concurrency invariants a *compile-time* proof that holds for
/// all interleavings — the guarantee the TSan CI jobs, which only observe
/// the interleavings a test happens to produce, cannot give.
///
/// Conventions (enforced by tools/opm_analyze and docs/MODEL.md §10):
///   * lock-protected state uses util::Mutex / util::CondVar /
///     util::MutexLock from util/mutex.hpp, never bare std::mutex —
///     libstdc++'s types carry no capability attributes, so the analysis
///     cannot see through std::lock_guard / std::unique_lock;
///   * every field a mutex protects is tagged OPM_GUARDED_BY(that_mutex)
///     at its declaration;
///   * functions called with a lock already held are tagged
///     OPM_REQUIRES(mu) (the `*_locked()` helper pattern); functions that
///     take a lock internally may assert the caller does NOT hold it with
///     OPM_EXCLUDES(mu);
///   * condition waits are explicit `while (!cond) cv.wait(mu);` loops —
///     the analysis cannot look inside a predicate lambda handed to
///     std::condition_variable::wait.
///
/// On GCC (and any compiler without the attributes) every macro expands to
/// nothing, so annotated code builds identically everywhere.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define OPM_THREAD_SAFETY_ATTRIBUTE(x) __attribute__((x))
#endif
#endif
#ifndef OPM_THREAD_SAFETY_ATTRIBUTE
#define OPM_THREAD_SAFETY_ATTRIBUTE(x)  // no-op: attributes unsupported
#endif

/// Tags a type as a lockable capability ("mutex").
#define OPM_CAPABILITY(x) OPM_THREAD_SAFETY_ATTRIBUTE(capability(x))

/// Tags an RAII type whose lifetime holds a capability (lock guards).
#define OPM_SCOPED_CAPABILITY OPM_THREAD_SAFETY_ATTRIBUTE(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define OPM_GUARDED_BY(x) OPM_THREAD_SAFETY_ATTRIBUTE(guarded_by(x))

/// Pointer field whose *pointee* is protected by `x`.
#define OPM_PT_GUARDED_BY(x) OPM_THREAD_SAFETY_ATTRIBUTE(pt_guarded_by(x))

/// Caller must hold every listed capability (the `*_locked()` pattern).
#define OPM_REQUIRES(...) \
  OPM_THREAD_SAFETY_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function acquires the capability and returns holding it.
#define OPM_ACQUIRE(...) \
  OPM_THREAD_SAFETY_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the capability the caller held.
#define OPM_RELEASE(...) \
  OPM_THREAD_SAFETY_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function acquires the capability when it returns `ret`.
#define OPM_TRY_ACQUIRE(ret, ...) \
  OPM_THREAD_SAFETY_ATTRIBUTE(try_acquire_capability(ret, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define OPM_EXCLUDES(...) \
  OPM_THREAD_SAFETY_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define OPM_RETURN_CAPABILITY(x) OPM_THREAD_SAFETY_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function's body is exempt from analysis. Use only
/// where the locking pattern is correct but inexpressible; pair with a
/// comment saying why.
#define OPM_NO_THREAD_SAFETY_ANALYSIS \
  OPM_THREAD_SAFETY_ATTRIBUTE(no_thread_safety_analysis)
