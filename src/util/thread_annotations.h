// Clang Thread Safety Analysis annotation macros (DESIGN.md §13).
//
// These wrap Clang's capability attributes so the locking discipline of the
// concurrent layers (serve/, online/, train/, util/) is *proved at compile
// time* instead of sampled at runtime by TSan: `-Wthread-safety` rejects any
// access to an FPSM_GUARDED_BY field without its mutex held, any call to an
// FPSM_REQUIRES method without the capability, and any double-acquire of an
// FPSM_EXCLUDES lock. The `tsa` CMake preset builds src/ with
// `-Wthread-safety -Wthread-safety-beta -Werror` under Clang; CI runs it on
// every push. Under GCC (or any non-Clang compiler) every macro expands to
// nothing, so the annotations are free and the tree stays portable.
//
// Naming follows the LLVM documentation's canonical macro set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) with an FPSM_
// prefix. Use the wrapper types in util/mutex.h (Mutex, SharedMutex,
// MutexLock, ReaderLock, WriterLock) rather than annotating std types:
// tools/fpsm_lint enforces that no raw std::mutex appears outside util/.
#pragma once

#if defined(__clang__) && !defined(FPSM_NO_THREAD_ANNOTATIONS)
#define FPSM_TSA_ATTRIBUTE__(x) __attribute__((x))
#else
#define FPSM_TSA_ATTRIBUTE__(x)  // no-op outside Clang
#endif

/// Declares a class to be a capability ("mutex" in diagnostics).
#define FPSM_CAPABILITY(x) FPSM_TSA_ATTRIBUTE__(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define FPSM_SCOPED_CAPABILITY FPSM_TSA_ATTRIBUTE__(scoped_lockable)

/// Field may only be read or written while holding the given capability.
#define FPSM_GUARDED_BY(x) FPSM_TSA_ATTRIBUTE__(guarded_by(x))

/// Pointer (or smart-pointer) field whose *pointee* may only be dereferenced
/// while holding the given capability. The pointer itself is covered by
/// FPSM_GUARDED_BY, which composes with this.
#define FPSM_PT_GUARDED_BY(x) FPSM_TSA_ATTRIBUTE__(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention, -Wthread-safety-beta).
#define FPSM_ACQUIRED_BEFORE(...) \
  FPSM_TSA_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define FPSM_ACQUIRED_AFTER(...) \
  FPSM_TSA_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Caller must hold the capability (exclusively / shared) on entry; it is
/// not released.
#define FPSM_REQUIRES(...) \
  FPSM_TSA_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define FPSM_REQUIRES_SHARED(...) \
  FPSM_TSA_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define FPSM_ACQUIRE(...) FPSM_TSA_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define FPSM_ACQUIRE_SHARED(...) \
  FPSM_TSA_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define FPSM_RELEASE(...) FPSM_TSA_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define FPSM_RELEASE_SHARED(...) \
  FPSM_TSA_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
/// Releases a capability acquired either exclusively or shared — the right
/// destructor annotation for an RAII lock that supports both modes.
#define FPSM_RELEASE_GENERIC(...) \
  FPSM_TSA_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

/// Function tries to acquire and reports success via its return value.
#define FPSM_TRY_ACQUIRE(...) \
  FPSM_TSA_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define FPSM_TRY_ACQUIRE_SHARED(...) \
  FPSM_TSA_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself, or
/// would self-deadlock / invert lock order if entered with it held).
#define FPSM_EXCLUDES(...) FPSM_TSA_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define FPSM_ASSERT_CAPABILITY(x) FPSM_TSA_ATTRIBUTE__(assert_capability(x))

/// Function returns a reference to the given capability.
#define FPSM_RETURN_CAPABILITY(x) FPSM_TSA_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the discipline cannot be expressed, and
/// tools/fpsm_lint counts these so new ones stand out in review.
#define FPSM_NO_THREAD_SAFETY_ANALYSIS \
  FPSM_TSA_ATTRIBUTE__(no_thread_safety_analysis)

/// Documentation-only marker (expands to nothing everywhere, including
/// Clang): declares that a public method of a lock-holding class touches no
/// capability at all — it reads atomics, immutable post-construction state,
/// or internally synchronized members only. fpsm_lint's
/// unannotated-public-method rule accepts exactly one of {a real capability
/// annotation, this marker} on every public method of such a class, so the
/// locking relationship of each entry point is a conscious, reviewable
/// statement rather than an omission.
#define FPSM_NO_CAPABILITY
