#ifndef WPRED_COMMON_ANNOTATIONS_H_
#define WPRED_COMMON_ANNOTATIONS_H_

// Thread-safety annotations (DESIGN.md §14).
//
// Under Clang these expand to the thread-safety-analysis attributes, so a
// `-Wthread-safety` build statically checks that every access to an
// annotated field happens with the named mutex held. Under every other
// compiler they expand to nothing. Two consumers read them:
//
//   1. Clang's analysis (`-Werror=thread-safety-analysis` in the clang CI
//      job) — alias-aware, flow-sensitive, the real thing.
//   2. wpred_lint's `guarded-field` pass — a token-level tracker that runs
//      on every build (gcc included) and in CI before any compile. Weaker
//      than Clang's analysis (no aliasing, block-scope lock tracking only)
//      but it keeps the annotations honest everywhere.
//
// Annotation placement follows the Clang/Abseil convention: field
// annotations trail the declarator (`int x_ WPRED_GUARDED_BY(mu_);`),
// function annotations trail the signature
// (`void f() WPRED_REQUIRES(mu_);`).
//
// WPRED_ATOMIC_PUBLISHED is NOT a Clang attribute: it marks a std::atomic
// whose stores *publish* data other threads will read through it (a
// released pointer, a left-right selector, a published list head). The
// `atomics-order` lint pass flags any memory_order_relaxed operation on a
// field so marked — relaxed ordering on a publication atomic is almost
// always a bug — unless the line carries a
// `wpred-lint: allow(atomics-order): <rationale>` suppression explaining
// why the relaxed access is sound (e.g. an owner-thread-only load).

#if defined(__clang__) && !defined(SWIG)
#define WPRED_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define WPRED_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Declares a class to be a capability (lockable) type. The string names
/// the capability kind in diagnostics ("mutex").
#define WPRED_CAPABILITY(x) WPRED_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability (MutexLock).
#define WPRED_SCOPED_CAPABILITY WPRED_THREAD_ANNOTATION_(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define WPRED_GUARDED_BY(x) WPRED_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field whose *pointee* is guarded by `x` (the pointer itself may
/// be read freely).
#define WPRED_PT_GUARDED_BY(x) WPRED_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Caller must hold the named mutex(es) when invoking the function.
#define WPRED_REQUIRES(...) \
  WPRED_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the mutex(es) and holds them on return.
#define WPRED_ACQUIRE(...) \
  WPRED_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es); they must be held on entry.
#define WPRED_RELEASE(...) \
  WPRED_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the mutex iff it returns `result`.
#define WPRED_TRY_ACQUIRE(...) \
  WPRED_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the named mutex(es) (deadlock prevention).
#define WPRED_EXCLUDES(...) \
  WPRED_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Escape hatch: the function is exempt from analysis. Every use needs a
/// comment saying why the checker cannot follow the code (and why a human
/// believes it anyway).
#define WPRED_NO_THREAD_SAFETY_ANALYSIS \
  WPRED_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Lint-only marker (expands to nothing everywhere): this std::atomic
/// publishes data — release/acquire (or seq_cst) ordering is part of its
/// correctness, so the `atomics-order` pass flags relaxed operations on it
/// unless suppressed with a rationale.
#define WPRED_ATOMIC_PUBLISHED

#endif  // WPRED_COMMON_ANNOTATIONS_H_
