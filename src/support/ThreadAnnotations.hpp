/**
 * @file
 * Clang thread-safety-analysis shim and annotated lock types.
 *
 * The parallel engine and the instrumentation layer grew a real
 * concurrency surface: an EvaluationCache shared by every evaluation
 * task, with single-flight computation, a nesting-safe ThreadPool,
 * per-thread trace-event buffers, and a process-global fault
 * injector. TSan only
 * catches the interleavings a run happens to produce; Clang's static
 * thread-safety analysis (-Wthread-safety) proves lock discipline at
 * compile time, on every path, for free.
 *
 * The analysis needs two things this header provides:
 *
 *  - *Attribute macros* (PICO_GUARDED_BY, PICO_REQUIRES, ...) that
 *    expand to Clang's thread-safety attributes under Clang and to
 *    nothing elsewhere, so GCC builds are untouched.
 *
 *  - *Annotated lock types.* libstdc++'s std::mutex carries no
 *    capability attributes, so the analysis cannot see through it.
 *    support::Mutex wraps std::mutex as a PICO_CAPABILITY, and
 *    support::MutexLock is the annotated scoped lock (it owns a
 *    std::unique_lock internally, exposed via native() so
 *    condition_variable::wait still works).
 *
 * Repo rule (enforced by tools/picoeval-lint.py): code under src/
 * takes locks through these wrappers only; raw std::mutex /
 * std::lock_guard / std::unique_lock appear in this header alone.
 *
 * Conventions:
 *  - every field a mutex guards is annotated PICO_GUARDED_BY(mutex);
 *  - private helpers called under a lock are PICO_REQUIRES(mutex);
 *  - condition-variable waits loop manually around
 *    cv.wait(lock.native()) instead of passing a predicate lambda
 *    (the analysis cannot see that a lambda body runs under the
 *    caller's lock, so predicate lambdas produce false positives).
 */

#ifndef PICO_SUPPORT_THREAD_ANNOTATIONS_HPP
#define PICO_SUPPORT_THREAD_ANNOTATIONS_HPP

#include <mutex>

#include "support/LockRank.hpp"

#if defined(__SANITIZE_THREAD__)
#define PICO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PICO_TSAN 1
#endif
#endif
#ifdef PICO_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__clang__)
#define PICO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PICO_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define PICO_CAPABILITY(x) PICO_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its
 *  dtor. */
#define PICO_SCOPED_CAPABILITY PICO_THREAD_ANNOTATION(scoped_lockable)

/** Field is protected by the given capability. */
#define PICO_GUARDED_BY(x) PICO_THREAD_ANNOTATION(guarded_by(x))

/** Pointee is protected by the given capability. */
#define PICO_PT_GUARDED_BY(x) PICO_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function acquires the capability (held on return). */
#define PICO_ACQUIRE(...)                                             \
    PICO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capability. */
#define PICO_RELEASE(...)                                             \
    PICO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability when returning `result`. */
#define PICO_TRY_ACQUIRE(result, ...)                                 \
    PICO_THREAD_ANNOTATION(                                           \
        try_acquire_capability(result, __VA_ARGS__))

/** Caller must already hold the capability. */
#define PICO_REQUIRES(...)                                            \
    PICO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (deadlock guard). */
#define PICO_EXCLUDES(...)                                            \
    PICO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define PICO_RETURN_CAPABILITY(x)                                     \
    PICO_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: skip analysis of this function entirely. */
#define PICO_NO_THREAD_SAFETY_ANALYSIS                                \
    PICO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pico::support
{

/**
 * std::mutex with capability attributes the analysis understands,
 * plus a compile-time name and lock rank (support/LockRank.hpp).
 * Same cost and semantics as std::mutex; lock()/unlock() exist for
 * the analysis and for MutexLock — call sites should prefer the
 * scoped MutexLock.
 *
 * Every mutex in src/support, src/dse and src/server must use the
 * ranked constructor — `Mutex mutex_{"evalcache.table",
 * rank::kCacheTable}` — with a rank from the table in LockRank.hpp;
 * tools/picoeval-lockcheck.py fails CI on unranked declarations in
 * those directories and proves the declared order acyclic.
 */
class PICO_CAPABILITY("mutex") Mutex
{
  public:
    /** Unranked (rank::kUnranked): invisible to the rank checker.
     *  For code outside the covered directories only. */
    Mutex() = default;

    /** Named, ranked mutex — the required spelling in src/. */
    Mutex(const char *name, int rank) : name_(name), rank_(rank) {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

#ifdef PICO_TSAN
    /**
     * std::mutex's destructor is trivial, so TSan never learns that
     * a mutex died, and a later mutex at the same address inherits
     * its lock-order edges: two tests' stack mutexes then read as one
     * inverted pair.
     */
    ~Mutex() { __tsan_mutex_destroy(&m_, 0); }
#endif

    void lock() PICO_ACQUIRE() { m_.lock(); }
    void unlock() PICO_RELEASE() { m_.unlock(); }
    bool try_lock() PICO_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /** Compile-time identity in the lock-order graph. */
    const char *name() const { return name_; }

    /** Rank from support::rank (LockRank.hpp); kUnranked = none. */
    int rank() const { return rank_; }

    /**
     * The wrapped mutex, for std::condition_variable via
     * MutexLock::native() only. Locking through this reference
     * bypasses the analysis — don't.
     */
    std::mutex &raw() { return m_; }

  private:
    std::mutex m_;
    const char *name_ = "unranked";
    int rank_ = rank::kUnranked;
};

/**
 * Scoped lock of a support::Mutex (the annotated std::unique_lock).
 * Owns the mutex for its whole lifetime; native() exposes the
 * underlying std::unique_lock for condition_variable::wait, which
 * releases and reacquires internally — invisible to, and fine with,
 * the static analysis, as the lock is held again on every return.
 */
class PICO_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) PICO_ACQUIRE(mutex)
        : lock_(checkedLock(mutex))
#if PICOEVAL_LOCK_RANK_CHECK
          ,
          mutex_(&mutex)
#endif
    {}

    ~MutexLock() PICO_RELEASE()
    {
#if PICOEVAL_LOCK_RANK_CHECK
        lockrank::onRelease(mutex_->name(), mutex_->rank());
#endif
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** For cv.wait(lock.native()) — see class comment. The wait's
     *  internal release/reacquire is invisible to the rank checker
     *  too, which is sound: the lock is held again on every return,
     *  so the held-stack entry never stops being true at the points
     *  where this thread can acquire something else. */
    std::unique_lock<std::mutex> &native() { return lock_; }

  private:
    /** Rank-check (Debug only), then lock. The check runs *before*
     *  blocking so an inversion reports even when it would have
     *  deadlocked right there. */
    static std::unique_lock<std::mutex> checkedLock(Mutex &mutex)
    {
#if PICOEVAL_LOCK_RANK_CHECK
        lockrank::onAcquire(mutex.name(), mutex.rank());
#endif
        return std::unique_lock<std::mutex>(mutex.raw());
    }

    std::unique_lock<std::mutex> lock_;
#if PICOEVAL_LOCK_RANK_CHECK
    Mutex *mutex_ = nullptr;
#endif
};

} // namespace pico::support

#endif // PICO_SUPPORT_THREAD_ANNOTATIONS_HPP
