/**
 * @file
 * Persistent evaluation cache (the paper's EvaluationCache layer).
 *
 * Design-space walks revisit the same (application, design) metrics
 * constantly; results are memoized in memory and, when a path is
 * given, persisted to a plain-text database so later runs skip the
 * simulations entirely (section 5.1).
 *
 * The database carries the hours of exploration state a crash must
 * not destroy, so persistence is crash-safe:
 *
 *  - saves are atomic: the table is written to `<path>.tmp`, synced
 *    to stable storage, then renamed over the database, so a reader
 *    always sees either the old or the new generation — never a
 *    half-written file;
 *  - the file starts with a version header
 *    (`picoeval-evalcache-v3` since the policy-axis key schema; v2
 *    files and headerless v1 files still load — only the header
 *    changed, the record format is identical);
 *  - loading validates every entry and salvages the good ones —
 *    corrupt lines (no key, an empty or non-numeric value list, a
 *    non-finite value) are quarantined (counted and warned about),
 *    never thrown through; a parseable entry of the wrong shape for
 *    its caller is quarantined at lookup (getOrCompute's validity
 *    predicate) and recomputed;
 *  - the destructor flushes pending entries but never throws during
 *    unwind.
 *
 * The cache is also *thread-safe*, because the parallel spacewalker
 * hits it from every machine-evaluation task:
 *
 *  - one mutex guards the table and the in-flight map; getOrCompute
 *    never holds it during the compute callback, so a lookup waits
 *    at most for another lookup or store, never for an evaluation.
 *    A cold walk makes a handful of lookups and a served request
 *    two, so the one lock does not contend;
 *  - stores are batched in memory and committed by flush(): one
 *    writer at a time (a dedicated flush mutex — concurrent flushes
 *    from checkpointing and the destructor used to race on the tmp
 *    file), snapshotting the table and writing entries in sorted
 *    key order, so the database bytes are identical no matter how
 *    many threads filled the cache or in what order;
 *  - the atomic tmp+fsync+rename protocol is unchanged, preserving
 *    the crash-safety guarantees above.
 *
 * The cache is *observable*: stats() snapshots every counter,
 * distinguishing hits on entries loaded from disk (work a previous
 * run paid for — what a resume actually saved) from hits on entries
 * computed this run, and when the metrics registry is enabled every
 * cache in the process adds to the evalcache.hits/misses/stores
 * counters.
 */

#ifndef PICO_DSE_EVALUATION_CACHE_HPP
#define PICO_DSE_EVALUATION_CACHE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/ThreadAnnotations.hpp"

namespace pico::dse
{

/** Key/value store of metric vectors, optionally file backed. */
class EvaluationCache
{
  public:
    /**
     * Magic first line of the database format. v3 marks databases
     * that may hold policy-axis keys (`;r.*;w.*` suffixes); the
     * record format itself is unchanged since v2.
     */
    static constexpr const char *header = "picoeval-evalcache-v3";
    /** The previous header, still accepted by load(). */
    static constexpr const char *headerV2 = "picoeval-evalcache-v2";

    /**
     * @param path database file; empty keeps the cache in memory
     *        only. An existing file is loaded eagerly (corrupt
     *        entries are quarantined, not fatal).
     */
    explicit EvaluationCache(std::string path = "");

    /** Flushes pending entries; never throws during unwind. */
    ~EvaluationCache();

    /**
     * Fetch a metric vector, computing and storing it on a miss.
     * The compute callback runs outside every lock. Computation is
     * *single-flight*: when several threads miss on the same key
     * concurrently (a request-retry storm hammering one idempotent
     * key), exactly one thread runs the callback and the others
     * block until its result is stored — a successful key is never
     * computed twice. A compute that throws propagates to every
     * waiter and releases the key, so a later call retries.
     * A leader's CancelledError is its own deadline, not the
     * followers': a follower that receives one retries the lookup,
     * so one of them becomes the new leader under its own token.
     * Followers count as misses in stats() (they did miss the
     * table); computed counts actual callback runs.
     * @param key unique metric identifier (no '|' or newlines)
     * @param compute evaluator invoked on a miss
     * @param valid when given, a stored entry it rejects (the wrong
     *        shape for this caller) is quarantined — counted, warned
     *        about, dropped — and recomputed single-flight
     */
    std::vector<double> getOrCompute(
        const std::string &key,
        const std::function<std::vector<double>()> &compute,
        const std::function<bool(const std::vector<double> &)> &valid =
            nullptr) PICO_REQUIRES(!tableMutex_);

    /** Lookup without computing. @return true on hit. */
    bool lookup(const std::string &key, std::vector<double> &values)
        const PICO_REQUIRES(!tableMutex_);

    /** Insert or overwrite an entry. */
    void store(const std::string &key, std::vector<double> values)
        PICO_REQUIRES(!tableMutex_);

    /**
     * Write the database atomically now (no-op when memory-only).
     * I/O errors are warned about and leave the previous generation
     * intact. Serialized: concurrent savers queue up.
     */
    void save() const PICO_REQUIRES(!flushMutex_, !tableMutex_);

    /**
     * Persist unsaved entries (checkpoint). Cheap when nothing
     * changed since the last save; the walkers call this
     * periodically so an interrupted run resumes from the last
     * checkpoint rather than losing everything. Safe to call from
     * any thread.
     */
    void flush() PICO_REQUIRES(!flushMutex_, !tableMutex_);

    /**
     * One coherent view of every cache counter. The disk/memory hit
     * split is what makes resume runs reportable: diskHits counts
     * lookups served by entries salvaged from the database file —
     * work a previous run paid for — while memoryHits counts entries
     * computed (or stored) during this run.
     */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        /** Hits on entries loaded from the database file. */
        uint64_t diskHits = 0;
        /** Hits on entries first stored during this run. */
        uint64_t memoryHits = 0;
        /** Compute callbacks actually run by getOrCompute(). */
        uint64_t computed = 0;
        /** store() calls (explicit plus getOrCompute misses). */
        uint64_t stores = 0;
        /** flush() calls that found dirty entries to write. */
        uint64_t flushes = 0;
        /** Completed save protocols (checkpoints + final). */
        uint64_t saves = 0;
        uint64_t loadedEntries = 0;
        /** Corrupt lines at load plus entries rejected at lookup. */
        uint64_t quarantinedEntries = 0;
    };

    /** Snapshot every counter at once. */
    Stats stats() const;

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    size_t size() const PICO_REQUIRES(!tableMutex_);

    /** Entries salvaged from the database file at load time. */
    uint64_t loadedEntries() const { return loadedEntries_; }
    /** Corrupt database lines skipped at load time, plus entries
     *  getOrCompute() rejected as the wrong shape. */
    uint64_t
    quarantinedEntries() const
    {
        return quarantinedEntries_.load();
    }
    /** Entries stored since the last successful save. */
    bool dirty() const { return dirty_.load(); }

  private:
    /** One table entry; fromDisk marks entries the loader salvaged
     *  (persisted bytes carry only the values, so the database
     *  format is unchanged). */
    struct Entry
    {
        std::vector<double> values;
        bool fromDisk = false;
    };

    /**
     * One in-flight computation (single-flight getOrCompute). The
     * leader fills values/error and flips done; followers wait on
     * the condition variable. Heap-allocated and shared so a
     * follower can outlive the in-flight map entry.
     */
    struct Inflight
    {
        support::Mutex inflightMutex{"evalcache.inflight",
                                     support::rank::kCacheInflight};
        std::condition_variable cv;
        bool done PICO_GUARDED_BY(inflightMutex) = false;
        std::vector<double> values PICO_GUARDED_BY(inflightMutex);
        std::exception_ptr error PICO_GUARDED_BY(inflightMutex);
    };

    /** Count one hit (disk/memory split + registry counter). */
    void recordHit(bool from_disk) const;
    void recordMiss() const;

    /** Drop an entry a validity predicate rejected, unless it was
     *  replaced meanwhile; counted and warned about. */
    void quarantine(const std::string &key,
                    const std::vector<double> &values)
        PICO_REQUIRES(!tableMutex_);

    void load() PICO_REQUIRES(!tableMutex_);
    /** save() body; caller must hold flushMutex_. */
    void saveLocked() const PICO_REQUIRES(flushMutex_, !tableMutex_);

    std::string path_;
    mutable support::Mutex tableMutex_{"evalcache.table",
                                       support::rank::kCacheTable};
    std::unordered_map<std::string, Entry> table_
        PICO_GUARDED_BY(tableMutex_);
    /** Keys currently being computed by getOrCompute(). */
    std::unordered_map<std::string, std::shared_ptr<Inflight>>
        inflight_ PICO_GUARDED_BY(tableMutex_);
    /** Serializes the write-out protocol (tmp file + rename).
     *  Outranks the table mutex: saveLocked() snapshots the table
     *  while holding it. */
    mutable support::Mutex flushMutex_{"evalcache.flush",
                                       support::rank::kCacheFlush};
    mutable std::atomic<uint64_t> hits_{0};
    mutable std::atomic<uint64_t> misses_{0};
    mutable std::atomic<uint64_t> diskHits_{0};
    mutable std::atomic<uint64_t> computed_{0};
    mutable std::atomic<uint64_t> stores_{0};
    mutable std::atomic<uint64_t> flushes_{0};
    mutable std::atomic<uint64_t> saves_{0};
    uint64_t loadedEntries_ = 0;
    std::atomic<uint64_t> quarantinedEntries_{0};
    mutable std::atomic<bool> dirty_{false};
};

} // namespace pico::dse

#endif // PICO_DSE_EVALUATION_CACHE_HPP
