#include "dse/EvaluationCache.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "support/CancelToken.hpp"
#include "support/Hooks.hpp"
#include "support/Logging.hpp"
#include "support/Metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace pico::dse
{

namespace
{

/**
 * Parse the value list of one database line. Returns false (leaving
 * `values` unspecified) on an empty list, a trailing comma, or any
 * malformed or non-finite number, so a corrupt entry quarantines
 * instead of throwing std::invalid_argument through the loader or
 * reaching a walk as a short or NaN vector.
 */
bool
parseValues(const std::string &text, std::vector<double> &values)
{
    if (text.empty() || text.back() == ',')
        return false;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        try {
            size_t pos = 0;
            double v = std::stod(item, &pos);
            if (pos != item.size() || !std::isfinite(v))
                return false; // trailing junk, nan or inf
            values.push_back(v);
        } catch (const std::exception &) {
            return false; // std::invalid_argument / out_of_range
        }
    }
    return true;
}

/** Force file contents to stable storage (best effort). */
void
syncFile(const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

} // namespace

EvaluationCache::EvaluationCache(std::string path)
    : path_(std::move(path))
{
    if (!path_.empty())
        load();
}

EvaluationCache::~EvaluationCache()
{
    // Persistence during unwind is best-effort only: the database is
    // a cache, and throwing from a destructor would terminate.
    try {
        flush();
    } catch (const std::exception &e) {
        warn("evaluation cache '", path_,
             "' flush failed during unwind: ", e.what());
    } catch (...) {
        warn("evaluation cache '", path_,
             "' flush failed during unwind");
    }
}

namespace
{

/**
 * The registry's aggregate counters over every cache in the process,
 * registered together on first use, so a run report lists all three
 * even when one stays zero.
 */
struct CacheCounters
{
    support::Counter &hits = support::metrics().counter("evalcache.hits");
    support::Counter &misses =
        support::metrics().counter("evalcache.misses");
    support::Counter &stores =
        support::metrics().counter("evalcache.stores");
};

const CacheCounters &
cacheCounters()
{
    static const CacheCounters counters;
    return counters;
}

} // namespace

void
EvaluationCache::recordHit(bool from_disk) const
{
    ++hits_;
    if (from_disk)
        ++diskHits_;
    if (support::metricsEnabled())
        cacheCounters().hits.add(1);
}

void
EvaluationCache::recordMiss() const
{
    ++misses_;
    if (support::metricsEnabled())
        cacheCounters().misses.add(1);
}

std::vector<double>
EvaluationCache::getOrCompute(
    const std::string &key,
    const std::function<std::vector<double>()> &compute,
    const std::function<bool(const std::vector<double> &)> &valid)
{
    std::shared_ptr<Inflight> flight;
    for (;;) {
        std::optional<Entry> hit;
        bool leader = false;
        {
            support::MutexLock lock(tableMutex_);
            auto it = table_.find(key);
            if (it != table_.end()) {
                hit = it->second;
            } else if (auto fit = inflight_.find(key);
                       fit != inflight_.end()) {
                flight = fit->second;
            } else {
                flight = std::make_shared<Inflight>();
                inflight_.emplace(key, flight);
                leader = true;
            }
        }
        if (hit) {
            // Validated outside the lock: the predicate may decode.
            if (!valid || valid(hit->values)) {
                recordHit(hit->fromDisk);
                return std::move(hit->values);
            }
            quarantine(key, hit->values);
            continue;
        }
        recordMiss();
        if (leader)
            break;

        // Single-flight follower: another thread is computing this
        // key right now (a retried idempotent request). Wait for its
        // result instead of duplicating the work.
        support::hookPoint("evalcache.follower");
        std::exception_ptr error;
        {
            support::MutexLock lock(flight->inflightMutex);
            while (!flight->done)
                flight->cv.wait(lock.native());
            if (!flight->error)
                return flight->values;
            error = flight->error;
        }
        // The leader's deadline is not ours: look again, and compute
        // under our own token if nobody else does.
        try {
            std::rethrow_exception(error);
        } catch (const CancelledError &) {
            PICO_METRIC_COUNT("evalcache.follower_retries", 1);
        }
    }

    // Single-flight leader. Compute outside every lock: evaluating a
    // machine takes seconds, and holding the table mutex through it
    // would serialize every other key.
    std::vector<double> values;
    std::exception_ptr error;
    support::hookPoint("evalcache.leader");
    try {
        values = compute();
        ++computed_;
        // Store before releasing the in-flight slot, so a racer
        // always finds either the slot or the stored entry — a
        // successful key is computed at most once, ever.
        store(key, values);
    } catch (...) {
        error = std::current_exception();
    }
    {
        support::MutexLock lock(tableMutex_);
        inflight_.erase(key);
    }
    support::hookPoint("evalcache.publish");
    {
        support::MutexLock lock(flight->inflightMutex);
        flight->done = true;
        flight->values = values;
        flight->error = error;
    }
    flight->cv.notify_all();
    if (error)
        std::rethrow_exception(error);
    return values;
}

void
EvaluationCache::quarantine(const std::string &key,
                            const std::vector<double> &values)
{
    {
        support::MutexLock lock(tableMutex_);
        auto it = table_.find(key);
        // Another caller may have quarantined and recomputed it.
        if (it == table_.end() || it->second.values != values)
            return;
        table_.erase(it);
    }
    ++quarantinedEntries_;
    PICO_METRIC_COUNT("evalcache.quarantined", 1);
    warn("evaluation cache", path_.empty() ? "" : " '" + path_ + "'",
         ": entry '", key,
         "' has the wrong shape; quarantined and recomputed");
}

bool
EvaluationCache::lookup(const std::string &key,
                        std::vector<double> &values) const
{
    support::MutexLock lock(tableMutex_);
    auto it = table_.find(key);
    if (it == table_.end()) {
        recordMiss();
        return false;
    }
    recordHit(it->second.fromDisk);
    values = it->second.values;
    return true;
}

void
EvaluationCache::store(const std::string &key,
                       std::vector<double> values)
{
    fatalIf(key.find('|') != std::string::npos ||
                key.find('\n') != std::string::npos,
            "evaluation-cache key contains reserved characters");
    {
        support::MutexLock lock(tableMutex_);
        // An overwrite counts as this run's work from here on.
        table_[key] = Entry{std::move(values), false};
    }
    ++stores_;
    if (support::metricsEnabled())
        cacheCounters().stores.add(1);
    dirty_.store(true, std::memory_order_release);
}

EvaluationCache::Stats
EvaluationCache::stats() const
{
    Stats s;
    s.hits = hits_.load();
    s.misses = misses_.load();
    s.diskHits = diskHits_.load();
    s.memoryHits = s.hits - s.diskHits;
    s.computed = computed_.load();
    s.stores = stores_.load();
    s.flushes = flushes_.load();
    s.saves = saves_.load();
    s.loadedEntries = loadedEntries_;
    s.quarantinedEntries = quarantinedEntries_.load();
    return s;
}

size_t
EvaluationCache::size() const
{
    support::MutexLock lock(tableMutex_);
    return table_.size();
}

void
EvaluationCache::save() const
{
    support::MutexLock lock(flushMutex_);
    saveLocked();
}

void
EvaluationCache::saveLocked() const
{
    if (path_.empty())
        return;
    support::hookPoint("evalcache.save");

    // Clear the dirty flag *before* snapshotting, and restore it on
    // every failure path. A store() racing with this save marks the
    // cache dirty again on its own; clearing the flag *after* the
    // write instead would clobber that mark and strand the racing
    // entry in memory forever (it is not in the snapshot just
    // written, and no later flush would see anything to do).
    dirty_.store(false, std::memory_order_release);
    try {
        // Snapshot the table, then write in sorted key order: the
        // database bytes are a pure function of the cache
        // *contents*, independent of thread count, schedule, or
        // insertion order.
        std::vector<std::pair<std::string, std::vector<double>>>
            entries;
        {
            support::MutexLock tableLock(tableMutex_);
            entries.reserve(table_.size());
            // Hash-order visit is safe here: entries are sorted
            // below before a single byte is written.
            // picoeval-lint: allow(nondet-iteration)
            for (const auto &[key, entry] : table_)
                entries.emplace_back(key, entry.values);
        }
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });

        // Atomic-rename protocol: never truncate the live database.
        // A crash at any point leaves either the old generation (tmp
        // file ignored by load()) or the new one.
        std::string tmp = path_ + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            if (!out) {
                warn("cannot write evaluation cache '", tmp, "'");
                dirty_.store(true, std::memory_order_release);
                return;
            }
            out.precision(17);
            out << header << '\n';
            for (const auto &[key, values] : entries) {
                out << key << '|';
                for (size_t i = 0; i < values.size(); ++i)
                    out << (i ? "," : "") << values[i];
                out << '\n';
            }
            out.flush();
            if (!out) {
                warn("writing evaluation cache '", tmp,
                     "' failed; previous generation kept");
                out.close();
                std::error_code ec;
                std::filesystem::remove(tmp, ec);
                dirty_.store(true, std::memory_order_release);
                return;
            }
        }
        syncFile(tmp);
        support::hookPoint("evalcache.rename");
        std::error_code ec;
        std::filesystem::rename(tmp, path_, ec);
        if (ec) {
            warn("cannot replace evaluation cache '", path_,
                 "': ", ec.message(), "; previous generation kept");
            std::filesystem::remove(tmp, ec);
            dirty_.store(true, std::memory_order_release);
            return;
        }
        ++saves_;
        PICO_METRIC_COUNT("evalcache.saves", 1);
    } catch (...) {
        dirty_.store(true, std::memory_order_release);
        throw;
    }
}

void
EvaluationCache::flush()
{
    // One writer at a time: unsynchronized flush() from a
    // checkpointing thread and the destructor used to run the
    // tmp-write/rename protocol concurrently against the same tmp
    // path (torn tmp file, double rename). The dirty check happens
    // under the same mutex so a concurrent flush that already
    // committed the batch makes this one a no-op.
    support::MutexLock lock(flushMutex_);
    if (dirty_.load(std::memory_order_acquire)) {
        ++flushes_;
        PICO_METRIC_COUNT("evalcache.flushes", 1);
        saveLocked();
    }
}

void
EvaluationCache::load()
{
    std::error_code ec;
    if (std::filesystem::exists(path_ + ".tmp", ec))
        warn("evaluation cache '", path_,
             "': stale temporary from an interrupted save ignored");

    std::ifstream in(path_);
    if (!in)
        return; // first run; the file appears on save()
    std::string line;
    bool first = true;
    uint64_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        // v3/v2 files start with a version header; headerless v1
        // files begin directly with entries. A v2 database is fully
        // usable: classic-space keys are byte-identical across the
        // bump, and extended-axis keys simply miss (they carry the
        // `;r.*;w.*` suffix no v2 run ever wrote).
        if (first) {
            first = false;
            if (line == header || line == headerV2)
                continue;
        }
        if (line.empty())
            continue;
        auto bar = line.find('|');
        std::vector<double> values;
        if (bar == std::string::npos || bar == 0 ||
            !parseValues(line.substr(bar + 1), values)) {
            ++quarantinedEntries_;
            continue;
        }
        auto key = line.substr(0, bar);
        // load() runs from the constructor, before the cache is
        // shared — but taking the table lock keeps the analysis
        // sound and costs one uncontended acquisition per entry.
        {
            support::MutexLock lock(tableMutex_);
            table_[key] = Entry{std::move(values), true};
        }
        ++loadedEntries_;
    }
    PICO_METRIC_COUNT("evalcache.loaded", loadedEntries_);
    const uint64_t quarantined = quarantinedEntries_.load();
    PICO_METRIC_COUNT("evalcache.quarantined", quarantined);
    if (quarantined > 0)
        warn("evaluation cache '", path_, "': salvaged ",
             loadedEntries_, " entr(ies), quarantined ", quarantined,
             " corrupt line(s)");
}

} // namespace pico::dse
