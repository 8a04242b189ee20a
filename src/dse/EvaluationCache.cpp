#include "dse/EvaluationCache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "support/CancelToken.hpp"
#include "support/FaultInjection.hpp"
#include "support/Logging.hpp"
#include "support/Metrics.hpp"
#include "support/SchedulePerturb.hpp"

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
 * Per-shard registry counters, resolved once per process. The names
 * are global (not per cache instance): the process-level question is
 * "how did the striped table behave", aggregated over every cache.
 */
support::Counter &
shardMetricCounter(const char *what, size_t index)
{
    using CounterArray =
        std::array<support::Counter *, EvaluationCache::shardCount>;
    auto build = [](const char *suffix) {
        CounterArray a{};
        for (size_t k = 0; k < EvaluationCache::shardCount; ++k) {
            char name[64];
            std::snprintf(name, sizeof(name),
                          "evalcache.shard%02zu.%s", k, suffix);
            a[k] = &support::metrics().counter(name);
        }
        return a;
    };
    static CounterArray hits = build("hits");
    static CounterArray misses = build("misses");
    static CounterArray stores = build("stores");
    if (std::string_view(what) == "hits")
        return *hits[index];
    if (std::string_view(what) == "misses")
        return *misses[index];
    return *stores[index];
}

} // namespace

size_t
EvaluationCache::shardIndexOf(const std::string &key) const
{
    return std::hash<std::string>{}(key) % shardCount;
}

EvaluationCache::Shard &
EvaluationCache::shardFor(const std::string &key)
{
    return shards_[shardIndexOf(key)];
}

const EvaluationCache::Shard &
EvaluationCache::shardFor(const std::string &key) const
{
    return shards_[shardIndexOf(key)];
}

void
EvaluationCache::recordHit(size_t shard_index, bool from_disk) const
{
    ++hits_;
    if (from_disk)
        ++diskHits_;
    shardHits_[shard_index].fetch_add(1, std::memory_order_relaxed);
    if (support::metricsEnabled())
        shardMetricCounter("hits", shard_index).add(1);
}

void
EvaluationCache::recordMiss(size_t shard_index) const
{
    ++misses_;
    shardMisses_[shard_index].fetch_add(1,
                                        std::memory_order_relaxed);
    if (support::metricsEnabled())
        shardMetricCounter("misses", shard_index).add(1);
}

std::vector<double>
EvaluationCache::getOrCompute(
    const std::string &key,
    const std::function<std::vector<double>()> &compute,
    const std::function<bool(const std::vector<double> &)> &valid)
{
    size_t index = shardIndexOf(key);
    auto &shard = shards_[index];
    std::shared_ptr<Inflight> flight;
    for (;;) {
        std::optional<Entry> hit;
        bool leader = false;
        {
            support::MutexLock lock(shard.shardMutex);
            auto it = shard.table.find(key);
            if (it != shard.table.end()) {
                hit = it->second;
            } else if (auto fit = shard.inflight.find(key);
                       fit != shard.inflight.end()) {
                flight = fit->second;
            } else {
                flight = std::make_shared<Inflight>();
                shard.inflight.emplace(key, flight);
                leader = true;
            }
        }
        if (hit) {
            // Validated outside the lock: the predicate may decode.
            if (!valid || valid(hit->values)) {
                recordHit(index, hit->fromDisk);
                return std::move(hit->values);
            }
            quarantine(key, hit->values);
            continue;
        }
        recordMiss(index);
        if (leader)
            break;

        // Single-flight follower: another thread is computing this
        // key right now (a retried idempotent request). Wait for its
        // result instead of duplicating the work.
        support::perturbPoint("evalcache.follower");
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
    // machine takes seconds, and holding a shard mutex through it
    // would serialize every other key that hashes to the same shard.
    std::vector<double> values;
    std::exception_ptr error;
    support::perturbPoint("evalcache.leader");
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
        support::MutexLock lock(shard.shardMutex);
        shard.inflight.erase(key);
    }
    support::perturbPoint("evalcache.publish");
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
    auto &shard = shardFor(key);
    {
        support::MutexLock lock(shard.shardMutex);
        auto it = shard.table.find(key);
        // Another caller may have quarantined and recomputed it.
        if (it == shard.table.end() || it->second.values != values)
            return;
        shard.table.erase(it);
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
    size_t index = shardIndexOf(key);
    const auto &shard = shards_[index];
    support::MutexLock lock(shard.shardMutex);
    auto it = shard.table.find(key);
    if (it == shard.table.end()) {
        recordMiss(index);
        return false;
    }
    recordHit(index, it->second.fromDisk);
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
    size_t index = shardIndexOf(key);
    auto &shard = shards_[index];
    {
        support::MutexLock lock(shard.shardMutex);
        // An overwrite counts as this run's work from here on.
        shard.table[key] = Entry{std::move(values), false};
    }
    ++stores_;
    if (support::metricsEnabled())
        shardMetricCounter("stores", index).add(1);
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

std::array<EvaluationCache::ShardStats, EvaluationCache::shardCount>
EvaluationCache::shardStats() const
{
    std::array<ShardStats, shardCount> out{};
    for (size_t k = 0; k < shardCount; ++k) {
        out[k].hits =
            shardHits_[k].load(std::memory_order_relaxed);
        out[k].misses =
            shardMisses_[k].load(std::memory_order_relaxed);
    }
    return out;
}

size_t
EvaluationCache::size() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        support::MutexLock lock(shard.shardMutex);
        total += shard.table.size();
    }
    return total;
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
    support::perturbPoint("evalcache.flush");
    support::faultPoint("EvaluationCache::save:before-write");

    // Clear the dirty flag *before* snapshotting, and restore it on
    // every failure path. A store() racing with this save marks the
    // cache dirty again on its own; clearing the flag *after* the
    // write instead would clobber that mark and strand the racing
    // entry in memory forever (it is not in the snapshot just
    // written, and no later flush would see anything to do).
    dirty_.store(false, std::memory_order_release);
    try {
        // Snapshot every shard, then write in sorted key order: the
        // database bytes are a pure function of the cache
        // *contents*, independent of thread count, schedule, or
        // insertion order.
        std::vector<std::pair<std::string, std::vector<double>>>
            entries;
        for (const auto &shard : shards_) {
            support::MutexLock shardLock(shard.shardMutex);
            // Hash-order visit is safe here: entries are sorted
            // below before a single byte is written.
            // picoeval-lint: allow(nondet-iteration)
            for (const auto &[key, entry] : shard.table)
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
        support::faultPoint("EvaluationCache::save:before-rename");
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
        // shared — but taking the shard lock keeps the analysis
        // sound and costs one uncontended acquisition per entry.
        auto &shard = shardFor(key);
        {
            support::MutexLock lock(shard.shardMutex);
            shard.table[key] = Entry{std::move(values), true};
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
