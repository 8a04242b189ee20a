/**
 * @file
 * The serve-zipf workload: a picoeval_server child process driven by
 * closed-loop clients from this process.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "Bench.hpp"
#include "Digest.hpp"
#include "server/Client.hpp"
#include "support/Backoff.hpp"
#include "support/Random.hpp"

namespace perfbench
{

using namespace pico;

namespace
{

/** Closed-loop client connections (each waits for its answer). */
constexpr unsigned clientCount = 4;
/** Server worker threads. */
constexpr unsigned serverWorkers = 2;
/** Popularity skew of the request pool. */
constexpr double zipfSkew = 1.2;
/** Share of requests that resend a completed idempotency key. */
constexpr double hitShare = 0.5;
/**
 * Keys the server memoizes (ServiceOptions::memoCapacity) minus a
 * margin for answers in flight: past it, a completed key might not be
 * memoized, so entries keep resending their last key known to be.
 */
constexpr uint64_t memoKeyBudget = 1024 - 2 * clientCount;
/** Fresh requests needed before p99 has ten samples beyond it. */
constexpr size_t p99MinSamples = 1000;
/** Window over which served answers are counted for the rate. */
constexpr double rateWindowS = 1.0;

/** A picoeval_server child process; stopped and reaped on destruction. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &binary, const std::string &dir,
                  const std::string &trace_out)
        : socket_(dir + "/s.sock")
    {
        std::vector<std::string> args = {
            binary,    "--socket", socket_,
            "--workers", std::to_string(serverWorkers),
            "--cache",   dir + "/cache.db",
            "--drain-ms", "20000"};
        if (!trace_out.empty()) {
            args.push_back("--trace-out");
            args.push_back(trace_out);
        }
        const std::string log = dir + "/server.log";
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            std::vector<char *> argv;
            for (auto &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(binary.c_str(), argv.data());
            ::_exit(127);
        }
    }

    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    const std::string &socket() const { return socket_; }

    /** Wait until the server answers ping; false if it died or the
     *  timeout passed. */
    bool
    waitReady(double timeout_s)
    {
        const double until = nowSeconds() + timeout_s;
        while (nowSeconds() < until) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            if (::access(socket_.c_str(), F_OK) == 0) {
                server::Client client(clientOptions(socket_, 0, 999));
                server::Request ping;
                ping.type = "ping";
                if (client.call(ping).status == server::Status::Ok)
                    return true;
            }
            support::sleepForMs(10);
        }
        return false;
    }

    /** Peak resident memory of the server (VmHWM), MB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (in >> key) {
            if (key == "VmHWM:") {
                double kb = 0.0;
                in >> kb;
                return kb / 1024.0;
            }
            in.ignore(4096, '\n');
        }
        return 0.0;
    }

    /** SIGTERM, then wait for the drain (SIGKILL after 30 s).
     *  @return the exit status, -1 when killed or already gone */
    int
    stop()
    {
        if (pid_ <= 0)
            return -1;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const double until = nowSeconds() + 30.0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowSeconds() > until) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                return -1;
            }
            support::sleepForMs(5);
        }
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    static server::ClientOptions
    clientOptions(const std::string &socket, uint64_t seed,
                  uint64_t stream)
    {
        server::ClientOptions o;
        o.socketPath = socket;
        // One attempt: a shed answer or a dropped connection is a
        // failed operation, not something to retry past.
        o.maxAttempts = 1;
        o.seed = seed;
        o.stream = stream;
        return o;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** One (app, machine) request of the pool. */
struct PoolEntry
{
    std::string app;
    std::string machine;
    std::string golden;
    /** Last completed key known to be memoized (guarded by poolMutex). */
    std::string lastKey;
};

/** The request pool plus what the clients share about it. */
struct Pool
{
    std::vector<PoolEntry> entries;
    uint64_t traceBlocks = 0;
    std::mutex poolMutex;
    uint64_t memoizedKeys = 0;
};

/** Latency samples and counts of one client. */
struct Tally
{
    std::vector<double> freshMs;
    std::vector<double> hitMs;
    /** When each Ok answer arrived, seconds since the load started. */
    std::vector<double> okAt;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t ok = 0;
};

server::Request
requestFor(const Pool &pool, size_t idx, const std::string &key)
{
    server::Request req;
    req.app = pool.entries[idx].app;
    req.machines = pool.entries[idx].machine;
    req.traceBlocks = pool.traceBlocks;
    req.key = key;
    return req;
}

bool
answerOk(const server::Response &resp, const PoolEntry &entry,
         GoldenStore &golden)
{
    if (resp.status != server::Status::Ok) {
        std::cerr << "serve: " << entry.app << "/" << entry.machine
                  << " answered " << server::statusName(resp.status)
                  << ": " << resp.error << "\n";
        return false;
    }
    return golden.check(entry.golden, answerDigest(resp));
}

/**
 * Start a fresh server and warm it: one request per pool entry (its
 * answer memoized under the entry's warm key), so profiled programs
 * and the evaluation cache are filled before timing.
 * @return seconds from spawn to the last warm answer
 */
double
startAndWarm(const RunOptions &opts, const std::string &dir,
             const std::string &trace_out, Pool &pool,
             GoldenStore &golden, RunReport &rep,
             std::unique_ptr<ServerProcess> &srv,
             std::vector<Frame> *frames)
{
    makeDirs(dir);
    const double start = nowSeconds();
    srv = std::make_unique<ServerProcess>(opts.serverPath, dir,
                                          trace_out);
    if (!srv->waitReady(60.0))
        throw std::runtime_error("server did not come up (see " + dir +
                                 "/server.log)");
    std::vector<Frame> warm(pool.entries.size());
    std::vector<int> ok(pool.entries.size(), 0);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clientCount; ++c) {
        threads.emplace_back([&, c] {
            server::Client client(ServerProcess::clientOptions(
                srv->socket(), opts.seed, 100 + c));
            for (size_t i = c; i < pool.entries.size(); i += clientCount) {
                auto &e = pool.entries[i];
                warm[i].first = requestFor(pool, i,
                                           "warm/" + e.app + "/" + e.machine);
                warm[i].second = client.call(warm[i].first);
                ok[i] = answerOk(warm[i].second, e, golden) ? 1 : 0;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double seconds = nowSeconds() - start;
    for (size_t i = 0; i < pool.entries.size(); ++i) {
        ++rep.attempted;
        rep.failed += ok[i] ? 0 : 1;
        pool.entries[i].lastKey = warm[i].first.key;
    }
    pool.memoizedKeys = pool.entries.size();
    if (frames != nullptr)
        *frames = std::move(warm);
    return seconds;
}

/**
 * The measured phase: closed-loop clients drawing pool entries with
 * Zipf popularity, half resending a memoized key, half a fresh one.
 * @return measured seconds (start to the last answer)
 */
double
runLoad(const RunOptions &opts, const ServerProcess &srv, Pool &pool,
        GoldenStore &golden, double seconds, std::vector<Tally> &tallies)
{
    tallies.assign(clientCount, Tally());
    const double start = nowSeconds();
    const double deadline = start + seconds;
    // Smoke runs stop after a fixed number of requests instead.
    const uint64_t cap = opts.smoke ? 12 : UINT64_MAX;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clientCount; ++c) {
        threads.emplace_back([&, c] {
            server::Client client(ServerProcess::clientOptions(
                srv.socket(), opts.seed, c));
            Rng draw = Rng::forStream(opts.seed, 1000 + c);
            Tally &t = tallies[c];
            for (uint64_t r = 0; r < cap && nowSeconds() < deadline;
                 ++r) {
                const size_t idx =
                    draw.zipf(pool.entries.size(), zipfSkew);
                const bool hit = draw.coin(hitShare);
                std::string key;
                if (hit) {
                    std::lock_guard<std::mutex> lock(pool.poolMutex);
                    key = pool.entries[idx].lastKey;
                } else {
                    key = "s" + std::to_string(opts.seed) + "/c" +
                          std::to_string(c) + "/r" + std::to_string(r);
                }
                server::Request req = requestFor(pool, idx, key);
                const double t0 = nowSeconds();
                server::Response resp = client.call(req);
                const double t1 = nowSeconds();
                const double ms = (t1 - t0) * 1e3;
                ++t.attempted;
                if (!answerOk(resp, pool.entries[idx], golden)) {
                    ++t.failed;
                    continue;
                }
                ++t.ok;
                t.okAt.push_back(t1 - start);
                (hit ? t.hitMs : t.freshMs).push_back(ms);
                if (!hit) {
                    std::lock_guard<std::mutex> lock(pool.poolMutex);
                    if (pool.memoizedKeys < memoKeyBudget) {
                        pool.entries[idx].lastKey = key;
                        ++pool.memoizedKeys;
                    }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return nowSeconds() - start;
}

/**
 * Ok answers per second, as the median over the whole windows of the
 * measured phase. On a shared host the server can be slowed for a few
 * seconds at a time; a mean over the run follows every such burst, the
 * median rate is what the clients get most of the time. A phase
 * shorter than one window (smoke runs) reports the mean.
 */
double
medianRate(const std::vector<double> &ok_at, double seconds)
{
    const auto windows = static_cast<size_t>(seconds / rateWindowS);
    if (windows == 0)
        return static_cast<double>(ok_at.size()) / seconds;
    std::vector<double> rates(windows, 0.0);
    for (double t : ok_at) {
        const auto w = static_cast<size_t>(t / rateWindowS);
        if (w < windows)
            rates[w] += 1.0 / rateWindowS;
    }
    return median(rates);
}

/** The server's counters (stats verb). */
std::map<std::string, double>
serverStats(const ServerProcess &srv)
{
    server::Client client(
        ServerProcess::clientOptions(srv.socket(), 0, 998));
    server::Request req;
    req.type = "stats";
    server::Response resp = client.call(req);
    if (resp.status != server::Status::Ok)
        throw std::runtime_error("stats verb failed");
    return resp.values;
}

/** Numeric field `"key":<number>` of one trace-event line. */
bool
jsonNumber(const std::string &line, const std::string &key, double &out)
{
    const std::string pat = "\"" + key + "\":";
    size_t pos = line.find(pat);
    if (pos == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + pos + pat.size(), nullptr);
    return true;
}

/**
 * Queue wait and execute time per request from the server's own
 * spans: server.request (admission to answer) minus server.execute
 * (the worker's walk), joined on the request id. Memo hits have no
 * execute span and are left out.
 */
void
queueWaitFromTrace(const std::string &path, RunReport &rep)
{
    std::ifstream in(path);
    std::map<uint64_t, double> request_us, execute_us;
    std::string line;
    while (std::getline(in, line)) {
        const bool is_request =
            line.find("\"name\":\"server.request\"") != std::string::npos;
        const bool is_execute =
            line.find("\"name\":\"server.execute\"") != std::string::npos;
        double dur = 0.0, rid = 0.0;
        if ((!is_request && !is_execute) ||
            line.find("\"ph\":\"X\"") == std::string::npos ||
            !jsonNumber(line, "dur", dur) ||
            !jsonNumber(line, "request", rid))
            continue;
        (is_request ? request_us : execute_us)[static_cast<uint64_t>(
            rid)] = dur;
    }
    std::vector<double> wait_ms, exec_ms;
    for (const auto &[rid, exec] : execute_us) {
        auto it = request_us.find(rid);
        if (it == request_us.end())
            continue;
        exec_ms.push_back(exec / 1e3);
        wait_ms.push_back(std::max(0.0, it->second - exec) / 1e3);
    }
    if (exec_ms.empty())
        throw std::runtime_error("no server.execute spans in " + path);
    rep.set("server.queue_wait_ms", median(wait_ms), "ms");
    rep.set("server.execute_ms", median(exec_ms), "ms");
    rep.note("server.spans_joined", static_cast<double>(exec_ms.size()),
             "count");
}

void
fillPool(const WalkSettings &ws, const RunOptions &opts, Pool &pool)
{
    pool.traceBlocks = ws.options.traceBlocks;
    for (const auto &app : ws.apps) {
        for (const auto &m : ws.machines) {
            PoolEntry e;
            e.app = app;
            e.machine = m;
            e.golden = std::string("serve-zipf") +
                       (opts.smoke ? "-smoke" : "") + "/answer/" + app +
                       "/" + m;
            pool.entries.push_back(e);
        }
    }
}

} // namespace

void
measureFraming(const std::vector<Frame> &frames, RunReport &rep)
{
    const int iterations = 2000;
    double bytes = 0.0;
    for (const auto &f : frames)
        bytes += static_cast<double>(server::encodeRequest(f.first).size() +
                                     server::encodeResponse(f.second).size());
    uint64_t decoded = 0;
    const double start = nowSeconds();
    for (int i = 0; i < iterations; ++i) {
        for (const auto &f : frames) {
            std::string error;
            server::Request req;
            server::Response resp;
            if (!server::decodeRequest(server::encodeRequest(f.first), req,
                                       error) ||
                !server::decodeResponse(server::encodeResponse(f.second),
                                        resp, error))
                throw std::runtime_error("frame round trip failed: " +
                                         error);
            decoded += resp.values.size();
        }
    }
    const double us = (nowSeconds() - start) * 1e6;
    const double rounds = static_cast<double>(iterations) *
                          static_cast<double>(frames.size());
    if (decoded == 0)
        throw std::runtime_error("frames carried no values");
    rep.set("server.framing_us", us / rounds, "us");
    rep.set("server.frame_bytes",
            bytes / static_cast<double>(frames.size()), "B");
}

RunReport
runServeWorkload(const RunOptions &opts)
{
    if (opts.serverPath.empty())
        throw std::runtime_error("serve-zipf needs --server PATH");
    const WalkSettings ws = walkSettings(opts.workload, opts.smoke);
    GoldenStore golden(opts.goldenPath, opts.writeGolden);
    RunReport rep;
    Pool pool;
    fillPool(ws, opts, pool);
    const std::string base =
        opts.outDir + "/serve-" + std::to_string(::getpid());
    std::unique_ptr<ServerProcess> srv;
    std::string srv_dir;
    std::vector<Tally> tallies;

    if (opts.trace != 0) {
        Programs progs;
        rep.set("workloads.build_profile_s",
                buildPrograms(ws.apps, opts.smoke ? 1 : 3, progs), "s");
        measureLayers(opts, ws, progs, golden, opts.seconds / 2, rep);

        std::vector<Frame> frames;
        const std::string trace_out =
            opts.outDir + "/serve-zipf-server-trace.json";
        srv_dir = base + "-traced";
        startAndWarm(opts, srv_dir, trace_out, pool, golden, rep, srv,
                     &frames);
        measureFraming(frames, rep);
        std::vector<double> ping_us;
        server::Client client(
            ServerProcess::clientOptions(srv->socket(), opts.seed, 997));
        for (int i = 0; i < (opts.smoke ? 20 : 200); ++i) {
            server::Request ping;
            ping.type = "ping";
            const double t0 = nowSeconds();
            if (client.call(ping).status != server::Status::Ok)
                throw std::runtime_error("ping failed");
            ping_us.push_back((nowSeconds() - t0) * 1e6);
        }
        rep.set("server.ping_rtt_us", median(ping_us), "us");

        runLoad(opts, *srv, pool, golden, opts.seconds / 2, tallies);
        auto stats = serverStats(*srv);
        rep.set("server.memo_hit_frac",
                stats["memo_hits"] / std::max(1.0, stats["requests.total"]),
                "fraction");
        rep.set("server.queue_peak", stats["queue.peak"], "count");
        rep.set("server.shed", stats["shed"], "count");
        rep.set("dse.evalcache_hit_frac",
                stats["cache.hits"] /
                    std::max(1.0, stats["cache.hits"] + stats["cache.misses"]),
                "fraction");
        if (srv->stop() != 0)
            throw std::runtime_error("server did not drain cleanly");
        queueWaitFromTrace(trace_out, rep);
        std::cout << "server chrome trace: " << trace_out << "\n";
    } else {
        // Set up several times (fresh server, fresh cache each time);
        // the last server stays up for the measured phase.
        const int setups = opts.smoke ? 1 : 5;
        std::vector<double> setup_s;
        for (int k = 0; k < setups; ++k) {
            srv_dir = base + "-" + std::to_string(k);
            setup_s.push_back(startAndWarm(opts, srv_dir, "", pool,
                                           golden, rep, srv, nullptr));
            if (k + 1 < setups) {
                if (srv->stop() != 0)
                    throw std::runtime_error("server did not drain");
                srv.reset();
                removeTree(srv_dir);
            }
        }
        const double measured_s =
            runLoad(opts, *srv, pool, golden, opts.seconds, tallies);
        auto stats = serverStats(*srv);
        const double rss_mb = srv->peakRssMb();
        if (srv->stop() != 0)
            throw std::runtime_error("server did not drain cleanly");

        std::vector<double> fresh, hit, ok_at;
        uint64_t ok = 0;
        for (const auto &t : tallies) {
            fresh.insert(fresh.end(), t.freshMs.begin(), t.freshMs.end());
            hit.insert(hit.end(), t.hitMs.begin(), t.hitMs.end());
            ok_at.insert(ok_at.end(), t.okAt.begin(), t.okAt.end());
            ok += t.ok;
        }
        rep.set("setup_s", median(setup_s), "s");
        rep.set("walk_p50_ms", median(fresh), "ms");
        rep.set("answers_per_s", medianRate(ok_at, measured_s), "1/s");
        rep.set("peak_rss_mb", rss_mb, "MB");
        rep.note("fresh_p50_ms", median(fresh), "ms");
        if (fresh.size() >= p99MinSamples)
            rep.note("fresh_p99_ms", quantile(fresh, 0.99), "ms");
        else
            rep.note("fresh_p90_ms", quantile(fresh, 0.90), "ms");
        rep.note("hit_p50_ms", median(hit), "ms");
        rep.note("served_rps", static_cast<double>(ok) / measured_s,
                 "req/s");
        rep.note("fresh_requests", static_cast<double>(fresh.size()),
                 "count");
        rep.note("hit_requests", static_cast<double>(hit.size()),
                 "count");
        rep.note("server.memo_hits", stats["memo_hits"], "count");
    }
    for (const auto &t : tallies) {
        rep.attempted += t.attempted;
        rep.failed += t.failed;
    }
    if (opts.trace == 0)
        rep.note("failed_frac",
                 static_cast<double>(rep.failed) /
                     static_cast<double>(std::max<uint64_t>(
                         rep.attempted, 1)),
                 "fraction");
    srv.reset();
    removeTree(srv_dir);
    if (opts.writeGolden && !golden.save())
        throw std::runtime_error("cannot write " + opts.goldenPath);
    return rep;
}

} // namespace perfbench
