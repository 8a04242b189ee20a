#include "verify/ResultVerifier.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "verify/DesignVerifier.hpp"

namespace pico::verify
{

namespace
{

/**
 * The evaluation-cache format, restated here from DESIGN.md rather
 * than shared with EvaluationCache.cpp: the round-trip check is only
 * meaningful against an independent reading of the format.
 */
constexpr const char *cacheFileHeader = "picoeval-evalcache-v3";
/** The previous version, still readable; flagged as a warning. */
constexpr const char *cacheFileHeaderV2 = "picoeval-evalcache-v2";

/** Parse one comma-separated value list; all values must be finite. */
bool
parseValueList(const std::string &text, std::vector<double> &values)
{
    if (text.empty())
        return false;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        std::string token =
            text.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (token.empty())
            return false;
        char *end = nullptr;
        double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() ||
            !std::isfinite(v))
            return false;
        values.push_back(v);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

/** The `;`-separated segments of a key. */
std::vector<std::string>
keySegments(const std::string &key)
{
    std::vector<std::string> out;
    size_t pos = 0;
    for (;;) {
        size_t semi = key.find(';', pos);
        out.push_back(key.substr(pos, semi - pos));
        if (semi == std::string::npos)
            return out;
        pos = semi + 1;
    }
}

bool
isAllDigits(const std::string &text, size_t from)
{
    return text.size() > from &&
           text.find_first_not_of("0123456789", from) ==
               std::string::npos;
}

/**
 * A `proc;<app>;s<seed>;<machine>[;p<ports>...][;r...;w...]` entry:
 * dilation, cycles, then one cycle count per data-cache port count.
 */
void
checkProcEntry(const std::string &key, const std::vector<double> &values,
               const std::string &at, Diagnostics &diags)
{
    const auto segments = keySegments(key);
    size_t ports = 0;
    for (size_t i = 4; i < segments.size(); ++i) {
        if (isAllDigits(segments[i], 1) && segments[i][0] == 'p')
            ++ports;
    }
    if (values.size() != 2 + ports)
        diags.error("result.cachefile", at,
                    "machine entry holds " +
                        std::to_string(values.size()) +
                        " value(s), its key names " +
                        std::to_string(ports) + " port count(s) (" +
                        std::to_string(2 + ports) + " expected)");
}

/**
 * A `ref;` entry, read against the reference-set layout (DESIGN.md
 * §12.3): version, text size, three AHH parameter triples, then per
 * bank the access and store counts and two length-prefixed count
 * tables (misses, write-backs). Every count must be an integer in
 * [0, accesses]; the parameters must lie in the run model's domain
 * for the granules the key names (`;gi<N>`, `;gu<N>`).
 */
void
checkReferenceEntry(const std::string &key,
                    const std::vector<double> &values,
                    const std::string &at, Diagnostics &diags)
{
    constexpr double layoutVersion = 1.0;
    constexpr double maxExact = 9007199254740992.0; // 2^53
    uint64_t i_granule = 0, u_granule = 0;
    const auto segments = keySegments(key);
    // Past `ref` and the app name, which could look like a granule.
    for (size_t i = 2; i < segments.size(); ++i) {
        const std::string &seg = segments[i];
        if (seg.rfind("gi", 0) == 0 && isAllDigits(seg, 2))
            i_granule = std::strtoull(seg.c_str() + 2, nullptr, 10);
        else if (seg.rfind("gu", 0) == 0 && isAllDigits(seg, 2))
            u_granule = std::strtoull(seg.c_str() + 2, nullptr, 10);
    }
    size_t pos = 0;
    std::string problem;
    auto fail = [&](const std::string &why) {
        if (problem.empty())
            problem = why + " at value " + std::to_string(pos);
        return false;
    };
    auto count = [&](double &out, double limit) {
        if (pos >= values.size())
            return fail("entry ends early");
        double v = values[pos];
        if (v < 0.0 || v > limit || v != std::floor(v))
            return fail("count " + std::to_string(v) +
                        " is not an integer in [0, " +
                        std::to_string(limit) + "]");
        out = v;
        ++pos;
        return true;
    };
    double version = 0.0, text = 0.0;
    bool ok = count(version, maxExact) &&
              (version == layoutVersion ||
               fail("unknown layout version")) &&
              count(text, maxExact) &&
              (text > 0.0 || fail("empty reference text"));
    core::ComponentParams params[3];
    for (auto &p : params) {
        if (ok && pos + 3 > values.size())
            ok = fail("entry ends early");
        if (ok) {
            p.u1 = values[pos];
            p.p1 = values[pos + 1];
            p.lav = values[pos + 2];
            pos += 3;
        }
    }
    for (int bank = 0; ok && bank < 3; ++bank) {
        double accesses = 0.0, stores = 0.0;
        ok = count(accesses, maxExact) && count(stores, accesses);
        for (int table = 0; ok && table < 2; ++table) {
            double n = 0.0, c = 0.0;
            ok = count(n, maxExact) &&
                 (pos + n <= values.size() || fail("entry ends early"));
            for (double k = 0; ok && k < n; ++k)
                ok = count(c, accesses);
        }
    }
    if (ok && pos != values.size())
        ok = fail("trailing values");
    if (!ok) {
        diags.error("result.cachefile", at,
                    "reference-set entry does not decode: " + problem);
        return;
    }
    if (i_granule == 0 || u_granule == 0) {
        diags.error("result.cachefile", at,
                    "reference-set key names no AHH granules");
        return;
    }
    verifyAhhParams(params[0], i_granule, at + " instruction trace",
                    diags);
    verifyAhhParams(params[1], u_granule,
                    at + " unified instruction trace", diags);
    verifyAhhParams(params[2], u_granule, at + " unified data trace",
                    diags);
}

} // namespace

bool
verifyMissCount(double misses, double accesses,
                const std::string &what, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    if (!std::isfinite(misses) || !std::isfinite(accesses))
        diags.error("result.misses", what,
                    "non-finite miss or access count");
    else if (misses < 0.0)
        diags.error("result.misses", what,
                    "negative miss count " + std::to_string(misses));
    else if (misses > accesses)
        diags.error("result.misses", what,
                    "miss count " + std::to_string(misses) +
                        " exceeds access count " +
                        std::to_string(accesses));
    return diags.errorCount() == before;
}

bool
verifyWriteModel(double writes, double misses, double stores,
                 cache::WritePolicy policy, const std::string &what,
                 Diagnostics &diags)
{
    size_t before = diags.errorCount();
    if (!std::isfinite(writes) || !std::isfinite(misses) ||
        !std::isfinite(stores)) {
        diags.error("result.writes", what,
                    "non-finite write/miss/store count");
        return false;
    }
    if (writes < 0.0) {
        diags.error("result.writes", what,
                    "negative write traffic " +
                        std::to_string(writes));
        return false;
    }
    if (policy == cache::WritePolicy::WriteBack) {
        // A writeback rides a dirty eviction, every eviction rides a
        // miss, and a line is dirty only after a store since its
        // install — so writebacks are bounded by both counts.
        if (writes > misses)
            diags.error("result.writes", what,
                        "writeback count " + std::to_string(writes) +
                            " exceeds miss count " +
                            std::to_string(misses));
        if (writes > stores)
            diags.error("result.writes", what,
                        "writeback count " + std::to_string(writes) +
                            " exceeds store count " +
                            std::to_string(stores));
    } else if (writes != stores) {
        diags.error("result.writes", what,
                    "write-through traffic " +
                        std::to_string(writes) +
                        " differs from store count " +
                        std::to_string(stores));
    }
    return diags.errorCount() == before;
}

bool
verifyParetoPoints(const std::vector<dse::DesignPoint> &points,
                   const std::string &what, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    for (const auto &point : points) {
        if (point.id.empty())
            diags.error("result.pareto", what,
                        "member with an empty id");
        if (!std::isfinite(point.cost) ||
            !std::isfinite(point.time) || point.cost < 0.0 ||
            point.time < 0.0)
            diags.error("result.pareto", what + " member " + point.id,
                        "cost/time must be finite and non-negative");
    }
    for (size_t i = 0; i < points.size(); ++i) {
        for (size_t j = i + 1; j < points.size(); ++j) {
            if (points[i].id == points[j].id)
                diags.error("result.pareto", what,
                            "duplicate member id " + points[i].id);
            if (points[i].dominates(points[j]))
                diags.error("result.pareto", what,
                            "member " + points[i].id +
                                " dominates member " + points[j].id);
            else if (points[j].dominates(points[i]))
                diags.error("result.pareto", what,
                            "member " + points[j].id +
                                " dominates member " + points[i].id);
        }
    }
    return diags.errorCount() == before;
}

bool
verifyParetoSet(const dse::ParetoSet &set, const std::string &what,
                Diagnostics &diags)
{
    return verifyParetoPoints(set.points(), what, diags);
}

bool
verifyCacheFile(const std::string &path, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    std::string what = "cache file " + path;
    // The verifier is itself a checked reader: every record is
    // validated below. picoeval-lint: allow(raw-stream)
    std::ifstream in(path);
    if (!in) {
        diags.error("result.cachefile", what, "cannot open");
        return false;
    }
    std::string line;
    if (!std::getline(in, line)) {
        diags.error("result.cachefile", what,
                    "missing or wrong version header (expected '" +
                        std::string(cacheFileHeader) + "')");
        return false;
    }
    // A headerless v1 database begins directly with its records, and
    // the cache still loads it: check its first line as a record.
    bool pending = false;
    if (line == cacheFileHeaderV2) {
        diags.warning("result.cachefile", what,
                      "legacy v2 header (pre policy-axis schema); "
                      "rewritten as v3 on the next save");
    } else if (line != cacheFileHeader) {
        diags.warning("result.cachefile", what,
                      "no version header (headerless v1 database); "
                      "rewritten as v3 on the next save");
        pending = true;
    }
    std::string prevKey;
    uint64_t lineNo = pending ? 0 : 1;
    while (pending || std::getline(in, line)) {
        pending = false;
        ++lineNo;
        std::string at = what + " line " + std::to_string(lineNo);
        if (line.empty()) {
            diags.error("result.cachefile", at, "empty record");
            continue;
        }
        auto bar = line.find('|');
        if (bar == std::string::npos || bar == 0) {
            diags.error("result.cachefile", at,
                        "malformed record (expected 'key|values')");
            continue;
        }
        std::string key = line.substr(0, bar);
        std::vector<double> values;
        if (!parseValueList(line.substr(bar + 1), values))
            diags.error("result.cachefile", at,
                        "values are not a comma-separated list of "
                        "finite numbers");
        else if (key.rfind("proc;", 0) == 0)
            checkProcEntry(key, values, at, diags);
        else if (key.rfind("ref;", 0) == 0)
            checkReferenceEntry(key, values, at, diags);
        if (!prevKey.empty() && key <= prevKey)
            diags.error("result.cachefile", at,
                        "keys are not strictly ascending ('" + key +
                            "' after '" + prevKey + "')");
        prevKey = std::move(key);
    }
    return diags.errorCount() == before;
}

bool
verifyWalkResult(const dse::ExplorationResult &result,
                 uint64_t design_count, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    std::string what = "exploration result";
    if (result.evaluatedDesigns > design_count)
        diags.error("result.walk", what,
                    "claims " +
                        std::to_string(result.evaluatedDesigns) +
                        " evaluated design(s) but the walk has "
                        "only " +
                        std::to_string(design_count));
    if (result.failures.empty() &&
        result.evaluatedDesigns != design_count)
        diags.error("result.walk", what,
                    "no failures recorded, yet only " +
                        std::to_string(result.evaluatedDesigns) +
                        " of " + std::to_string(design_count) +
                        " design(s) evaluated");
    if (result.dilations.size() != result.evaluatedDesigns)
        diags.error("result.walk", what,
                    std::to_string(result.dilations.size()) +
                        " dilation(s) for " +
                        std::to_string(result.evaluatedDesigns) +
                        " evaluated design(s)");
    if (result.processorCycles.size() != result.evaluatedDesigns)
        diags.error("result.walk", what,
                    std::to_string(result.processorCycles.size()) +
                        " cycle count(s) for " +
                        std::to_string(result.evaluatedDesigns) +
                        " evaluated design(s)");
    for (const auto &[machine, dilation] : result.dilations) {
        if (!std::isfinite(dilation) || dilation <= 0.0)
            diags.error("result.walk", "machine " + machine,
                        "dilation " + std::to_string(dilation) +
                            " is not finite and positive");
    }
    for (const auto &[machine, cycles] : result.processorCycles) {
        if (cycles == 0)
            diags.error("result.walk", "machine " + machine,
                        "zero processor cycles");
    }
    for (const auto &record : result.failures.entries()) {
        if (record.design.empty() || record.stage.empty())
            diags.error("result.walk", "failure log",
                        "record with an empty design or stage");
    }
    verifyParetoPoints(result.processors.points(),
                       "processor Pareto set", diags);
    verifyParetoPoints(result.systems.points(),
                       "system Pareto set", diags);
    return diags.errorCount() == before;
}

bool
verifyColumnarTrace(const trace::ColumnarTraceBuffer &buffer,
                    const std::string &what, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    const size_t blocks = buffer.blockCount();
    trace::BlockScratch scratch;
    uint64_t decoded = 0;
    for (size_t b = 0; b < blocks; ++b) {
        try {
            trace::BlockView view = buffer.decodeBlock(b, scratch);
            if (b + 1 < blocks &&
                view.count != buffer.blockCapacity())
                diags.error("result.trace", what,
                            "non-tail block " + std::to_string(b) +
                                " holds " +
                                std::to_string(view.count) +
                                " of " +
                                std::to_string(
                                    buffer.blockCapacity()) +
                                " records");
            decoded += view.count;
        } catch (const std::exception &e) {
            diags.error("result.trace", what,
                        "block " + std::to_string(b) +
                            " failed to decode: " + e.what());
        }
    }
    if (decoded != buffer.size())
        diags.error("result.trace", what,
                    "decoded " + std::to_string(decoded) +
                        " record(s) but the buffer captured " +
                        std::to_string(buffer.size()));
    return diags.errorCount() == before;
}

bool
verifyAccessSplit(uint64_t i_accesses, uint64_t d_accesses,
                  uint64_t u_accesses,
                  const trace::ColumnarTraceBuffer *capture,
                  const std::string &what, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    const uint64_t split = i_accesses + d_accesses;
    auto expect = [&](uint64_t whole, const char *of) {
        if (split != whole)
            diags.error("result.trace", what,
                        "I$ + D$ read " + std::to_string(split) +
                            " record(s) of " + of + "'s " +
                            std::to_string(whole));
    };
    expect(u_accesses, "the U$ bank");
    if (capture != nullptr)
        expect(capture->size(), "the capture");
    return diags.errorCount() == before;
}

} // namespace pico::verify
