/**
 * @file
 * Result digests and the golden-digest store.
 *
 * A host-time benchmark is only meaningful while the answers stay
 * bit-identical, so every walk and every served answer is reduced to
 * a 64-bit FNV-1a digest over its canonical bytes and compared with
 * the digest recorded when the benchmark was defined. A mismatch is a
 * failed operation, never a speed-up.
 */

#ifndef PERFBENCH_DIGEST_HPP
#define PERFBENCH_DIGEST_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "dse/Spacewalker.hpp"
#include "server/Protocol.hpp"

namespace perfbench
{

/**
 * Digest of one walk: the systems Pareto points (ids plus the bit
 * patterns of cost and time, sorted by id), the per-machine dilations
 * (bit patterns) and processor cycles.
 */
std::string walkDigest(const pico::dse::ExplorationResult &result);

/**
 * Digest of one served answer: pareto.systems plus the per-machine
 * dilation and cycles the response carries.
 */
std::string answerDigest(const pico::server::Response &resp);

/** Golden digests keyed by workload/budget/input, one per line. */
class GoldenStore
{
  public:
    /**
     * @param path golden file ("key digest" lines)
     * @param record true to record digests (written by save())
     *        instead of checking them
     */
    GoldenStore(std::string path, bool record);

    /**
     * Check (or record) one digest. Thread-safe.
     * @return true when the digest matches the golden one; while
     *         recording, false only when one key got two digests
     */
    bool check(const std::string &key, const std::string &digest);

    /** Write the recorded digests back (record mode only). */
    bool save() const;

  private:
    std::string path_;
    bool record_;
    mutable std::mutex mutex_;
    std::map<std::string, std::string> golden_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HPP
