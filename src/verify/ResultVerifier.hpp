/**
 * @file
 * Result invariant verifier: simulator outputs, Pareto sets, the
 * persistent evaluation-cache file, and whole-walk bookkeeping.
 *
 * Rules (catalog in DESIGN.md §9):
 *  - result.misses    miss counts are finite, non-negative, and never
 *                     exceed the access count they were counted over
 *  - result.writes    write traffic obeys the write model: finite and
 *                     non-negative; write-back traffic never exceeds
 *                     misses (every writeback rides an eviction) nor
 *                     stores (every written-back line was dirtied by
 *                     at least one store since install);
 *                     write-through traffic equals the store count
 *                     exactly
 *  - result.pareto    Pareto members have unique ids, finite
 *                     non-negative cost/time, and no member dominates
 *                     another (section 1's optimality definition)
 *  - result.cachefile a persisted evaluation-cache database parses
 *                     back cleanly: versioned header, well-formed
 *                     sorted unique `key|values` records, finite
 *                     values, and both entry shapes — a `proc;`
 *                     entry holds 2 + (its key's `;p` segments)
 *                     values, a `ref;` entry decodes with every
 *                     count an integer in [0, accesses] and its AHH
 *                     parameters in domain (parsed here independently
 *                     of EvaluationCache and ReferenceSet so the
 *                     round-trip is checked against the format, not
 *                     the implementation)
 *  - result.walk      exploration bookkeeping: evaluated-design count
 *                     bounded by the walk size and consistent with
 *                     the failure log, per-machine dilations/cycles
 *                     present, finite and positive
 *  - result.trace     a captured columnar trace decodes block by
 *                     block: every block's streams are well formed,
 *                     block record counts are full except the tail,
 *                     and the decoded record count equals the
 *                     captured size; a class's I$ and D$ banks read
 *                     disjoint parts of its one capture, so their
 *                     access counts sum to the U$ bank's and to the
 *                     capture's record count
 */

#ifndef PICO_VERIFY_RESULT_VERIFIER_HPP
#define PICO_VERIFY_RESULT_VERIFIER_HPP

#include <string>
#include <vector>

#include "cache/Policy.hpp"
#include "dse/Pareto.hpp"
#include "dse/Spacewalker.hpp"
#include "trace/ColumnarTrace.hpp"
#include "verify/Diagnostics.hpp"

namespace pico::verify
{

/**
 * Check one simulator outcome: `misses` counted over `accesses`.
 * @return true when no error-severity finding was added
 */
bool verifyMissCount(double misses, double accesses,
                     const std::string &what, Diagnostics &diags);

/**
 * Check one simulator's write traffic against the write model:
 * `writes` memory writes generated under `policy`, for a trace with
 * `stores` store references whose simulation reported `misses`
 * misses (the policy tag belongs in `what` so findings name the
 * design-space cell they came from).
 * @return true when no error-severity finding was added
 */
bool verifyWriteModel(double writes, double misses, double stores,
                      cache::WritePolicy policy,
                      const std::string &what, Diagnostics &diags);

/**
 * Check a claimed Pareto set for domination-freedom, id uniqueness
 * and metric sanity.
 * @return true when no error-severity finding was added
 */
bool verifyParetoPoints(const std::vector<dse::DesignPoint> &points,
                        const std::string &what, Diagnostics &diags);

/** ParetoSet convenience overload of verifyParetoPoints(). */
bool verifyParetoSet(const dse::ParetoSet &set,
                     const std::string &what, Diagnostics &diags);

/**
 * Re-parse a persisted evaluation-cache database and check the
 * format invariants (header, record shape, key ordering, finite
 * values, `proc;` and `ref;` entry shapes). A v2 header or a
 * headerless v1 file, both of which the cache still loads, is one
 * warning; a v1 file's first line is checked as a record.
 * @return true when no error-severity finding was added
 */
bool verifyCacheFile(const std::string &path, Diagnostics &diags);

/**
 * Check the bookkeeping of a finished exploration.
 * @param design_count machines the walk was asked to evaluate
 * @return true when no error-severity finding was added
 */
bool verifyWalkResult(const dse::ExplorationResult &result,
                      uint64_t design_count, Diagnostics &diags);

/**
 * Decode every block of a captured columnar trace and check the
 * encoding invariants: every block decodes, every block but the
 * tail is full, and the decoded record count equals the captured
 * size.
 * @return true when no error-severity finding was added
 */
bool verifyColumnarTrace(const trace::ColumnarTraceBuffer &buffer,
                         const std::string &what,
                         Diagnostics &diags);

/**
 * Check that a class's I$ and D$ bank access counts sum to its U$
 * bank's and, when the class's capture is at hand (null on a
 * reference-set hit), to the capture's record count.
 * @return true when no error-severity finding was added
 */
bool verifyAccessSplit(uint64_t i_accesses, uint64_t d_accesses,
                       uint64_t u_accesses,
                       const trace::ColumnarTraceBuffer *capture,
                       const std::string &what, Diagnostics &diags);

} // namespace pico::verify

#endif // PICO_VERIFY_RESULT_VERIFIER_HPP
