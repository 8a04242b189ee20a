/**
 * @file
 * Design-space invariant verifier: cache geometry, subspace domains,
 * hierarchy inclusion, AHH model parameter domains.
 *
 * Rules (catalog in DESIGN.md §9):
 *  - cache.geometry      sets and line size are powers of two, line
 *                        size within the simulators' covered range,
 *                        associativity and ports positive and sane
 *  - space.domain        every dimension of a CacheSpace is
 *                        non-empty and at least one combination is
 *                        feasible
 *  - hierarchy.inclusion the unified L2 can contain each L1
 *                        (size and line length, section 3.1) and
 *                        latencies are positive
 *  - ahh.domain          extracted trace parameters lie in the
 *                        domains the run model (eqs. 4.4/4.5, used
 *                        by eqs. 4.12–4.15) is defined on; measured
 *                        data that violates the *model assumption*
 *                        lav >= 1 + p1 (which makes p2 negative) is
 *                        reported as a warning, not an error
 */

#ifndef PICO_VERIFY_DESIGN_VERIFIER_HPP
#define PICO_VERIFY_DESIGN_VERIFIER_HPP

#include <string>

#include "cache/CacheConfig.hpp"
#include "cache/Hierarchy.hpp"
#include "core/TraceModel.hpp"
#include "dse/CacheSpace.hpp"
#include "verify/Diagnostics.hpp"

namespace pico::verify
{

/**
 * Check one cache configuration's geometry.
 * @param what label for findings (e.g. "I$16KB/2way/32B")
 * @return true when no error-severity finding was added
 */
bool verifyCacheConfig(const cache::CacheConfig &config,
                       const std::string &what, Diagnostics &diags);

/**
 * Check a cache subspace specification: non-empty dimensions, sane
 * values, and at least one feasible cross-product combination.
 * @return true when no error-severity finding was added
 */
bool verifyCacheSpace(const dse::CacheSpace &space,
                      const std::string &what, Diagnostics &diags);

/**
 * Check a hierarchy configuration: per-level geometry, inclusion
 * feasibility (L1 ⊆ L2), positive latencies.
 * @return true when no error-severity finding was added
 */
bool verifyHierarchy(const cache::HierarchyConfig &config,
                     Diagnostics &diags);

/**
 * Check extracted AHH parameters against the run model's domain
 * (core::ComponentParams::domainErrors, one error each); warn when
 * p2 < 0.
 * @param granule_refs references per granule the parameters were
 *        extracted with (u1 cannot exceed it)
 * @return true when no error-severity finding was added
 */
bool verifyAhhParams(const core::ComponentParams &params,
                     uint64_t granule_refs, const std::string &what,
                     Diagnostics &diags);

} // namespace pico::verify

#endif // PICO_VERIFY_DESIGN_VERIFIER_HPP
