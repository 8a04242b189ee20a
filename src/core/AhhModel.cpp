#include "core/AhhModel.hpp"

#include <cmath>

#include "support/Logging.hpp"

namespace pico::core::ahh
{

namespace
{

/**
 * log|Gamma(x)| without touching the process-wide `signgam` that
 * lgamma() writes: the estimates run on pool workers, and glibc
 * computes both functions through the same routine.
 */
double
logGamma(double x)
{
    int sign = 0;
    return lgamma_r(x, &sign);
}

/** log of the generalized binomial coefficient C(n, a), real n. */
double
logBinomialCoeff(double n, uint32_t a)
{
    return logGamma(n + 1.0) - logGamma(a + 1.0) -
           logGamma(n - a + 1.0);
}

} // namespace

double
setOccupancyProb(double uL, uint32_t a, uint32_t sets)
{
    fatalIf(sets == 0, "setOccupancyProb with zero sets");
    fatalIf(uL < 0.0, "negative unique-line count");
    if (static_cast<double>(a) > uL)
        return 0.0;
    if (sets == 1)
        // Degenerate: every line lands in the single set.
        return std::abs(static_cast<double>(a) - uL) < 1.0 ? 1.0 : 0.0;
    double log_p = -std::log(static_cast<double>(sets));
    double log_q = std::log1p(-1.0 / static_cast<double>(sets));
    double log_prob = logBinomialCoeff(uL, a) +
                      static_cast<double>(a) * log_p +
                      (uL - static_cast<double>(a)) * log_q;
    return std::exp(log_prob);
}

double
collisions(double uL, uint32_t sets, uint32_t assoc)
{
    fatalIf(assoc == 0, "collisions with zero associativity");
    if (uL <= 0.0)
        return 0.0;
    if (sets == 1) {
        // All lines share one set; everything beyond A collides in
        // expectation (matching the 4.8 form with the degenerate
        // occupancy distribution).
        return uL > assoc ? uL - assoc : 0.0;
    }

    // Tail series: sum_{a=A+1}^{inf} S * a * P(a). The binomial pmf
    // decays geometrically past its mean, so truncate once the terms
    // become negligible relative to the partial sum.
    double total = 0.0;
    double s = static_cast<double>(sets);
    auto a_limit = static_cast<uint32_t>(uL) + 2;
    for (uint32_t a = assoc + 1; a <= a_limit; ++a) {
        double term = s * static_cast<double>(a) *
                      setOccupancyProb(uL, a, sets);
        total += term;
        if (term < 1e-15 * (total + 1e-300) && a > assoc + 4)
            break;
    }
    // Collisions cannot exceed the number of unique lines; clip the
    // tiny positive excess the real-valued pmf can accumulate.
    return std::min(total, uL);
}

double
collisionsDirect(double uL, uint32_t sets, uint32_t assoc)
{
    fatalIf(assoc == 0, "collisions with zero associativity");
    if (uL <= 0.0)
        return 0.0;
    if (sets == 1)
        return uL > assoc ? uL - assoc : 0.0;
    double s = static_cast<double>(sets);
    double kept = 0.0;
    for (uint32_t a = 0; a <= assoc; ++a)
        kept += s * static_cast<double>(a) *
                setOccupancyProb(uL, a, sets);
    return uL - kept;
}

double
scaleMisses(double misses_c1, double coll_c1, double coll_c2)
{
    fatalIf(misses_c1 < 0.0, "negative miss count");
    if (coll_c1 <= 0.0) {
        // The reference cache is collision-free under the model; the
        // ratio is undefined, so fall back to the measured misses.
        return misses_c1;
    }
    return misses_c1 * coll_c2 / coll_c1;
}

} // namespace pico::core::ahh
