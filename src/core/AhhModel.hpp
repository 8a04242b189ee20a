/**
 * @file
 * AHH analytic cache model: set-occupancy and collision math.
 *
 * Implements equations 4.6–4.8 of the paper (after Agarwal, Horowitz
 * and Hennessy): with u(L) unique lines per granule mapped uniformly
 * into S sets, the probability that a set holds exactly `a` lines is
 * binomial, and the expected collisions of an A-way cache are
 *
 *     Coll(S, A, L) = u(L) - sum_{a=0}^{A} S * a * P(L, a).       (4.8)
 *
 * The direct evaluation of 4.8 subtracts two nearly equal numbers
 * when collisions are rare; section 5.3 of the paper notes this and
 * prescribes an alternate procedure that sums "an adequate initial
 * segment of an infinite monotonically decreasing series". Because
 * sum_a S*a*P(L,a) over all a equals u(L), that series is the tail
 *
 *     Coll(S, A, L) = sum_{a=A+1}^{inf} S * a * P(L, a)
 *
 * which is what collisions() evaluates; collisionsDirect() retains
 * the textbook form for validation.
 */

#ifndef PICO_CORE_AHH_MODEL_HPP
#define PICO_CORE_AHH_MODEL_HPP

#include <cstdint>

namespace pico::core::ahh
{

/**
 * Binomial probability that a set receives exactly `a` of uL lines
 * (equation 4.6), generalized to real-valued uL via the gamma
 * function.
 * @param uL unique lines per granule (may be fractional)
 * @param a occupancy
 * @param sets number of sets S
 */
double setOccupancyProb(double uL, uint32_t a, uint32_t sets);

/**
 * collisions() reads log(a!) from a table of this many entries, filled
 * once per process, and calls lgamma_r past its end.
 */
constexpr uint32_t logFactorialTableSize = 1024;

/**
 * Expected collisions (equation 4.8) via the numerically stable
 * tail-series form. The series stops at a negligible term only once
 * the terms fall, so an overloaded cache whose leading terms
 * underflow still sums to about u(L) - S * A.
 * @param uL unique lines per granule
 * @param sets number of sets S
 * @param assoc associativity A
 */
double collisions(double uL, uint32_t sets, uint32_t assoc);

/**
 * Expected collisions via the direct form of equation 4.8; exact in
 * well-conditioned regimes, used to validate collisions().
 */
double collisionsDirect(double uL, uint32_t sets, uint32_t assoc);

/**
 * Steady-state miss estimate for cache C2 from the misses of C1
 * (equation 4.7): m(C2) = Coll(C2) / Coll(C1) * m(C1). The caller
 * supplies the two collision values and the measured misses.
 */
double scaleMisses(double misses_c1, double coll_c1, double coll_c2);

} // namespace pico::core::ahh

#endif // PICO_CORE_AHH_MODEL_HPP
