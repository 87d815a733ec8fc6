/**
 * @file
 * Threshold-theorem sizing model (paper Section 4.1.2, Equation 2).
 *
 * Gottesman's estimate for local architectures:
 *
 *   P_f = (p_th / r^L) * (p_0 / p_th)^(2^L)
 *
 * where r is the communication distance between level-1 blocks (12 cells
 * in the QLA alignment), p_0 the physical component failure rate, and
 * p_th the code threshold. A computation of S = KQ elementary steps
 * requires P_f < 1/S.
 */

#ifndef QLA_ECC_THRESHOLD_H
#define QLA_ECC_THRESHOLD_H

namespace qla::ecc {

/** Reference threshold values quoted by the paper. */
namespace thresholds {

/** Svore-Terhal-DiVincenzo local fault-tolerance estimate [41]. */
inline constexpr double kTheoretical = 7.5e-5;

/** Reichardt's improved-ancilla estimate [44]. */
inline constexpr double kReichardt = 9e-3;

/** The paper's empirical Figure-7 estimate for the QLA logical qubit. */
inline constexpr double kEmpirical = 2.1e-3;

/** QLA level-1 block communication distance in cells. */
inline constexpr double kCommunicationDistance = 12.0;

} // namespace thresholds

/**
 * Equation 2: failure probability of a level-L encoded gate.
 *
 * @param level Recursion level L >= 0 (L = 0 returns p0).
 * @param p0    Physical component failure rate.
 * @param pth   Code threshold.
 * @param r     Communication distance between level-1 blocks (cells).
 */
double localGateFailureRate(int level, double p0, double pth,
                            double r = thresholds::kCommunicationDistance);

/** Largest computation size S = KQ executable at the given level. */
double maxComputationSize(int level, double p0, double pth,
                          double r = thresholds::kCommunicationDistance);

/**
 * Smallest recursion level whose failure rate beats 1/S, or -1 if no
 * level up to @p max_level suffices.
 */
int requiredRecursionLevel(double computation_size, double p0, double pth,
                           double r = thresholds::kCommunicationDistance,
                           int max_level = 6);

} // namespace qla::ecc

#endif // QLA_ECC_THRESHOLD_H
