/**
 * @file
 * Lightweight statistics accumulators for simulation outputs.
 */

#ifndef QLA_SIM_STATS_H
#define QLA_SIM_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace qla::sim {

/**
 * Streaming scalar accumulator (count / mean / variance / extrema) using
 * Welford's algorithm so long runs stay numerically stable.
 */
class ScalarStat
{
  public:
    /** Record one sample. */
    void add(double value);

    /**
     * Record @p count samples of the same @p value in O(1) (Chan's
     * parallel-variance merge with a zero-variance block). Used by the
     * batched Monte Carlo to fold whole 64-shot words into the stats.
     */
    void addRepeated(double value, std::uint64_t count);

    /**
     * Fold another accumulator into this one (Chan's parallel-variance
     * merge). The parallel shot scheduler reduces per-chunk partials in
     * a fixed chunk order, so merged results are independent of thread
     * count and schedule.
     */
    void merge(const ScalarStat &other);

    std::uint64_t count() const { return count_; }
    double mean() const;
    /** Unbiased sample variance; 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    /** Standard error of the mean. */
    double sem() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

    /**
     * Exact internal state, for bit-faithful serialization (the sweep
     * service's checkpoints, serve/checkpoint.h): round-tripping through
     * Raw and then merging in the same order reproduces the original
     * accumulator bit for bit, which the resume-equivalence CI gate
     * relies on.
     */
    struct Raw
    {
        std::uint64_t count = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };
    Raw raw() const { return {count_, mean_, m2_, sum_, min_, max_}; }
    static ScalarStat fromRaw(const Raw &raw)
    {
        ScalarStat stat;
        stat.count_ = raw.count;
        stat.mean_ = raw.mean;
        stat.m2_ = raw.m2;
        stat.sum_ = raw.sum;
        stat.min_ = raw.min;
        stat.max_ = raw.max;
        return stat;
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Bernoulli-trial accumulator with a Wilson confidence interval, used for
 * Monte-Carlo failure-rate estimates (Figure 7).
 */
class RateStat
{
  public:
    /** Record one trial. */
    void add(bool success);

    /** Record @p trials trials of which @p successes succeeded. */
    void addBulk(std::uint64_t successes, std::uint64_t trials);

    /** Fold another accumulator into this one (pure integer counts, so
     *  the merge is exactly associative and commutative). */
    void merge(const RateStat &other);

    std::uint64_t trials() const { return trials_; }
    std::uint64_t successes() const { return successes_; }
    /** Point estimate successes/trials (0 when empty). */
    double rate() const;
    /** Half-width of the ~95% Wilson interval. */
    double halfWidth95() const;

  private:
    std::uint64_t trials_ = 0;
    std::uint64_t successes_ = 0;
};

/** Format a (value, error) pair as "v +- e" with sensible precision. */
std::string formatWithError(double value, double error);

} // namespace qla::sim

#endif // QLA_SIM_STATS_H
