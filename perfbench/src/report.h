/**
 * @file
 * Metrics, the percentile rule, correctness accounting and the result
 * line of one benchmark run.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or
 *  digit. */
bool validMetricName(const std::string &name);

/** Median (mean of the two middle values for even counts); 0 when
 *  empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank @p q-quantile, reported only when at least ten samples
 * lie beyond it: a p90 needs 100 samples, a p99 needs 1000. Returns
 * nothing when the sample is too small for the percentile.
 */
std::optional<double> tailPercentile(std::vector<double> values, double q);

/** Samples needed before tailPercentile(values, q) reports. */
std::size_t samplesForPercentile(double q);

/** Metrics, operation counts and output digests of one run. */
class Report
{
  public:
    /** Record a metric; a bad or repeated name is a fatal error. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Scale of end-to-end timings to the reference host speed:
     *  reference kernel time / this run's (host_speed.h). */
    void setHostScale(double scale) { hostScale_ = scale; }
    /** An end-to-end time (lower is better) at the reference host
     *  speed; the raw value goes on the raw line. */
    void hostTime(const std::string &name, double value,
                  const std::string &unit);
    /** An end-to-end rate (higher is better) at the reference speed. */
    void hostRate(const std::string &name, double value,
                  const std::string &unit);
    /** "raw name=value ..." of every host-scaled metric, as measured. */
    std::string rawLine() const;

    /**
     * Count one attempted operation (a sweep call, a co-sim run, a
     * request); @p ok false counts it failed and logs @p what.
     */
    void operation(bool ok, const std::string &what);

    /** Fold text into the named phase's output digest (FNV-1a). */
    void digest(const std::string &phase, const std::string &text);

    const std::map<std::string, std::uint64_t> &digests() const
    {
        return digests_;
    }
    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string resultJson() const;

  private:
    bool hasMetric(const std::string &name) const;

    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<Metric> raw_;
    double hostScale_ = 1.0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, std::uint64_t> digests_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
