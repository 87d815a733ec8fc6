/**
 * @file
 * The benchmark's three phases, one per computation the paper stands
 * on: the Figure-7 threshold sweep (fig7), the Section-5 interconnect
 * co-simulation (cosim) and the sweep service (serve).
 *
 * Every run executes all three phases, so every run reports every
 * metric; the workload decides which phase gets the larger share of
 * the measured time. Each phase is set up before measuring (the set-up
 * is timed as setup_s) and then repeats passes over its inputs. A phase
 * has one or more parts (cosim has one per configuration), and the
 * program interleaves single passes of all parts, always running the
 * part furthest behind its share of the time, so every metric samples
 * the whole run rather than one stretch of it. Passes of one part
 * repeat the same inputs (serve draws fresh requests per pass), so
 * their outputs must agree byte for byte; the first passes' outputs go
 * into the phase digest, which two runs at one seed reproduce exactly.
 *
 * Plain runs (--trace 0) report end-to-end metrics with no spans
 * recorded. Traced runs (--trace 1) alternate plain and traced passes:
 * traced passes record spans around each public call and give the
 * per-layer metrics, and the plain passes give the tracing overhead.
 */

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

/** What every phase needs to know about the run. */
struct RunContext
{
    std::uint64_t seed = 0;
    int workers = 2;
    /** Scratch directory for checkpoint files. */
    std::string workdir;
    /** Set in traced runs only. */
    Tracer *tracer = nullptr;
};

class Phase
{
  public:
    virtual ~Phase() = default;
    virtual const char *name() const = 0;
    /**
     * Build inputs, construct engines, one untimed warm-up. Called
     * again between passes to time set-up; later calls repeat the work
     * without disturbing the measurement state.
     */
    virtual void setup() = 0;
    /** Independently scheduled parts and their shares of the phase's
     *  time (summing to 1). */
    virtual std::vector<double> partShares() const { return {1.0}; }
    /** Run one pass of @p part, checking its outputs. */
    virtual void step(std::size_t part, Report &report) = 0;
    /** True once @p part has the samples its metrics need. */
    virtual bool satisfied(std::size_t part) const = 0;
    /** Report this phase's metrics. */
    virtual void finish(Report &report) = 0;
};

std::unique_ptr<Phase> makeFig7Phase(const RunContext &context);
std::unique_ptr<Phase> makeCoSimPhase(const RunContext &context);
std::unique_ptr<Phase> makeServePhase(const RunContext &context);

/** Wall seconds since @p since. */
inline double
secondsSince(Clock::time_point since)
{
    return static_cast<double>(elapsedNs(since)) * 1e-9;
}

/** Per-layer self time per traced pass, and the tracing overhead. */
void reportLayerTimes(const Tracer &tracer, const char *phase,
                      const char *const *layers, std::size_t layer_count,
                      std::size_t traced_passes, double overhead_ms,
                      Report &report);

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
