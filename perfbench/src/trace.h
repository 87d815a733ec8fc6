/**
 * @file
 * Span recording for the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the library's public functions (the library itself carries no
 * tracing). Each span has a name "<layer>.<what>", start and end on
 * one steady clock, the id of the span that caused it, and the worker
 * slot it ran on. Spans stay in memory and are written out once, at
 * exit, as Chrome trace-event JSON.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds elapsed since @p since. */
inline std::int64_t
elapsedNs(Clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - since)
        .count();
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0; ///< Since the tracer's origin.
    std::int64_t endNs = 0;
    int id = 0;
    int parent = -1; ///< -1 for a root span.
    int worker = 0;
};

/** Thread-safe in-memory span store. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    std::int64_t now() const { return elapsedNs(origin_); }

    /** Start a span whose end comes later; returns its id. */
    int open(const std::string &name, int parent, int worker);
    void close(int id);

    /** Record a finished span; returns its id. */
    int record(const std::string &name, std::int64_t start_ns,
               std::int64_t end_ns, int parent, int worker);

    std::vector<Span> spans() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Length of the union of @p intervals ([start, end) pairs) clipped to
 * [@p start, @p end). Overlapping children (parallel workers) count
 * once.
 */
std::int64_t coveredNs(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>>
                           intervals);

/**
 * Self time per layer: each span's duration minus the part of its
 * interval its child spans cover, summed by layer (nanoseconds).
 */
std::map<std::string, std::int64_t>
selfTimeByLayer(const std::vector<Span> &spans);

/** Chrome trace-event JSON ("X" complete events, microseconds). */
std::string chromeTraceJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
