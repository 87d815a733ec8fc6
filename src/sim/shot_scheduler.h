/**
 * @file
 * Ordered-claim scheduler for embarrassingly parallel Monte-Carlo work.
 *
 * The Figure-7 threshold sweep decomposes into independent jobs -- one
 * (physical-error, level, shot-chunk) range each -- whose results are
 * deterministic per job: shot i draws only from RngFamily(seed).stream(i)
 * (common/rng.h), so a chunk computes the same answer on any thread in
 * any order. The scheduler only has to run the jobs somewhere and let
 * the caller reduce per-job partial sim::Stats in fixed job order;
 * results are then bit-identical for every thread count and schedule.
 *
 * Topology: one shared claim counter. Every worker, the caller
 * included, claims the next unclaimed job index, so jobs *start*
 * strictly in index order and an idle worker always picks up the next
 * job in line. Callers put their most expensive jobs first (the sweep
 * dispatch order, arq::sweepDispatchOrder), so no worker is left
 * holding a long job at the end of a run while the others idle. Jobs
 * are coarse (milliseconds), so one atomic increment per job is
 * nothing.
 *
 * Chunk sizing: callers slicing batched sweeps should align chunk
 * boundaries to whole shot groups -- multiples of
 * groupWords * kBatchLanes (2048 shots at the defaults) -- so every
 * job replays full-capacity groups and only the final partial chunk
 * pays the narrow-batch shape (the engine packs a partial batch's
 * frame planes to its own width, but full groups amortize per-trace
 * planning best). arq::thresholdSweep does this alignment.
 */

#ifndef QLA_SIM_SHOT_SCHEDULER_H
#define QLA_SIM_SHOT_SCHEDULER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qla::sim {

/**
 * Number of worker threads to use: @p requested when positive, else the
 * QLA_THREADS environment variable when it parses strictly as a
 * positive integer, else the hardware concurrency (at least 1). A
 * malformed QLA_THREADS value (e.g. "four", "2x") is ignored with a
 * once-per-value warning to stderr.
 */
int resolveThreadCount(int requested = 0);

/**
 * Persistent thread pool executing indexed job sets in claim order.
 *
 * run(count, fn) invokes fn(job, worker) for every job in [0, count)
 * exactly once, starting jobs in ascending index order, and returns
 * when all jobs have finished. The calling thread participates as
 * worker 0; a single-thread scheduler (or a single job) runs inline
 * with no pool handoff at all, so sequential runs stay exactly
 * sequential. Job functions for distinct jobs run concurrently and
 * must only touch shared state through their own job-indexed slots.
 */
class ShotScheduler
{
  public:
    /** @p threads as in resolveThreadCount. */
    explicit ShotScheduler(int threads = 0);
    ~ShotScheduler();

    ShotScheduler(const ShotScheduler &) = delete;
    ShotScheduler &operator=(const ShotScheduler &) = delete;

    int threadCount() const { return threads_; }

    using JobFn = std::function<void(std::size_t job, int worker)>;

    /**
     * Execute jobs [0, @p count); blocks until every job completed.
     * The first exception thrown by a job is rethrown here after the
     * remaining jobs are drained unexecuted.
     */
    void run(std::size_t count, const JobFn &fn);

  private:
    void poolThreadMain(int worker);
    void workLoop(int worker);

    int threads_;
    std::vector<std::thread> pool_;

    std::mutex run_mutex_; // serializes run() calls
    // Guards the run state below: a run opens, pool threads join it
    // (inside_) and leave it, and run() returns only once every joined
    // thread has left, so no thread can claim an index of the next run.
    std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t generation_ = 0;
    bool open_ = false;
    bool stop_ = false;
    int inside_ = 0;
    std::exception_ptr error_;

    const JobFn *fn_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> cancelled_{false};
};

} // namespace qla::sim

#endif // QLA_SIM_SHOT_SCHEDULER_H
