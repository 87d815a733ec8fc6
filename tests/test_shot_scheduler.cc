/**
 * @file
 * Ordered-claim shot scheduler and stats-merge suite.
 *
 * The load-bearing properties: every job runs exactly once and jobs
 * start in index order; per-chunk sim::Stats partials reduced in fixed
 * chunk order reproduce the streaming accumulation; and the parallel
 * Monte-Carlo entry points built on top return bit-identical results
 * for every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arq/batched_monte_carlo.h"
#include "arq/monte_carlo.h"
#include "common/rng.h"
#include "ecc/steane.h"
#include "sim/shot_scheduler.h"
#include "sim/stats.h"

using namespace qla;
using namespace qla::sim;

TEST(ShotScheduler, ResolvesThreadCount)
{
    EXPECT_EQ(resolveThreadCount(3), 3);
    EXPECT_EQ(resolveThreadCount(1), 1);

    setenv("QLA_THREADS", "5", 1);
    EXPECT_EQ(resolveThreadCount(0), 5);
    EXPECT_EQ(resolveThreadCount(2), 2); // explicit beats env

    setenv("QLA_THREADS", "garbage", 1);
    EXPECT_GE(resolveThreadCount(0), 1); // falls back to hardware
    unsetenv("QLA_THREADS");
    EXPECT_GE(resolveThreadCount(0), 1);
}

TEST(ShotScheduler, RejectsMalformedThreadsEnvStrictly)
{
    // atoi would silently read "2x" as 2: a malformed value must fall
    // back to hardware concurrency instead of a typo'd thread count.
    const int hardware = [] {
        unsetenv("QLA_THREADS");
        return resolveThreadCount(0);
    }();
    for (const char *bad :
         {"four", "2x", "0", "-3", "", " ", "1e2", "3.5", "2 4",
          "99999999999999999999"}) {
        setenv("QLA_THREADS", bad, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(resolveThreadCount(0), hardware)
            << "QLA_THREADS=\"" << bad << '"';
        const std::string warning
            = testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("malformed QLA_THREADS"),
                  std::string::npos)
            << "QLA_THREADS=\"" << bad << "\" produced: " << warning;
        // Warn once per value: an identical repeat stays quiet.
        testing::internal::CaptureStderr();
        EXPECT_EQ(resolveThreadCount(0), hardware);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    }
    // Leading whitespace before the digits is tolerated (strtol
    // semantics); anything after them is not.
    setenv("QLA_THREADS", " 6", 1);
    EXPECT_EQ(resolveThreadCount(0), 6);
    setenv("QLA_THREADS", "6 ", 1);
    EXPECT_EQ(resolveThreadCount(0), hardware);
    unsetenv("QLA_THREADS");
}

TEST(ShotScheduler, RunsEveryJobExactlyOnce)
{
    for (const int threads : {1, 2, 4}) {
        ShotScheduler scheduler(threads);
        EXPECT_EQ(scheduler.threadCount(), threads);
        const std::size_t count = 237;
        std::vector<std::atomic<int>> hits(count);
        scheduler.run(count, [&](std::size_t job, int worker) {
            ASSERT_LT(job, count);
            ASSERT_GE(worker, 0);
            ASSERT_LT(worker, threads);
            hits[job].fetch_add(1);
        });
        for (std::size_t j = 0; j < count; ++j)
            EXPECT_EQ(hits[j].load(), 1) << "job " << j;
    }
}

TEST(ShotScheduler, SchedulerIsReusable)
{
    ShotScheduler scheduler(2);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> done{0};
        scheduler.run(50, [&](std::size_t, int) { done.fetch_add(1); });
        EXPECT_EQ(done.load(), 50u);
    }
    scheduler.run(0, [&](std::size_t, int) { FAIL(); });
}

TEST(ShotScheduler, StartsJobsInIndexOrder)
{
    // Job 0 holds one worker for 20 ms, so the other worker must claim
    // job 1 next: the first two jobs to start are {0, 1}, never a job
    // from the middle of the range.
    ShotScheduler scheduler(2);
    const std::size_t count = 8;
    std::mutex mutex;
    std::vector<std::size_t> started;
    scheduler.run(count, [&](std::size_t job, int) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            started.push_back(job);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(job == 0 ? 20 : 2));
    });
    ASSERT_EQ(started.size(), count);
    const std::set<std::size_t> first(started.begin(),
                                      started.begin() + 2);
    EXPECT_EQ(first, (std::set<std::size_t>{0, 1}));
}

TEST(ShotScheduler, CompletesSkewedWork)
{
    // One long job plus many short ones: the run completes with every
    // job executed while one worker is held up.
    ShotScheduler scheduler(4);
    std::atomic<std::size_t> done{0};
    scheduler.run(64, [&](std::size_t job, int) {
        if (job == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 64u);
}

TEST(ShotScheduler, BackToBackRunsClaimOnlyTheirOwnJobs)
{
    // Many short runs in a row: a pool thread still leaving one run
    // must not claim a job index of the next one, so every job of
    // every run executes exactly once, inside its own run. Each job
    // sleeps briefly so the pool threads join the runs instead of the
    // caller finishing every job before they wake.
    ShotScheduler scheduler(4);
    std::vector<std::atomic<int>> hits(8);
    for (int round = 0; round < 2000; ++round) {
        const std::size_t count = 1 + static_cast<std::size_t>(round) % 8;
        for (std::atomic<int> &hit : hits)
            hit.store(0);
        scheduler.run(count, [&](std::size_t job, int) {
            hits[job].fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
        for (std::size_t j = 0; j < hits.size(); ++j)
            ASSERT_EQ(hits[j].load(), j < count ? 1 : 0)
                << "round " << round << " job " << j;
    }
}

TEST(ShotScheduler, PropagatesFirstException)
{
    ShotScheduler scheduler(2);
    std::atomic<int> executed{0};
    EXPECT_THROW(
        scheduler.run(100,
                      [&](std::size_t job, int) {
                          executed.fetch_add(1);
                          if (job == 3)
                              throw std::runtime_error("job failed");
                      }),
        std::runtime_error);
    // The remaining jobs were drained (possibly unexecuted), and the
    // scheduler stays usable.
    std::atomic<int> after{0};
    scheduler.run(10, [&](std::size_t, int) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);
}

//
// Stats merging: the associative reduction the scheduler's callers use.
//

TEST(StatsMerge, RateStatMergeIsExact)
{
    sim::RateStat a, b, direct;
    a.addBulk(3, 100);
    b.addBulk(7, 50);
    direct.addBulk(3, 100);
    direct.addBulk(7, 50);
    a.merge(b);
    EXPECT_EQ(a.successes(), direct.successes());
    EXPECT_EQ(a.trials(), direct.trials());
    EXPECT_DOUBLE_EQ(a.rate(), direct.rate());
}

TEST(StatsMerge, ScalarStatMergeMatchesStreaming)
{
    Rng rng(42);
    sim::ScalarStat streaming;
    std::vector<sim::ScalarStat> chunks(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform() * 10.0 - 3.0;
        streaming.add(v);
        chunks[i % 7].add(v);
    }
    sim::ScalarStat merged;
    for (const auto &chunk : chunks)
        merged.merge(chunk);
    EXPECT_EQ(merged.count(), streaming.count());
    EXPECT_NEAR(merged.mean(), streaming.mean(), 1e-12);
    EXPECT_NEAR(merged.variance(), streaming.variance(),
                1e-9 * streaming.variance());
    EXPECT_DOUBLE_EQ(merged.min(), streaming.min());
    EXPECT_DOUBLE_EQ(merged.max(), streaming.max());
    EXPECT_NEAR(merged.sum(), streaming.sum(), 1e-9);
}

TEST(StatsMerge, ScalarStatMergeAssociates)
{
    sim::ScalarStat a1, b1, c1;
    a1.addRepeated(1.0, 10);
    b1.addRepeated(2.0, 5);
    c1.addRepeated(3.0, 2);

    sim::ScalarStat left = a1; // (a + b) + c
    left.merge(b1);
    left.merge(c1);
    sim::ScalarStat bc = b1; // a + (b + c)
    bc.merge(c1);
    sim::ScalarStat right = a1;
    right.merge(bc);

    EXPECT_EQ(left.count(), right.count());
    EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), right.variance(), 1e-12);
}

TEST(StatsMerge, MergeWithEmptySides)
{
    sim::ScalarStat empty, data;
    data.add(4.0);
    data.add(6.0);
    sim::ScalarStat a = empty;
    a.merge(data);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    sim::ScalarStat b = data;
    b.merge(empty);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

//
// Parallel Monte-Carlo entry points: thread-count invariance.
//

TEST(ParallelMonteCarlo, RunLogicalExperimentThreadInvariant)
{
    using namespace qla::arq;
    const NoiseParameters noise = NoiseParameters::swept(6e-3);
    McRunOptions base;
    base.chunkShots = 512; // several chunks at the test's shot count

    sim::RateStat reference;
    ExperimentStats ref_stats;
    {
        McRunOptions options = base;
        options.threads = 1;
        reference = runLogicalExperiment(ecc::steaneCode(), noise, 1,
                                         3000, 91, options, &ref_stats);
    }
    for (const int threads : {2, 4}) {
        McRunOptions options = base;
        options.threads = threads;
        ExperimentStats stats;
        const sim::RateStat rate = runLogicalExperiment(
            ecc::steaneCode(), noise, 1, 3000, 91, options, &stats);
        EXPECT_EQ(rate.successes(), reference.successes())
            << threads << " threads";
        EXPECT_EQ(rate.trials(), reference.trials());
        // The full stats reduce in fixed chunk order: identical too.
        EXPECT_EQ(stats.logicalFailure.successes(),
                  ref_stats.logicalFailure.successes());
        EXPECT_EQ(stats.nontrivialSyndrome.successes(),
                  ref_stats.nontrivialSyndrome.successes());
        EXPECT_EQ(stats.nontrivialSyndrome.trials(),
                  ref_stats.nontrivialSyndrome.trials());
        EXPECT_EQ(stats.prepAttempts.count(),
                  ref_stats.prepAttempts.count());
        EXPECT_DOUBLE_EQ(stats.prepAttempts.mean(),
                         ref_stats.prepAttempts.mean());
    }
}

TEST(ParallelMonteCarlo, SweepDispatchOrderStartsExpensiveChunksFirst)
{
    using namespace qla::arq;
    // Chunk list as thresholdSweep builds it: point-major, p
    // ascending, level 1 then level 2, two chunks per task; points 1
    // and 2 share a p.
    const std::vector<double> p = {2e-3, 6e-3, 6e-3, 8e-3};
    std::vector<SweepChunkKey> keys;
    for (std::size_t point = 0; point < p.size(); ++point)
        for (const int level : {1, 2})
            for (int chunk = 0; chunk < 2; ++chunk)
                keys.push_back({point, p[point], level});
    const std::vector<std::size_t> want = {
        14, 15, 12, 13, // p = 8e-3: level 2, then level 1
        6,  7,  4,  5,  // first p = 6e-3 point
        10, 11, 8,  9,  // second p = 6e-3 point
        2,  3,  0,  1,  // p = 2e-3
    };
    EXPECT_EQ(sweepDispatchOrder(keys), want);
    EXPECT_TRUE(sweepDispatchOrder({}).empty());
}

TEST(ParallelMonteCarloDeathTest, RejectsGroupWidthOutOfRange)
{
    using namespace qla::arq;
    for (const std::size_t group : {std::size_t{0}, kMaxGroupWords + 1}) {
        McRunOptions options;
        options.threads = 1;
        options.batch.groupWords = group;
        EXPECT_DEATH(thresholdSweep({2e-3}, 64, 1, options),
                     "groupWords must be in");
        EXPECT_DEATH(runLogicalExperiment(ecc::steaneCode(),
                                          NoiseParameters::swept(2e-3),
                                          1, 64, 1, options),
                     "groupWords must be in");
    }
}

TEST(ParallelMonteCarlo, SweepThreadAndChunkInvariant)
{
    using namespace qla::arq;
    const std::vector<double> sweep = {2e-3, 6e-3};
    McRunOptions reference_options;
    reference_options.threads = 1;
    reference_options.chunkShots = 512;
    const auto reference = thresholdSweep(sweep, 1500, 17,
                                          reference_options);

    for (const int threads : {2, 4}) {
        for (const std::size_t chunk : {512u, 4096u}) {
            McRunOptions options;
            options.threads = threads;
            options.chunkShots = chunk;
            const auto points = thresholdSweep(sweep, 1500, 17, options);
            ASSERT_EQ(points.size(), reference.size());
            for (std::size_t i = 0; i < points.size(); ++i) {
                // Bit-identical: failure counts are integers underneath
                // and the reduction order is fixed.
                EXPECT_EQ(points[i].level1Failure,
                          reference[i].level1Failure)
                    << "threads " << threads << " chunk " << chunk;
                EXPECT_EQ(points[i].level2Failure,
                          reference[i].level2Failure);
                EXPECT_EQ(points[i].level1Error, reference[i].level1Error);
                EXPECT_EQ(points[i].level2Error, reference[i].level2Error);
            }
        }
    }
}
