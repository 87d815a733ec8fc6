/**
 * @file
 * Logical-qubit Monte-Carlo tests (the Figure-7 engine): zero-noise
 * sanity, scaling directions, recursion behavior around the threshold,
 * and syndrome statistics.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "arq/batched_monte_carlo.h"
#include "arq/monte_carlo.h"
#include "arq/tile_schedule.h"
#include "ecc/steane.h"

using namespace qla;
using namespace qla::arq;

namespace {

NoiseParameters
noiseless()
{
    NoiseParameters noise;
    noise.gate1Error = 0.0;
    noise.gate2Error = 0.0;
    noise.measureError = 0.0;
    noise.movementErrorPerCell = 0.0;
    return noise;
}

} // namespace

TEST(MonteCarlo, NoNoiseNoFailures)
{
    Rng rng(1);
    LogicalQubitExperiment experiment(ecc::steaneCode(), noiseless());
    ExperimentStats stats;
    EXPECT_DOUBLE_EQ(
        experiment.failureRate(1, 200, rng, &stats).rate(), 0.0);
    EXPECT_DOUBLE_EQ(
        experiment.failureRate(2, 50, rng, &stats).rate(), 0.0);
    // Every syndrome trivial; every preparation verifies first try.
    EXPECT_DOUBLE_EQ(stats.nontrivialSyndrome.rate(), 0.0);
    EXPECT_DOUBLE_EQ(stats.prepAttempts.mean(), 1.0);
}

TEST(MonteCarlo, FailureGrowsWithNoise)
{
    Rng rng(2);
    LogicalQubitExperiment low(ecc::steaneCode(),
                               NoiseParameters::swept(1e-3));
    LogicalQubitExperiment high(ecc::steaneCode(),
                                NoiseParameters::swept(2e-2));
    const double f_low = low.failureRate(1, 2000, rng).rate();
    const double f_high = high.failureRate(1, 2000, rng).rate();
    EXPECT_LT(f_low, f_high);
    EXPECT_GT(f_high, 0.01);
}

TEST(MonteCarlo, RecursionHelpsBelowThreshold)
{
    Rng rng(3);
    LogicalQubitExperiment experiment(ecc::steaneCode(),
                                      NoiseParameters::swept(1e-3));
    const double l1 = experiment.failureRate(1, 4000, rng).rate();
    const double l2 = experiment.failureRate(2, 1000, rng).rate();
    EXPECT_LE(l2, l1 + 0.002);
}

TEST(MonteCarlo, RecursionHurtsAboveThreshold)
{
    Rng rng(4);
    LogicalQubitExperiment experiment(ecc::steaneCode(),
                                      NoiseParameters::swept(1.2e-2));
    const double l1 = experiment.failureRate(1, 1500, rng).rate();
    const double l2 = experiment.failureRate(2, 800, rng).rate();
    EXPECT_GT(l2, l1);
}

TEST(MonteCarlo, ThresholdInPaperWindow)
{
    // Coarse sweep; the crossing must land inside the paper's
    // (2.1 +- 1.8)e-3 uncertainty band. The batched engine makes the
    // shot count cheap, so run enough for a stable crossing.
    const auto points = thresholdSweep(
        {1e-3, 2e-3, 3e-3, 4e-3, 6e-3}, 20000, 20050938);
    const double pth = estimateThreshold(points);
    EXPECT_GT(pth, 0.3e-3);
    EXPECT_LT(pth, 5.0e-3);
}

TEST(MonteCarlo, SweptPointsAreOrderedAndBounded)
{
    const auto points = thresholdSweep({1e-3, 8e-3}, 400, 7);
    ASSERT_EQ(points.size(), 2u);
    for (const auto &point : points) {
        EXPECT_GE(point.level1Failure, 0.0);
        EXPECT_LE(point.level1Failure, 1.0);
        EXPECT_GE(point.level2Failure, 0.0);
        EXPECT_LE(point.level2Failure, 1.0);
        EXPECT_GT(point.level1Error, 0.0);
    }
    EXPECT_LT(points[0].level2Failure, points[1].level2Failure);
}

TEST(MonteCarlo, SyndromeRateAtExpectedParameters)
{
    // Section 4.1.1: 3.35e-4 +- 0.41e-4 at level 1. Allow generous
    // statistical slack at test-suite shot counts.
    Rng rng(5);
    NoiseParameters expected;
    LogicalQubitExperiment experiment(ecc::steaneCode(), expected);
    ExperimentStats stats;
    experiment.failureRate(1, 12000, rng, &stats);
    EXPECT_GT(stats.nontrivialSyndrome.rate(), 0.5e-4);
    EXPECT_LT(stats.nontrivialSyndrome.rate(), 9e-4);
}

TEST(MonteCarlo, MovementOnlyNoiseStillTriggersSyndromes)
{
    // With gates and measurement perfect, syndromes come purely from
    // ion transport -- the movement-dominated regime of the paper.
    Rng rng(6);
    NoiseParameters noise = noiseless();
    noise.movementErrorPerCell = 1e-4;
    LogicalQubitExperiment experiment(ecc::steaneCode(), noise);
    ExperimentStats stats;
    experiment.failureRate(1, 3000, rng, &stats);
    EXPECT_GT(stats.nontrivialSyndrome.rate(), 1e-3);
}

TEST(MonteCarlo, VerificationRetriesUnderHeavyNoise)
{
    Rng rng(7);
    LogicalQubitExperiment experiment(ecc::steaneCode(),
                                      NoiseParameters::swept(3e-2));
    ExperimentStats stats;
    experiment.failureRate(1, 500, rng, &stats);
    // Ancilla preparation must be retrying (mean attempts > 1).
    EXPECT_GT(stats.prepAttempts.mean(), 1.02);
}

TEST(MonteCarlo, DeterministicPerSeed)
{
    LogicalQubitExperiment experiment(ecc::steaneCode(),
                                      NoiseParameters::swept(5e-3));
    Rng rng_a(11), rng_b(11);
    const double a = experiment.failureRate(1, 500, rng_a).rate();
    const double b = experiment.failureRate(1, 500, rng_b).rate();
    EXPECT_DOUBLE_EQ(a, b);
}

//
// Batched engine: statistical equivalence with the scalar path and the
// determinism guarantees of the record/replay design.
//

namespace {

/** |a - b| within the combined 95% intervals (with slack). */
void
expectRatesAgree(const sim::RateStat &a, const sim::RateStat &b,
                 const char *what)
{
    const double margin = 1.5 * (a.halfWidth95() + b.halfWidth95());
    EXPECT_NEAR(a.rate(), b.rate(), margin) << what;
}

} // namespace

TEST(BatchedMonteCarlo, NoNoiseNoFailures)
{
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             noiseless());
    ExperimentStats stats;
    EXPECT_DOUBLE_EQ(experiment.failureRate(1, 256, 1, &stats).rate(),
                     0.0);
    EXPECT_DOUBLE_EQ(experiment.failureRate(2, 128, 2, &stats).rate(),
                     0.0);
    EXPECT_DOUBLE_EQ(stats.nontrivialSyndrome.rate(), 0.0);
    EXPECT_DOUBLE_EQ(stats.prepAttempts.mean(), 1.0);
}

TEST(BatchedMonteCarlo, MatchesScalarStatistically)
{
    // Same tile, same noise, independent randomness: the batched and
    // scalar estimates must agree within their confidence intervals.
    const double p = 4e-3;
    BatchedLogicalQubitExperiment batched(ecc::steaneCode(),
                                          NoiseParameters::swept(p));
    LogicalQubitExperiment scalar(ecc::steaneCode(),
                                  NoiseParameters::swept(p));
    Rng rng(31);

    const auto b1 = batched.failureRate(1, 20000, 77);
    const auto s1 = scalar.failureRate(1, 20000, rng);
    expectRatesAgree(b1, s1, "level-1 failure rate");

    const auto b2 = batched.failureRate(2, 4000, 78);
    const auto s2 = scalar.failureRate(2, 4000, rng);
    expectRatesAgree(b2, s2, "level-2 failure rate");
}

TEST(BatchedMonteCarlo, SyndromeRateMatchesScalar)
{
    // The non-trivial syndrome rate at expected parameters is the
    // paper's Section 4.1.1 observable; both engines must reproduce it.
    NoiseParameters expected;
    BatchedLogicalQubitExperiment batched(ecc::steaneCode(), expected);
    LogicalQubitExperiment scalar(ecc::steaneCode(), expected);
    Rng rng(5);
    ExperimentStats bs, ss;
    batched.failureRate(1, 30000, 41, &bs);
    scalar.failureRate(1, 30000, rng, &ss);
    expectRatesAgree(bs.nontrivialSyndrome, ss.nontrivialSyndrome,
                     "non-trivial syndrome rate");
}

TEST(BatchedMonteCarlo, PrepRetryStatisticsMatchScalar)
{
    const double p = 1e-2;
    BatchedLogicalQubitExperiment batched(ecc::steaneCode(),
                                          NoiseParameters::swept(p));
    LogicalQubitExperiment scalar(ecc::steaneCode(),
                                  NoiseParameters::swept(p));
    Rng rng(9);
    ExperimentStats bs, ss;
    batched.failureRate(1, 4000, 55, &bs);
    scalar.failureRate(1, 4000, rng, &ss);
    EXPECT_GT(bs.prepAttempts.mean(), 1.0);
    EXPECT_NEAR(bs.prepAttempts.mean(), ss.prepAttempts.mean(),
                4.0 * (bs.prepAttempts.sem() + ss.prepAttempts.sem()));
}

TEST(BatchedMonteCarlo, DeterministicPerSeed)
{
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             NoiseParameters::swept(5e-3));
    const auto a = experiment.failureRate(1, 500, 11);
    const auto b = experiment.failureRate(1, 500, 11);
    EXPECT_EQ(a.successes(), b.successes());
    EXPECT_EQ(a.trials(), b.trials());
}

TEST(BatchedMonteCarlo, ShotsIndependentOfBatchGrouping)
{
    // Shot i draws only from RngFamily(seed).stream(i) and from its own
    // control-flow path, so growing a run shot by shot -- which changes
    // the final word's width and hence every shot's co-lanes -- must
    // never change the shots already simulated: the cumulative failure
    // count can only step by 0 or 1 per added shot. (Regression test: a
    // mask-dependent rather than path-dependent choice of noise-class
    // variant broke exactly this.)
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             NoiseParameters::swept(8e-3));
    std::uint64_t prev = experiment.failureRate(1, 60, 7).successes();
    for (std::size_t n = 61; n <= 200; ++n) {
        const auto r = experiment.failureRate(1, n, 7);
        ASSERT_EQ(r.trials(), n);
        ASSERT_GE(r.successes(), prev) << "shot history changed at " << n;
        ASSERT_LE(r.successes(), prev + 1)
            << "shot history changed at " << n;
        prev = r.successes();
    }
}

TEST(BatchedMonteCarlo, GroupingAndCompactionBitIdentical)
{
    // The shot-group width and lane compaction (including the dense
    // twin used for "Start Over" rounds and repeated level-2
    // extractions) are pure execution-shape choices: every lane's draw
    // sequence is preserved exactly, so failure counts must be
    // bit-identical across all settings. Swept
    // far above threshold so the compacted retry paths actually run.
    for (const double p : {8e-3, 2e-2}) {
        for (const int level : {1, 2}) {
            const std::size_t shots = level == 1 ? 3000 : 800;
            std::uint64_t reference = 0;
            bool have_reference = false;
            for (const BatchOptions options :
                 {BatchOptions{1, false}, BatchOptions{16, false},
                  BatchOptions{4, true}, BatchOptions{7, true},
                  BatchOptions{32, true}}) {
                BatchedLogicalQubitExperiment experiment(
                    ecc::steaneCode(), NoiseParameters::swept(p), {}, 16,
                    options);
                const auto rate = experiment.failureRate(level, shots, 99);
                ASSERT_EQ(rate.trials(), shots);
                if (!have_reference) {
                    reference = rate.successes();
                    have_reference = true;
                } else {
                    EXPECT_EQ(rate.successes(), reference)
                        << "p=" << p << " level=" << level
                        << " group=" << options.groupWords
                        << " compaction=" << options.laneCompaction;
                }
            }
        }
    }
}

TEST(BatchedMonteCarlo, CompactedStatsMatchUncompacted)
{
    // Integer-counted statistics (failures, syndrome counts, prep-exit
    // totals) cannot depend on whether retries ran compacted.
    const double p = 1e-2;
    BatchedLogicalQubitExperiment plain(ecc::steaneCode(),
                                        NoiseParameters::swept(p), {}, 16,
                                        BatchOptions{16, false});
    BatchedLogicalQubitExperiment compacted(ecc::steaneCode(),
                                            NoiseParameters::swept(p), {},
                                            16, BatchOptions{16, true});
    ExperimentStats ps, cs;
    plain.failureRate(2, 600, 5, &ps);
    compacted.failureRate(2, 600, 5, &cs);
    EXPECT_EQ(ps.logicalFailure.successes(), cs.logicalFailure.successes());
    EXPECT_EQ(ps.nontrivialSyndrome.successes(),
              cs.nontrivialSyndrome.successes());
    EXPECT_EQ(ps.nontrivialSyndrome.trials(),
              cs.nontrivialSyndrome.trials());
    EXPECT_EQ(ps.prepAttempts.count(), cs.prepAttempts.count());
    EXPECT_NEAR(ps.prepAttempts.mean(), cs.prepAttempts.mean(), 1e-12);
}

TEST(BatchedMonteCarlo, FailureRateRangeConcatenates)
{
    // Chunked execution (what a scheduler job runs) must reproduce the
    // single uninterrupted run shot for shot.
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             NoiseParameters::swept(8e-3));
    const auto whole = experiment.failureRate(1, 5000, 23);
    std::uint64_t successes = 0;
    std::uint64_t trials = 0;
    for (const auto &[first, count] :
         {std::pair<std::uint64_t, std::size_t>{0, 1111},
          {1111, 2048}, {3159, 1841}}) {
        const auto part = experiment.failureRateRange(1, first, count, 23);
        successes += part.successes();
        trials += part.trials();
    }
    EXPECT_EQ(trials, whole.trials());
    EXPECT_EQ(successes, whole.successes());
}

TEST(BatchedMonteCarlo, PartialBatchCountsExactly)
{
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             NoiseParameters::swept(8e-3));
    const auto rate = experiment.failureRate(1, 70, 3);
    EXPECT_EQ(rate.trials(), 70u);
    const auto tiny = experiment.failureRate(2, 5, 4);
    EXPECT_EQ(tiny.trials(), 5u);
}

TEST(BatchedMonteCarlo, SweepMatchesScalarSweep)
{
    // The reworked thresholdSweep (batched) must reproduce the scalar
    // sweep's rates within confidence intervals at every point.
    const std::vector<double> sweep = {2e-3, 6e-3};
    const std::size_t shots = 4000;
    const auto batched = thresholdSweep(sweep, shots, 101);
    const auto scalar = thresholdSweepScalar(sweep, shots, 101);
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        EXPECT_NEAR(batched[i].level1Failure, scalar[i].level1Failure,
                    1.5
                        * (batched[i].level1Error
                           + scalar[i].level1Error + 1e-4))
            << "L1 at p = " << sweep[i];
        EXPECT_NEAR(batched[i].level2Failure, scalar[i].level2Failure,
                    1.5
                        * (batched[i].level2Error
                           + scalar[i].level2Error + 1e-4))
            << "L2 at p = " << sweep[i];
    }
}

TEST(BatchedMonteCarlo, SubThresholdChiSquareMatchesScalar)
{
    // Cheap sub-threshold crosscheck point so the scalar-vs-batched
    // statistical contract runs in every ctest invocation, not only in
    // the CI determinism-gate job: a 2x2 contingency chi-square on the
    // level-1 failure counts of the two engines at one point below the
    // crossing. Both runs are fixed-seed, so the test is deterministic;
    // the 10.83 cut is the chi-square(1) 99.9% quantile, far above
    // anything two draws from the same distribution should produce.
    const double p = 2e-3;
    const std::size_t shots = 12000;
    BatchedLogicalQubitExperiment batched(ecc::steaneCode(),
                                          NoiseParameters::swept(p));
    LogicalQubitExperiment scalar(ecc::steaneCode(),
                                  NoiseParameters::swept(p));
    Rng rng(19);
    const auto b = batched.failureRate(1, shots, 67);
    const auto s = scalar.failureRate(1, shots, rng);

    const double b1 = static_cast<double>(b.successes());
    const double b0 = static_cast<double>(b.trials() - b.successes());
    const double s1 = static_cast<double>(s.successes());
    const double s0 = static_cast<double>(s.trials() - s.successes());
    // The statistic must have power: both engines see failures here.
    ASSERT_GT(b1, 4.0);
    ASSERT_GT(s1, 4.0);
    const double n = b1 + b0 + s1 + s0;
    const double chi2 = n * (b1 * s0 - b0 * s1) * (b1 * s0 - b0 * s1)
        / ((b1 + b0) * (s1 + s0) * (b1 + s1) * (b0 + s0));
    EXPECT_LT(chi2, 10.83) << "batched " << b1 << "/" << b.trials()
                           << " vs scalar " << s1 << "/" << s.trials();
}

//
// Shared tile recordings: one per (code, layout, attempt cap, rate
// pattern) per process, bound by every noise point of that shape.
//

namespace {

/** The integer outcome of a level-1 + level-2 run, compared exactly. */
struct RunCounts
{
    std::uint64_t failuresL1 = 0;
    std::uint64_t failuresL2 = 0;
    std::uint64_t syndromes = 0;
    std::uint64_t syndromeTrials = 0;
    std::uint64_t prepExits = 0;
    double prepAttemptSum = 0;

    bool operator==(const RunCounts &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const RunCounts &c)
{
    return os << "{" << c.failuresL1 << ", " << c.failuresL2 << ", "
              << c.syndromes << ", " << c.syndromeTrials << ", "
              << c.prepExits << ", " << c.prepAttemptSum << "}";
}

RunCounts
runCounts(BatchedLogicalQubitExperiment &experiment, std::size_t shots_l1,
          std::size_t shots_l2)
{
    ExperimentStats stats;
    const auto l1 = experiment.failureRateRange(1, 0, shots_l1, 606, &stats);
    const auto l2 = experiment.failureRateRange(2, 0, shots_l2, 607, &stats);
    return {l1.successes(),
            l2.successes(),
            stats.nontrivialSyndrome.successes(),
            stats.nontrivialSyndrome.trials(),
            stats.prepAttempts.count(),
            stats.prepAttempts.sum()};
}

} // namespace

TEST(BatchedMonteCarlo, NoisePointsShareOneRecording)
{
    // The schedule belongs to the layout, not to the error rate: points
    // of one rate pattern bind to one recording. A degenerate rate, a
    // rate collision or another layout is a different shape.
    BatchedLogicalQubitExperiment a(ecc::steaneCode(),
                                    NoiseParameters::swept(1e-3));
    BatchedLogicalQubitExperiment b(ecc::steaneCode(),
                                    NoiseParameters::swept(7e-3));
    EXPECT_TRUE(a.sharesRecordingWith(b));

    BatchedLogicalQubitExperiment zero(ecc::steaneCode(),
                                       NoiseParameters::swept(0.0));
    EXPECT_FALSE(a.sharesRecordingWith(zero));

    NoiseParameters split = NoiseParameters::swept(1e-3);
    split.measureError = 2e-3;
    BatchedLogicalQubitExperiment distinct(ecc::steaneCode(), split);
    EXPECT_FALSE(a.sharesRecordingWith(distinct));

    BatchedLogicalQubitExperiment wide(ecc::steaneCode(),
                                       NoiseParameters::swept(1e-3),
                                       LayoutDistances{4, 1, 12, 2});
    EXPECT_FALSE(a.sharesRecordingWith(wide));
}

TEST(BatchedMonteCarlo, RateCollisionsAndDegeneracyMatchGolden)
{
    // Class ids follow which of the five fixed rates coincide, and the
    // fire-plan skeleton follows which are degenerate, so both belong
    // in a recording's key. Four points with four different shapes:
    // every gate and readout rate equal to the intra-block move rate
    // (one class for four rates), gate and readout rates at p = 0 (a
    // degenerate class), a normal point, and only the gate rates equal
    // to the intra-block move rate (as many classes as the normal
    // point, assigned differently). Movement noise is raised so every
    // point fails. Whatever order binds the shapes first, each point
    // must reproduce its golden counts.
    NoiseParameters base;
    base.movementErrorPerCell = 1e-3;
    const LayoutDistances layout;
    const double intra = TileRowRecorder(ecc::steaneCode(), base, layout)
        .moveProbability(layout.intraBlockCells, layout.intraBlockTurns);
    std::array<NoiseParameters, 4> points;
    for (NoiseParameters &noise : points)
        noise = base;
    points[0].gate1Error = points[0].gate2Error = points[0].measureError
        = intra;
    points[1].gate1Error = points[1].gate2Error = points[1].measureError
        = 0.0;
    points[2].gate1Error = points[2].gate2Error = points[2].measureError
        = 2.5e-3;
    points[3].gate1Error = points[3].gate2Error = intra;
    points[3].measureError = 2.5e-3;
    const std::array<RunCounts, 4> golden = {{
        {45, 91, 54419, 86284, 101387, 128744},
        {19, 67, 31512, 60150, 68938, 78895},
        {33, 87, 45053, 75781, 88328, 107818},
        {43, 79, 53670, 85480, 100362, 126187},
    }};
    const std::array<std::array<std::size_t, 4>, 3> orders = {{
        {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}}};
    for (const auto &order : orders) {
        std::array<std::unique_ptr<BatchedLogicalQubitExperiment>, 4>
            experiments;
        for (const std::size_t i : order)
            experiments[i] = std::make_unique<BatchedLogicalQubitExperiment>(
                ecc::steaneCode(), points[i], layout);
        for (const std::size_t i : order)
            EXPECT_EQ(runCounts(*experiments[i], 1500, 200), golden[i])
                << "point " << i << ", order " << order[0] << order[1]
                << order[2] << order[3];
    }
}

TEST(BatchedMonteCarlo, ConcurrentFirstUseRecordsOnce)
{
    // Four threads bind experiments of one shape no other test uses at
    // different error rates, all at once: the first use records under
    // the cache lock, every thread gets the same recording, and each
    // result equals a sequential run of the same point.
    const LayoutDistances layout{5, 1, 9, 3};
    const std::array<double, 4> rates = {3e-3, 5e-3, 7e-3, 9e-3};
    std::array<RunCounts, 4> concurrent;
    std::array<std::unique_ptr<BatchedLogicalQubitExperiment>, 4>
        experiments;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < rates.size(); ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < static_cast<int>(rates.size()))
                std::this_thread::yield();
            experiments[t] = std::make_unique<BatchedLogicalQubitExperiment>(
                ecc::steaneCode(), NoiseParameters::swept(rates[t]),
                layout);
            concurrent[t] = runCounts(*experiments[t], 640, 64);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t t = 0; t < rates.size(); ++t) {
        EXPECT_TRUE(experiments[t]->sharesRecordingWith(*experiments[0]));
        BatchedLogicalQubitExperiment sequential(
            ecc::steaneCode(), NoiseParameters::swept(rates[t]), layout);
        EXPECT_TRUE(sequential.sharesRecordingWith(*experiments[0]));
        EXPECT_EQ(runCounts(sequential, 640, 64), concurrent[t])
            << "rate " << rates[t];
    }
}

TEST(MonteCarlo, EstimateThresholdInterpolates)
{
    std::vector<ThresholdPoint> points(2);
    points[0].physicalError = 1e-3;
    points[0].level1Failure = 0.01;
    points[0].level2Failure = 0.005; // L2 better
    points[1].physicalError = 3e-3;
    points[1].level1Failure = 0.02;
    points[1].level2Failure = 0.035; // L2 worse
    const double pth = estimateThreshold(points);
    EXPECT_GT(pth, 1e-3);
    EXPECT_LT(pth, 3e-3);
    // No crossing -> 0.
    points[1].level2Failure = 0.01;
    EXPECT_DOUBLE_EQ(estimateThreshold(points), 0.0);
}

//
// PR 7 -- residual post-purification EPR error as an ARQ noise class.
// The interconnect co-simulator exports CoSimReport::residualEprError();
// NoiseParameters::eprResidualError is the knob it feeds, charged on
// every inter-block shuttle (the paths EPR-distributed ancillas take).
//

TEST(MonteCarlo, EprResidualErrorAloneTriggersSyndromes)
{
    // With all local noise off, a nonzero residual EPR error must still
    // inject faults on inter-block moves: the coupling is real, not a
    // dead parameter.
    Rng rng(23);
    NoiseParameters noise = noiseless();
    noise.eprResidualError = 5e-3;
    LogicalQubitExperiment experiment(ecc::steaneCode(), noise);
    ExperimentStats stats;
    experiment.failureRate(1, 4000, rng, &stats);
    EXPECT_GT(stats.nontrivialSyndrome.rate(), 0.0);
}

TEST(MonteCarlo, EprResidualErrorRaisesFailureRate)
{
    Rng rng(29);
    NoiseParameters base = NoiseParameters::swept(2e-3);
    NoiseParameters degraded = base;
    degraded.eprResidualError = 2e-2;
    LogicalQubitExperiment clean(ecc::steaneCode(), base);
    LogicalQubitExperiment noisy(ecc::steaneCode(), degraded);
    const double f_clean = clean.failureRate(1, 8000, rng).rate();
    const double f_noisy = noisy.failureRate(1, 8000, rng).rate();
    EXPECT_GT(f_noisy, f_clean);
}

TEST(BatchedMonteCarlo, EprResidualErrorChiSquareMatchesScalar)
{
    // Scalar and batched engines share the inter-block probability
    // arithmetic (movement + residual EPR error), so their failure
    // counts at a nonzero residual must agree on a 2x2 contingency
    // chi-square at the 99.9% cut.
    NoiseParameters noise = NoiseParameters::swept(2e-3);
    noise.eprResidualError = 1e-2;
    const std::size_t shots = 12000;
    BatchedLogicalQubitExperiment batched(ecc::steaneCode(), noise);
    LogicalQubitExperiment scalar(ecc::steaneCode(), noise);
    Rng rng(37);
    const auto b = batched.failureRate(1, shots, 71);
    const auto s = scalar.failureRate(1, shots, rng);

    const double b1 = static_cast<double>(b.successes());
    const double b0 = static_cast<double>(b.trials() - b.successes());
    const double s1 = static_cast<double>(s.successes());
    const double s0 = static_cast<double>(s.trials() - s.successes());
    ASSERT_GT(b1, 4.0);
    ASSERT_GT(s1, 4.0);
    const double n = b1 + b0 + s1 + s0;
    const double chi2 = n * (b1 * s0 - b0 * s1) * (b1 * s0 - b0 * s1)
        / ((b1 + b0) * (s1 + s0) * (b1 + s1) * (b0 + s0));
    EXPECT_LT(chi2, 10.83) << "batched " << b1 << "/" << b.trials()
                           << " vs scalar " << s1 << "/" << s.trials();
}
