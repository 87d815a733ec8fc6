/**
 * @file
 * Lane-compaction property suite.
 *
 * The load-bearing invariant of the batched Monte Carlo: every
 * BatchOptions setting -- shot-group width, lane compaction on/off --
 * is an execution-shape choice only. A lane's draw sequence is
 * preserved exactly through every regrouping into the dense twin
 * (level-2 "Start Over" rounds and repeated level-2 extractions), so
 * all integer-counted experiment statistics must be byte-identical to
 * the scalar-grouping reference.
 * This suite promotes that invariance -- previously enforced only by
 * the CI determinism gate -- into tier-1 ctest, fuzzing the options
 * over a seeded matrix of small experiments.
 *
 * The second half unit-tests the migration primitives themselves:
 * ClassDrawSampler::exportLane/importLane round trips under adversarial
 * clock states (parked lanes, zero-gap fires, a correction clock moved
 * mid-series), the SegmentPool transplant of the retry clock bank, and
 * the SegmentPool gather/scatter planning.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "arq/batched_monte_carlo.h"
#include "arq/lane_compaction.h"
#include "arq/monte_carlo.h"
#include "common/batched_sampler.h"
#include "common/rng.h"
#include "ecc/steane.h"

using namespace qla;
using namespace qla::arq;

namespace {

struct RunResult
{
    sim::RateStat rate;
    ExperimentStats stats;
};

RunResult
runExperiment(double p, int level, std::size_t shots, std::uint64_t seed,
              const BatchOptions &options)
{
    BatchedLogicalQubitExperiment experiment(
        ecc::steaneCode(), NoiseParameters::swept(p), {}, 16, options);
    RunResult result;
    result.rate = experiment.failureRate(level, shots, seed,
                                         &result.stats);
    return result;
}

/**
 * Byte-identical integer counters; the Welford mean is merged in a
 * grouping-dependent order, so it is the one field compared with a
 * tolerance (the sum itself is an exact integer-valued double).
 */
void
expectStatsIdentical(const RunResult &got, const RunResult &want,
                     const std::string &what)
{
    EXPECT_EQ(got.rate.successes(), want.rate.successes()) << what;
    EXPECT_EQ(got.rate.trials(), want.rate.trials()) << what;
    EXPECT_EQ(got.stats.logicalFailure.successes(),
              want.stats.logicalFailure.successes())
        << what;
    EXPECT_EQ(got.stats.logicalFailure.trials(),
              want.stats.logicalFailure.trials())
        << what;
    EXPECT_EQ(got.stats.nontrivialSyndrome.successes(),
              want.stats.nontrivialSyndrome.successes())
        << what;
    EXPECT_EQ(got.stats.nontrivialSyndrome.trials(),
              want.stats.nontrivialSyndrome.trials())
        << what;
    EXPECT_EQ(got.stats.prepAttempts.count(),
              want.stats.prepAttempts.count())
        << what;
    EXPECT_DOUBLE_EQ(got.stats.prepAttempts.sum(),
                     want.stats.prepAttempts.sum())
        << what;
    EXPECT_DOUBLE_EQ(got.stats.prepAttempts.min(),
                     want.stats.prepAttempts.min())
        << what;
    EXPECT_DOUBLE_EQ(got.stats.prepAttempts.max(),
                     want.stats.prepAttempts.max())
        << what;
    EXPECT_NEAR(got.stats.prepAttempts.mean(),
                want.stats.prepAttempts.mean(), 1e-12)
        << what;
}

std::string
describeOptions(const BatchOptions &options)
{
    return "group=" + std::to_string(options.groupWords) + " compaction="
        + std::to_string(options.laneCompaction);
}

} // namespace

TEST(LaneCompaction, RandomizedBatchOptionsBitIdentical)
{
    // Seeded fuzz over the execution-shape space, swept from just above
    // threshold to deep in the retry-heavy tail so both twin migrations
    // ("Start Over" rounds and repeated level-2 extractions) run.
    struct Config
    {
        double p;
        int level;
        std::size_t shots;
    };
    const Config configs[] = {
        {6e-3, 1, 1500},  {2.5e-2, 1, 800}, {8e-3, 2, 300},
        {1.4e-2, 2, 260}, {2.5e-2, 2, 160},
    };
    Rng fuzz(20260729);
    for (const Config &cfg : configs) {
        // Scalar-grouping reference: one 64-shot word at a time, no
        // compaction.
        const std::uint64_t seed = 1000003 * cfg.level + fuzz.next64() % 997;
        const RunResult reference = runExperiment(
            cfg.p, cfg.level, cfg.shots, seed, BatchOptions{1, false});
        for (int trial = 0; trial < 6; ++trial) {
            BatchOptions options;
            options.groupWords = 1 + fuzz.uniformInt(kMaxGroupWords);
            options.laneCompaction = fuzz.uniformInt(4) != 0;
            const RunResult got = runExperiment(cfg.p, cfg.level,
                                                cfg.shots, seed, options);
            expectStatsIdentical(got, reference,
                                 "p=" + std::to_string(cfg.p) + " L"
                                     + std::to_string(cfg.level) + " "
                                     + describeOptions(options));
        }
    }
}

TEST(LaneCompaction, ThreadedRunMatchesScalarGroupingReference)
{
    // The same invariance through the public parallel entry point:
    // thread count, chunk size and batch shape together.
    const double p = 1.2e-2;
    const std::size_t shots = 600;
    const std::uint64_t seed = 77;
    ExperimentStats ref_stats;
    McRunOptions reference;
    reference.threads = 1;
    reference.batch = BatchOptions{1, false};
    const auto ref = runLogicalExperiment(ecc::steaneCode(),
                                          NoiseParameters::swept(p), 2,
                                          shots, seed, reference,
                                          &ref_stats);
    for (const int threads : {2, 3}) {
        McRunOptions options;
        options.threads = threads;
        options.chunkShots = 128;
        options.batch = BatchOptions{5, true};
        ExperimentStats stats;
        const auto got = runLogicalExperiment(ecc::steaneCode(),
                                              NoiseParameters::swept(p), 2,
                                              shots, seed, options, &stats);
        EXPECT_EQ(got.successes(), ref.successes()) << threads;
        EXPECT_EQ(got.trials(), ref.trials()) << threads;
        EXPECT_EQ(stats.nontrivialSyndrome.successes(),
                  ref_stats.nontrivialSyndrome.successes())
            << threads;
        EXPECT_EQ(stats.prepAttempts.count(),
                  ref_stats.prepAttempts.count())
            << threads;
    }
}

//
// Sampler transplant primitives under adversarial clock states.
//

namespace {

LaneRngs
familyLanes(const RngFamily &family)
{
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    return lanes;
}

} // namespace

TEST(SamplerTransplant, ZeroGapFiresSurviveRoundTrip)
{
    // p close to 1 makes gaps of one trial ("fires every call") the
    // common case; the exported remaining-trials state is then always
    // at its minimum legal value of 1, right at the assert boundary.
    for (const double p : {0.9, 0.5}) {
        RngFamily family(404);
        const int lane = 13;

        LaneRngs ref_lanes = familyLanes(family);
        ClassDrawSampler reference(p);
        std::vector<bool> want;
        for (int t = 0; t < 400; ++t)
            want.push_back((reference.trial(~0ULL, ref_lanes) >> lane)
                           & 1);

        LaneRngs home_lanes = familyLanes(family);
        LaneRngs away_lanes;
        ClassDrawSampler home(p);
        ClassDrawSampler away(p);
        std::vector<bool> got;
        int t = 0;
        for (int phase = 0; phase < 40; ++phase) {
            // Move immediately after whatever the last trial did --
            // including directly after a fire, when the redrawn gap of
            // a p = 0.9 lane is almost always exactly 1.
            for (int i = 0; i < 7; ++i, ++t)
                got.push_back((home.trial(~0ULL, home_lanes) >> lane)
                              & 1);
            away_lanes[lane] = home_lanes[lane];
            home.moveLaneTo(away, lane, lane);
            for (int i = 0; i < 3; ++i, ++t)
                got.push_back((away.trial(std::uint64_t{1} << lane,
                                          away_lanes)
                               >> lane)
                              & 1);
            home_lanes[lane] = away_lanes[lane];
            away.moveLaneTo(home, lane, lane);
        }
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(got, want) << "p = " << p;
    }
}

TEST(SamplerTransplant, ParkedLaneRoundTripsExactly)
{
    // A lane parked by a mask change (armed, then left out of the
    // active mask) must export its frozen remaining-trials count, and
    // the count must survive any number of import/export hops unchanged.
    RngFamily family(11);
    LaneRngs lanes = familyLanes(family);
    ClassDrawSampler clock(0.07);
    for (int t = 0; t < 50; ++t)
        clock.trial(~0ULL, lanes);
    clock.trial(1ULL, lanes); // parks every lane but 0

    const std::int64_t remaining = clock.exportLane(21);
    ASSERT_GE(remaining, 1);
    ClassDrawSampler hop1(0.07), hop2(0.07);
    hop1.importLane(40, remaining);
    hop2.importLane(3, hop1.exportLane(40));
    EXPECT_EQ(hop2.exportLane(3), remaining);

    // An unseen lane keeps exporting kLaneUnseen through hops.
    EXPECT_EQ(hop1.exportLane(40), ClassDrawSampler::kLaneUnseen);
    hop1.importLane(40, ClassDrawSampler::kLaneUnseen);
    EXPECT_EQ(hop1.exportLane(40), ClassDrawSampler::kLaneUnseen);
}

TEST(SamplerTransplant, CorrectionClockMovesMidSeries)
{
    // The migration pattern of a real subtree: a lane walks a trace
    // clock over straight-line blocks and takes sporadic single trials
    // of its correction clock, all from one shared stream. Moving the
    // correction clock to a pool clock mid-burst (while the trace clock
    // stays home mid-series) must leave both fire sequences exactly as
    // if nothing ever moved.
    const double p = 0.04;
    const int lane = 27;
    RngFamily family(555);

    auto run = [&](bool migrate) {
        LaneRngs lanes = familyLanes(family);
        LaneRngs pool_lanes;
        ClassDrawSampler trace(p);
        ClassDrawSampler correction(p);
        ClassDrawSampler pool(p);
        std::vector<std::int64_t> fires;
        for (int round = 0; round < 120; ++round) {
            trace.walkLane(lane, 5, lanes[lane], [&](std::int64_t o) {
                fires.push_back(round * 100 + o);
            });
            // Correction burst: two trials at home...
            for (int t = 0; t < 2; ++t)
                if ((correction.trial(std::uint64_t{1} << lane, lanes)
                     >> lane)
                    & 1)
                    fires.push_back(round * 100 + 50 + t);
            if (migrate) {
                // ...then the rest of the burst in the pool, clock
                // carried over mid-series, and back afterwards.
                pool_lanes[3] = lanes[lane];
                correction.moveLaneTo(pool, 3, lane);
                for (int t = 2; t < 5; ++t)
                    if ((pool.trial(std::uint64_t{1} << 3, pool_lanes) >> 3)
                        & 1)
                        fires.push_back(round * 100 + 50 + t);
                lanes[lane] = pool_lanes[3];
                pool.moveLaneTo(correction, lane, 3);
            } else {
                for (int t = 2; t < 5; ++t)
                    if ((correction.trial(std::uint64_t{1} << lane, lanes)
                         >> lane)
                        & 1)
                        fires.push_back(round * 100 + 50 + t);
            }
        }
        return fires;
    };

    const std::vector<std::int64_t> stationary = run(false);
    const std::vector<std::int64_t> migrated = run(true);
    EXPECT_FALSE(stationary.empty());
    EXPECT_EQ(migrated, stationary);
}

TEST(SamplerTransplant, TransplantedDrawSequenceEqualsNeverMoved)
{
    // Regression for the central contract: after any number of moves
    // across clock objects and lane positions, the subsequent draw
    // sequence equals the never-moved lane's, trial for trial.
    const double p = 0.03;
    RngFamily family(9001);

    LaneRngs ref_lanes = familyLanes(family);
    ClassDrawSampler reference(p);
    std::vector<bool> want;
    for (int t = 0; t < 2400; ++t)
        want.push_back((reference.trial(~0ULL, ref_lanes) >> 31) & 1);

    LaneRngs lanes = familyLanes(family);
    std::array<ClassDrawSampler, 3> hops{
        ClassDrawSampler(p), ClassDrawSampler(p), ClassDrawSampler(p)};
    LaneRngs hop_lanes[3];
    hop_lanes[0] = lanes;
    int where = 0;
    std::size_t slot = 31;
    std::vector<bool> got;
    Rng shuffle(4242);
    for (int seg = 0; seg < 24; ++seg) {
        for (int t = 0; t < 100; ++t)
            got.push_back((hops[where].trial(
                               where == 0 ? ~0ULL
                                          : (std::uint64_t{1} << slot),
                               hop_lanes[where])
                           >> slot)
                          & 1);
        const int next = (where + 1 + shuffle.uniformInt(2)) % 3;
        const std::size_t next_slot
            = next == 0 ? 31 : shuffle.uniformInt(kBatchLanes);
        hop_lanes[next][next_slot] = hop_lanes[where][slot];
        hops[where].moveLaneTo(hops[next], next_slot, slot);
        where = next;
        slot = next_slot;
    }
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got, want);
}

TEST(SamplerTransplant, MismatchedProbabilityDies)
{
    ClassDrawSampler a(0.1);
    ClassDrawSampler b(0.2);
    RngFamily family(1);
    LaneRngs lanes = familyLanes(family);
    a.trial(~0ULL, lanes);
    EXPECT_DEATH(a.moveLaneTo(b, 0, 0), "probabilities");
}

//
// SegmentPool planning and row/plane movement.
//

TEST(SegmentPool, RowGatherScatterRoundTrip)
{
    Rng rng(31337);
    const std::size_t num_qubits = 5;

    LaneSet mask;
    mask.n = 4;
    mask.w = {};
    mask.w[0] = rng.next64();
    mask.w[1] = 0; // a hole: word with no migrated lanes
    mask.w[2] = rng.next64() & rng.next64();
    mask.w[3] = rng.next64() | rng.next64(); // > 64 lanes total

    quantum::GroupPauliFrames frames(num_qubits, 4);
    std::vector<std::uint64_t> x_orig, z_orig;
    for (std::size_t w = 0; w < 4; ++w)
        for (std::size_t q = 0; q < num_qubits; ++q) {
            const std::uint64_t x = rng.next64(), z = rng.next64();
            frames.injectX(w, q, x);
            frames.injectZ(w, q, z);
            x_orig.push_back(x);
            z_orig.push_back(z);
        }

    SegmentPool pool;
    const std::size_t count = pool.plan(mask);
    ASSERT_EQ(count, mask.count());
    ASSERT_EQ(pool.chunkCount(), (count + 63) / 64);

    // Gather every row into a dense group frame (chunk k into word k,
    // as a twin migration does), wipe the home bits, scatter back: the
    // masked lanes must be restored exactly and the unmasked lanes left
    // at zero.
    quantum::GroupPauliFrames gathered(num_qubits, pool.chunkCount());
    for (std::size_t k = 0; k < pool.chunkCount(); ++k)
        for (std::size_t q = 0; q < num_qubits; ++q)
            pool.gatherRow(k, frames, q, gathered, k, q);
    frames.reset();
    for (std::size_t k = 0; k < pool.chunkCount(); ++k)
        for (std::size_t q = 0; q < num_qubits; ++q)
            pool.scatterRow(k, frames, q, gathered, k, q);
    for (std::size_t w = 0; w < 4; ++w)
        for (std::size_t q = 0; q < num_qubits; ++q) {
            EXPECT_EQ(frames.xWord(w, q),
                      x_orig[w * num_qubits + q] & mask.w[w])
                << "w=" << w << " q=" << q;
            EXPECT_EQ(frames.zWord(w, q),
                      z_orig[w * num_qubits + q] & mask.w[w])
                << "w=" << w << " q=" << q;
        }
}

namespace {

/** Lane @p lane's exported clock state, read from a copy so the clock
 *  itself keeps the lane. */
std::int64_t
laneState(ClassDrawSampler clock, std::size_t lane)
{
    return clock.exportLane(lane);
}

} // namespace

TEST(SegmentPool, TransplantMovesTheRetryBankOnly)
{
    // A migrated subtree replays on the retry clock bank alone, so a
    // transplant must carry each lane's retry-bank clocks (and its rng
    // stream and correction clock) into its dense slot and back, and
    // must leave the straight-line bank at home untouched. Every clock
    // of both banks starts with its own random set of armed lanes, so
    // moving the wrong bank cannot look right by accident.
    NoiseClassTable classes;
    classes.classOf(1e-2);
    classes.classOf(3e-2);
    classes.classOf(0.2);
    const std::size_t n = classes.probabilities().size();
    const double correction_p = 1e-2;
    const RngFamily family(2718);
    Rng rng(99);
    std::vector<BatchedNoiseModel> home;
    for (std::size_t w = 0; w < 2; ++w) {
        home.emplace_back(classes, correction_p);
        home[w].rearm(family, w * kBatchLanes);
        for (ClassDrawSampler &clock : home[w].draws)
            for (int rep = 0; rep < 3; ++rep)
                clock.trial(rng.next64() & rng.next64(), home[w].lanes);
        home[w].correction.trial(rng.next64(), home[w].lanes);
    }
    const std::vector<BatchedNoiseModel> before = home;

    LaneSet mask;
    mask.n = 2;
    mask.w[0] = rng.next64() & rng.next64();
    mask.w[1] = rng.next64() & rng.next64() & rng.next64();
    SegmentPool pool;
    ASSERT_LE(pool.plan(mask), kBatchLanes);
    BatchedNoiseModel dense(classes, correction_p);
    pool.transplantIn(0, home, dense);

    std::size_t slot = 0;
    for (std::uint32_t w = 0; w < mask.n; ++w) {
        for (std::size_t l = 0; l < kBatchLanes; ++l) {
            const bool moved = (mask.w[w] >> l) & 1;
            for (std::size_t c = 0; c < 2 * n; ++c) {
                const std::int64_t was = laneState(before[w].draws[c], l);
                const bool retry_bank = c >= n;
                EXPECT_EQ(laneState(home[w].draws[c], l),
                          moved && retry_bank
                              ? ClassDrawSampler::kLaneUnseen
                              : was)
                    << "home word " << w << " lane " << l << " clock " << c;
                if (moved) {
                    EXPECT_EQ(laneState(dense.draws[c], slot),
                              retry_bank ? was
                                         : ClassDrawSampler::kLaneUnseen)
                        << "slot " << slot << " clock " << c;
                }
            }
            if (moved) {
                EXPECT_EQ(laneState(dense.correction, slot),
                          laneState(before[w].correction, l));
                EXPECT_EQ(Rng(dense.lanes[slot]).next64(),
                          Rng(before[w].lanes[l]).next64());
                ++slot;
            }
        }
    }

    // And back: every clock of both banks is where it started.
    pool.transplantOut(0, home, dense);
    for (std::size_t w = 0; w < 2; ++w)
        for (std::size_t l = 0; l < kBatchLanes; ++l) {
            for (std::size_t c = 0; c < 2 * n; ++c)
                EXPECT_EQ(laneState(home[w].draws[c], l),
                          laneState(before[w].draws[c], l))
                    << "word " << w << " lane " << l << " clock " << c;
            EXPECT_EQ(laneState(home[w].correction, l),
                      laneState(before[w].correction, l));
        }
}

TEST(SegmentPool, ScatterPlaneMatchesManualPlacement)
{
    Rng rng(8);
    LaneSet mask;
    mask.n = 3;
    mask.w = {};
    mask.w[0] = rng.next64() & rng.next64() & rng.next64();
    mask.w[1] = rng.next64() & rng.next64();
    mask.w[2] = rng.next64() & rng.next64() & rng.next64();

    SegmentPool pool;
    const std::size_t count = pool.plan(mask);

    // Dense plane: an arbitrary bit pattern over the migrated slots.
    std::vector<std::uint64_t> planes(pool.chunkCount());
    for (auto &p : planes)
        p = rng.next64();

    std::array<std::uint64_t, kMaxGroupWords> out{};
    for (std::size_t k = 0; k < pool.chunkCount(); ++k)
        pool.scatterPlane(k, planes[k], out.data(), 1);

    // Manual reference: slot j of the (word, lane)-sorted gather order.
    std::array<std::uint64_t, kMaxGroupWords> want{};
    std::size_t j = 0;
    for (std::uint32_t w = 0; w < mask.n; ++w) {
        std::uint64_t lanes = mask.w[w];
        while (lanes) {
            const int l = std::countr_zero(lanes);
            lanes &= lanes - 1;
            if ((planes[j / 64] >> (j % 64)) & 1)
                want[w] |= std::uint64_t{1} << l;
            ++j;
        }
    }
    ASSERT_EQ(j, count);
    for (std::size_t w = 0; w < kMaxGroupWords; ++w)
        EXPECT_EQ(out[w], want[w]) << "word " << w;
}
