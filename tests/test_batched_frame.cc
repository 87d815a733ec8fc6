/**
 * @file
 * Batched-engine differential suite.
 *
 * The load-bearing property: every lane of the 64-shot BatchedPauliFrame
 * must evolve exactly like an independent scalar PauliFrame fed the same
 * operations -- for all 64 lanes, under random Clifford+noise circuits,
 * random lane masks, and flip readout. The scalar frame is the reference
 * engine; the batched one must be indistinguishable lane by lane.
 *
 * The batched Bernoulli sampler is additionally checked for statistics
 * (exact geometric-gap sampling of i.i.d. trials) and for its
 * determinism contract: a lane's draws depend only on its own stream and
 * its own activity, not on which other lanes share the word.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arq/executor.h"
#include "arq/frame_trace.h"
#include "circuit/circuit.h"
#include "common/batched_sampler.h"
#include "common/rng.h"
#include "quantum/batched_frame.h"
#include "quantum/pauli_frame.h"

using namespace qla;
using namespace qla::quantum;

namespace {

/** Apply one masked batched op and the same op to the masked lanes of
 *  the scalar reference frames. */
struct DualFrames
{
    explicit DualFrames(std::size_t n)
        : batched(n), scalars(kBatchLanes, PauliFrame(n))
    {
    }

    template <typename BatchedFn, typename ScalarFn>
    void apply(std::uint64_t lanes, BatchedFn &&bf, ScalarFn &&sf)
    {
        bf(batched, lanes);
        for (std::size_t l = 0; l < kBatchLanes; ++l)
            if ((lanes >> l) & 1)
                sf(scalars[l]);
    }

    void expectEqual(std::size_t n) const
    {
        for (std::size_t q = 0; q < n; ++q) {
            for (std::size_t l = 0; l < kBatchLanes; ++l) {
                ASSERT_EQ(batched.xBit(q, l), scalars[l].xBit(q))
                    << "x bit, qubit " << q << " lane " << l;
                ASSERT_EQ(batched.zBit(q, l), scalars[l].zBit(q))
                    << "z bit, qubit " << q << " lane " << l;
            }
        }
    }

    BatchedPauliFrame batched;
    std::vector<PauliFrame> scalars;
};

} // namespace

TEST(BatchedPauliFrame, GateRulesMatchScalarLaneByLane)
{
    // Random circuits over gates, injections, measurements and resets
    // with random lane masks; every lane must track its scalar twin.
    for (int seed = 0; seed < 20; ++seed) {
        Rng rng(1000 + seed);
        const std::size_t n = 2 + rng.uniformInt(10);
        DualFrames dual(n);

        for (int step = 0; step < 400; ++step) {
            const std::uint64_t lanes = rng.next64() | rng.next64();
            const std::size_t q = rng.uniformInt(n);
            std::size_t q2 = rng.uniformInt(n);
            if (q2 == q)
                q2 = (q + 1) % n;
            switch (rng.uniformInt(10)) {
              case 0:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.h(q, m); },
                    [&](auto &s) { s.h(q); });
                break;
              case 1:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.s(q, m); },
                    [&](auto &s) { s.s(q); });
                break;
              case 2:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.cnot(q, q2, m); },
                    [&](auto &s) { s.cnot(q, q2); });
                break;
              case 3:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.cz(q, q2, m); },
                    [&](auto &s) { s.cz(q, q2); });
                break;
              case 4:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.swap(q, q2, m); },
                    [&](auto &s) { s.swap(q, q2); });
                break;
              case 5:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.injectX(q, m); },
                    [&](auto &s) { s.injectX(q); });
                break;
              case 6:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.injectZ(q, m); },
                    [&](auto &s) { s.injectZ(q); });
                break;
              case 7:
                dual.apply(
                    lanes,
                    [&](auto &b, std::uint64_t m) { b.resetQubit(q, m); },
                    [&](auto &s) { s.resetQubit(q); });
                break;
              case 8: {
                const std::uint64_t flips =
                    dual.batched.measureZFlip(q, lanes);
                for (std::size_t l = 0; l < kBatchLanes; ++l) {
                    if (!((lanes >> l) & 1))
                        continue;
                    ASSERT_EQ((flips >> l) & 1,
                              dual.scalars[l].measureZFlip(q) ? 1u : 0u)
                        << "measureZ flip, lane " << l;
                }
                break;
              }
              default: {
                const std::uint64_t flips =
                    dual.batched.measureXFlip(q, lanes);
                for (std::size_t l = 0; l < kBatchLanes; ++l) {
                    if (!((lanes >> l) & 1))
                        continue;
                    ASSERT_EQ((flips >> l) & 1,
                              dual.scalars[l].measureXFlip(q) ? 1u : 0u)
                        << "measureX flip, lane " << l;
                }
                break;
              }
            }
        }
        dual.expectEqual(n);
    }
}

TEST(BatchedPauliFrame, MaskedLanesStayUntouched)
{
    BatchedPauliFrame frame(3);
    frame.injectX(0, ~0ULL);
    frame.injectZ(2, ~0ULL);
    const std::uint64_t even = 0x5555555555555555ULL;
    frame.h(0, even);
    frame.cnot(0, 1, even);
    frame.measureZFlip(2, even);
    frame.resetQubit(0, even);
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
        if (l % 2 == 0)
            continue; // acted-on lanes checked elsewhere
        EXPECT_TRUE(frame.xBit(0, l));
        EXPECT_FALSE(frame.xBit(1, l));
        EXPECT_TRUE(frame.zBit(2, l));
    }
}

TEST(BatchedSampler, MatchesBernoulliStatistics)
{
    // Word-level rate over many trials must match p for every lane.
    for (const double p : {0.002, 0.05, 0.3}) {
        RngFamily family(17);
        LaneRngs lanes;
        for (std::size_t l = 0; l < kBatchLanes; ++l)
            lanes[l] = family.stream(l);
        BernoulliWordSampler sampler(p);
        const int trials = 40000;
        std::int64_t fires = 0;
        for (int t = 0; t < trials; ++t)
            fires += std::popcount(sampler.sample(~0ULL, lanes));
        const double rate =
            static_cast<double>(fires) / (trials * 64.0);
        EXPECT_NEAR(rate, p, 5.0 * std::sqrt(p / (trials * 64.0)))
            << "p = " << p;
    }
}

TEST(BatchedSampler, EdgeProbabilities)
{
    RngFamily family(3);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    BernoulliWordSampler never(0.0);
    BernoulliWordSampler always(1.0);
    for (int t = 0; t < 100; ++t) {
        EXPECT_EQ(never.sample(~0ULL, lanes), 0u);
        EXPECT_EQ(always.sample(0x123456789abcdefULL, lanes),
                  0x123456789abcdefULL);
    }
}

TEST(BatchedSampler, LaneDrawsIndependentOfBatchComposition)
{
    // The determinism contract: lane l's fire sequence over its active
    // trials is the same whether it shares the word with 63 other lanes
    // or runs alone, because it draws gaps only from its own stream.
    const double p = 0.03;
    const int trials = 3000;
    const int lane = 5;

    RngFamily family(99);
    LaneRngs lanes_full;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes_full[l] = family.stream(l);
    BernoulliWordSampler full(p);
    std::vector<bool> fires_full;
    for (int t = 0; t < trials; ++t)
        fires_full.push_back(
            (full.sample(~0ULL, lanes_full) >> lane) & 1);

    LaneRngs lanes_solo;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes_solo[l] = family.stream(l);
    BernoulliWordSampler solo(p);
    std::vector<bool> fires_solo;
    for (int t = 0; t < trials; ++t)
        fires_solo.push_back(
            (solo.sample(std::uint64_t{1} << lane, lanes_solo) >> lane)
            & 1);

    EXPECT_EQ(fires_full, fires_solo);
}

TEST(BatchedSampler, ParkedLanesResumeWhereTheyStopped)
{
    // Alternating masks: a lane's sequence over its own active trials
    // must be unaffected by the interleaved activity of other lanes.
    const double p = 0.04;
    const int lane = 9;
    RngFamily family(7);

    auto seed_lanes = [&] {
        LaneRngs lanes;
        for (std::size_t l = 0; l < kBatchLanes; ++l)
            lanes[l] = family.stream(l);
        return lanes;
    };

    LaneRngs a = seed_lanes();
    BernoulliWordSampler alternating(p);
    std::vector<bool> seq_a;
    for (int round = 0; round < 200; ++round) {
        for (int t = 0; t < 7; ++t)
            seq_a.push_back(
                (alternating.sample(~0ULL, a) >> lane) & 1);
        for (int t = 0; t < 5; ++t) // lane parked here
            alternating.sample(~0ULL & ~(std::uint64_t{1} << lane), a);
    }

    LaneRngs b = seed_lanes();
    BernoulliWordSampler steady(p);
    std::vector<bool> seq_b;
    for (int t = 0; t < 200 * 7; ++t)
        seq_b.push_back((steady.sample(~0ULL, b) >> lane) & 1);

    EXPECT_EQ(seq_a, seq_b);
}

TEST(BatchedSampler, ExportImportContinuesSequence)
{
    // Lane compaction moves a shot between words mid-run. The moved
    // lane must continue the exact fire sequence it would have produced
    // in place: export its clock, import at another lane position of
    // another sampler, keep sampling, move it back.
    const double p = 0.05;
    RngFamily family(123);
    const int lane_home = 11;
    const int lane_away = 3;

    LaneRngs ref_lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        ref_lanes[l] = family.stream(l);
    BernoulliWordSampler reference(p);
    std::vector<bool> ref_fires;
    for (int t = 0; t < 3000; ++t)
        ref_fires.push_back(
            (reference.sample(~0ULL, ref_lanes) >> lane_home) & 1);

    LaneRngs home_lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        home_lanes[l] = family.stream(l);
    LaneRngs away_lanes; // pool-side streams (only the slot in use set)
    BernoulliWordSampler home(p);
    BernoulliWordSampler away(p);
    std::vector<bool> fires;
    int t = 0;
    for (int phase = 0; phase < 6; ++phase) {
        // 300 trials at home (all lanes active, like a full word)...
        for (int i = 0; i < 300; ++i, ++t)
            fires.push_back(
                (home.sample(~0ULL, home_lanes) >> lane_home) & 1);
        // ...then migrate to slot lane_away of the away sampler for 200
        // solo trials (like a compacted retry word).
        away_lanes[lane_away] = home_lanes[lane_home];
        away.importLane(lane_away, home.exportLane(lane_home));
        for (int i = 0; i < 200; ++i, ++t)
            fires.push_back((away.sample(std::uint64_t{1} << lane_away,
                                         away_lanes)
                             >> lane_away)
                            & 1);
        home_lanes[lane_home] = away_lanes[lane_away];
        home.importLane(lane_home, away.exportLane(lane_away));
    }
    ASSERT_EQ(fires.size(), ref_fires.size());
    EXPECT_EQ(fires, ref_fires);
}

TEST(BatchedSampler, ExportImportEdgeCases)
{
    RngFamily family(9);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);

    // A lane the sampler has never armed exports as kLaneUnseen, and
    // importing kLaneUnseen leaves the destination lane fresh.
    BernoulliWordSampler sampler(0.1);
    EXPECT_EQ(sampler.exportLane(7), BernoulliWordSampler::kLaneUnseen);
    BernoulliWordSampler other(0.1);
    other.importLane(7, BernoulliWordSampler::kLaneUnseen);

    // A parked lane (active once, then masked out) round-trips.
    sampler.sample(~0ULL, lanes);
    sampler.sample(1ULL, lanes); // parks every lane but 0
    const std::int64_t remaining = sampler.exportLane(9);
    EXPECT_GE(remaining, 1);
    other.importLane(9, remaining);
    EXPECT_EQ(other.exportLane(9), remaining);
}

TEST(BatchedDepolarize, SingleQubitStatistics)
{
    RngFamily family(21);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    const double p = 0.3;
    BernoulliWordSampler sampler(p);
    const int trials = 4000;
    std::int64_t x = 0, y = 0, z = 0;
    for (int t = 0; t < trials; ++t) {
        BatchedPauliFrame frame(1);
        depolarize1(frame, 0, sampler, lanes, ~0ULL);
        const std::uint64_t xw = frame.xWord(0);
        const std::uint64_t zw = frame.zWord(0);
        x += std::popcount(xw & ~zw);
        y += std::popcount(xw & zw);
        z += std::popcount(~xw & zw);
    }
    const double total = trials * 64.0;
    EXPECT_NEAR((x + y + z) / total, p, 0.01);
    EXPECT_NEAR(x / total, p / 3.0, 0.01);
    EXPECT_NEAR(y / total, p / 3.0, 0.01);
    EXPECT_NEAR(z / total, p / 3.0, 0.01);
}

TEST(BatchedDepolarize, TwoQubitUniformOverFifteenPairs)
{
    RngFamily family(22);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    const double p = 0.45;
    BernoulliWordSampler sampler(p);
    const int trials = 4000;
    std::array<std::int64_t, 16> counts{};
    for (int t = 0; t < trials; ++t) {
        BatchedPauliFrame frame(2);
        depolarize2(frame, 0, 1, sampler, lanes, ~0ULL);
        for (std::size_t l = 0; l < kBatchLanes; ++l) {
            const int pa = (frame.xBit(0, l) ? 1 : 0)
                + (frame.zBit(0, l) ? 2 : 0);
            const int pb = (frame.xBit(1, l) ? 1 : 0)
                + (frame.zBit(1, l) ? 2 : 0);
            ++counts[pa * 4 + pb];
        }
    }
    const double total = trials * 64.0;
    EXPECT_NEAR(1.0 - counts[0] / total, p, 0.01);
    for (int code = 1; code < 16; ++code)
        EXPECT_NEAR(counts[code] / total, p / 15.0, 0.005)
            << "code " << code;
}

TEST(ClassDrawSampler, MatchesBernoulliStatistics)
{
    // The trace-level clock must realize i.i.d. Bernoulli(p) trials for
    // every lane, exactly like the per-site word sampler.
    for (const double p : {0.002, 0.05, 0.3}) {
        RngFamily family(29);
        LaneRngs lanes;
        for (std::size_t l = 0; l < kBatchLanes; ++l)
            lanes[l] = family.stream(l);
        ClassDrawSampler sampler(p);
        const std::int64_t sites = 2000;
        const int blocks = 20;
        std::int64_t fires = 0;
        for (int b = 0; b < blocks; ++b)
            for (std::size_t l = 0; l < kBatchLanes; ++l)
                sampler.walkLane(l, sites, lanes[l],
                                 [&](std::int64_t) { ++fires; });
        const double trials
            = static_cast<double>(sites) * blocks * kBatchLanes;
        const double rate = static_cast<double>(fires) / trials;
        EXPECT_NEAR(rate, p, 5.0 * std::sqrt(p / trials)) << "p = " << p;
    }
}

TEST(ClassDrawSampler, BlockBoundariesDoNotChangeFirePositions)
{
    // The SIMD tiling and shot grouping change how a trace's sites are
    // blocked into walkLane calls, never which global trial ordinals
    // fire: walking one long block and walking the same trials in
    // ragged pieces must fire at identical global positions.
    const double p = 0.03;
    const int lane = 13;
    RngFamily family(77);

    Rng whole_rng = family.stream(lane);
    ClassDrawSampler whole(p);
    std::vector<std::int64_t> whole_fires;
    whole.walkLane(lane, 30000, whole_rng,
                   [&](std::int64_t o) { whole_fires.push_back(o); });

    Rng pieces_rng = family.stream(lane);
    ClassDrawSampler pieces(p);
    std::vector<std::int64_t> piece_fires;
    Rng chop(5);
    std::int64_t base = 0;
    while (base < 30000) {
        const std::int64_t sites = std::min<std::int64_t>(
            30000 - base, 1 + chop.uniformInt(700));
        pieces.walkLane(lane, sites, pieces_rng, [&](std::int64_t o) {
            piece_fires.push_back(base + o);
        });
        base += sites;
    }
    EXPECT_EQ(piece_fires, whole_fires);
}

TEST(ClassDrawSampler, ExportImportContinuesSequence)
{
    // Lane compaction moves a shot's trace-draw clock between words
    // mid-run exactly like the word sampler's: the migrated lane must
    // keep the fire sequence it would have produced in place.
    const double p = 0.05;
    RngFamily family(123);
    const int lane_home = 11;
    const int lane_away = 3;

    Rng ref_rng = family.stream(lane_home);
    ClassDrawSampler reference(p);
    std::vector<std::int64_t> ref_fires;
    for (int b = 0; b < 30; ++b)
        reference.walkLane(lane_home, 500, ref_rng, [&](std::int64_t o) {
            ref_fires.push_back(b * 500 + o);
        });

    Rng mig_rng = family.stream(lane_home);
    ClassDrawSampler home(p);
    ClassDrawSampler away(p);
    std::vector<std::int64_t> fires;
    for (int b = 0; b < 30; ++b) {
        if (b % 2 == 0) {
            home.walkLane(lane_home, 500, mig_rng, [&](std::int64_t o) {
                fires.push_back(b * 500 + o);
            });
            away.importLane(lane_away, home.exportLane(lane_home));
        } else {
            away.walkLane(lane_away, 500, mig_rng, [&](std::int64_t o) {
                fires.push_back(b * 500 + o);
            });
            home.importLane(lane_home, away.exportLane(lane_away));
        }
    }
    EXPECT_EQ(fires, ref_fires);
}

TEST(ClassDrawSampler, ExportImportEdgeCases)
{
    RngFamily family(9);
    Rng rng = family.stream(0);

    // An unseen lane exports kLaneUnseen; importing it stays fresh.
    ClassDrawSampler sampler(0.1);
    EXPECT_EQ(sampler.exportLane(7), ClassDrawSampler::kLaneUnseen);
    ClassDrawSampler other(0.1);
    other.importLane(7, ClassDrawSampler::kLaneUnseen);

    // A walked lane's remaining-trials clock round-trips (>= 1, same
    // convention as BernoulliWordSampler::exportLane).
    sampler.walkLane(9, 100, rng, [](std::int64_t) {});
    const std::int64_t remaining = sampler.exportLane(9);
    EXPECT_GE(remaining, 1);
    other.importLane(9, remaining);
    EXPECT_EQ(other.exportLane(9), remaining);
}

TEST(GroupReplay, TileCarvingBitIdenticalLaneByLane)
{
    // The contract of the SIMD shot planes: a shot group of any width
    // is carved into kReplayTileWords-word planes and then 2- and
    // 1-word planes, and every carving must leave every lane of every
    // word -- frame bits and flip words -- exactly as the one-word
    // replay does. Group widths 1..8 cover the one-word fast path,
    // every remainder, all-inactive tiles (words 4-5) and inactive
    // words inside active tiles; sparse and dense masks alternate so
    // both replay engines run.
    using namespace qla::arq;
    const std::size_t n = 6;
    NoiseClassTable classes;
    FrameTraceBuilder builder(classes);
    builder.resetRange(0, n);
    builder.noisyH(0, 2e-2);
    builder.noisyCnot(0, 1, 1, 1.5e-2, 2.5e-2);
    builder.noisyCnot(2, 3, 2, 1.5e-2, 2.5e-2);
    builder.noisyCnotMeas(4, 5, 4, 1.5e-2, 2.5e-2, false, 3e-3);
    builder.noise1Range(0, n, 1e-2);
    builder.s(4);
    builder.cz(4, 5);
    builder.swapGate(0, 5);
    builder.measureRange(0, 3, true, 3e-3);
    builder.measureZ(4, 3e-3);
    FrameTrace trace = builder.take();
    finalizeTraceClassSites(trace, classes);

    const std::size_t max_words = 8;
    RngFamily family(2026);
    Rng mask_rng(55);
    std::vector<std::uint64_t> masks(max_words);
    for (std::size_t w = 0; w < max_words; ++w)
        masks[w] = w % 2 ? mask_rng.next64() & mask_rng.next64()
                               & mask_rng.next64()
                         : mask_rng.next64() | mask_rng.next64();
    masks[3] = masks[4] = masks[5] = 0;

    // Reference: each word alone through the single-word replay.
    std::vector<BatchedPauliFrame> ref_frames(max_words,
                                              BatchedPauliFrame(n));
    std::vector<std::vector<std::uint64_t>> ref_flips(max_words);
    for (std::size_t w = 0; w < max_words; ++w) {
        BatchedNoiseModel model(classes);
        model.rearm(family, w * kBatchLanes);
        replayTrace(trace, ref_frames[w], model, masks[w], ref_flips[w]);
    }

    for (std::size_t words = 1; words <= max_words; ++words) {
        GroupPauliFrames frames(n, words);
        std::vector<BatchedNoiseModel> models;
        for (std::size_t w = 0; w < words; ++w) {
            models.emplace_back(classes);
            models.back().rearm(family, w * kBatchLanes);
        }
        std::vector<std::vector<std::uint64_t>> flips(words);
        replayTraceGroup(trace, frames, models.data(), masks.data(), words,
                         flips.data());
        for (std::size_t w = 0; w < words; ++w) {
            // Inactive words get zero flips, or none in skipped tiles.
            if (masks[w]) {
                ASSERT_EQ(flips[w], ref_flips[w])
                    << "group " << words << " word " << w;
            } else {
                ASSERT_EQ(std::count(flips[w].begin(), flips[w].end(), 0u),
                          static_cast<std::ptrdiff_t>(flips[w].size()))
                    << "group " << words << " word " << w;
            }
            for (std::size_t q = 0; q < n; ++q) {
                ASSERT_EQ(frames.xWord(w, q), ref_frames[w].xWord(q))
                    << "group " << words << " word " << w << " q " << q;
                ASSERT_EQ(frames.zWord(w, q), ref_frames[w].zWord(q))
                    << "group " << words << " word " << w << " q " << q;
            }
        }
    }
}

namespace {

/** A trace mixing plain gates, fused noisy steps, one- and two-qubit
 *  fault sites (one class degenerate) and readouts, which keeps some
 *  input-frame coordinates live to its end (no reset up front). */
qla::arq::FrameTrace
mixedTrace(qla::arq::NoiseClassTable &classes, std::size_t n, double p)
{
    qla::arq::FrameTraceBuilder b(classes);
    for (std::size_t round = 0; round < 6; ++round) {
        for (std::size_t q = 0; q < n; q += 2)
            b.noisyCnot(q, q + 1, round % 2 ? q : q + 1, p, 2 * p);
        b.noisyH(round % n, p);
        b.noise2(p, 1, n - 2);
        b.noise1(0.0, 2); // degenerate class: never fires
        b.h(3);
        b.s(3);
        b.cnot(4, 1);
        b.cz(2, 5);
        b.swapGate(0, n - 1);
        b.noise1Range(0, n, p);
        const std::size_t target = (round + 3) % n;
        b.noisyCnotMeas(round % n, target, target, p, 2 * p,
                        round % 2 == 1, p);
        b.reset(target);
    }
    b.measureRange(0, n / 2, false, p);
    b.measureX(n - 2, p);
    b.measureZ(n - 1, p);
    qla::arq::FrameTrace trace = b.take();
    qla::arq::finalizeTraceClassSites(trace, classes);
    return trace;
}

} // namespace

TEST(TraceReplay, CompiledMatchesInterpreterLaneByLane)
{
    // The compiled effect-list replay and the op interpreter consume
    // the same fire plans and must leave identical flips and frames. A
    // copy of the trace without its compiled model can only take the
    // interpreter; the original takes whichever engine the cost model
    // prices cheaper. Three consecutive replays per word carry lane
    // clocks and plan scratch across replays.
    using namespace qla::arq;
    struct Case
    {
        const char *name;
        double p;
        bool sparseMasks;
        bool randomFrame;
    };
    const Case cases[] = {
        // Few fires on a clean frame: the compiled replay is cheaper
        // and serves every word from merged sparse event lists.
        {"sparse p=1e-3", 1e-3, true, false},
        // Full masks far above threshold: dense plans.
        {"full p=5e-2", 5e-2, false, true},
        // Few lanes at a high rate: dense plans through the compiled
        // replay, with live input-frame coordinates.
        {"sparse p=5e-2", 5e-2, true, true},
    };
    const std::size_t n = 8;
    for (const Case &c : cases) {
        NoiseClassTable classes;
        const FrameTrace trace = mixedTrace(classes, n, c.p);
        ASSERT_TRUE(trace.effects);
        FrameTrace interpreted = trace;
        interpreted.effects = nullptr;
        const FrameTrace *engines[2] = {&trace, &interpreted};
        RngFamily family(31337);
        Rng rng(4242);
        for (std::uint64_t word = 0; word < 24; ++word) {
            const std::uint64_t mask = c.sparseMasks
                ? rng.next64() & rng.next64() & rng.next64()
                : ~std::uint64_t{0};
            std::vector<BatchedPauliFrame> frames(2, BatchedPauliFrame(n));
            if (c.randomFrame) {
                for (std::size_t q = 0; q < n; ++q) {
                    const std::uint64_t xw = rng.next64();
                    const std::uint64_t zw = rng.next64();
                    for (BatchedPauliFrame &f : frames) {
                        f.injectX(q, xw);
                        f.injectZ(q, zw);
                    }
                }
            }
            std::vector<std::uint64_t> flips[2];
            for (int e = 0; e < 2; ++e) {
                BatchedNoiseModel model(classes);
                model.rearm(family, word * kBatchLanes);
                for (int rep = 0; rep < 3; ++rep)
                    replayTrace(*engines[e], frames[e], model, mask,
                                flips[e]);
            }
            ASSERT_EQ(flips[0], flips[1]) << c.name << " word " << word;
            for (std::size_t q = 0; q < n; ++q) {
                ASSERT_EQ(frames[0].xWord(q), frames[1].xWord(q))
                    << c.name << " word " << word << " q " << q;
                ASSERT_EQ(frames[0].zWord(q), frames[1].zWord(q))
                    << c.name << " word " << word << " q " << q;
            }
        }
    }
}

TEST(BatchedExecutor, MatchesScalarFrameExecution)
{
    using circuit::QuantumCircuit;
    // Inject per-lane random errors into both engines, run the same
    // Clifford circuit through the executor on each, and compare the
    // flip records and final frames lane by lane.
    for (int seed = 0; seed < 10; ++seed) {
        Rng rng(4000 + seed);
        const std::size_t n = 5;
        QuantumCircuit circuit(n, "exec-batch");
        circuit.h(0);
        circuit.cnot(0, 1);
        circuit.s(2);
        circuit.cz(1, 3);
        circuit.swapGate(3, 4);
        circuit.cnot(2, 4);
        circuit.measureZ(1);
        circuit.measureX(2);

        DualFrames dual(n);
        for (std::size_t q = 0; q < n; ++q) {
            const std::uint64_t xw = rng.next64();
            const std::uint64_t zw = rng.next64();
            dual.batched.injectX(q, xw);
            dual.batched.injectZ(q, zw);
            for (std::size_t l = 0; l < kBatchLanes; ++l) {
                if ((xw >> l) & 1)
                    dual.scalars[l].injectX(q);
                if ((zw >> l) & 1)
                    dual.scalars[l].injectZ(q);
            }
        }

        const arq::BatchedExecutionResult batched =
            arq::executeOnBatchedFrame(circuit, dual.batched, ~0ULL);

        for (std::size_t l = 0; l < kBatchLanes; ++l) {
            Rng unused(1);
            const arq::ExecutionResult scalar =
                arq::executeOnBackend(circuit, dual.scalars[l], unused);
            ASSERT_EQ(batched.measurementFlips.size(),
                      scalar.measurements.size());
            for (std::size_t m = 0; m < scalar.measurements.size(); ++m)
                ASSERT_EQ((batched.measurementFlips[m] >> l) & 1,
                          scalar.measurements[m] ? 1u : 0u)
                    << "measurement " << m << " lane " << l;
        }
        dual.expectEqual(n);
    }
}
