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
 * The batched Bernoulli clock is additionally checked for statistics
 * (exact geometric-gap sampling of i.i.d. trials), in both its block-walk
 * and its one-trial use, and for its determinism contract: a lane's
 * draws depend only on its own stream and its own activity, not on which
 * other lanes share the word.
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

TEST(ClassDrawTrial, TrialsFireWhereTheBlockWalkDoes)
{
    // trial() is a one-site walkWord: a lane's fires over N single
    // trials land on exactly the ordinals one N-site walkLane fires,
    // from the same stream.
    const double p = 0.04;
    const int lane = 21;
    const int trials = 5000;
    RngFamily family(61);

    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    ClassDrawSampler stepped(p);
    std::vector<std::int64_t> got;
    for (int t = 0; t < trials; ++t)
        if ((stepped.trial(~0ULL, lanes) >> lane) & 1)
            got.push_back(t);

    Rng rng = family.stream(lane);
    ClassDrawSampler walked(p);
    std::vector<std::int64_t> want;
    walked.walkLane(lane, trials, rng,
                    [&](std::int64_t o) { want.push_back(o); });
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(got, want);
}

TEST(ClassDrawTrial, DegenerateProbabilitiesDrawNothing)
{
    // p = 0 fires no lane and p = 1 fires every active lane; like
    // Rng::bernoulli, neither consumes any lane's stream.
    RngFamily family(3);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    const LaneRngs before = lanes;
    ClassDrawSampler never(0.0);
    ClassDrawSampler always(1.0);
    for (int t = 0; t < 100; ++t) {
        EXPECT_EQ(never.trial(~0ULL, lanes), 0u);
        EXPECT_EQ(always.trial(0x123456789abcdefULL, lanes),
                  0x123456789abcdefULL);
    }
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
        Rng untouched = before[l];
        EXPECT_EQ(lanes[l].next64(), untouched.next64()) << "lane " << l;
    }
}

TEST(ClassDrawTrial, LaneDrawsIndependentOfBatchComposition)
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
    ClassDrawSampler full(p);
    std::vector<bool> fires_full;
    for (int t = 0; t < trials; ++t)
        fires_full.push_back((full.trial(~0ULL, lanes_full) >> lane) & 1);

    LaneRngs lanes_solo;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes_solo[l] = family.stream(l);
    ClassDrawSampler solo(p);
    std::vector<bool> fires_solo;
    for (int t = 0; t < trials; ++t)
        fires_solo.push_back(
            (solo.trial(std::uint64_t{1} << lane, lanes_solo) >> lane)
            & 1);

    EXPECT_EQ(fires_full, fires_solo);
}

TEST(ClassDrawTrial, ParkedLanesResumeWhereTheyStopped)
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
    ClassDrawSampler alternating(p);
    std::vector<bool> seq_a;
    for (int round = 0; round < 200; ++round) {
        for (int t = 0; t < 7; ++t)
            seq_a.push_back((alternating.trial(~0ULL, a) >> lane) & 1);
        for (int t = 0; t < 5; ++t) // lane parked here
            alternating.trial(~0ULL & ~(std::uint64_t{1} << lane), a);
    }

    LaneRngs b = seed_lanes();
    ClassDrawSampler steady(p);
    std::vector<bool> seq_b;
    for (int t = 0; t < 200 * 7; ++t)
        seq_b.push_back((steady.trial(~0ULL, b) >> lane) & 1);

    EXPECT_EQ(seq_a, seq_b);
}

TEST(BatchedDepolarize, SingleQubitStatistics)
{
    // A fired word's Paulis (drawPauli1) are uniform over X, Y, Z.
    RngFamily family(21);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    const double p = 0.3;
    ClassDrawSampler clock(p);
    const int trials = 4000;
    std::int64_t x = 0, y = 0, z = 0;
    for (int t = 0; t < trials; ++t) {
        const quantum::Pauli1Draw d
            = quantum::drawPauli1(clock.trial(~0ULL, lanes), lanes);
        x += std::popcount(d.fx & ~d.fz);
        y += std::popcount(d.fx & d.fz);
        z += std::popcount(~d.fx & d.fz);
    }
    const double total = trials * 64.0;
    EXPECT_NEAR((x + y + z) / total, p, 0.01);
    EXPECT_NEAR(x / total, p / 3.0, 0.01);
    EXPECT_NEAR(y / total, p / 3.0, 0.01);
    EXPECT_NEAR(z / total, p / 3.0, 0.01);
}

TEST(BatchedDepolarize, TwoQubitUniformOverFifteenPairs)
{
    // A fired word's Pauli pairs (drawPauli2) are uniform over the 15
    // non-identity pairs.
    RngFamily family(22);
    LaneRngs lanes;
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(l);
    const double p = 0.45;
    ClassDrawSampler clock(p);
    const int trials = 4000;
    std::array<std::int64_t, 16> counts{};
    for (int t = 0; t < trials; ++t) {
        const quantum::Pauli2Draw d
            = quantum::drawPauli2(clock.trial(~0ULL, lanes), lanes);
        for (std::size_t l = 0; l < kBatchLanes; ++l) {
            const int pa = static_cast<int>(((d.fxa >> l) & 1)
                                            + 2 * ((d.fza >> l) & 1));
            const int pb = static_cast<int>(((d.fxb >> l) & 1)
                                            + 2 * ((d.fzb >> l) & 1));
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
    // The block walk must realize i.i.d. Bernoulli(p) trials for every
    // lane.
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

TEST(ClassDrawSampler, WalkWordEmitsTheFiresWalkLaneDoes)
{
    // walkWord batches the per-lane walks across a word: over several
    // consecutive blocks, each lane's emitted (ordinal, lane) fires must
    // be exactly the fires walkLane produces for it alone, in the same
    // order and from the same stream draws, and the lane clocks must end
    // where the per-lane walks leave them. Full, sparse and one-lane
    // masks cover the vectorized sweep, the masked sweep and the
    // one-firing-lane path; p = 0.5 drives the multi-round batched
    // path with lanes firing many times per block.
    const std::int64_t blocks[] = {1, 7, 64, 300, 2, 1000, 33, 2000};
    for (const double p : {1e-3, 5e-2, 0.5}) {
        for (int shape = 0; shape < 3; ++shape) {
            SCOPED_TRACE(testing::Message() << "p = " << p << " masks "
                                            << shape);
            RngFamily family(404);
            LaneRngs lanes;
            for (std::size_t l = 0; l < kBatchLanes; ++l)
                lanes[l] = family.stream(l);
            LaneRngs ref_lanes = lanes;
            ClassDrawSampler word(p);
            ClassDrawSampler ref(p);
            Rng mask_rng(17);
            std::int64_t total = 0;
            for (const std::int64_t sites : blocks) {
                const std::uint64_t mask
                    = shape == 0 ? ~std::uint64_t{0}
                    : shape == 1 ? mask_rng.next64() & mask_rng.next64()
                                 : std::uint64_t{1} << 37;
                std::vector<std::vector<std::int64_t>> got(kBatchLanes);
                word.walkWord(mask, sites, lanes,
                              [&](std::int64_t ord, int lane) {
                                  ASSERT_TRUE((mask >> lane) & 1);
                                  ASSERT_LT(ord, sites);
                                  got[lane].push_back(ord);
                              });
                for (std::size_t l = 0; l < kBatchLanes; ++l) {
                    std::vector<std::int64_t> want;
                    if ((mask >> l) & 1)
                        ref.walkLane(l, sites, ref_lanes[l],
                                     [&](std::int64_t o) {
                                         want.push_back(o);
                                     });
                    ASSERT_EQ(got[l], want)
                        << "block of " << sites << ", lane " << l;
                    total += static_cast<std::int64_t>(want.size());
                }
            }
            EXPECT_GT(total, 0);
            for (std::size_t l = 0; l < kBatchLanes; ++l) {
                EXPECT_EQ(word.exportLane(l), ref.exportLane(l))
                    << "lane " << l;
                EXPECT_EQ(lanes[l].next64(), ref_lanes[l].next64())
                    << "lane " << l;
            }
        }
    }
}

TEST(ClassDrawSampler, BlockBoundariesDoNotChangeFirePositions)
{
    // Shot grouping and lane compaction change how a trace's sites are
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
    // Lane compaction moves a shot's clocks between words mid-run: the
    // migrated lane must keep the fire sequence it would have produced
    // in place.
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

    // A walked lane's remaining-trials clock round-trips (>= 1).
    sampler.walkLane(9, 100, rng, [](std::int64_t) {});
    const std::int64_t remaining = sampler.exportLane(9);
    EXPECT_GE(remaining, 1);
    other.importLane(9, remaining);
    EXPECT_EQ(other.exportLane(9), remaining);
}

namespace {

/** A trace through every builder helper: plain gates, the noisy
 *  pattern helpers and ranges (reset included), one- and two-qubit
 *  fault sites (a never-firing p = 0 class and, with @p always_fires,
 *  an always-firing p = 1 class) and readouts, which keeps some
 *  input-frame coordinates live to its end (no reset up front). */
qla::arq::FrameTrace
mixedTrace(qla::arq::NoiseClassTable &classes, std::size_t n, double p,
           bool always_fires)
{
    qla::arq::FrameTraceBuilder b(classes);
    for (std::size_t round = 0; round < 6; ++round) {
        for (std::size_t q = 0; q < n; q += 2)
            b.noisyCnot(q, q + 1, round % 2 ? q : q + 1, p, 2 * p);
        b.noisyH(round % n, p);
        b.noise2(p, 1, n - 2);
        b.noise1(0.0, 2); // degenerate class: never fires
        if (always_fires)
            b.noise1(1.0, 3); // degenerate class: fires every lane
        b.h(3);
        b.s(3);
        b.cnot(4, 1);
        b.cz(2, 5);
        b.swapGate(0, n - 1);
        b.noise1Range(0, n, p);
        if (round % 3 == 2)
            b.resetRange(n / 2, n / 2 - 1);
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

/**
 * True when no lane has drawn from any clock of the bank a replay with
 * @p retry must not touch. Fresh banks carry equal probabilities, so
 * fired words alone cannot tell the banks apart; the clocks' lane state
 * can. Reads a copy: exportLane removes the lane it reports.
 */
bool
otherBankUnseen(qla::arq::BatchedNoiseModel model, bool retry)
{
    const std::size_t n = model.numClasses();
    const std::size_t first = retry ? 0 : n;
    for (std::size_t c = first; c < first + n; ++c)
        for (std::size_t l = 0; l < kBatchLanes; ++l)
            if (model.draws[c].exportLane(l)
                != ClassDrawSampler::kLaneUnseen)
                return false;
    return true;
}

/**
 * The shapes of fire-key lists the replay tests must reach, read from
 * BatchedNoiseModel::fireKeys after each planned word: a word that
 * fires nowhere, a site fired by several lanes (the OR of a key run),
 * a lane firing twice in one class block beside another firing lane
 * (walkFiring's multi-round path) and a fire of an always-firing
 * p >= 1 class.
 */
struct FireShapes
{
    bool noFire = false;
    bool sharedSite = false;
    bool laneRefires = false;
    bool alwaysClass = false;

    void add(const qla::arq::FrameTrace &trace,
             const qla::arq::NoiseClassTable &classes,
             const std::vector<std::uint32_t> &keys)
    {
        const auto &probs = classes.probabilities();
        std::vector<std::array<int, kBatchLanes>> perClass(probs.size());
        for (auto &counts : perClass)
            counts.fill(0);
        noFire = noFire || keys.empty();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::uint32_t site = keys[i] >> 6;
            if (i > 0 && keys[i - 1] >> 6 == site)
                sharedSite = true;
            const std::uint8_t cls = trace.effects->sites[site].cls;
            if (probs[cls] >= 1.0)
                alwaysClass = true;
            else
                ++perClass[cls][keys[i] & 63];
        }
        for (const auto &counts : perClass) {
            int firing = 0;
            bool twice = false;
            for (const int c : counts) {
                firing += c > 0;
                twice = twice || c > 1;
            }
            laneRefires = laneRefires || (firing >= 2 && twice);
        }
    }

    void expectAllReached() const
    {
        EXPECT_TRUE(noFire) << "no active word without fires";
        EXPECT_TRUE(sharedSite) << "no site fired by two lanes";
        EXPECT_TRUE(laneRefires) << "no lane fired twice in a class block";
        EXPECT_TRUE(alwaysClass) << "no p >= 1 class fired";
    }
};

} // namespace

TEST(GroupReplay, EveryWidthMatchesReferenceLaneByLane)
{
    // The contract of the shot group: whatever the group width, the
    // group replay must leave every lane of every word -- frame bits and
    // flip words -- exactly as the one-word reference interpreter
    // (replayTrace) does, and must leave inactive words' frames
    // untouched with empty flip buffers. Every word starts from its own
    // random frame, so the input phase and the masked write-back carry
    // live bits on active and inactive lanes alike. Widths 1..8 cover
    // the compile-time one-word kernel and odd and even runtime widths;
    // 16, 31 and 32 cover wide groups up to the group cap. Inactive
    // words run (3-5) and sit between active ones (every fifth word
    // from 10); sparse and dense masks alternate. Two replays in a row
    // carry lane clocks from the first to the second. Every case runs on
    // the straight-line and on the retry clock bank, and the other bank
    // must stay untouched. The words must reach every fire-key shape
    // (FireShapes).
    using namespace qla::arq;
    const std::size_t n = 6;
    struct Case
    {
        const char *name;
        NoiseClassTable classes;
        FrameTrace trace;
    };
    std::vector<Case> cases(3);
    cases[0].name = "reset prologue";
    {
        FrameTraceBuilder builder(cases[0].classes);
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
        cases[0].trace = builder.take();
        finalizeTraceClassSites(cases[0].trace, cases[0].classes);
    }
    // Live inputs, a few fires per word (mostly) and, with the
    // always-firing class, every active lane at its sites.
    cases[1].name = "mixed p=2e-2";
    cases[1].trace = mixedTrace(cases[1].classes, n, 2e-2, false);
    cases[2].name = "mixed p=5e-2 always";
    cases[2].trace = mixedTrace(cases[2].classes, n, 5e-2, true);

    const std::size_t max_words = 32;
    const std::size_t widths[] = {1, 2, 3, 4, 5, 6, 7, 8, 16, 31, 32};
    const int reps = 2;
    RngFamily family(2026);
    Rng mask_rng(55);
    Rng frame_rng(77);
    std::vector<std::uint64_t> masks(max_words);
    for (std::size_t w = 0; w < max_words; ++w)
        masks[w] = w % 2 ? mask_rng.next64() & mask_rng.next64()
                               & mask_rng.next64()
                         : mask_rng.next64() | mask_rng.next64();
    masks[3] = masks[4] = masks[5] = 0;
    for (std::size_t w = 10; w < max_words; w += 5)
        masks[w] = 0;
    std::vector<std::array<std::uint64_t, n>> init_x(max_words);
    std::vector<std::array<std::uint64_t, n>> init_z(max_words);
    for (std::size_t w = 0; w < max_words; ++w) {
        for (std::size_t q = 0; q < n; ++q) {
            init_x[w][q] = frame_rng.next64();
            init_z[w][q] = frame_rng.next64();
        }
    }

    FireShapes shapes;
    for (std::size_t run = 0; run < 2 * cases.size(); ++run) {
        Case &c = cases[run / 2];
        const bool retry = run % 2 == 1;
        SCOPED_TRACE(retry ? "retry bank" : "straight-line bank");
        // Reference: each word alone through the single-word replay.
        std::vector<BatchedPauliFrame> ref_frames(max_words,
                                                  BatchedPauliFrame(n));
        std::vector<std::vector<std::uint64_t>> ref_flips(max_words);
        for (std::size_t w = 0; w < max_words; ++w) {
            for (std::size_t q = 0; q < n; ++q) {
                ref_frames[w].injectX(q, init_x[w][q]);
                ref_frames[w].injectZ(q, init_z[w][q]);
            }
            BatchedNoiseModel model(c.classes, 0.0);
            model.rearm(family, w * kBatchLanes);
            for (int rep = 0; rep < reps; ++rep) {
                replayTrace(c.trace, ref_frames[w], model, masks[w],
                            ref_flips[w], retry);
                ASSERT_TRUE(otherBankUnseen(model, retry))
                    << c.name << " reference word " << w;
            }
        }

        for (const std::size_t words : widths) {
            GroupPauliFrames frames(n, words);
            std::vector<BatchedNoiseModel> models;
            for (std::size_t w = 0; w < words; ++w) {
                models.emplace_back(c.classes, 0.0);
                models.back().rearm(family, w * kBatchLanes);
                for (std::size_t q = 0; q < n; ++q) {
                    frames.injectX(w, q, init_x[w][q]);
                    frames.injectZ(w, q, init_z[w][q]);
                }
            }
            std::vector<std::vector<std::uint64_t>> flips(words);
            std::vector<std::vector<std::uint64_t>> all_flips(words);
            for (int rep = 0; rep < reps; ++rep) {
                replayTraceGroup(c.trace, frames, models.data(),
                                 masks.data(), words, flips.data(), retry);
                for (std::size_t w = 0; w < words; ++w) {
                    if (masks[w])
                        shapes.add(c.trace, c.classes, models[w].fireKeys);
                    // An inactive word's flip buffer is only cleared.
                    if (!masks[w]) {
                        ASSERT_TRUE(flips[w].empty())
                            << c.name << " group " << words << " word "
                            << w;
                    }
                    ASSERT_TRUE(otherBankUnseen(models[w], retry))
                        << c.name << " group " << words << " word " << w;
                    all_flips[w].insert(all_flips[w].end(),
                                        flips[w].begin(), flips[w].end());
                }
            }
            for (std::size_t w = 0; w < words; ++w) {
                if (masks[w]) {
                    ASSERT_EQ(all_flips[w], ref_flips[w])
                        << c.name << " group " << words << " word " << w;
                }
                for (std::size_t q = 0; q < n; ++q) {
                    ASSERT_EQ(frames.xWord(w, q), ref_frames[w].xWord(q))
                        << c.name << " group " << words << " word " << w
                        << " q " << q;
                    ASSERT_EQ(frames.zWord(w, q), ref_frames[w].zWord(q))
                        << c.name << " group " << words << " word " << w
                        << " q " << q;
                    if (!masks[w]) {
                        ASSERT_EQ(frames.xWord(w, q), init_x[w][q])
                            << c.name << " group " << words << " word "
                            << w << " q " << q;
                        ASSERT_EQ(frames.zWord(w, q), init_z[w][q])
                            << c.name << " group " << words << " word "
                            << w << " q " << q;
                    }
                }
            }
        }
    }
    shapes.expectAllReached();
}

TEST(TraceReplay, CompiledMatchesInterpreterLaneByLane)
{
    // The production replay (a one-word replayTraceGroup, through the
    // trace's compiled effect model) and the reference op interpreter
    // (replayTrace) consume the same fire keys and must leave
    // identical flips and frames. Three consecutive replays per word
    // carry lane clocks across replays. Every case runs on the
    // straight-line and on the retry clock bank, and the other bank must
    // stay untouched. The words must reach every fire-key shape
    // (FireShapes).
    using namespace qla::arq;
    struct Case
    {
        const char *name;
        double p;
        bool sparseMasks;
        bool randomFrame;
        bool alwaysFires;
    };
    const Case cases[] = {
        // Few fires on a clean frame: many words fire nowhere.
        {"sparse p=1e-3", 1e-3, true, false, false},
        // The same words with an always-firing p = 1 class: every
        // word fires every active lane at that class's sites.
        {"sparse p=1e-3 always", 1e-3, true, false, true},
        // Full masks far above threshold: many lanes per site, and
        // lanes firing several times per class block.
        {"full p=5e-2", 5e-2, false, true, true},
        // Few lanes at a high rate, with live input-frame coordinates.
        {"sparse p=5e-2", 5e-2, true, true, true},
    };
    const std::size_t n = 8;
    FireShapes shapes;
    for (std::size_t run = 0; run < 2 * std::size(cases); ++run) {
        const Case &c = cases[run / 2];
        const bool retry = run % 2 == 1;
        SCOPED_TRACE(retry ? "retry bank" : "straight-line bank");
        NoiseClassTable classes;
        const FrameTrace trace = mixedTrace(classes, n, c.p, c.alwaysFires);
        RngFamily family(31337);
        Rng rng(4242);
        for (std::uint64_t word = 0; word < 24; ++word) {
            std::uint64_t mask = c.sparseMasks
                ? rng.next64() & rng.next64() & rng.next64()
                : ~std::uint64_t{0};
            BatchedPauliFrame ref_frame(n);
            GroupPauliFrames group(n, 1);
            if (c.randomFrame) {
                for (std::size_t q = 0; q < n; ++q) {
                    const std::uint64_t xw = rng.next64();
                    const std::uint64_t zw = rng.next64();
                    ref_frame.injectX(q, xw);
                    ref_frame.injectZ(q, zw);
                    group.injectX(0, q, xw);
                    group.injectZ(0, q, zw);
                }
            }
            BatchedNoiseModel ref_model(classes, 0.0);
            ref_model.rearm(family, word * kBatchLanes);
            BatchedNoiseModel model(classes, 0.0);
            model.rearm(family, word * kBatchLanes);
            std::vector<std::uint64_t> ref_flips;
            std::vector<std::uint64_t> flips;
            std::vector<std::uint64_t> replay_flips;
            for (int rep = 0; rep < 3; ++rep) {
                replayTrace(trace, ref_frame, ref_model, mask, ref_flips,
                            retry);
                replayTraceGroup(trace, group, &model, &mask, 1,
                                 &replay_flips, retry);
                if (mask)
                    shapes.add(trace, classes, model.fireKeys);
                flips.insert(flips.end(), replay_flips.begin(),
                             replay_flips.end());
                ASSERT_TRUE(otherBankUnseen(ref_model, retry))
                    << c.name << " reference word " << word;
                ASSERT_TRUE(otherBankUnseen(model, retry))
                    << c.name << " word " << word;
            }
            ASSERT_EQ(flips, ref_flips) << c.name << " word " << word;
            for (std::size_t q = 0; q < n; ++q) {
                ASSERT_EQ(group.xWord(0, q), ref_frame.xWord(q))
                    << c.name << " word " << word << " q " << q;
                ASSERT_EQ(group.zWord(0, q), ref_frame.zWord(q))
                    << c.name << " word " << word << " q " << q;
            }
        }
    }
    shapes.expectAllReached();
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
