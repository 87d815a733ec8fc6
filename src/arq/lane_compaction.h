/**
 * @file
 * Lane compaction for the retry-heavy far-above-threshold regime.
 *
 * A 64-shot word replays a trace segment while *any* of its lanes needs
 * it, and a masked replay costs the same whether 1 or 64 lanes are
 * active -- so far above threshold, where verification failures and
 * syndrome-conditioned repeats are common, nearly-empty replays dominate
 * the batched engine's word-wide retry amplification. The cure is
 * regrouping: when the surviving lanes of a sparse retry are spread
 * thinly enough across a shot group's words, they migrate into fresh
 * dense words and replay there, one dense word instead of many sparse
 * ones.
 *
 * Regrouping is one path. SegmentPool plans the (word, lane) ->
 * dense-slot assignment, transplants each migrated lane's identity (its
 * per-shot rng stream by value, its correction clock and its clock in
 * every class of the retry bank, moved through
 * ClassDrawSampler::moveLaneTo), and moves frame rows and result
 * bit-planes between home lane positions and dense slots. Its one user
 * is the dense twin experiment (arq/batched_monte_carlo.cc): the
 * level-2 "Start Over" rounds and the repeated level-2 extraction
 * migrate their surviving lanes into the twin and run there in full,
 * one migration amortized over the whole subtree. A migrated subtree
 * replays on the retry bank only (BatchedNoiseModel::draws), so the
 * straight-line clocks stay home. The twin is bound to the parent's
 * recording and class table, so the retry bank moves index for index
 * and no trace is relocated. Sparse verified-preparation retries
 * replay in place: one prep round amortizes a migration over too few
 * ops, and regrouping them (on relocated traces, behind a cost gate of
 * their own) bought only about 4-5% of tail throughput.
 *
 * The determinism contract survives because a migrated lane consumes
 * draws at exactly the sites, and in exactly the order, it would have
 * in place: compacted and uncompacted runs are bit-identical lane by
 * lane (tests/test_lane_compaction.cc, tests/test_arq_mc.cc).
 */

#ifndef QLA_ARQ_LANE_COMPACTION_H
#define QLA_ARQ_LANE_COMPACTION_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "arq/batched_monte_carlo.h"
#include "arq/bitslice.h"
#include "arq/frame_trace.h"
#include "quantum/batched_frame.h"

namespace qla::arq {

/** One regrouped lane: its home word and lane position. */
struct LaneRef
{
    std::uint8_t word;
    std::uint8_t lane;
};

/**
 * Fill @p refs (capacity kMaxGroupWords * kBatchLanes) with the lanes
 * of @p mask in (word, lane) order and return how many there are. The
 * order is deterministic -- it is part of the determinism contract,
 * every migration path must agree on the lane <-> dense-slot
 * assignment -- and it keeps each home word's lanes contiguous in dense
 * slots, so chunk scatters are single bit deposits.
 */
std::size_t gatherLaneRefs(const LaneSet &mask, LaneRef *refs);

/**
 * Gather/scatter plan for one dense chunk of at most 64 refs: the home
 * lane mask of every source word plus the chunk-local slot where that
 * word's contiguous run starts.
 */
struct LaneChunkPlan
{
    LaneChunkPlan() = default;
    LaneChunkPlan(const LaneRef *refs, std::size_t count);

    std::array<std::uint64_t, kMaxGroupWords> home{};
    std::array<std::uint8_t, kMaxGroupWords> slot0{};
    /** Bit w set iff home[w] is non-empty: the row gather/scatter
     *  loops walk only occupied words instead of scanning all
     *  kMaxGroupWords entries per qubit row. */
    std::uint32_t words = 0;
};
static_assert(kMaxGroupWords <= 32, "LaneChunkPlan::words is 32 bits");

/**
 * The shared lane-migration engine: plans a migration of a sparse
 * LaneSet into dense 64-lane chunks and moves lane identity (rng
 * stream, correction clock and the retry bank's clocks), frame rows,
 * and result bit-planes between the home words and the dense
 * destination.
 *
 * The destination of chunk k is word k of a dense twin experiment's
 * group frame and noise models.
 */
class SegmentPool
{
  public:
    SegmentPool() = default;

    /**
     * Plan a migration of the lanes of @p mask; returns the lane count.
     * Valid until the next plan() call on this pool.
     */
    std::size_t plan(const LaneSet &mask);

    std::size_t laneCount() const { return count_; }

    std::size_t chunkCount() const
    {
        return (count_ + kBatchLanes - 1) / kBatchLanes;
    }

    /** Lanes in chunk @p k (64 for all but possibly the last chunk). */
    std::size_t chunkLanes(std::size_t k) const
    {
        return std::min<std::size_t>(kBatchLanes, count_ - k * kBatchLanes);
    }

    /** Dense lane mask of chunk @p k. */
    std::uint64_t chunkMask(std::size_t k) const
    {
        return denseLaneMask(chunkLanes(k));
    }

    /** Dense LaneSet covering every chunk (word k = chunk k). */
    LaneSet denseSet() const;

    /**
     * Move the identity (rng stream, correction clock and every
     * retry-bank clock) of chunk @p k's lanes from their home words
     * into dense slots of @p dense. Home and dense models must share
     * one class table: each clock moves to the same index, and the
     * probabilities are asserted equal.
     */
    void transplantIn(std::size_t k, std::vector<BatchedNoiseModel> &home,
                      BatchedNoiseModel &dense) const;

    /** Inverse of transplantIn. */
    void transplantOut(std::size_t k, std::vector<BatchedNoiseModel> &home,
                       BatchedNoiseModel &dense) const;

    /**
     * Gather the frame bits of qubit @p home_q from chunk @p k's home
     * lanes (words of the group frame @p home) into the dense slots of
     * qubit @p dense_q in word @p dense_word of the dense group frame
     * @p dense (twin migrations: chunk k lands in twin word k).
     */
    void gatherRow(std::size_t k, const quantum::GroupPauliFrames &home,
                   std::size_t home_q, quantum::GroupPauliFrames &dense,
                   std::size_t dense_word, std::size_t dense_q) const;

    /**
     * Scatter the frame bits of qubit @p dense_q in word @p dense_word
     * of the dense group frame @p dense back to chunk @p k's home lanes
     * of qubit @p home_q; home lanes outside the chunk keep their bits.
     */
    void scatterRow(std::size_t k, quantum::GroupPauliFrames &home,
                    std::size_t home_q,
                    const quantum::GroupPauliFrames &dense,
                    std::size_t dense_word, std::size_t dense_q) const;

    /**
     * OR chunk @p k's bits of @p dense_plane into the home words'
     * planes: the plane of home word w is @p out[w * word_stride].
     * (The stride walks per-word aggregates like GroupSyndrome.)
     */
    void scatterPlane(std::size_t k, std::uint64_t dense_plane,
                      std::uint64_t *out, std::size_t word_stride) const;

  private:
    std::size_t count_ = 0;
    /** Gathered lane refs, (word, lane)-sorted (see gatherLaneRefs). */
    std::array<LaneRef, kMaxGroupWords * kBatchLanes> refs_;
    std::array<LaneChunkPlan, kMaxGroupWords> plans_;
};

} // namespace qla::arq

#endif // QLA_ARQ_LANE_COMPACTION_H
