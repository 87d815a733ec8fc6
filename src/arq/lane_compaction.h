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
 * The machinery has two layers:
 *
 * - SegmentPool is the migration engine every pooled path shares: it
 *   plans the (word, lane) -> dense-slot assignment, transplants each
 *   migrated lane's identity (its per-shot rng stream by value, its
 *   noise-clock state in every relevant sampler class exported/imported
 *   through BernoulliWordSampler::exportLane/importLane), and moves
 *   frame rows and result bit-planes between home lane positions and
 *   dense slots.
 *
 * - PrepRetryPool replays the relocated verified-preparation traces
 *   (RelocatedSegments, recorded by the same TileRowRecorder as the
 *   in-place traces, at fixed scratch rows, and shared with the rest of
 *   the tile recording) against a small scratch frame. Its noise
 *   classes are pool-local and mapped to the parent's shadow classes of
 *   the same probability, so a migrated lane's clocks transplant
 *   between its home shadow samplers and the pool samplers.
 *
 * Whole sparse subtrees (level-2 "Start Over" rounds, repeated level-2
 * extraction) instead migrate into a dense twin experiment
 * (arq/batched_monte_carlo.cc) -- same SegmentPool engine, identity
 * class map, no relocation needed because the twin is bound to the
 * parent's recording and shares the tile's qubit indexing.
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
#include "arq/tile_schedule.h"
#include "ecc/css_code.h"
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
 * The sampler classes migrating with each lane of one pooled segment:
 * class home[i] in a home model pairs with class dense[i] in the dense
 * model (same probability, asserted in the transplant). The map must
 * cover every class the migrated segment can sample -- and, for the
 * transplant cost's sake, nothing more: clocks of unlisted classes
 * stay home untouched, which is exactly right both for primary-class
 * clocks (pooled segments replay shadow sites only) and for shadow
 * classes the segment's traces never reference.
 */
struct SamplerClassMap
{
    const std::uint8_t *home = nullptr;
    const std::uint8_t *dense = nullptr;
    std::size_t count = 0;
};

/**
 * The shared lane-migration engine: plans a migration of a sparse
 * LaneSet into dense 64-lane chunks and moves lane identity (rng
 * stream + sampler clocks of the segment's SamplerClassMap), frame
 * rows, and result bit-planes between the home words and the dense
 * destination.
 *
 * The destination of chunk k is one 64-lane word (a scratch frame/model
 * reused per chunk, or word k of a dense twin experiment); the engine
 * itself is agnostic.
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
     * Move the identity (rng stream + the clocks of @p classes) of
     * chunk @p k's lanes from their home words into dense slots of
     * @p dense.
     */
    void transplantIn(std::size_t k, std::vector<BatchedNoiseModel> &home,
                      BatchedNoiseModel &dense,
                      const SamplerClassMap &classes) const;

    /** Inverse of transplantIn. */
    void transplantOut(std::size_t k, std::vector<BatchedNoiseModel> &home,
                       BatchedNoiseModel &dense,
                       const SamplerClassMap &classes) const;

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
     * Scatter the frame bits of qubit @p dense_q of a dense source --
     * the one-word frame @p dense, or word @p dense_word of a dense
     * group frame -- back to chunk @p k's home lanes of qubit
     * @p home_q; home lanes outside the chunk keep their bits.
     */
    void scatterRow(std::size_t k, quantum::GroupPauliFrames &home,
                    std::size_t home_q,
                    const quantum::BatchedPauliFrame &dense,
                    std::size_t dense_q) const;

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

/**
 * The relocated verified-preparation traces of one tile recording,
 * recorded by the same TileRowRecorder as the in-place traces but at
 * the fixed scratch rows of a PrepRetryPool: target row [0, n),
 * verification row [n, 2n). Like the rest of the recording it is
 * immutable and shared by every experiment bound to it; each
 * experiment's pool only adds scratch state.
 *
 * Its noise classes are pool-local; each maps to the parent's shadow
 * class of the same probability.
 */
struct RelocatedSegments
{
    /**
     * The sampler classes a pooled prep transplants: exactly the pool
     * classes the prep traces reference, paired with the parent shadow
     * classes of the same probability.
     */
    struct Classes
    {
        std::vector<std::uint8_t> home;  // parent shadow class ids
        std::vector<std::uint8_t> dense; // pool class ids

        SamplerClassMap map() const
        {
            return {home.data(), dense.data(), home.size()};
        }
    };

    /**
     * @param recorder          Records the relocated segments (must be
     *                          the recorder the parent traces used).
     * @param parent_classes    The parent experiment's class table.
     * @param shadow_of_primary Parent shadow class of each primary id.
     */
    RelocatedSegments(const TileRowRecorder &recorder,
                      std::size_t block_length,
                      const NoiseClassTable &parent_classes,
                      const std::vector<std::uint8_t> &shadow_of_primary);

    // Indexed by plus.
    std::array<FrameTrace, 2> prep;
    Classes prepClasses;
    /** Parent shadow class of each pool class: a pool's per-point
     *  class table takes its probabilities from there. */
    std::vector<std::uint8_t> parentOf;
};

/**
 * Dense replay engine for sparse verified-preparation retries: their
 * surviving lanes migrate through here instead of replaying
 * nearly-empty words in place. The traces come from a shared
 * RelocatedSegments; the pool owns only the scratch frame, noise model
 * and migration plan of one experiment.
 */
class PrepRetryPool
{
  public:
    /**
     * @param segments       The parent's relocated segments (must
     *                       outlive the pool).
     * @param parent_classes The parent experiment's class table: the
     *                       pool samplers take their probabilities from
     *                       its shadow classes.
     */
    PrepRetryPool(const ecc::CssCode &code,
                  const RelocatedSegments &segments,
                  int max_prep_attempts,
                  const NoiseClassTable &parent_classes);

    /**
     * Run the remaining verified-preparation attempts (the first one
     * being attempt number @p first_attempt) for every lane in @p mask,
     * regrouped into dense words. The prepared row starts at parent
     * qubit @p role_q0; its final state, each lane's rng stream and
     * sampler clocks are scattered back into @p frames / @p models when
     * done. (The verification row is dead state after the round -- it
     * is re-encoded before every later use -- so it stays behind.)
     */
    void runRetries(bool plus, const LaneSet &mask, int first_attempt,
                    quantum::GroupPauliFrames &frames,
                    std::vector<BatchedNoiseModel> &models,
                    std::size_t role_q0, ExperimentStats *stats);

    /**
     * Full verified preparation (attempts from 1) of several sites that
     * share one lane mask -- the per-group prep loop of the level-2
     * ancilla -- under a single gather/scatter: the per-lane transplant
     * cost amortizes over every site, which is what makes regrouping
     * profitable even at moderate mask fills. Sites execute in order,
     * each site's retry loop running to completion before the next, so
     * every lane consumes its stream exactly as the in-place loop
     * would.
     */
    void runPrepSeries(bool plus, const LaneSet &mask,
                       const std::size_t *site_role_q0,
                       std::size_t num_sites,
                       quantum::GroupPauliFrames &frames,
                       std::vector<BatchedNoiseModel> &models,
                       ExperimentStats *stats);

  private:
    /** Dense retry loop of one site; pool frame rows hold the result. */
    void runAttempts(bool plus, std::uint64_t mask, int first_attempt,
                     ExperimentStats *stats);

    std::size_t n_; // block length
    int max_prep_attempts_;
    const RelocatedSegments &segments_;
    std::vector<BitList> x_check_bits_;
    std::vector<BitList> z_check_bits_;
    BitList logical_x_bits_;
    BitList logical_z_bits_;
    quantum::BatchedPauliFrame frame_;
    BatchedNoiseModel model_;
    std::vector<std::uint64_t> flips_;
    SegmentPool mig_;
};

} // namespace qla::arq

#endif // QLA_ARQ_LANE_COMPACTION_H
