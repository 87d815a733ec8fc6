#include "arq/lane_compaction.h"

#include <bit>

namespace qla::arq {

std::size_t
gatherLaneRefs(const LaneSet &mask, LaneRef *refs)
{
    std::size_t count = 0;
    for (std::uint32_t w = 0; w < mask.n; ++w) {
        std::uint64_t lanes = mask.w[w];
        while (lanes) {
            const int l = std::countr_zero(lanes);
            lanes &= lanes - 1;
            refs[count++] = {static_cast<std::uint8_t>(w),
                             static_cast<std::uint8_t>(l)};
        }
    }
    return count;
}

LaneChunkPlan::LaneChunkPlan(const LaneRef *refs, std::size_t count)
{
    for (std::size_t j = 0; j < count; ++j) {
        const LaneRef ref = refs[j];
        if (!home[ref.word])
            slot0[ref.word] = static_cast<std::uint8_t>(j);
        home[ref.word] |= std::uint64_t{1} << ref.lane;
        words |= std::uint32_t{1} << ref.word;
    }
}

std::size_t
SegmentPool::plan(const LaneSet &mask)
{
    count_ = gatherLaneRefs(mask, refs_.data());
    for (std::size_t k = 0; k < chunkCount(); ++k)
        plans_[k] = LaneChunkPlan(refs_.data() + k * kBatchLanes,
                                  chunkLanes(k));
    return count_;
}

LaneSet
SegmentPool::denseSet() const
{
    LaneSet dense;
    dense.n = static_cast<std::uint32_t>(chunkCount());
    for (std::uint32_t k = 0; k < dense.n; ++k)
        dense.w[k] = chunkMask(k);
    return dense;
}

void
SegmentPool::transplantIn(std::size_t k,
                          std::vector<BatchedNoiseModel> &home,
                          BatchedNoiseModel &dense) const
{
    // Each migrated lane carries its identity: rng stream by value,
    // correction clock, and its clock in every class of the retry bank
    // (draws[n, 2n)), the only bank a migrated subtree replays on. The
    // loops run class-outer rather than lane-outer purely for
    // locality: clock moves between distinct (clock, lane) slots
    // commute, and with the refs (word, lane)-sorted each home word's
    // clock -- and the dense word's -- stays cache-hot across its whole
    // run of lanes.
    const LaneRef *refs = refs_.data() + k * kBatchLanes;
    const std::size_t lanes = chunkLanes(k);
    for (std::size_t j = 0; j < lanes; ++j) {
        BatchedNoiseModel &src = home[refs[j].word];
        dense.lanes[j] = src.lanes[refs[j].lane];
        src.correction.moveLaneTo(dense.correction, j, refs[j].lane);
    }
    const std::size_t n = dense.numClasses();
    for (std::size_t c = n; c < 2 * n; ++c)
        for (std::size_t j = 0; j < lanes; ++j)
            home[refs[j].word].draws[c].moveLaneTo(dense.draws[c], j,
                                                   refs[j].lane);
}

void
SegmentPool::transplantOut(std::size_t k,
                           std::vector<BatchedNoiseModel> &home,
                           BatchedNoiseModel &dense) const
{
    const LaneRef *refs = refs_.data() + k * kBatchLanes;
    const std::size_t lanes = chunkLanes(k);
    for (std::size_t j = 0; j < lanes; ++j) {
        BatchedNoiseModel &dst = home[refs[j].word];
        dst.lanes[refs[j].lane] = dense.lanes[j];
        dense.correction.moveLaneTo(dst.correction, refs[j].lane, j);
    }
    const std::size_t n = dense.numClasses();
    for (std::size_t c = n; c < 2 * n; ++c)
        for (std::size_t j = 0; j < lanes; ++j)
            dense.draws[c].moveLaneTo(home[refs[j].word].draws[c],
                                      refs[j].lane, j);
}

void
SegmentPool::gatherRow(std::size_t k, const quantum::GroupPauliFrames &home,
                       std::size_t home_q, quantum::GroupPauliFrames &dense,
                       std::size_t dense_word, std::size_t dense_q) const
{
    // The refs are (word, lane)-sorted, so the lanes of each home word
    // sit in one contiguous run of dense slots and every (qubit, word)
    // pair is a single bit extract / deposit.
    const LaneChunkPlan &plan = plans_[k];
    std::uint64_t x_acc = 0;
    std::uint64_t z_acc = 0;
    for (std::uint32_t ws = plan.words; ws; ws &= ws - 1) {
        const std::size_t w = std::countr_zero(ws);
        x_acc |= extractBits(home.xWord(w, home_q), plan.home[w])
            << plan.slot0[w];
        z_acc |= extractBits(home.zWord(w, home_q), plan.home[w])
            << plan.slot0[w];
    }
    dense.storeMasked(dense_word, dense_q, chunkMask(k), x_acc, z_acc);
}

void
SegmentPool::scatterRow(std::size_t k, quantum::GroupPauliFrames &home,
                        std::size_t home_q,
                        const quantum::GroupPauliFrames &dense,
                        std::size_t dense_word, std::size_t dense_q) const
{
    const LaneChunkPlan &plan = plans_[k];
    const std::uint64_t x_word = dense.xWord(dense_word, dense_q);
    const std::uint64_t z_word = dense.zWord(dense_word, dense_q);
    for (std::uint32_t ws = plan.words; ws; ws &= ws - 1) {
        const std::size_t w = std::countr_zero(ws);
        home.storeMasked(
            w, home_q, plan.home[w],
            depositBits(x_word >> plan.slot0[w], plan.home[w]),
            depositBits(z_word >> plan.slot0[w], plan.home[w]));
    }
}

void
SegmentPool::scatterPlane(std::size_t k, std::uint64_t dense_plane,
                          std::uint64_t *out, std::size_t word_stride) const
{
    const LaneChunkPlan &plan = plans_[k];
    for (std::uint32_t ws = plan.words; ws; ws &= ws - 1) {
        const std::size_t w = std::countr_zero(ws);
        out[w * word_stride] |= depositBits(
            dense_plane >> plan.slot0[w], plan.home[w]);
    }
}

} // namespace qla::arq
