#include "quantum/batched_frame.h"

#include <algorithm>
#include <bit>

namespace qla::quantum {

void
BatchedPauliFrame::reset()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
}

void
GroupPauliFrames::reset()
{
    stride_ = words_;
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
}

void
GroupPauliFrames::reset(std::size_t num_words)
{
    qla_assert(num_words >= 1 && num_words <= words_);
    // Repack to the batch's own width: the live planes become one
    // contiguous prefix of the allocation, so the wipe is a single
    // bulk clear and the replay working set shrinks with the batch.
    stride_ = num_words;
    std::fill_n(x_.begin(), n_ * num_words, 0);
    std::fill_n(z_.begin(), n_ * num_words, 0);
}

Pauli1Draw
drawPauli1(std::uint64_t fired, LaneRngs &lanes)
{
    std::uint64_t fx = 0, fz = 0;
    while (fired) {
        const int l = std::countr_zero(fired);
        fired &= fired - 1;
        const std::uint64_t bit = std::uint64_t{1} << l;
        // Same X/Y/Z encoding as the scalar PauliFrame::depolarize1.
        switch (lanes[l].uniformInt(3)) {
          case 0:
            fx |= bit;
            break;
          case 1:
            fx |= bit;
            fz |= bit;
            break;
          default:
            fz |= bit;
            break;
        }
    }
    return {fx, fz};
}

Pauli2Draw
drawPauli2(std::uint64_t fired, LaneRngs &lanes)
{
    std::uint64_t fxa = 0, fza = 0, fxb = 0, fzb = 0;
    while (fired) {
        const int l = std::countr_zero(fired);
        fired &= fired - 1;
        const std::uint64_t bit = std::uint64_t{1} << l;
        // Uniform over the 15 non-identity pairs; encoding matches the
        // scalar PauliFrame::depolarize2 (pa, pb in {I,X,Y,Z}).
        const std::uint64_t k = lanes[l].uniformInt(15) + 1;
        const std::uint64_t pa = k / 4;
        const std::uint64_t pb = k % 4;
        if (pa == 1 || pa == 2)
            fxa |= bit;
        if (pa == 2 || pa == 3)
            fza |= bit;
        if (pb == 1 || pb == 2)
            fxb |= bit;
        if (pb == 2 || pb == 3)
            fzb |= bit;
    }
    return {fxa, fza, fxb, fzb};
}

} // namespace qla::quantum
