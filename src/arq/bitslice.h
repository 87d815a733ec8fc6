/**
 * @file
 * Bit-sliced classical decoding primitives shared by the batched
 * Monte-Carlo driver and the lane-compaction retry pool.
 *
 * Measurement flips are words over 64 shot lanes; a syndrome is one
 * parity plane per check row (XOR of the flip words the row selects),
 * so computing 64 shots' syndromes costs a handful of word XORs rather
 * than 64 scalar decodes.
 */

#ifndef QLA_ARQ_BITSLICE_H
#define QLA_ARQ_BITSLICE_H

#include <array>
#include <bit>
#include <cstdint>
#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "ecc/css_code.h"

namespace qla::arq {

/**
 * Deposit the low popcount(mask) bits of @p value at the set bit
 * positions of @p mask (BMI2 pdep when available). Lane regrouping
 * scatters a dense run of migrated lanes back to their home lane
 * positions with one deposit per (qubit, word).
 */
inline std::uint64_t
depositBits(std::uint64_t value, std::uint64_t mask)
{
#if defined(__BMI2__)
    return _pdep_u64(value, mask);
#else
    std::uint64_t out = 0;
    while (mask) {
        const std::uint64_t low = mask & (~mask + 1);
        mask ^= low;
        if (value & 1u)
            out |= low;
        value >>= 1;
    }
    return out;
#endif
}

/** Inverse of depositBits: pack the bits of @p value selected by
 *  @p mask into the low positions (BMI2 pext when available). */
inline std::uint64_t
extractBits(std::uint64_t value, std::uint64_t mask)
{
#if defined(__BMI2__)
    return _pext_u64(value, mask);
#else
    std::uint64_t out = 0;
    int j = 0;
    while (mask) {
        const std::uint64_t low = mask & (~mask + 1);
        mask ^= low;
        if (value & low)
            out |= std::uint64_t{1} << j;
        ++j;
    }
    return out;
#endif
}

/** One bit-plane per check row; lanes across each word. */
using SyndromePlanes = std::array<std::uint64_t, 8>;

/**
 * Qubit indices of one check row / logical support, precomputed so the
 * hot decode loops XOR flip words without bit scanning.
 */
struct BitList
{
    std::uint8_t count = 0;
    std::array<std::uint8_t, 32> idx{};
};

inline BitList
bitListOf(ecc::QubitMask mask)
{
    BitList bits;
    while (mask) {
        const int i = std::countr_zero(mask);
        mask &= mask - 1;
        bits.idx[bits.count++] = static_cast<std::uint8_t>(i);
    }
    return bits;
}

/** XOR of the flip words selected by @p bits. */
inline std::uint64_t
parityPlane(const BitList &bits, const std::uint64_t *flip_words)
{
    std::uint64_t plane = 0;
    for (std::size_t j = 0; j < bits.count; ++j)
        plane ^= flip_words[bits.idx[j]];
    return plane;
}

/** Lanes with any non-trivial check among the first @p count planes. */
inline std::uint64_t
orPlanes(const SyndromePlanes &planes, std::size_t count)
{
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < count; ++j)
        any |= planes[j];
    return any;
}

/**
 * Bit-sliced lookup correction: for every syndrome value v, OR the
 * lanes whose syndrome equals v into @p words[i] for each qubit i of
 * the code's lookup correction of v (the batched Monte-Carlo driver's
 * inner and outer decodes).
 */
inline void
lookupCorrectionWords(const ecc::CssCode &code, bool x_corr,
                      const SyndromePlanes &synd, std::size_t num_checks,
                      std::uint64_t *words)
{
    // Lanes with syndrome v get correction bits corr(v); syndrome 0 maps
    // to no correction, so v starts at 1 and every produced lane set is
    // automatically restricted to lanes with a non-trivial syndrome.
    if (!orPlanes(synd, num_checks))
        return; // every lane trivial -- the common case
    for (std::uint32_t v = 1; v < (1u << num_checks); ++v) {
        std::uint64_t lanes_v = ~std::uint64_t{0};
        for (std::size_t j = 0; j < num_checks; ++j)
            lanes_v &= ((v >> j) & 1u) ? synd[j] : ~synd[j];
        if (!lanes_v)
            continue;
        ecc::QubitMask corr = x_corr ? code.xCorrection(v)
                                     : code.zCorrection(v);
        while (corr) {
            const int i = std::countr_zero(corr);
            corr &= corr - 1;
            words[i] |= lanes_v;
        }
    }
}

} // namespace qla::arq

#endif // QLA_ARQ_BITSLICE_H
