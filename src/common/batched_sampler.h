/**
 * @file
 * Word-batched Bernoulli sampling for the 64-shot-per-word engines.
 *
 * The batched Monte-Carlo engines evaluate 64 shots per machine word, so
 * every noise-injection site needs a 64-bit word whose bit l is an
 * independent Bernoulli(p) draw from lane l's private stream. Drawing one
 * uniform per lane per site would cost as much as the scalar simulation;
 * instead each lane advances by geometric gaps ("how many trials until my
 * next success"), so the common all-lanes-active no-fire case is a single
 * counter bump regardless of p.
 *
 * Determinism contract: a lane's draws are a function of its own Rng
 * stream and of the sequence of sites at which that lane was active --
 * never of which other lanes share the word. Together with
 * RngFamily-indexed lane streams this makes batched results independent
 * of how shots are grouped into words.
 */

#ifndef QLA_COMMON_BATCHED_SAMPLER_H
#define QLA_COMMON_BATCHED_SAMPLER_H

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"

namespace qla {

/** Number of Monte-Carlo shots packed into one machine word. */
inline constexpr std::size_t kBatchLanes = 64;

/** One private Rng per lane of a 64-shot batch. */
using LaneRngs = std::array<Rng, kBatchLanes>;

/** 1 / log2(1 - p) for geometric inversion; 0 for degenerate p. */
double geometricInvLog2q(double p);

/** Gaps past this are "never fires in any realistic trace". */
inline constexpr std::int64_t kMaxGeometricGap = std::int64_t{1} << 46;

/**
 * log2 for positive x: exponent from the IEEE-754 bits plus an atanh
 * series for the mantissa, range-reduced to [1/sqrt(2), sqrt(2)) so
 * |z| <= 0.1716 and the series truncation error stays below 3e-9. A
 * handful of multiplies instead of a libm call -- this runs for every
 * geometric gap draw. The ~3e-9 error can shift the geometric floor on
 * a ~|log2(1-p)|^-1 * 3e-9 fraction of draws (about 2e-6 of draws at
 * p = 1e-3): statistically indistinguishable from exact inversion at
 * any feasible shot count.
 *
 * Written select-only (no data-dependent control flow) so the block
 * refill kernel below compiles to one vectorized loop, and with the
 * series' multiply-adds spelled as std::fma: every operation is then a
 * single correctly-rounded IEEE operation, so the scalar inline and
 * the compiler-vectorized block produce bit-identical values no matter
 * how the optimizer would otherwise contract -- which is what lets the
 * samplers pick scalar or batched refill per call without violating
 * the determinism contract.
 */
inline double
fastLog2(double x)
{
    // Subnormals carry their magnitude in the mantissa field alone
    // (Rng::uniform never produces one, but the scalar reference suite
    // probes them): scale into the normal range and take the shift
    // back out of the exponent.
    const std::uint64_t raw = std::bit_cast<std::uint64_t>(x);
    const bool subnormal = (raw & 0x7ff0000000000000ULL) == 0;
    const std::uint64_t bits
        = std::bit_cast<std::uint64_t>(subnormal ? x * 0x1.0p54 : x);
    int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023
                   - (subnormal ? 54 : 0);
    double m = std::bit_cast<double>(
        (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL); // [1, 2)
    const bool high = m >= 1.4142135623730951;
    m = high ? m * 0.5 : m; // keep |z| small: m in [0.707, 1.414)
    exponent += high ? 1 : 0;
    const double z = (m - 1.0) / (m + 1.0);
    const double z2 = z * z;
    double s = std::fma(z2, 1.0 / 9.0, 1.0 / 7.0);
    s = std::fma(z2, s, 1.0 / 5.0);
    s = std::fma(z2, s, 1.0 / 3.0);
    s = std::fma(z2, s, 1.0);
    const double ln_m = 2.0 * z * s;
    return std::fma(ln_m, 1.4426950408889634, // 1/ln 2
                    static_cast<double>(exponent));
}

/**
 * Number of Bernoulli(p) trials up to and including the next success
 * (>= 1) for the uniform draw @p u in [0, 1), by inversion of the
 * geometric CDF: 1 + floor(log(u) / log(1 - p)). @p inv_log2_q must be
 * geometricInvLog2q(p) for a p in (0, 1).
 */
inline std::int64_t
geometricGapFromU(double u, double inv_log2_q)
{
    const double gap = 1.0 + std::floor(fastLog2(u) * inv_log2_q);
    const bool huge
        = u <= 0.0 || !(gap < static_cast<double>(kMaxGeometricGap));
    return huge            ? kMaxGeometricGap
           : gap < 1.0     ? std::int64_t{1}
                           : static_cast<std::int64_t>(gap);
}

/** geometricGapFromU over one uniform drawn from @p rng. */
inline std::int64_t
geometricGap(Rng &rng, double inv_log2_q)
{
    return geometricGapFromU(rng.uniform(), inv_log2_q);
}

/**
 * Convert a block of @p n uniforms to geometric gaps in one pass.
 * Identical draw-for-draw to calling geometricGapFromU on each entry --
 * it is the same inlined expression tree -- but shaped as the flat loop
 * the compiler turns into SIMD floor/multiply lanes. This is the refill
 * kernel behind ClassDrawSampler's batched walks and
 * BernoulliWordSampler's calendar arming.
 */
inline void
geometricGapBlock(const double *u, std::size_t n, double inv_log2_q,
                  std::int64_t *gaps)
{
    for (std::size_t i = 0; i < n; ++i)
        gaps[i] = geometricGapFromU(u[i], inv_log2_q);
}

/**
 * Batched Bernoulli(p) bit source over 64 lanes.
 *
 * sample(active) returns the word of lanes (a subset of @p active) whose
 * current trial succeeded; inactive lanes neither fire nor consume a
 * trial. Each lane's success sequence is i.i.d. Bernoulli(p) over the
 * trials at which it was active, realized by geometric gap sampling
 * from the lane's own stream (inversion of the exact geometric CDF; the
 * fast log2 it uses deviates from exact inversion on a ~1e-6 fraction
 * of draws, far below anything a Monte-Carlo estimate can resolve).
 */
class BernoulliWordSampler
{
  public:
    explicit BernoulliWordSampler(double p);

    double probability() const { return p_; }

    /**
     * Forget all lane state. Call at batch boundaries, after reseeding
     * the lane streams; lanes re-arm from their streams on first use.
     */
    void disarm();

    /**
     * Lane-state handle for moving a shot between words (lane
     * compaction): the frozen number of active trials remaining until
     * the lane's next success, or kLaneUnseen for a lane that has not
     * drawn its first gap yet.
     */
    static constexpr std::int64_t kLaneUnseen = 0;

    /**
     * Park @p lane and remove it from this sampler, returning its
     * remaining-trials state for importLane in another sampler of the
     * same probability. A lane re-imported where it left off continues
     * the exact trial/draw sequence it would have produced in place --
     * that is what lets lane compaction regroup shots across words
     * without breaking the determinism contract.
     */
    std::int64_t exportLane(std::size_t lane)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        if (!(seen_ & bit))
            return kLaneUnseen;
        std::int64_t remaining;
        if (armed_ & bit) {
            // Armed lanes keep an absolute fire time; parked form is
            // the trial count still to go (>= 1: a due lane fires
            // inside sample(), so cnt_ > elapsed_ between calls).
            (*ring_)[cnt_[lane] & kRingMask] &= ~bit;
            remaining = cnt_[lane] - elapsed_;
            armed_ &= ~bit;
        } else {
            remaining = cnt_[lane]; // already parked
        }
        seen_ &= ~bit;
        cnt_[lane] = kNeverFires;
        qla_assert(remaining >= 1);
        return remaining;
    }

    /**
     * Install @p lane as parked with @p remaining trials to its next
     * success (a value returned by exportLane). The lane must be
     * unknown to this sampler; kLaneUnseen leaves it unseen, so it
     * arms fresh from its stream on first activity, exactly as it
     * would have where it came from.
     */
    void importLane(std::size_t lane, std::int64_t remaining)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        qla_assert(!(seen_ & bit), "importLane over a live lane");
        if (remaining == kLaneUnseen)
            return;
        qla_assert(remaining >= 1);
        seen_ |= bit; // parked (seen, not armed); rebase unparks later
        cnt_[lane] = remaining;
    }

    /**
     * exportLane from this sampler + importLane into @p dst, with the
     * probability pairing asserted: transplanting a clock between
     * samplers of different probabilities would silently break the
     * determinism contract (the remaining-trials count is only
     * meaningful against the same geometric distribution), so every
     * migration path funnels through this check.
     */
    void moveLaneTo(BernoulliWordSampler &dst, std::size_t dst_lane,
                    std::size_t src_lane)
    {
        qla_assert(dst.p_ == p_,
                   "lane clock moved across probabilities ", p_, " -> ",
                   dst.p_);
        dst.importLane(dst_lane, exportLane(src_lane));
    }

    /**
     * One trial for every lane in @p active; returns the fired lanes.
     *
     * Inline fast path: when the active mask equals the armed mask (the
     * straight-line schedule between retries), a trial is one increment
     * and one calendar-bucket load -- lane fire times live in a ring of
     * buckets keyed by trial count, so a site with no due lane costs
     * O(1) regardless of p. A mask change (entering or leaving a retry /
     * conditional path) rebases the sampler once, parking the trial
     * clocks of lanes that left and resuming lanes that returned, after
     * which the new mask runs on the fast path too.
     */
    std::uint64_t sample(std::uint64_t active, LaneRngs &lanes)
    {
        if (active == armed_) {
            if (!active)
                return 0;
            const std::uint64_t due = (*ring_)[++elapsed_ & kRingMask];
            if (!due)
                return 0;
            return fireCheck(due, lanes);
        }
        return rebase(active, lanes);
    }

  private:
    /** Ring slots; fire times collide mod this (cheap re-check later). */
    static constexpr std::size_t kRingSize = 2048;
    static constexpr std::uint64_t kRingMask = kRingSize - 1;

    /** cnt_ value of lanes with no scheduled fire. */
    static constexpr std::int64_t kNeverFires
        = std::numeric_limits<std::int64_t>::max();

    /** Trials until (and including) lane's next success, >= 1. */
    std::int64_t nextGap(Rng &rng) const;

    std::uint64_t fireCheck(std::uint64_t candidates, LaneRngs &lanes);
    std::uint64_t rebase(std::uint64_t active, LaneRngs &lanes);

    // Hot scalars first: the sample()/exportLane fast paths and the
    // per-lane transplant loops touch only these, and keeping them in
    // the object's first cache line instead of behind the 16 KiB ring
    // is worth ~10% of a whole threshold sweep (the transplant paths
    // poke many samplers per migrated lane).
    double p_;
    double inv_log2_q_ = 0.0; // 1 / log2(1 - p) for geometric inversion
    std::uint64_t armed_ = 0;
    std::uint64_t seen_ = 0;
    std::int64_t elapsed_ = 0;

    // Armed lane l fires when the shared trial counter elapsed_ reaches
    // cnt_[l]; bucket cnt_[l] & kRingMask of the ring carries the lane's
    // bit (lanes parked farther than the ring wraps are simply
    // re-checked when their bucket comes around again). Parked lanes
    // (seen_ but not armed_) hold their remaining-trials count in cnt_
    // instead and sit in no bucket; their clocks stand still until the
    // mask brings them back.
    std::array<std::int64_t, kBatchLanes> cnt_{};

    // The calendar lives behind a pointer, zero-filled the first time
    // rebase arms a lane (every ring access is on behalf of an armed
    // lane). Keeping the 16 KiB ring out of the object matters twice:
    // an experiment builds one sampler per (class, word) and only the
    // correction class ever arms (replays use ClassDrawSampler), so inline
    // rings would memset megabytes per experiment for buckets never
    // read -- and the lane-transplant paths (lane compaction) poke a
    // handful of scalars in many samplers per moved lane, which with
    // 16 KiB objects makes every poke a cold cache line. As a ~600 B
    // object, a model's whole sampler vector stays cache-resident.
    std::unique_ptr<std::array<std::uint64_t, kRingSize>> ring_;
};

/**
 * Trace-level batched Bernoulli(p) clock over 64 lanes: the sampler
 * behind every replayed fault site (see arq/frame_trace.h).
 *
 * Where BernoulliWordSampler takes one trial per site per word,
 * ClassDrawSampler advances each lane over a whole block of @p sites
 * consecutive trials in one walkLane call: in the common no-fire case a
 * lane costs a single counter subtraction for the entire trace instead
 * of a calendar bump per site. The clock is the same parked
 * remaining-trials count the word sampler exports (geometric gaps from
 * the lane's own stream, same inversion), so a lane's fire positions
 * are a pure function of (stream, activity sequence) -- the determinism
 * contract across widths, groupings, compaction and threads holds
 * exactly as for the word sampler. Only the *order* in which a lane's
 * stream is consumed differs (gap draws grouped per class per trace
 * instead of interleaved per site).
 */
class ClassDrawSampler
{
  public:
    explicit ClassDrawSampler(double p)
        : p_(p), inv_log2_q_(geometricInvLog2q(p))
    {
        qla_assert(p >= 0.0 && p <= 1.0, "Bernoulli probability ", p);
        cnt_.fill(0);
    }

    double probability() const { return p_; }

    /** Forget all lane state; lanes re-arm from their streams. */
    void disarm() { seen_ = 0; }

    /** Same parked-lane handle as BernoulliWordSampler. */
    static constexpr std::int64_t kLaneUnseen = 0;

    std::int64_t exportLane(std::size_t lane)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        if (!(seen_ & bit))
            return kLaneUnseen;
        seen_ &= ~bit;
        qla_assert(cnt_[lane] >= 1);
        return cnt_[lane];
    }

    void importLane(std::size_t lane, std::int64_t remaining)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        qla_assert(!(seen_ & bit), "importLane over a live lane");
        if (remaining == kLaneUnseen)
            return;
        qla_assert(remaining >= 1);
        seen_ |= bit;
        cnt_[lane] = remaining;
    }

    void moveLaneTo(ClassDrawSampler &dst, std::size_t dst_lane,
                    std::size_t src_lane)
    {
        qla_assert(dst.p_ == p_,
                   "lane clock moved across probabilities ", p_, " -> ",
                   dst.p_);
        dst.importLane(dst_lane, exportLane(src_lane));
    }

    /**
     * Advance @p lane's clock over @p sites consecutive trials, calling
     * fn(ordinal) for every fired trial (0-based ordinal within the
     * block). Degenerate probabilities (p <= 0 or p >= 1) must be
     * special-cased by the caller -- like Rng::bernoulli, they consume
     * no stream (trace planning classifies them once per trace, see
     * arq::TraceClassWalk).
     */
    template <class Fn>
    void walkLane(std::size_t lane, std::int64_t sites, Rng &rng, Fn &&fn)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        std::int64_t pos;
        if (seen_ & bit) {
            pos = cnt_[lane];
        } else {
            pos = geometricGap(rng, inv_log2_q_);
            seen_ |= bit;
        }
        while (pos <= sites) {
            fn(pos - 1);
            pos += geometricGap(rng, inv_log2_q_);
        }
        cnt_[lane] = pos - sites;
    }

    /**
     * walkLane every lane of @p active over the same block of @p sites
     * trials at once, OR-ing each fired trial's lane bit into
     * fires[ordinal] (0-based ordinal within the block; the buffer must
     * hold @p sites words and is only written at fired ordinals).
     * Returns the number of scatter writes -- an upper bound on the
     * fired ordinals (lanes can fire the same ordinal). Zero means the
     * buffer was not touched, which is what lets planning serve the
     * whole block as a degenerate no-fire plan (the sparse-mask replays
     * of retry subtrees almost always land here); the count also tells
     * planning whether the fire schedule is sparse enough to be worth
     * re-packing as an event list.
     *
     * Equivalent draw-for-draw to calling walkLane on each active lane
     * in turn -- a lane only ever consumes its own stream, so the lane
     * iteration order cannot matter -- but the common no-fire case is a
     * flat compare-and-subtract sweep over the 64 lane clocks that the
     * compiler vectorizes, and every gap draw goes through the block
     * inversion kernel: uniforms are gathered a round at a time across
     * lanes and converted in one vectorized geometricGapBlock pass. Per
     * lane the stream order is unchanged (one gap per fire, in fire
     * order); only the arithmetic is batched across lanes.
     */
    std::int64_t walkWord(std::uint64_t active, std::int64_t sites,
                          LaneRngs &lanes, std::uint64_t *fires)
    {
        const std::uint64_t fresh = active & ~seen_;
        if (fresh)
            armFresh(fresh, lanes);
        seen_ |= active;
        // Clock sweep: collect the firing lanes and retire the block's
        // trials from every active clock in one pass (firing lanes go
        // transiently non-positive and are rewound in the walk below).
        std::uint64_t firing = 0;
        if (active == ~std::uint64_t{0}) {
            for (std::size_t l = 0; l < kBatchLanes; ++l)
                firing |= static_cast<std::uint64_t>(cnt_[l] <= sites)
                          << l;
            for (std::size_t l = 0; l < kBatchLanes; ++l)
                cnt_[l] -= sites;
        } else {
            std::uint64_t walk = active;
            while (walk) {
                const int l = std::countr_zero(walk);
                walk &= walk - 1;
                firing |= static_cast<std::uint64_t>(cnt_[l] <= sites)
                          << l;
                cnt_[l] -= sites;
            }
        }
        if (!firing)
            return 0;
        return walkFiring(firing, sites, lanes, fires);
    }

  private:
    /** Draw the first gap of every lane in @p fresh (ascending lane
     *  order, one uniform each) through the block inversion kernel. */
    void armFresh(std::uint64_t fresh, LaneRngs &lanes)
    {
        double u[kBatchLanes];
        std::int64_t g[kBatchLanes];
        std::uint8_t lane[kBatchLanes];
        std::size_t n = 0;
        while (fresh) {
            const int l = std::countr_zero(fresh);
            fresh &= fresh - 1;
            lane[n] = static_cast<std::uint8_t>(l);
            u[n] = lanes[l].uniform();
            ++n;
        }
        geometricGapBlock(u, n, inv_log2_q_, g);
        for (std::size_t i = 0; i < n; ++i)
            cnt_[lane[i]] = g[i];
    }

    /**
     * Rewind the lanes the clock sweep flagged and scatter their fire
     * positions, drawing follow-up gaps round by round: each round
     * records one fire per still-walking lane, converts all their next
     * gaps in one geometricGapBlock pass, and retires the lanes whose
     * clocks left the block. A lane's fires and draws happen in exactly
     * the order the serial per-lane walk would produce -- and because
     * every gap inversion is the same correctly-rounded expression tree
     * (see fastLog2), the serial one-lane walk below is bit-identical
     * to the batched rounds, so dispatching on the fire count cannot
     * leak word composition into any lane's draws. Returns the scatter
     * count (see walkWord).
     */
    std::int64_t walkFiring(std::uint64_t firing, std::int64_t sites,
                            LaneRngs &lanes, std::uint64_t *fires)
    {
        std::int64_t scatters = 0;
        if (!(firing & (firing - 1))) {
            // One firing lane (the common case anywhere near or below
            // threshold): the round machinery would only add traffic.
            const int l = std::countr_zero(firing);
            std::int64_t pos = cnt_[l] + sites;
            do {
                fires[pos - 1] |= firing;
                ++scatters;
                pos += geometricGap(lanes[l], inv_log2_q_);
            } while (pos <= sites);
            cnt_[l] = pos - sites;
            return scatters;
        }
        std::int64_t pos[kBatchLanes];
        double u[kBatchLanes];
        std::int64_t g[kBatchLanes];
        std::uint8_t lane[kBatchLanes];
        std::size_t n = 0;
        while (firing) {
            const int l = std::countr_zero(firing);
            firing &= firing - 1;
            lane[n] = static_cast<std::uint8_t>(l);
            pos[n] = cnt_[l] + sites; // the sweep already took the block
            ++n;
        }
        while (n) {
            scatters += static_cast<std::int64_t>(n);
            for (std::size_t i = 0; i < n; ++i)
                fires[pos[i] - 1] |= std::uint64_t{1} << lane[i];
            for (std::size_t i = 0; i < n; ++i)
                u[i] = lanes[lane[i]].uniform();
            geometricGapBlock(u, n, inv_log2_q_, g);
            std::size_t keep = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::int64_t next = pos[i] + g[i];
                if (next <= sites) {
                    lane[keep] = lane[i];
                    pos[keep] = next;
                    ++keep;
                } else {
                    cnt_[lane[i]] = next - sites;
                }
            }
            n = keep;
        }
        return scatters;
    }
    double p_;
    double inv_log2_q_;
    /** Trials remaining until lane's next success (valid when seen). */
    std::array<std::int64_t, kBatchLanes> cnt_;
    std::uint64_t seen_ = 0;
};

} // namespace qla

#endif // QLA_COMMON_BATCHED_SAMPLER_H
