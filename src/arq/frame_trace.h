/**
 * @file
 * Record/replay representation of frame-picture schedules.
 *
 * The Figure-5 tile experiment has data-dependent control flow (verified
 * ancilla preparation retries, syndrome-conditioned re-extraction), so it
 * cannot be flattened into one straight-line program -- but every segment
 * *between* decisions can. A FrameTrace is such a segment: a flat list of
 * frame operations (gate, move/fault site, measure, reset) recorded once
 * and replayed word-parallel on a BatchedFrameBackend with a per-shot
 * lane mask. The driver (arq/batched_monte_carlo.*) makes the decisions
 * by narrowing masks between replays.
 *
 * Fault sites reference noise classes -- deduplicated probabilities
 * registered in a NoiseClassTable at record time -- and a
 * BatchedNoiseModel binds one geometric-gap lane clock per class plus
 * the 64 per-lane Rng streams, so every lane draws i.i.d. Bernoulli
 * faults from its own stream, exactly as the scalar engine's shots do.
 */

#ifndef QLA_ARQ_FRAME_TRACE_H
#define QLA_ARQ_FRAME_TRACE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/batched_sampler.h"
#include "common/rng.h"
#include "quantum/batched_frame.h"

namespace qla::arq {

/** Registry of deduplicated fault-site probabilities. */
class NoiseClassTable
{
  public:
    /** Class id for probability @p p (registering it if new). */
    std::uint8_t classOf(double p);

    /**
     * Register a fresh class even when the probability already exists.
     * Used to give sparse-mask paths (retries, conditional corrections)
     * samplers of their own, so they never force the full-width
     * samplers to park and unpark whole words of lane clocks.
     */
    std::uint8_t newClass(double p);

    const std::vector<double> &probabilities() const { return probs_; }

  private:
    std::vector<double> probs_;
};

/** One recorded frame operation (packed: replay is op-dispatch-bound). */
struct FrameOp
{
    enum class Kind : std::uint8_t {
        H,
        S,
        Cnot,
        Cz,
        Swap,
        Reset,    ///< fresh preparation: clear the qubit's frame
        Noise1,   ///< single-qubit depolarizing fault site (class cls)
        Noise2,   ///< two-qubit depolarizing fault site (class cls)
        MeasureZ, ///< flip readout; cls is the readout-error class
        MeasureX,
        //
        // Fused ops for the dominant schedule patterns -- one dispatch
        // instead of three or four, identical semantics:
        //
        NoisyH,       ///< H on a, then fault site cls on a
        NoisyCnotMT,  ///< move fault cls on b; CNOT a->b; fault cls2 on
                      ///< (a, b); move fault cls on b (the transversal
                      ///< move-gate-move step, target ion shuttling)
        NoisyCnotMC,  ///< the same step with the control ion shuttling:
                      ///< move fault cls on a; CNOT a->b; fault cls2 on
                      ///< (b, a); move fault cls on a
        //
        // Round steps: the NoisyCnot variants immediately followed by a
        // flip readout of the shuttled ion (cls3 = readout-error class).
        //
        NoisyCnotMTMeasZ,
        NoisyCnotMTMeasX,
        NoisyCnotMCMeasZ,
        NoisyCnotMCMeasX,
        ResetRange,   ///< reset qubits [a, a + b)
        Noise1Range,  ///< fault site cls on each qubit of [a, a + b)
        MeasureZRange, ///< flip readout of qubits [a, a + b)
        MeasureXRange,
    };

    Kind kind;
    std::uint8_t cls = 0;
    std::uint8_t cls2 = 0;
    std::uint8_t cls3 = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0;
};

static_assert(sizeof(FrameOp) <= 8, "replay walks traces; keep ops small");

/**
 * One entry of a trace's fire-plan skeleton: a noise class the replay
 * actually samples, with everything about its ClassDrawPlan that is a
 * pure function of the trace and the class table -- which classes have
 * sites, how many, and whether the probability is degenerate --
 * resolved once at finalize time instead of per (word, replay) pair.
 */
struct TraceClassWalk
{
    std::uint8_t cls;
    /** Degenerate probability: no walk, no stream consumed. */
    bool degenerate;
    /** Fired lanes at every site when degenerate (~0 for p >= 1,
     *  0 for p <= 0). */
    std::uint64_t degenerateFires;
    /** Sampler calls of this class in one replay (= classSites[cls]). */
    std::uint32_t sites;
};

/**
 * Compiled linear-effect model of a trace (filled by
 * finalizeTraceClassSites). A trace has no data-dependent control flow,
 * so over GF(2) its replay is a linear map: every measurement flip and
 * every output-frame bit is the XOR of (a) input-frame bits and (b) the
 * Pauli components injected at fired noise sites. This precomputes, per
 * input coordinate and per site component, the list of downstream
 * targets it toggles -- which lets a replay whose fire plan came out
 * sparse apply just the nonzero terms instead of interpreting the whole
 * op stream. Pure function of the trace; shared by every word/replay.
 *
 * Target ids: measurement j (trace order) is target j; touched qubit
 * local index l maps to targets numMeas + 2l (x) and numMeas + 2l + 1
 * (z).
 */
struct TraceEffects
{
    enum SiteKind : std::uint8_t { kNoise1 = 0, kNoise2 = 1, kReadout = 2 };

    /** One target list inside the shared pool. */
    struct Rec
    {
        std::uint32_t off = 0;
        std::uint16_t len = 0;
    };

    /** One sampler call of the replay, in trace order. */
    struct Site
    {
        std::uint8_t cls = 0;
        std::uint8_t kind = kNoise1;
        /** kReadout: the measurement target the fired word toggles. */
        std::uint16_t meas = 0;
        /** Effect lists of the injected components: Noise1 uses xa/za
         *  (the X and Z components on the site's qubit); Noise2 adds
         *  xb/zb for the second operand, in drawPauli2 order. */
        Rec xa, za, xb, zb;
    };

    /** Input-frame coordinates with a nonzero downstream effect. */
    struct Input
    {
        std::uint16_t q = 0;
        Rec x, z;
    };

    std::uint32_t numMeas = 0;
    std::uint32_t numTargets = 0;
    /** Touched qubits: local index -> frame qubit. The replay rewrites
     *  exactly these coordinates for active lanes. */
    std::vector<std::uint16_t> qubitOf;
    std::vector<std::uint16_t> pool;
    std::vector<Site> sites;
    /** Per class: site ids in ordinal (= trace) order. */
    std::vector<std::vector<std::uint32_t>> classSiteIds;
    std::vector<Input> inputs;
    /** Mean total effect-list length per site, rounded up (>= 1): the
     *  replay cost model's price of applying one fired event. */
    std::uint32_t avgSiteCost = 1;
};

/** A straight-line segment of the tile schedule. */
struct FrameTrace
{
    std::vector<FrameOp> ops;
    std::size_t numMeasurements = 0;

    /**
     * Sampler calls per noise class over one full replay of this trace,
     * indexed by class id (filled by finalizeTraceClassSites). This is
     * what lets replay advance each lane's clock over a whole trace in
     * one walk instead of one trial per site: the k-th sampler call of
     * class c during replay is trial ordinal k of that class's
     * pre-walked block.
     */
    std::vector<std::uint32_t> classSites;

    /**
     * Fire-plan skeleton: the classes with sites in this trace, in
     * class-id order, pre-classified against the class table (filled by
     * finalizeTraceClassSites alongside classSites). Per-word planning
     * iterates these few entries and only draws gaps, instead of
     * scanning the whole class table -- shadow retry classes included
     * -- for every word of every replay.
     */
    std::vector<TraceClassWalk> walkPlan;

    /**
     * Compiled linear-effect model (see TraceEffects), built once by
     * finalizeTraceClassSites. The model is a pure function of the op
     * stream; the tile traces live in one recording per experiment
     * shape (arq/batched_monte_carlo.cc), so every noise point, worker
     * and twin of that shape replays the same compiled instance. Null
     * means the replay can only take the op interpreter.
     */
    std::shared_ptr<const TraceEffects> effects;
};

/**
 * Count each noise class's sampler calls over one replay of @p trace,
 * store them in trace.classSites (sized to the class table), and build
 * trace.walkPlan, the fire-plan skeleton of the classes that actually
 * appear, and compile trace.effects. Must be called once after
 * recording, before the trace is replayed; the counting rules mirror
 * the replay switch exactly (asserted after every interpreted replay).
 */
void finalizeTraceClassSites(FrameTrace &trace,
                             const NoiseClassTable &classes);

/** Emits FrameOps; the recording twin of the scalar noisy primitives. */
class FrameTraceBuilder
{
  public:
    explicit FrameTraceBuilder(NoiseClassTable &classes)
        : classes_(classes)
    {
    }

    void h(std::size_t q);
    void s(std::size_t q);
    void cnot(std::size_t control, std::size_t target);
    void cz(std::size_t a, std::size_t b);
    void swapGate(std::size_t a, std::size_t b);
    void reset(std::size_t q);
    void noise1(double p, std::size_t q);
    void noise2(double p, std::size_t a, std::size_t b);
    /** H on @p q followed by a fault site of probability @p p1. */
    void noisyH(std::size_t q, double p1);
    /**
     * The transversal step of the tile: a fault of probability @p p_move
     * on @p moved (the ion shuttling in; must be the control or the
     * target), CNOT, a two-qubit fault of probability @p p2 ordered
     * (unmoved, moved) as in the scalar schedule, and the shuttle back.
     */
    void noisyCnot(std::size_t control, std::size_t target,
                   std::size_t moved, double p_move, double p2);
    /** noisyCnot followed by a flip readout of @p moved. */
    void noisyCnotMeas(std::size_t control, std::size_t target,
                       std::size_t moved, double p_move, double p2,
                       bool measure_x, double readout_error);
    /** Fresh preparation of @p count consecutive qubits from @p first. */
    void resetRange(std::size_t first, std::size_t count);
    /** Fault site of probability @p p on each of @p count qubits. */
    void noise1Range(std::size_t first, std::size_t count, double p);
    /** Flip readout of @p count consecutive qubits from @p first. */
    void measureRange(std::size_t first, std::size_t count, bool measure_x,
                      double readout_error);
    void measureZ(std::size_t q, double readout_error);
    void measureX(std::size_t q, double readout_error);

    /** Move the recorded trace out of the builder. */
    FrameTrace take();

  private:
    NoiseClassTable &classes_;
    FrameTrace trace_;
};

/**
 * One noise class's pre-walked fire schedule for the trace currently
 * being replayed on one word. Rebuilt by the per-trace planning pass;
 * consumed one site ordinal at a time as the replay switch reaches the
 * class's sampler calls.
 */
struct ClassDrawPlan
{
    /** nextFireOrd value meaning "no further fire in this trace". */
    static constexpr std::uint32_t kNoFire = 0xffffffffu;

    /**
     * Walk scratch: fires[i] is the fired-lanes word of the class's
     * i-th sampling site (replay order). Planning scatters the walk's
     * fires here, then drains every nonzero entry into the sparse
     * event arrays below (zeroing it again), so the buffer is all-zero
     * between plans and never needs a wipe. Sized to the largest site
     * count any planned trace has declared for the class.
     */
    std::vector<std::uint64_t> fires;
    /**
     * The plan itself, sparse: eventOrd lists the site ordinals that
     * fired, ascending, and eventMask the fired lanes of each. Replay
     * consumes sites in ordinal order, so fire() is one compare
     * against nextFireOrd on the (overwhelmingly common) no-fire site
     * instead of a load and store through the dense buffer.
     */
    std::vector<std::uint32_t> eventOrd;
    std::vector<std::uint64_t> eventMask;
    /** Site ordinal the replay has reached for this class. */
    std::uint32_t ordinal = 0;
    /** Index into eventOrd/eventMask of the next unconsumed event. */
    std::uint32_t next = 0;
    /** eventOrd[next], or kNoFire once the events are exhausted --
     *  kept unpacked so the no-fire path reads exactly one field. For
     *  a dense or degenerate always-fires plan it runs 0, 1, 2, ... so
     *  every site takes the fire path. */
    std::uint32_t nextFireOrd = kNoFire;
    /**
     * Dense plan: fire() serves straight from the fires buffer (the
     * replay zeroes each entry as it consumes it) instead of the event
     * arrays. Planning picks this representation when the walk fired
     * often enough that draining the scratch into events would cost
     * more than it saves -- the far-above-threshold regime, where a
     * large fraction of sites fire some lane. The choice is purely a
     * storage format: fired words are identical either way.
     */
    bool dense = false;
    /** Degenerate p >= 1 class: every site fires all active lanes,
     *  nothing walked, no events stored. */
    bool degenerate = false;
    /** Fired lanes at every site when degenerate (~0 for p >= 1). */
    std::uint64_t degenerate_fires = 0;
    /** Scatter count of the walk that produced this plan: an upper
     *  bound on the fired-site count, kept for the replay cost model. */
    std::uint32_t scatters = 0;
};

/** Per-class samplers plus per-lane streams for one 64-shot word. */
struct BatchedNoiseModel
{
    explicit BatchedNoiseModel(const NoiseClassTable &classes);

    /**
     * Bind the 64 lanes to the family streams for shots
     * [first_shot, first_shot + 64) and disarm every sampler; lane l's
     * noise then depends only on (family, first_shot + l).
     */
    void rearm(const RngFamily &family, std::uint64_t first_shot);

    /**
     * Move one lane's migratable identity into @p dst: the rng stream
     * by value, and -- for each of the @p num_classes sampler-class
     * pairs -- the lane's noise clock, parked out of this model's
     * sampler src_cls[c] and imported at @p dst_lane of @p dst's
     * sampler dst_cls[c]. This is the per-lane reference semantics of
     * lane compaction; arq::SegmentPool's bulk transplants perform
     * exactly these moves but loop class-outer across a whole chunk of
     * lanes for cache locality (clock moves between distinct
     * (sampler, lane) slots commute). The class pairing must cover
     * every class the migrated segment can sample (clocks of unlisted
     * classes stay put, which is exactly right for classes the segment
     * never replays), and each pair must carry the same probability
     * (asserted).
     */
    void moveLaneTo(BatchedNoiseModel &dst, std::size_t dst_lane,
                    std::size_t src_lane, const std::uint8_t *src_cls,
                    const std::uint8_t *dst_cls, std::size_t num_classes)
    {
        dst.lanes[dst_lane] = lanes[src_lane];
        for (std::size_t c = 0; c < num_classes; ++c) {
            samplers[src_cls[c]].moveLaneTo(dst.samplers[dst_cls[c]],
                                            dst_lane, src_lane);
            // The trace-draw clock of the same class travels with the
            // lane: replayed fault sites draw from these clocks.
            draws[src_cls[c]].moveLaneTo(dst.draws[dst_cls[c]], dst_lane,
                                         src_lane);
        }
    }

    LaneRngs lanes;
    /** Per-site word samplers; only the syndrome-conditioned
     *  corrections draw from these (the other classes stay unseen). */
    std::vector<BernoulliWordSampler> samplers;
    /** Trace-level clocks, one per class: every replayed fault site. */
    std::vector<ClassDrawSampler> draws;
    /** Scratch fire schedules for the trace being replayed. */
    std::vector<ClassDrawPlan> plans;
};

/**
 * Replay @p trace on @p frame for the lanes in @p active. Measurement
 * flip words are appended to @p flips in op order (the caller clears the
 * buffer between replays). Takes the concrete engine so every gate and
 * readout compiles to direct word operations -- replay is the Monte
 * Carlo's innermost loop. The trace must be finalized
 * (finalizeTraceClassSites): the active lanes' clocks are walked over
 * the whole trace first, then the word replays through the compiled
 * effect model or the op interpreter, whichever the cost model prices
 * cheaper -- both consume the same plans, so the choice never changes
 * results.
 */
void replayTrace(const FrameTrace &trace, quantum::BatchedPauliFrame &frame,
                 BatchedNoiseModel &noise, std::uint64_t active,
                 std::vector<std::uint64_t> &flips);

/** Words per SIMD plane of the group replay (256-bit frame arithmetic;
 *  the remainder of a group is carved into 2- and 1-word planes). */
inline constexpr std::size_t kReplayTileWords = 4;

/**
 * Replay @p trace on all @p num_words words of a shot group at once,
 * tiled into SIMD planes of kReplayTileWords words (smaller power-of-two
 * tiles are carved greedily from the rest, so any group width works).
 * Word w replays under mask masks[w] with models[w]; its flip words are
 * cleared and then appended to flips[w] in op order. Words whose mask is
 * zero inside an active tile get zero flip words (length stays
 * aligned); all-inactive tiles are skipped entirely and their flip
 * buffers only cleared.
 *
 * Each word's lane randomness is consumed exactly as a lone
 * replayTrace of that word would consume it, so results are
 * bit-identical for every group width -- the planes only restructure
 * the frame arithmetic.
 */
void replayTraceGroup(const FrameTrace &trace,
                      quantum::GroupPauliFrames &frames,
                      BatchedNoiseModel *models,
                      const std::uint64_t *masks, std::size_t num_words,
                      std::vector<std::uint64_t> *flips);

} // namespace qla::arq

#endif // QLA_ARQ_FRAME_TRACE_H
