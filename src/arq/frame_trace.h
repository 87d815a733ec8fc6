/**
 * @file
 * Record/replay representation of frame-picture schedules.
 *
 * The Figure-5 tile experiment has data-dependent control flow (verified
 * ancilla preparation retries, syndrome-conditioned re-extraction), so it
 * cannot be flattened into one straight-line program -- but every segment
 * *between* decisions can. A FrameTrace is such a segment: a flat list of
 * frame operations (gate, move/fault site, measure, reset) recorded once
 * and replayed 64 shots per word under a per-shot lane mask. The driver
 * (arq/batched_monte_carlo.*) makes the decisions by narrowing masks
 * between replays.
 *
 * Fault sites reference noise classes -- deduplicated probabilities
 * registered in a NoiseClassTable at record time -- and a
 * BatchedNoiseModel binds geometric-gap lane clocks (two banks of one
 * per class, plus one for the unrecorded correction sites) and the 64
 * per-lane Rng streams, so every lane draws i.i.d. Bernoulli faults
 * from its own stream, exactly as the scalar engine's shots do.
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

    const std::vector<double> &probabilities() const { return probs_; }

  private:
    std::vector<double> probs_;
};

/**
 * One recorded frame operation: a primitive of the scalar frame
 * picture. Schedule patterns (the transversal move-CNOT-move step,
 * ranges) are FrameTraceBuilder helpers that expand into these, never
 * op kinds of their own; replay reads only the compiled TraceEffects,
 * so nothing gains from fusing ops.
 */
struct FrameOp
{
    enum class Kind : std::uint8_t {
        H,
        S,
        Cnot,
        Cz,
        Swap,
        Reset,    ///< fresh preparation: clear the qubit's frame
        // The kinds from here on carry a class (isSite relies on it).
        Noise1,   ///< single-qubit depolarizing fault site (class cls)
        Noise2,   ///< two-qubit depolarizing fault site (class cls)
        MeasureZ, ///< flip readout; cls is the readout-error class
        MeasureX,
    };

    Kind kind;
    std::uint8_t cls = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0;

    /** The op has a noise class: it is exactly one sampler call of
     *  class cls per replay. */
    bool isSite() const { return kind >= Kind::Noise1; }
};

/**
 * One entry of a trace's fire-plan skeleton: a noise class the replay
 * actually samples, with everything about its fires that is a pure
 * function of the trace and the class table -- which classes have
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
 * targets it toggles -- which lets the replay apply just the nonzero
 * terms instead of interpreting the whole op stream. Pure function of
 * the trace; shared by every word/replay.
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
    /** Per class: site ids in ordinal (= trace) order. Planning keys
     *  a fire of class c at ordinal k by classSiteIds[c][k]. */
    std::vector<std::vector<std::uint32_t>> classSiteIds;
    std::vector<Input> inputs;
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
     * scanning the whole class table for every word of every replay,
     * on either clock bank.
     */
    std::vector<TraceClassWalk> walkPlan;

    /**
     * Compiled linear-effect model (see TraceEffects), built once by
     * finalizeTraceClassSites. The model is a pure function of the op
     * stream; the tile traces live in one recording per experiment
     * shape (arq/batched_monte_carlo.cc), so every noise point, worker
     * and twin of that shape replays the same compiled instance.
     * replayTraceGroup runs its effect lists once per shot group, across
     * the group's words, and requires it.
     */
    std::shared_ptr<const TraceEffects> effects;
};

/**
 * Count each noise class's sampler calls over one replay of @p trace,
 * store them in trace.classSites (sized to the class table), and build
 * trace.walkPlan, the fire-plan skeleton of the classes that actually
 * appear, and compile trace.effects. Must be called once after
 * recording, before the trace is replayed; the counting rules mirror
 * the replay exactly (asserted by the effect compiler and after every
 * reference replay).
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
    void measureZ(std::size_t q, double readout_error);
    void measureX(std::size_t q, double readout_error);
    //
    // Pattern helpers: each expands to primitive ops in the scalar
    // transversal order, exactly as if its parts were emitted one by one.
    //
    /** H on @p q, then a fault site of probability @p p1 on @p q. */
    void noisyH(std::size_t q, double p1);
    /**
     * The transversal step of the tile, in the scalar order: a fault of
     * probability @p p_move on @p moved (the ion shuttling in; must be
     * the control or the target), CNOT, a two-qubit fault of
     * probability @p p2 on (unmoved, moved), and the shuttle-back fault
     * on @p moved.
     */
    void noisyCnot(std::size_t control, std::size_t target,
                   std::size_t moved, double p_move, double p2);
    /** noisyCnot followed by a flip readout of @p moved. */
    void noisyCnotMeas(std::size_t control, std::size_t target,
                       std::size_t moved, double p_move, double p2,
                       bool measure_x, double readout_error);
    /** Reset of each of @p count consecutive qubits from @p first. */
    void resetRange(std::size_t first, std::size_t count);
    /** Fault site of probability @p p on each of @p count consecutive
     *  qubits from @p first, in qubit order. */
    void noise1Range(std::size_t first, std::size_t count, double p);
    /** Flip readout of each of @p count consecutive qubits from
     *  @p first, in qubit order. */
    void measureRange(std::size_t first, std::size_t count, bool measure_x,
                      double readout_error);

    /** Move the recorded trace out of the builder. */
    FrameTrace take();

  private:
    NoiseClassTable &classes_;
    FrameTrace trace_;
};

/** Per-class clocks plus per-lane streams for one 64-shot word. */
struct BatchedNoiseModel
{
    /** Two banks of one clock per class of @p classes, and the
     *  correction clock at probability @p correction_p. */
    BatchedNoiseModel(const NoiseClassTable &classes, double correction_p);

    /**
     * Bind the 64 lanes to the family streams for shots
     * [first_shot, first_shot + 64) and disarm every clock; lane l's
     * noise then depends only on (family, first_shot + l).
     */
    void rearm(const RngFamily &family, std::uint64_t first_shot);

    /** Classes per clock bank (n). */
    std::size_t numClasses() const { return draws.size() / 2; }

    LaneRngs lanes;
    /** Trace-level clocks in two banks of one per class (n classes):
     *  draws[c] on the straight-line schedule, draws[n + c] inside
     *  retry and conditional subtrees, the only bank lane compaction
     *  moves. */
    std::vector<ClassDrawSampler> draws;
    /** The syndrome-conditioned corrections' clock, one trial per
     *  correction gate (ClassDrawSampler::trial): their sites are
     *  data-dependent, so no trace plans them. */
    ClassDrawSampler correction;
    /**
     * The fires of the word last planned, one key site << 6 | lane per
     * fired (site, lane) pair, where site indexes the trace's
     * TraceEffects::sites; sorted ascending, so the keys of one site
     * form a run and sites come in trace order.
     */
    std::vector<std::uint32_t> fireKeys;
};

/**
 * Reference replay of @p trace on one word, @p frame, for the lanes in
 * @p active: the active lanes' clocks are walked over the whole trace
 * (the same planning replayTraceGroup does), then a plain op
 * interpreter runs the trace op by op. It numbers the sites itself,
 * asserts that the compiled site table and per-class site ids agree
 * with the op stream, and checks that every site was visited and every
 * fire key consumed. Measurement flip words are appended to @p flips
 * in op order; an inactive word appends zero words; @p retry selects
 * the clock bank. No production path calls this: it is the
 * oracle the group replay is checked against lane by lane
 * (tests/test_batched_frame.cc). The trace must be finalized
 * (finalizeTraceClassSites).
 */
void replayTrace(const FrameTrace &trace, quantum::BatchedPauliFrame &frame,
                 BatchedNoiseModel &noise, std::uint64_t active,
                 std::vector<std::uint64_t> &flips, bool retry);

/**
 * Replay @p trace on the @p num_words words of a shot group through the
 * trace's compiled effect model, group-major: one pass of the effect
 * lists over a [target][word] accumulator plane for the whole group.
 * The input frame's live rows are XORed into their targets across all
 * words at once (each row masked by masks[w]); then each active word
 * plans its lane clocks, applies its fired sites into its own
 * accumulator column and copies its flip row out; finally every
 * touched qubit row is rewritten across the group as
 * (row & ~masks[w]) | acc. Word w replays under mask masks[w] with
 * models[w]; flips[w] is cleared and, if the word is active, filled
 * with its flip words in op order. An inactive word's flip buffer stays
 * empty and its frame words are untouched, so callers skip inactive
 * words. Every word's sites draw from the clock bank @p retry selects
 * (see BatchedNoiseModel::draws).
 *
 * Each word's lane randomness is consumed exactly as a lone
 * replayTrace of that word would consume it, so results are
 * bit-identical for every group width.
 */
void replayTraceGroup(const FrameTrace &trace,
                      quantum::GroupPauliFrames &frames,
                      BatchedNoiseModel *models,
                      const std::uint64_t *masks, std::size_t num_words,
                      std::vector<std::uint64_t> *flips, bool retry);

} // namespace qla::arq

#endif // QLA_ARQ_FRAME_TRACE_H
