/**
 * @file
 * Word-parallel (64 shots per word) Figure-7 logical-qubit Monte Carlo.
 *
 * The batched twin of LogicalQubitExperiment: the Figure-5 tile schedule
 * is recorded as flat FrameTraces (arq/frame_trace.h) and replayed on
 * the BatchedPauliFrame engine, with the experiment's data-dependent
 * control flow -- verified-preparation retry, syndrome-conditioned
 * re-extraction, per-lane corrections -- driven by narrowing lane masks
 * instead of branching per shot. All classical processing (syndrome
 * computation, lookup correction, logical-parity decode) is bit-sliced:
 * measurement flips are words over lanes, and a syndrome is a handful of
 * XORed words rather than 64 scalar decodes.
 *
 * Shot groups: the experiment simulates BatchOptions::groupWords words
 * (up to kMaxGroupWords x 64 shots) in lockstep, each word with its own
 * frame and noise model. Running words side by side is what enables
 * lane compaction: when the surviving lanes of a level-2 retry subtree
 * are spread across more words than they would fill densely, they are
 * regrouped -- rng streams and sampler clocks carried along -- into a
 * dense twin experiment (arq/lane_compaction.h) instead of replaying
 * every nearly-empty word. Verified-preparation retries replay in
 * place.
 *
 * Recording: the schedule belongs to the layout, not to the error rate.
 * A recording depends only on the code, the layout distances, the
 * attempt cap and the rate *pattern* -- which of the five fixed rates
 * (gate1, gate2, measure, intra-block move, inter-block move) coincide,
 * and which are degenerate (p <= 0 or p >= 1). So each distinct shape
 * is recorded once per process and shared, immutable, by every noise
 * point, worker and twin of that shape; constructing an experiment at a
 * new error rate only binds its own class probabilities to it.
 *
 * Noise is sampled per lane from RngFamily streams indexed by the global
 * shot number, so a shot's result is independent of which 64-shot word
 * it lands in; batched and scalar runs draw from the same distribution
 * at every fault site and agree statistically (cross-checked by
 * tests/test_batched_frame.cc and tests/test_arq_mc.cc). Compaction and
 * grouping preserve each lane's draw sequence exactly, so results are
 * additionally bit-identical across every BatchOptions setting.
 */

#ifndef QLA_ARQ_BATCHED_MONTE_CARLO_H
#define QLA_ARQ_BATCHED_MONTE_CARLO_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arq/bitslice.h"
#include "arq/frame_trace.h"
#include "arq/monte_carlo.h"
#include "ecc/css_code.h"
#include "quantum/batched_frame.h"
#include "sim/stats.h"

namespace qla::arq {

/** Upper bound on BatchOptions::groupWords. */
inline constexpr std::size_t kMaxGroupWords = 32;

/**
 * Per-word lane masks of one shot group (word w covers shots
 * [first + 64 w, first + 64 (w + 1)) of the group).
 */
struct LaneSet
{
    std::array<std::uint64_t, kMaxGroupWords> w{};
    std::uint32_t n = 0; ///< words in the group

    bool any() const
    {
        for (std::uint32_t i = 0; i < n; ++i)
            if (w[i])
                return true;
        return false;
    }

    /** Total active lanes across the group. */
    std::uint64_t count() const;

    /** Words with at least one active lane. */
    std::uint32_t activeWords() const;
};

class SegmentPool;

/** All-ones mask over the low @p count lanes (count in [0, 64]). */
inline std::uint64_t
denseLaneMask(std::size_t count)
{
    return count >= kBatchLanes ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << count) - 1);
}

/**
 * Batched Monte Carlo over one QLA logical-qubit tile (Figure 5),
 * simulating up to kMaxGroupWords x 64 shots in lockstep.
 */
class BatchedLogicalQubitExperiment
{
  public:
    BatchedLogicalQubitExperiment(const ecc::CssCode &code,
                                  NoiseParameters noise,
                                  LayoutDistances layout = {},
                                  int max_prep_attempts = 16,
                                  BatchOptions options = {});
    ~BatchedLogicalQubitExperiment();

    BatchedLogicalQubitExperiment(const BatchedLogicalQubitExperiment &)
        = delete;
    BatchedLogicalQubitExperiment &
    operator=(const BatchedLogicalQubitExperiment &) = delete;

    /**
     * One group of shots of the level-@p level experiment on the lanes
     * in @p active (the noise models must have been rearmed for this
     * group's words).
     * @return the lanes that ended with a logical error.
     */
    LaneSet runShots(int level, const LaneSet &active,
                     ExperimentStats *stats = nullptr);

    /**
     * Monte-Carlo estimate of the logical gate failure rate over
     * @p shots shots; shot i draws from RngFamily(seed).stream(i).
     */
    sim::RateStat failureRate(int level, std::size_t shots,
                              std::uint64_t seed,
                              ExperimentStats *stats = nullptr);

    /**
     * failureRate over global shot indices [first_shot, first_shot +
     * count): the chunk a parallel sweep job simulates. Because shot
     * i's randomness is RngFamily(seed).stream(i), concatenating chunk
     * results reproduces the single-call run shot for shot.
     */
    sim::RateStat failureRateRange(int level, std::uint64_t first_shot,
                                   std::size_t count, std::uint64_t seed,
                                   ExperimentStats *stats = nullptr);

    const BatchOptions &options() const { return options_; }

    /** True when both experiments replay the same tile recording (one
     *  per code, layout, attempt cap and rate pattern per process). */
    bool sharesRecordingWith(const BatchedLogicalQubitExperiment &other)
        const
    {
        return recording_ == other.recording_;
    }

  private:
    struct Recording;

    /** A class table and the shared recording it binds to. */
    struct Binding
    {
        NoiseClassTable classes;
        std::shared_ptr<const Recording> recording;
    };

    /**
     * Register this point's classes -- the five fixed rates -- and look
     * up the recording of its shape, recording it on first use.
     */
    static Binding bind(const ecc::CssCode &code, const NoiseParameters &noise,
                        const LayoutDistances &layout,
                        int max_prep_attempts);

    /** Shared by the public constructor and twin(). */
    BatchedLogicalQubitExperiment(const ecc::CssCode &code,
                                  int max_prep_attempts,
                                  BatchOptions options, Binding binding);

    enum class Role : std::size_t { Data = 0, Ancilla = 1, Verify = 2 };

    /** Straight-line segments of the recorded tile schedule. */
    enum class Seg : std::uint8_t {
        PrepRound,    ///< one verified-preparation attempt: encode the
                      ///< role row, encode the Verify row, interact and
                      ///< read out (the body of the retry loop)
        VerifyPair,   ///< encode the Verify row + verification round
                      ///< against an existing row (level-2 verification)
        ExtractRound, ///< transversal CNOT + ancilla readout
        L2Network,    ///< level-2 encoding network over one conglomeration
        L2Cnot,       ///< transversal logical CNOT data<->ancilla congl.
        L2Readout,    ///< destructive readout of the ancilla congl.
        LogicalGate,  ///< the noisy transversal logical gate under test
    };

    /** Per-word syndrome planes of one shot group. */
    using GroupSyndrome = std::array<SyndromePlanes, kMaxGroupWords>;

    /** Tile qubit of ion @p i in row (c, g, role), block length @p n. */
    static std::size_t ion(std::size_t n, std::size_t c, std::size_t g,
                           Role role, std::size_t i);
    std::size_t ion(std::size_t c, std::size_t g, Role role,
                    std::size_t i) const
    {
        return ion(n_, c, g, role, i);
    }

    /** Slot of a segment in the (sparse) trace index space. */
    static std::size_t traceIndex(std::size_t n, Seg seg, std::size_t c,
                                  std::size_t g, std::size_t role,
                                  bool flag);

    /**
     * Replay a recorded segment on every active word of the group. The
     * straight-line schedule draws from the straight-line clock bank;
     * retry / conditional subtrees (tracked by retry_) replay the same
     * trace on the retry bank (see BatchedNoiseModel::draws). Words
     * with an empty mask are skipped entirely -- their clocks never see
     * the segment's sites, exactly as when the group is run word by
     * word.
     */
    void replaySeg(Seg seg, std::size_t c, std::size_t g,
                   std::size_t role, bool flag, const LaneSet &active);

    //
    // Bit-sliced classical decoding helpers (shared types in
    // arq/bitslice.h); all operate on one word of the group.
    //

    SyndromePlanes planesOf(bool x_type_checks,
                            const std::uint64_t *flip_words) const
    {
        const auto &rows = x_type_checks ? x_check_bits_ : z_check_bits_;
        SyndromePlanes planes{};
        for (std::size_t j = 0; j < rows.size(); ++j)
            planes[j] = parityPlane(rows[j], flip_words);
        return planes;
    }

    /** Lanes whose corrected X pattern still carries a logical X. */
    std::uint64_t decodeXLogicalPlane(const std::uint64_t *x_words) const;

    //
    // Driver building blocks; each mirrors the scalar twin in
    // monte_carlo.cc with masks instead of branches, over every word of
    // the group.
    //

    //
    // Subtree regrouping: the two retry-heavy far-above-threshold
    // subtrees -- the level-2 "Start Over" rounds and the repeated
    // level-2 extraction -- migrate their surviving lanes into a dense
    // twin experiment and run there in full, one migration amortized
    // over the whole subtree (thousands of ops). The twin is bound to
    // the parent's recording and class table, so its traces and class
    // ids are the parent's own; migration transplants each lane's rng
    // stream, retry-bank clocks and correction clock, keeping results
    // bit-identical with the in-place replay.
    //

    /** One attempt round of the level-2 verified ancilla preparation;
     *  narrows @p mask to the lanes whose verification failed. */
    void prepL2AttemptRound(std::size_t c, bool plus, LaneSet &mask,
                            ExperimentStats *stats);
    /** Dense regrouping beats in-place replay for a whole subtree
     *  whenever it reduces the replayed word count at all. */
    bool subtreeWorthwhile(const LaneSet &mask) const;
    BatchedLogicalQubitExperiment &twin();
    /**
     * The twin's migration engine. The twin shares the parent's
     * recording and class table, so class ids coincide and the retry
     * bank transplants index-for-index.
     */
    SegmentPool &twinPool();
    void compactL2PrepRetries(std::size_t c, bool plus,
                              const LaneSet &mask, int first_attempt,
                              ExperimentStats *stats);
    void compactExtractL2(bool detect_x, const LaneSet &repeat,
                          GroupSyndrome &outer, ExperimentStats *stats);

    void prepVerified(std::size_t c, std::size_t g, Role role, bool plus,
                      const LaneSet &active, ExperimentStats *stats);
    // The syndrome out-params are filled for active words only; callers
    // must not read the planes of words outside the active set.
    void extractSyndrome(std::size_t c, std::size_t g, bool detect_x,
                         const LaneSet &active, GroupSyndrome &synd,
                         ExperimentStats *stats);
    void applyCorrection(std::size_t c, std::size_t g, Role role,
                         bool detect_x, const GroupSyndrome &synd,
                         const LaneSet &active);
    /** Fold a Pauli X (or Z) correction on qubit @p q into the @p lanes
     *  of word @p w, then fault that physical gate on the lanes the
     *  correction clock fires. */
    void injectCorrection(std::uint32_t w, std::size_t q, bool x,
                          std::uint64_t lanes);
    void ecCycleL1(std::size_t c, std::size_t g, const LaneSet &active,
                   ExperimentStats *stats);
    void prepL2Ancilla(std::size_t c, bool plus, const LaneSet &active,
                       ExperimentStats *stats);
    void extractSyndromeL2(bool detect_x, const LaneSet &active,
                           GroupSyndrome &outer, ExperimentStats *stats);
    void ecCycleL2(const LaneSet &active, ExperimentStats *stats);
    std::uint64_t decodeLevel1Word(std::uint32_t word, std::size_t c,
                                   std::size_t g, Role role) const;
    std::uint64_t decodeLevel2Word(std::uint32_t word) const;

    const ecc::CssCode &code_;
    std::vector<BitList> x_check_bits_; // xChecks() rows as index lists
    std::vector<BitList> z_check_bits_;
    BitList logical_x_bits_;
    BitList logical_z_bits_;
    int max_prep_attempts_;
    BatchOptions options_;
    std::size_t n_; // block length (7)
    /** This point's fault probabilities, in the recording's class ids. */
    NoiseClassTable classes_;
    /** The tile schedule: one trace per segment. */
    std::shared_ptr<const Recording> recording_;
    /**
     * True while replaying a retry / conditional subtree. Decides the
     * clock bank structurally -- a lane's clock at a site is then a
     * function of its own control-flow path, so shot results stay
     * independent of the word's other lanes (and of the batch
     * grouping), as the determinism contract requires.
     */
    bool retry_ = false;
    // The group's frames live in one contiguous qubit-major allocation
    // that replaySeg replays group-major, across all its words at once;
    // one noise model per word over classes_.
    quantum::GroupPauliFrames frames_;
    std::vector<BatchedNoiseModel> models_;
    std::array<std::vector<std::uint64_t>, kMaxGroupWords> flips_;

    /** False in the twin itself (no recursive twin regrouping). */
    bool subtree_enabled_ = true;
    std::unique_ptr<BatchedLogicalQubitExperiment> twin_; // lazy
    std::unique_ptr<SegmentPool> twin_pool_;              // lazy
};

} // namespace qla::arq

#endif // QLA_ARQ_BATCHED_MONTE_CARLO_H
