/**
 * @file
 * Logical-qubit Monte Carlo (paper Section 4.1.3, Figure 7).
 *
 * Reproduces the paper's experiment: "we mapped the circuit in Figure 6
 * exactly to the layout shown in Figure 5 and simulated the execution of
 * a single logical one-qubit gate followed by error correction at
 * recursion levels 1 and 2 respectively. As baseline technology
 * parameters we fixed the movement failure rate to be the expected rate
 * shown in Table 1, but varied the rest of the failure probabilities
 * until we saw a crossing point between the two levels of recursion."
 *
 * Noise is depolarizing Pauli noise at every fault location, propagated
 * with the Pauli-frame engine (exact for these stabilizer EC circuits).
 * The fault locations follow the Figure-5 tile: encoder CNOTs move ions
 * ~3 cells within a block; block-to-block transversal interactions move
 * ions the r = 12 cell inter-block distance with up to two corner turns.
 */

#ifndef QLA_ARQ_MONTE_CARLO_H
#define QLA_ARQ_MONTE_CARLO_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/tech_params.h"
#include "ecc/css_code.h"
#include "quantum/backend.h"
#include "quantum/pauli_frame.h"
#include "sim/stats.h"

namespace qla::arq {

/** Fault-injection parameters for one Monte-Carlo run. */
struct NoiseParameters
{
    double gate1Error = 1e-8;
    double gate2Error = 1e-7;
    double measureError = 1e-8;
    /** Held at the expected rate during Figure-7 sweeps. */
    double movementErrorPerCell = 1e-6;
    double splitCellEquivalent = 1.0;
    /**
     * Corner turns add extra motional heating (Section 2.2); three
     * cell-equivalents per turn reproduces the paper's measured
     * non-trivial syndrome rates at expected parameters (3.35e-4 at
     * level 1, 7.92e-4 at level 2) within their error bars.
     */
    double turnCellEquivalent = 3.0;
    /**
     * Residual infidelity of the interconnect's purified EPR pairs
     * (PR 7): every inter-block interaction rides a teleported pair, so
     * the post-purification link error adds to the shuttle's
     * depolarizing probability as its own noise class. Fed from the
     * co-simulator's delivered-fidelity ledger
     * (network::CoSimReport::residualEprError()); 0 keeps the ideal
     * interconnect of the seed experiments.
     */
    double eprResidualError = 0.0;

    /** All swept error types set to @p p, movement left as-is. */
    static NoiseParameters swept(double p);
};

/** Layout-derived movement distances (Figure 5 tile). */
struct LayoutDistances
{
    Cells intraBlockCells = 3;
    int intraBlockTurns = 0;
    Cells interBlockCells = 12;
    int interBlockTurns = 2;

    bool operator==(const LayoutDistances &) const = default;
};

/** Counters accumulated across one experiment. */
struct ExperimentStats
{
    sim::RateStat logicalFailure;
    sim::RateStat nontrivialSyndrome;
    sim::ScalarStat prepAttempts;

    /** Fold another accumulator in (parallel chunks reduce through this
     *  in fixed chunk order; see sim/shot_scheduler.h). */
    void merge(const ExperimentStats &other)
    {
        logicalFailure.merge(other.logicalFailure);
        nontrivialSyndrome.merge(other.nontrivialSyndrome);
        prepAttempts.merge(other.prepAttempts);
    }
};

/**
 * Pauli-frame simulation of one QLA logical-qubit tile (Figure 5):
 * three conglomerations x seven groups x (data, ancilla, verification)
 * rows of seven ions. Provides the level-1 and level-2 logical-gate +
 * error-correction experiments.
 */
class LogicalQubitExperiment
{
  public:
    LogicalQubitExperiment(const ecc::CssCode &code,
                           NoiseParameters noise,
                           LayoutDistances layout = {},
                           int max_prep_attempts = 16);

    // engine_ is bound to this object's frame_; the implicit copy would
    // alias the source experiment's state.
    LogicalQubitExperiment(const LogicalQubitExperiment &) = delete;
    LogicalQubitExperiment &operator=(const LogicalQubitExperiment &)
        = delete;

    /**
     * One shot of the level-@p level experiment (level 1 or 2): perfect
     * encoding, one noisy transversal logical gate, one full EC cycle,
     * ideal decode.
     * @return true when a logical error remains.
     */
    bool runShot(int level, Rng &rng, ExperimentStats *stats = nullptr);

    /**
     * Monte-Carlo estimate of the logical gate failure rate.
     */
    sim::RateStat failureRate(int level, std::size_t shots, Rng &rng,
                              ExperimentStats *stats = nullptr);

    /** Per-block residual X/Z masks of the data conglomeration
     *  (debugging aid for failure analysis). */
    std::string describeResidual() const;

  private:
    //
    // Register indexing within the tile frame.
    //

    enum class Role : std::size_t { Data = 0, Ancilla = 1, Verify = 2 };

    std::size_t ion(std::size_t conglomeration, std::size_t group,
                    Role role, std::size_t i) const;

    //
    // Noisy primitive operations on the frame.
    //

    void noisy1(std::size_t q, Rng &rng);
    void noisy2(std::size_t a, std::size_t b, Rng &rng);
    void moveIon(std::size_t q, Cells cells, int turns, Rng &rng);
    /** Inter-block shuttle: movement noise plus the residual EPR error
     *  of the interconnect channel it rides (PR 7). */
    void moveIonInterBlock(std::size_t q, Rng &rng);
    bool measureZ(std::size_t q, Rng &rng);
    bool measureX(std::size_t q, Rng &rng);

    //
    // Level-1 building blocks (operate on one group's rows).
    //

    /** Noisy |0>_L (or |+>_L) encoder into the given role's ions. */
    void encodeLogical(std::size_t c, std::size_t g, Role role, bool plus,
                       Rng &rng);

    /** Verification round; true when the ancilla must be rebuilt. */
    bool verifyLogical(std::size_t c, std::size_t g, Role role, bool plus,
                       Rng &rng);

    /** Encoder + verification with retry. */
    void prepVerified(std::size_t c, std::size_t g, Role role, bool plus,
                      Rng &rng, ExperimentStats *stats);

    /**
     * One syndrome extraction against the data in (c, g, data_role):
     * X-type when @p detect_x (ancilla |0>_L, data->ancilla CNOT,
     * Z-basis readout), Z-type otherwise.
     * @return the 3-bit syndrome.
     */
    std::uint32_t extractSyndrome(std::size_t c, std::size_t g,
                                  Role data_role, bool detect_x, Rng &rng,
                                  ExperimentStats *stats);

    /** Full level-1 EC cycle (X then Z) on (c, g, data_role). */
    void ecCycleL1(std::size_t c, std::size_t g, Role data_role, Rng &rng,
                   ExperimentStats *stats);

    //
    // Level-2 building blocks.
    //

    /** Verified |0>_L2 / |+>_L2 preparation in conglomeration @p c. */
    void prepL2Ancilla(std::size_t c, bool plus, Rng &rng,
                       ExperimentStats *stats);

    /** One level-2 syndrome extraction; returns the outer syndrome. */
    std::uint32_t extractSyndromeL2(bool detect_x, Rng &rng,
                                    ExperimentStats *stats);

    /** Full level-2 EC cycle (X then Z) on the data conglomeration. */
    void ecCycleL2(Rng &rng, ExperimentStats *stats);

    //
    // Ideal decoding of the residual frame.
    //

    /** Residual error mask of one row (x or z bits). */
    ecc::QubitMask rowMask(std::size_t c, std::size_t g, Role role,
                           bool x_bits) const;

    bool decodeLevel1(std::size_t c, std::size_t g, Role role) const;
    bool decodeLevel2() const;

    const ecc::CssCode &code_;
    NoiseParameters noise_;
    LayoutDistances layout_;
    int max_prep_attempts_;
    std::size_t n_; // block length (7)
    quantum::PauliFrame frame_;
    /**
     * The circuit-level gates of the experiment dispatch through the
     * unified backend interface (bound to frame_ today) so the same tile
     * schedule can be replayed on the exact stabilizer engine for
     * cross-validation; noise injection and flip-readout stay on the
     * concrete frame.
     */
    quantum::SimulationBackend &engine_;
};

/**
 * Execution-shape options for the batched engine. By the determinism
 * contract (see ROADMAP "Rng-splitting determinism"), every setting
 * produces bit-identical results -- shot i's outcome is a pure function
 * of (seed, i) -- so these only trade memory and throughput.
 */
struct BatchOptions
{
    /**
     * 64-shot words simulated in lockstep per experiment (1 ..
     * kMaxGroupWords). Lane compaction regroups sparse retry masks
     * across the words of one group, so wider groups recover more of
     * the word-wide retry amplification far above threshold.
     */
    std::size_t groupWords = 32;
    /**
     * Regroup sparse level-2 retry subtrees -- "Start Over" rounds and
     * repeated level-2 extractions -- into a dense twin experiment
     * whenever that replays fewer words (arq/lane_compaction.h).
     * Verified-prep retries always replay in place. Results are
     * bit-identical either way.
     */
    bool laneCompaction = true;
};

/** Options for the parallel Monte-Carlo entry points. */
struct McRunOptions
{
    /** Worker threads: 0 = QLA_THREADS env, else hardware threads. */
    int threads = 0;
    /**
     * Shots per scheduler job (rounded to whole shot groups). Results
     * are independent of thread count and dispatch order for any fixed
     * chunk size; failure counts are bit-identical for every setting.
     */
    std::size_t chunkShots = 2048;
    BatchOptions batch;
};

/** One point of the Figure-7 sweep. */
struct ThresholdPoint
{
    double physicalError = 0.0;
    double level1Failure = 0.0;
    double level1Error = 0.0; // 95% half-width
    double level2Failure = 0.0;
    double level2Error = 0.0;
};

/** One (point, level) Monte-Carlo task of a threshold sweep. */
struct ThresholdTask
{
    std::size_t point = 0;    ///< Index into the swept physical errors.
    int level = 1;            ///< Recursion level (1 or 2).
    double physicalError = 0; ///< Swept component failure rate.
    std::uint64_t seed = 0;   ///< Task seed (see planThresholdSweep).
};

/** One scheduler job: the shot range [firstShot, firstShot +
 *  shotCount) of task @p task. */
struct SweepChunk
{
    std::size_t index = 0; ///< Position in the plan's chunk order.
    std::size_t task = 0;  ///< Index of the chunk's task.
    std::uint64_t firstShot = 0;
    std::size_t shotCount = 0;
};

/** A threshold sweep's tasks and their chunks, in chunk order. */
struct ThresholdPlan
{
    std::vector<ThresholdTask> tasks;
    std::vector<SweepChunk> chunks;
};

/**
 * Chunks tiling [0, @p shots) of each of @p tasks tasks, task-major.
 * The chunk size is @p chunk_shots aligned to whole shot groups
 * (@p group_words x 64 lanes), so every chunk's word grouping matches
 * a single uninterrupted run: below one group's capacity it rounds up
 * to that capacity, above it rounds down to whole groups. The last
 * chunk of a task may be short.
 */
std::vector<SweepChunk> planShotChunks(std::size_t tasks,
                                       std::size_t shots,
                                       std::size_t chunk_shots,
                                       std::size_t group_words);

/**
 * The Figure-7 sweep plan: tasks (point i, level 1) then (point i,
 * level 2) for each point in order, each seeded by the next draw of
 * one Rng(@p seed), chunked by planShotChunks. thresholdSweep and the
 * sweep service both run this plan, so a served job reproduces the
 * in-process sweep bit for bit.
 */
ThresholdPlan planThresholdSweep(const std::vector<double> &physical_errors,
                                 std::size_t shots, std::uint64_t seed,
                                 std::size_t chunk_shots,
                                 std::size_t group_words);

/**
 * Fold per-chunk failure rates (@p chunk_rates[j] for chunk j of
 * @p plan) into the sweep's points: chunks merge into their tasks in
 * ascending chunk order, so the result is bit-identical however the
 * chunks were scheduled.
 */
std::vector<ThresholdPoint> foldThresholdSweep(
    const ThresholdPlan &plan,
    const std::vector<sim::RateStat> &chunk_rates);

/** What the sweep dispatch order needs to know of one chunk. */
struct SweepChunkKey
{
    std::size_t point = 0;     ///< Index of the chunk's sweep point.
    double physicalError = 0;  ///< That point's component failure rate.
    int level = 1;             ///< Recursion level (1 or 2).
};

/**
 * The order in which threshold-sweep chunks start on the
 * sim::ShotScheduler, which starts jobs strictly in index order:
 * points by descending physical error, each point's level-2 chunks
 * before its level-1 chunks, then the chunks' order in @p chunks.
 * Above threshold a chunk's cost grows steeply with p and level (prep
 * retries), so the most expensive chunks start first and the cheap
 * ones fill the end of the run instead of one worker finishing a long
 * chunk alone; a point's chunks stay together, so each worker builds
 * few experiments. Returns a permutation of [0, chunks.size()): job j
 * runs chunk result[j]. Only the start order changes -- partials keep
 * their per-chunk slots and reduce in fixed chunk order.
 */
std::vector<std::size_t> sweepDispatchOrder(
    const std::vector<SweepChunkKey> &chunks);

/**
 * Sweep the component failure rate (movement fixed at the expected
 * rate) and estimate L1/L2 logical failure rates.
 *
 * Runs on the batched 64-shot-per-word engine
 * (arq/batched_monte_carlo.h); statistically equivalent to -- and ~20x+
 * faster than -- the scalar path below, which is kept as the reference
 * for differential tests and the bench_mc_throughput comparison.
 */
std::vector<ThresholdPoint> thresholdSweep(
    const std::vector<double> &physical_errors, std::size_t shots,
    std::uint64_t seed, const McRunOptions &options);

/** thresholdSweep with default options (threads from QLA_THREADS /
 *  hardware, lane compaction on). */
std::vector<ThresholdPoint> thresholdSweep(
    const std::vector<double> &physical_errors, std::size_t shots,
    std::uint64_t seed);

/**
 * Parallel batched Monte-Carlo estimate of the level-@p level logical
 * gate failure rate for one noise point: the shot range is chunked over
 * the ShotScheduler and per-chunk sim::Stats partials are
 * reduced in fixed chunk order, so the result is bit-identical for
 * every thread count, chunk schedule and batch grouping.
 */
sim::RateStat runLogicalExperiment(const ecc::CssCode &code,
                                   const NoiseParameters &noise, int level,
                                   std::size_t shots, std::uint64_t seed,
                                   const McRunOptions &options = {},
                                   ExperimentStats *stats = nullptr);

/** The same sweep on the scalar one-shot-at-a-time PauliFrame engine. */
std::vector<ThresholdPoint> thresholdSweepScalar(
    const std::vector<double> &physical_errors, std::size_t shots,
    std::uint64_t seed);

/**
 * Crossing point of the L1 and L2 curves (linear interpolation in the
 * swept range); 0 when the curves do not cross.
 */
double estimateThreshold(const std::vector<ThresholdPoint> &points);

} // namespace qla::arq

#endif // QLA_ARQ_MONTE_CARLO_H
