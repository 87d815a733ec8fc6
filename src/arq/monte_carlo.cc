#include "arq/monte_carlo.h"

#include <bit>
#include <cstdio>
#include <string>

#include <algorithm>
#include <memory>
#include <numeric>

#include "arq/batched_monte_carlo.h"
#include "common/logging.h"
#include "ecc/steane.h"
#include "sim/shot_scheduler.h"

namespace qla::arq {

NoiseParameters
NoiseParameters::swept(double p)
{
    NoiseParameters noise;
    noise.gate1Error = p;
    noise.gate2Error = p;
    noise.measureError = p;
    noise.movementErrorPerCell = 1e-6; // held at the expected rate
    return noise;
}

LogicalQubitExperiment::LogicalQubitExperiment(const ecc::CssCode &code,
                                               NoiseParameters noise,
                                               LayoutDistances layout,
                                               int max_prep_attempts)
    : code_(code), noise_(noise), layout_(layout),
      max_prep_attempts_(max_prep_attempts), n_(code.blockLength()),
      frame_(3 * code.blockLength() * code.blockLength() * 3),
      engine_(frame_)
{
    qla_assert(max_prep_attempts_ >= 1);
}

std::size_t
LogicalQubitExperiment::ion(std::size_t c, std::size_t g, Role role,
                            std::size_t i) const
{
    qla_assert(c < 3 && g < n_ && i < n_);
    return ((c * n_ + g) * 3 + static_cast<std::size_t>(role)) * n_ + i;
}

void
LogicalQubitExperiment::noisy1(std::size_t q, Rng &rng)
{
    frame_.depolarize1(q, noise_.gate1Error, rng);
}

void
LogicalQubitExperiment::noisy2(std::size_t a, std::size_t b, Rng &rng)
{
    frame_.depolarize2(a, b, noise_.gate2Error, rng);
}

void
LogicalQubitExperiment::moveIon(std::size_t q, Cells cells, int turns,
                                Rng &rng)
{
    const double cell_equivalents = static_cast<double>(cells)
        + noise_.splitCellEquivalent // every move starts with a split
        + noise_.turnCellEquivalent * turns;
    frame_.depolarize1(q, noise_.movementErrorPerCell * cell_equivalents,
                       rng);
}

void
LogicalQubitExperiment::moveIonInterBlock(std::size_t q, Rng &rng)
{
    // Same arithmetic as TileRowRecorder::interBlockMoveProbability so
    // the scalar and batched engines charge the identical probability.
    const double cell_equivalents =
        static_cast<double>(layout_.interBlockCells)
        + noise_.splitCellEquivalent
        + noise_.turnCellEquivalent * layout_.interBlockTurns;
    frame_.depolarize1(q,
                       noise_.movementErrorPerCell * cell_equivalents
                           + noise_.eprResidualError,
                       rng);
}

bool
LogicalQubitExperiment::measureZ(std::size_t q, Rng &rng)
{
    return frame_.measureZFlip(q, noise_.measureError, rng);
}

bool
LogicalQubitExperiment::measureX(std::size_t q, Rng &rng)
{
    return frame_.measureXFlip(q, noise_.measureError, rng);
}

void
LogicalQubitExperiment::encodeLogical(std::size_t c, std::size_t g,
                                      Role role, bool plus, Rng &rng)
{
    const auto &sched = code_.zeroEncoder();
    for (std::size_t i = 0; i < n_; ++i)
        frame_.resetQubit(ion(c, g, role, i));
    for (std::size_t pivot : sched.pivots) {
        // H on the pivot (the frame transform is trivial on a fresh
        // qubit but the gate can still fault).
        engine_.h(ion(c, g, role, pivot));
        noisy1(ion(c, g, role, pivot), rng);
    }
    for (const auto &[control, target] : sched.cnots) {
        const std::size_t qc = ion(c, g, role, control);
        const std::size_t qt = ion(c, g, role, target);
        moveIon(qt, layout_.intraBlockCells, layout_.intraBlockTurns, rng);
        engine_.cnot(qc, qt);
        noisy2(qc, qt, rng);
        moveIon(qt, layout_.intraBlockCells, layout_.intraBlockTurns, rng);
    }
    if (plus) {
        // Transversal H turns |0>_L into |+>_L (the code is self-dual).
        for (std::size_t i = 0; i < n_; ++i) {
            engine_.h(ion(c, g, role, i));
            noisy1(ion(c, g, role, i), rng);
        }
    }
}

bool
LogicalQubitExperiment::verifyLogical(std::size_t c, std::size_t g,
                                      Role role, bool plus, Rng &rng)
{
    // Copy the dangerous error type onto an *encoded* verification
    // block and check the difference-codeword syndrome and logical
    // parity. For |0>_L the dangerous errors are X (copied by
    // ancilla->verify CNOTs, Z-basis readout); for |+>_L they are Z
    // (verify->ancilla CNOTs, X-basis readout).
    encodeLogical(c, g, Role::Verify, plus, rng);
    ecc::QubitMask flips = 0;
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t qa = ion(c, g, role, i);
        const std::size_t qv = ion(c, g, Role::Verify, i);
        moveIon(qv, layout_.intraBlockCells, layout_.intraBlockTurns,
                rng);
        if (plus)
            engine_.cnot(qv, qa);
        else
            engine_.cnot(qa, qv);
        noisy2(qa, qv, rng);
        moveIon(qv, layout_.intraBlockCells, layout_.intraBlockTurns,
                rng);
        const bool flip = plus ? measureX(qv, rng) : measureZ(qv, rng);
        if (flip)
            flips |= ecc::QubitMask{1} << i;
    }
    const auto &checks = plus ? code_.xChecks() : code_.zChecks();
    const bool bad_syndrome = ecc::syndromeOf(checks, flips) != 0;
    const bool bad_parity = ecc::maskParity(
        flips & (plus ? code_.logicalX() : code_.logicalZ()));
    return bad_syndrome || bad_parity;
}

void
LogicalQubitExperiment::prepVerified(std::size_t c, std::size_t g,
                                     Role role, bool plus, Rng &rng,
                                     ExperimentStats *stats)
{
    int attempts = 0;
    do {
        ++attempts;
        encodeLogical(c, g, role, plus, rng);
    } while (verifyLogical(c, g, role, plus, rng)
             && attempts < max_prep_attempts_);
    if (stats)
        stats->prepAttempts.add(attempts);
}

std::uint32_t
LogicalQubitExperiment::extractSyndrome(std::size_t c, std::size_t g,
                                        Role data_role, bool detect_x,
                                        Rng &rng, ExperimentStats *stats)
{
    // Steane-style extraction: encoded ancilla, transversal CNOT, block
    // readout. X errors are read through a |+>_L ancilla (CNOT
    // data->ancilla, Z-basis readout: the ancilla is invariant under the
    // codeword copy, so no logical information leaks); Z errors through
    // a |0>_L ancilla (CNOT ancilla->data, X-basis readout).
    prepVerified(c, g, Role::Ancilla, detect_x, rng, stats);

    ecc::QubitMask flips = 0;
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t qd = ion(c, g, data_role, i);
        const std::size_t qa = ion(c, g, Role::Ancilla, i);
        // The ancilla ion shuttles to the data block and back: the
        // inter-block distance r = 12 cells with up to two turns.
        moveIonInterBlock(qa, rng);
        if (detect_x)
            engine_.cnot(qd, qa);
        else
            engine_.cnot(qa, qd);
        noisy2(qd, qa, rng);
        moveIonInterBlock(qa, rng);
        const bool flip = detect_x ? measureZ(qa, rng)
                                   : measureX(qa, rng);
        if (flip)
            flips |= ecc::QubitMask{1} << i;
    }
    const auto &checks = detect_x ? code_.zChecks() : code_.xChecks();
    const std::uint32_t syndrome = ecc::syndromeOf(checks, flips);
    if (stats)
        stats->nontrivialSyndrome.add(syndrome != 0);
    return syndrome;
}

void
LogicalQubitExperiment::ecCycleL1(std::size_t c, std::size_t g,
                                  Role data_role, Rng &rng,
                                  ExperimentStats *stats)
{
    for (const bool detect_x : {true, false}) {
        std::uint32_t syndrome = extractSyndrome(c, g, data_role,
                                                 detect_x, rng, stats);
        if (syndrome != 0) {
            // Non-trivial: extract once more and act on the repeat
            // (paper Section 4.1.1 assumption (b)).
            syndrome = extractSyndrome(c, g, data_role, detect_x, rng,
                                       stats);
        }
        if (syndrome != 0) {
            const ecc::QubitMask corr = detect_x
                ? code_.xCorrection(syndrome)
                : code_.zCorrection(syndrome);
            for (std::size_t i = 0; i < n_; ++i) {
                if (!(corr & (ecc::QubitMask{1} << i)))
                    continue;
                const std::size_t q = ion(c, g, data_role, i);
                // Fold the Pauli correction into the frame; the physical
                // gate can itself fault.
                if (detect_x)
                    frame_.injectX(q);
                else
                    frame_.injectZ(q);
                noisy1(q, rng);
            }
        }
    }
}

void
LogicalQubitExperiment::prepL2Ancilla(std::size_t c, bool plus, Rng &rng,
                                      ExperimentStats *stats)
{
    const auto &sched = code_.zeroEncoder();
    for (int attempt = 0; attempt < max_prep_attempts_; ++attempt) {
        // Level-1 verified preparation of each sub-block.
        for (std::size_t g = 0; g < n_; ++g)
            prepVerified(c, g, Role::Data, false, rng, stats);

        // Level-2 encoding network: logical H on pivot blocks, logical
        // (transversal) CNOTs between blocks.
        for (std::size_t pivot : sched.pivots) {
            for (std::size_t i = 0; i < n_; ++i) {
                engine_.h(ion(c, pivot, Role::Data, i));
                noisy1(ion(c, pivot, Role::Data, i), rng);
            }
        }
        for (const auto &[control, target] : sched.cnots) {
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t qc = ion(c, control, Role::Data, i);
                const std::size_t qt = ion(c, target, Role::Data, i);
                moveIonInterBlock(qt, rng);
                engine_.cnot(qc, qt);
                noisy2(qc, qt, rng);
                moveIonInterBlock(qt, rng);
            }
        }
        if (plus) {
            // Transversal H at level 2: |0>_L2 -> |+>_L2.
            for (std::size_t g = 0; g < n_; ++g) {
                for (std::size_t i = 0; i < n_; ++i) {
                    engine_.h(ion(c, g, Role::Data, i));
                    noisy1(ion(c, g, Role::Data, i), rng);
                }
            }
        }

        // Level-1 EC on each sub-block (the per-sub-block syndrome
        // extraction stages in the lower half of Figure 6).
        for (std::size_t g = 0; g < n_; ++g)
            ecCycleL1(c, g, Role::Data, rng, stats);

        // Level-2 verification: copy the dangerous error type onto the
        // verification rows, two-level decode, and check the outer
        // syndrome and logical parity. "Start Over" on failure.
        ecc::QubitMask outer_flips = 0;
        for (std::size_t g = 0; g < n_; ++g) {
            // Encoded verification block per sub-block (see
            // verifyLogical).
            encodeLogical(c, g, Role::Verify, plus, rng);
            ecc::QubitMask flips = 0;
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t qd = ion(c, g, Role::Data, i);
                const std::size_t qv = ion(c, g, Role::Verify, i);
                moveIon(qv, layout_.intraBlockCells,
                        layout_.intraBlockTurns, rng);
                if (plus)
                    engine_.cnot(qv, qd);
                else
                    engine_.cnot(qd, qv);
                noisy2(qd, qv, rng);
                moveIon(qv, layout_.intraBlockCells,
                        layout_.intraBlockTurns, rng);
                const bool flip = plus ? measureX(qv, rng)
                                       : measureZ(qv, rng);
                if (flip)
                    flips |= ecc::QubitMask{1} << i;
            }
            const auto &checks = plus ? code_.xChecks()
                                      : code_.zChecks();
            const ecc::QubitMask corrected = flips
                ^ (plus ? code_.zCorrection(ecc::syndromeOf(checks,
                                                            flips))
                        : code_.xCorrection(ecc::syndromeOf(checks,
                                                            flips)));
            const bool logical_bit = ecc::maskParity(
                corrected
                & (plus ? code_.logicalX() : code_.logicalZ()));
            if (logical_bit)
                outer_flips |= ecc::QubitMask{1} << g;
        }
        const auto &outer_checks = plus ? code_.xChecks()
                                        : code_.zChecks();
        const bool bad = ecc::syndromeOf(outer_checks, outer_flips) != 0
            || ecc::maskParity(outer_flips
                               & (plus ? code_.logicalX()
                                       : code_.logicalZ()));
        if (!bad)
            return;
    }
}

std::uint32_t
LogicalQubitExperiment::extractSyndromeL2(bool detect_x, Rng &rng,
                                          ExperimentStats *stats)
{
    // X-syndrome uses the |+>_L2 ancilla in conglomeration 1; Z uses the
    // |0>_L2 ancilla in conglomeration 2 (Figure 5's two sides).
    const std::size_t ac = detect_x ? 1 : 2;
    prepL2Ancilla(ac, detect_x, rng, stats);

    // Transversal logical CNOT between the data and ancilla
    // conglomerations.
    for (std::size_t g = 0; g < n_; ++g) {
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t qd = ion(0, g, Role::Data, i);
            const std::size_t qa = ion(ac, g, Role::Data, i);
            moveIonInterBlock(qa, rng);
            if (detect_x)
                engine_.cnot(qd, qa);
            else
                engine_.cnot(qa, qd);
            noisy2(qd, qa, rng);
            moveIonInterBlock(qa, rng);
        }
    }

    // Level-1 EC on the data and ancilla sub-blocks after the logical
    // gate (the "ecc" boxes of Figure 6).
    for (std::size_t g = 0; g < n_; ++g) {
        ecCycleL1(0, g, Role::Data, rng, stats);
        ecCycleL1(ac, g, Role::Data, rng, stats);
    }

    // Read out the whole ancilla conglomeration and decode two levels.
    ecc::QubitMask outer_flips = 0;
    for (std::size_t g = 0; g < n_; ++g) {
        ecc::QubitMask flips = 0;
        for (std::size_t i = 0; i < n_; ++i) {
            const bool flip = detect_x
                ? measureZ(ion(ac, g, Role::Data, i), rng)
                : measureX(ion(ac, g, Role::Data, i), rng);
            if (flip)
                flips |= ecc::QubitMask{1} << i;
        }
        const auto &checks = detect_x ? code_.zChecks()
                                      : code_.xChecks();
        const std::uint32_t s = ecc::syndromeOf(checks, flips);
        const ecc::QubitMask corrected = flips
            ^ (detect_x ? code_.xCorrection(s) : code_.zCorrection(s));
        const bool logical_bit = ecc::maskParity(
            corrected
            & (detect_x ? code_.logicalZ() : code_.logicalX()));
        if (logical_bit)
            outer_flips |= ecc::QubitMask{1} << g;
    }
    const auto &outer_checks = detect_x ? code_.zChecks()
                                        : code_.xChecks();
    const std::uint32_t outer = ecc::syndromeOf(outer_checks,
                                                outer_flips);
    if (stats)
        stats->nontrivialSyndrome.add(outer != 0);
    return outer;
}

void
LogicalQubitExperiment::ecCycleL2(Rng &rng, ExperimentStats *stats)
{
    for (const bool detect_x : {true, false}) {
        std::uint32_t outer = extractSyndromeL2(detect_x, rng, stats);
        if (outer != 0)
            outer = extractSyndromeL2(detect_x, rng, stats);
        if (outer != 0) {
            const ecc::QubitMask corr = detect_x
                ? code_.xCorrection(outer)
                : code_.zCorrection(outer);
            for (std::size_t g = 0; g < n_; ++g) {
                if (!(corr & (ecc::QubitMask{1} << g)))
                    continue;
                // Logical Pauli on sub-block g: transversal physical
                // Paulis folded into the frame.
                for (std::size_t i = 0; i < n_; ++i) {
                    const std::size_t q = ion(0, g, Role::Data, i);
                    if (detect_x)
                        frame_.injectX(q);
                    else
                        frame_.injectZ(q);
                    noisy1(q, rng);
                }
            }
        }
    }
}

ecc::QubitMask
LogicalQubitExperiment::rowMask(std::size_t c, std::size_t g, Role role,
                                bool x_bits) const
{
    ecc::QubitMask mask = 0;
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t q = ion(c, g, role, i);
        const bool bit = x_bits ? frame_.xBit(q) : frame_.zBit(q);
        if (bit)
            mask |= ecc::QubitMask{1} << i;
    }
    return mask;
}

bool
LogicalQubitExperiment::decodeLevel1(std::size_t c, std::size_t g,
                                     Role role) const
{
    // The experiment's ideal state is |0>_L: residual logical-Z frames
    // are stabilizers of it (gauge), so only logical-X residuals are
    // failures. By the self-duality of the code and circuits, the
    // logical-Z failure rate of the dual |+>_L experiment is
    // statistically identical.
    return code_.decodeXErrorIsLogical(rowMask(c, g, role, true));
}

bool
LogicalQubitExperiment::decodeLevel2() const
{
    // Only the logical-X direction counts for the |0>_L2 input; see
    // decodeLevel1.
    ecc::QubitMask outer_x = 0;
    for (std::size_t g = 0; g < n_; ++g) {
        // Ideal per-block decode: a residual logical X of a sub-block
        // becomes one outer-level error bit.
        const ecc::QubitMask xm = rowMask(0, g, Role::Data, true);
        if (code_.decodeXErrorIsLogical(xm))
            outer_x |= ecc::QubitMask{1} << g;
    }
    return code_.decodeXErrorIsLogical(outer_x);
}

bool
LogicalQubitExperiment::runShot(int level, Rng &rng,
                                ExperimentStats *stats)
{
    qla_assert(level == 1 || level == 2, "levels 1 and 2 are supported");
    frame_.clear(); // perfectly encoded |0>_L input

    if (level == 1) {
        // Transversal logical one-qubit gate on the level-1 block.
        for (std::size_t i = 0; i < n_; ++i)
            noisy1(ion(0, 0, Role::Data, i), rng);
        ecCycleL1(0, 0, Role::Data, rng, stats);
        return decodeLevel1(0, 0, Role::Data);
    }

    // Level 2: transversal gate over all 49 data ions, then a full
    // level-2 EC cycle.
    for (std::size_t g = 0; g < n_; ++g)
        for (std::size_t i = 0; i < n_; ++i)
            noisy1(ion(0, g, Role::Data, i), rng);
    ecCycleL2(rng, stats);
    return decodeLevel2();
}

std::string
LogicalQubitExperiment::describeResidual() const
{
    std::string out;
    for (std::size_t g = 0; g < n_; ++g) {
        const ecc::QubitMask xm = rowMask(0, g, Role::Data, true);
        const ecc::QubitMask zm = rowMask(0, g, Role::Data, false);
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "block %zu: x=%02x (logical %d) z=%02x (logical "
                      "%d)\n",
                      g, xm, code_.decodeXErrorIsLogical(xm) ? 1 : 0, zm,
                      code_.decodeZErrorIsLogical(zm) ? 1 : 0);
        out += buf;
    }
    return out;
}

sim::RateStat
LogicalQubitExperiment::failureRate(int level, std::size_t shots,
                                    Rng &rng, ExperimentStats *stats)
{
    sim::RateStat rate;
    for (std::size_t s = 0; s < shots; ++s) {
        Rng shot_rng = rng.split();
        const bool failed = runShot(level, shot_rng, stats);
        rate.add(failed);
        if (stats)
            stats->logicalFailure.add(failed);
    }
    return rate;
}

namespace {

/** Per-chunk partial result, reduced in fixed chunk order. */
struct ChunkResult
{
    sim::RateStat rate;
    ExperimentStats stats;
};

/**
 * A worker's experiment and the sweep point it was built for. An
 * experiment holds several MB of frames and noise clocks, so a worker
 * keeps only the one it is using.
 */
struct WorkerExperiment
{
    std::size_t point = 0;
    std::unique_ptr<BatchedLogicalQubitExperiment> experiment;
};

} // namespace

std::vector<SweepChunk>
planShotChunks(std::size_t tasks, std::size_t shots,
               std::size_t chunk_shots, std::size_t group_words)
{
    qla_assert(group_words >= 1 && group_words <= kMaxGroupWords,
               "groupWords must be in [1, ", kMaxGroupWords, "]");
    const std::size_t capacity = group_words * kBatchLanes;
    const std::size_t aligned = chunk_shots <= capacity
        ? capacity
        : chunk_shots - chunk_shots % capacity;
    std::vector<SweepChunk> chunks;
    for (std::size_t task = 0; task < tasks; ++task)
        for (std::size_t first = 0; first < shots; first += aligned)
            chunks.push_back({chunks.size(), task, first,
                              std::min(aligned, shots - first)});
    return chunks;
}

ThresholdPlan
planThresholdSweep(const std::vector<double> &physical_errors,
                   std::size_t shots, std::uint64_t seed,
                   std::size_t chunk_shots, std::size_t group_words)
{
    ThresholdPlan plan;
    Rng seeder(seed);
    for (std::size_t i = 0; i < physical_errors.size(); ++i) {
        const double p = physical_errors[i];
        plan.tasks.push_back({i, 1, p, seeder.next64()});
        plan.tasks.push_back({i, 2, p, seeder.next64()});
    }
    plan.chunks = planShotChunks(plan.tasks.size(), shots, chunk_shots,
                                 group_words);
    return plan;
}

std::vector<ThresholdPoint>
foldThresholdSweep(const ThresholdPlan &plan,
                   const std::vector<sim::RateStat> &chunk_rates)
{
    qla_assert(chunk_rates.size() == plan.chunks.size(),
               "one rate per chunk");
    std::vector<sim::RateStat> task_rates(plan.tasks.size());
    for (const SweepChunk &chunk : plan.chunks)
        task_rates[chunk.task].merge(chunk_rates[chunk.index]);

    std::vector<ThresholdPoint> points(
        plan.tasks.empty() ? 0 : plan.tasks.back().point + 1);
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const ThresholdTask &task = plan.tasks[t];
        ThresholdPoint &point = points[task.point];
        point.physicalError = task.physicalError;
        const sim::RateStat &rate = task_rates[t];
        if (task.level == 1) {
            point.level1Failure = rate.rate();
            point.level1Error = rate.halfWidth95();
        } else {
            point.level2Failure = rate.rate();
            point.level2Error = rate.halfWidth95();
        }
    }
    return points;
}

std::vector<std::size_t>
sweepDispatchOrder(const std::vector<SweepChunkKey> &chunks)
{
    std::vector<std::size_t> order(chunks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const SweepChunkKey &x = chunks[a];
                         const SweepChunkKey &y = chunks[b];
                         if (x.physicalError != y.physicalError)
                             return x.physicalError > y.physicalError;
                         if (x.point != y.point)
                             return x.point < y.point;
                         return x.level > y.level;
                     });
    return order;
}

sim::RateStat
runLogicalExperiment(const ecc::CssCode &code, const NoiseParameters &noise,
                     int level, std::size_t shots, std::uint64_t seed,
                     const McRunOptions &options, ExperimentStats *stats)
{
    const std::vector<SweepChunk> chunks = planShotChunks(
        1, shots, options.chunkShots, options.batch.groupWords);
    std::vector<ChunkResult> results(chunks.size());

    sim::ShotScheduler scheduler(options.threads);
    std::vector<std::unique_ptr<BatchedLogicalQubitExperiment>> cache(
        scheduler.threadCount());
    scheduler.run(chunks.size(), [&](std::size_t job, int worker) {
        auto &experiment = cache[worker];
        if (!experiment)
            experiment = std::make_unique<BatchedLogicalQubitExperiment>(
                code, noise, LayoutDistances{}, 16, options.batch);
        const SweepChunk &chunk = chunks[job];
        results[job].rate = experiment->failureRateRange(
            level, chunk.firstShot, chunk.shotCount, seed,
            stats ? &results[job].stats : nullptr);
    });

    // Fixed-order reduction: bit-identical results for every thread
    // count and schedule.
    sim::RateStat rate;
    for (const ChunkResult &result : results) {
        rate.merge(result.rate);
        if (stats)
            stats->merge(result.stats);
    }
    return rate;
}

std::vector<ThresholdPoint>
thresholdSweep(const std::vector<double> &physical_errors,
               std::size_t shots, std::uint64_t seed,
               const McRunOptions &options)
{
    const ThresholdPlan plan
        = planThresholdSweep(physical_errors, shots, seed,
                             options.chunkShots, options.batch.groupWords);
    std::vector<sim::RateStat> rates(plan.chunks.size());
    std::vector<SweepChunkKey> keys;
    keys.reserve(plan.chunks.size());
    for (const SweepChunk &chunk : plan.chunks) {
        const ThresholdTask &task = plan.tasks[chunk.task];
        keys.push_back({task.point, task.physicalError, task.level});
    }
    const std::vector<std::size_t> order = sweepDispatchOrder(keys);

    sim::ShotScheduler scheduler(options.threads);
    // Construction binds the point's noise classes to the shared tile
    // recording (recorded once per process) and allocates the frames
    // and samplers, so a worker reuses its experiment across levels
    // and chunks of the same point. The dispatch order keeps a point's
    // chunks together and each worker claims jobs in ascending order,
    // so a worker never returns to a point it has left: one experiment
    // per worker suffices.
    std::vector<WorkerExperiment> cache(scheduler.threadCount());
    scheduler.run(order.size(), [&](std::size_t job, int worker) {
        const SweepChunk &chunk = plan.chunks[order[job]];
        const ThresholdTask &task = plan.tasks[chunk.task];
        WorkerExperiment &slot = cache[worker];
        if (!slot.experiment || slot.point != task.point) {
            slot.experiment.reset(); // free it before building the next
            slot.point = task.point;
            slot.experiment = std::make_unique<BatchedLogicalQubitExperiment>(
                ecc::steaneCode(),
                NoiseParameters::swept(task.physicalError),
                LayoutDistances{}, 16, options.batch);
        }
        rates[chunk.index] = slot.experiment->failureRateRange(
            task.level, chunk.firstShot, chunk.shotCount, task.seed,
            nullptr);
    });
    return foldThresholdSweep(plan, rates);
}

std::vector<ThresholdPoint>
thresholdSweep(const std::vector<double> &physical_errors,
               std::size_t shots, std::uint64_t seed)
{
    return thresholdSweep(physical_errors, shots, seed, McRunOptions{});
}

std::vector<ThresholdPoint>
thresholdSweepScalar(const std::vector<double> &physical_errors,
                     std::size_t shots, std::uint64_t seed)
{
    std::vector<ThresholdPoint> points;
    Rng rng(seed);
    for (double p : physical_errors) {
        LogicalQubitExperiment experiment(ecc::steaneCode(),
                                          NoiseParameters::swept(p));
        ThresholdPoint point;
        point.physicalError = p;
        const auto l1 = experiment.failureRate(1, shots, rng);
        const auto l2 = experiment.failureRate(2, shots, rng);
        point.level1Failure = l1.rate();
        point.level1Error = l1.halfWidth95();
        point.level2Failure = l2.rate();
        point.level2Error = l2.halfWidth95();
        points.push_back(point);
    }
    return points;
}

double
estimateThreshold(const std::vector<ThresholdPoint> &points)
{
    for (std::size_t i = 1; i < points.size(); ++i) {
        const auto &a = points[i - 1];
        const auto &b = points[i];
        const double da = a.level2Failure - a.level1Failure;
        const double db = b.level2Failure - b.level1Failure;
        if (da <= 0.0 && db > 0.0) {
            // Linear interpolation of the sign change.
            const double t = da == db ? 0.0 : -da / (db - da);
            return a.physicalError
                + t * (b.physicalError - a.physicalError);
        }
    }
    return 0.0;
}

} // namespace qla::arq
