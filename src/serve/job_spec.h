/**
 * @file
 * Sweep-service job specifications and config hashing.
 *
 * A SweepJobSpec is the complete, serializable description of one
 * parameter-study request: either a Figure-7 threshold sweep (points x
 * levels x shots on the batched Monte-Carlo engine) or a co-simulation
 * sweep (workloads x interconnect/hierarchy axes x seeds on the
 * window-loop co-simulator). The spec round-trips through a canonical
 * key-per-line text form -- the request format the sweep_service CLI
 * and daemon accept -- and hashes to a 64-bit config hash (FNV-1a over
 * the canonical text).
 *
 * The config hash is the service's identity notion: checkpoints embed
 * it so a resume against a different spec is rejected, result caches
 * key on it so repeated queries replay instead of re-record, and shard
 * merges verify every shard served the same job. Everything that can
 * change a result byte is part of the canonical text; execution knobs
 * that the determinism contract proves result-neutral (worker count,
 * checkpoint cadence) are deliberately not.
 */

#ifndef QLA_SERVE_JOB_SPEC_H
#define QLA_SERVE_JOB_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

namespace qla::serve {

/** FNV-1a 64-bit hash (the checkpoint/cache key primitive). */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);
inline std::uint64_t
fnv1a64(const std::string &text)
{
    return fnv1a64(text.data(), text.size());
}

/** Which engine a job drives. */
enum class SweepKind : std::uint8_t { Threshold, CoSim };

/** One lowered-program workload of a co-simulation job. */
struct WorkloadSpec
{
    enum class App : std::uint8_t { Toffoli, Qcla, BandedQft };
    App app = App::Qcla;
    /** Qubits (toffoli, qft) or adder operand width (qcla). */
    std::size_t size = 16;
    /** Toffoli brickwork depth; qft band width (0 = qftBandWidth). */
    std::size_t depth = 0;

    /** Cache key / canonical token, e.g. "qcla 16" or "toffoli 15 12". */
    std::string token() const;
};

/** Threshold-sweep parameters (arq::thresholdSweep task shape). */
struct ThresholdJobParams
{
    std::vector<double> physicalErrors;
    std::size_t shots = 4000;
    std::uint64_t seed = 20050938;
    /**
     * Shots per task chunk -- the unit of sharding, checkpointing and
     * resume. Rounded to whole shot groups (groupWords x 64 lanes) like
     * McRunOptions::chunkShots, so every chunk replays full-capacity
     * groups. Part of the config hash: the chunk layout defines the
     * checkpoint format, and the fixed chunk-order ScalarStat reduction
     * makes the prep-attempt aggregates a function of the chunking.
     */
    std::size_t chunkShots = 2048;
    /**
     * Batched-engine group width in words (BatchOptions::groupWords).
     * Results per shot are bit-identical for every value by the engine
     * determinism contract, but it bounds the chunk alignment above, so
     * it is hashed with the chunking.
     */
    std::size_t groupWords = 32;
};

/** Co-simulation sweep parameters (network::runCoSimSweep axes). */
struct CoSimJobParams
{
    std::vector<WorkloadSpec> workloads;
    std::vector<int> bandwidths = {1, 2, 4};
    std::vector<double> faultRates = {0.0};
    std::vector<int> purificationLevels = {0};
    std::vector<double> linkFidelities = {1.0};
    std::vector<double> computeFractions = {1.0};
    std::vector<int> memoryCodeLevels = {1};
    std::vector<std::uint64_t> seeds = {1};
    /** Random placement (the determinism-gate configuration) vs the
     *  default affinity placement. */
    bool randomPlacement = false;
    /** Purification-circuit op error (FidelityConfig::opError). */
    double opError = 0.0;
    /** Delivered-fidelity acceptance threshold (0 = accept all). */
    double deliveryThreshold = 0.0;
    /** Below-threshold retries per demand. */
    int retryBudget = 3;

    bool noisy() const
    {
        for (double rate : faultRates)
            if (rate > 0.0)
                return true;
        for (int level : purificationLevels)
            if (level > 0)
                return true;
        for (double fidelity : linkFidelities)
            if (fidelity < 1.0)
                return true;
        return false;
    }
    bool hierarchical() const
    {
        for (double fraction : computeFractions)
            if (fraction < 1.0)
                return true;
        return false;
    }
};

/** One sweep job: exactly one of the parameter sets is active. */
struct SweepJobSpec
{
    SweepKind kind = SweepKind::Threshold;
    ThresholdJobParams threshold;
    CoSimJobParams cosim;

    /**
     * Canonical key-per-line text form; doubles in %.17g so the text
     * round-trips values exactly. parse() of this text reproduces the
     * spec, and the config hash is defined over it.
     */
    std::string canonicalText() const;

    /** FNV-1a over canonicalText(): the job's identity. */
    std::uint64_t configHash() const;

    /**
     * Parse a spec from request text (the canonical form, or any
     * hand-written key-per-line variant: unknown keys and malformed
     * values are errors, missing keys keep their defaults). Values the
     * engines would abort on are malformed too: error rates, fault
     * rates, link fidelities and op error outside [0, 1] or NaN,
     * bandwidth 0, memory levels other than 1 and 2, and Toffoli
     * networks under 3 qubits.
     * @return false with @p error set on malformed input.
     */
    static bool parse(const std::string &text, SweepJobSpec &spec,
                      std::string &error);
};

} // namespace qla::serve

#endif // QLA_SERVE_JOB_SPEC_H
