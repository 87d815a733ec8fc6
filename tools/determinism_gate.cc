/**
 * @file
 * CI determinism gate for the Figure-7 Monte Carlo.
 *
 * Emits machine-comparable, full-precision results so CI can byte-diff
 * runs against each other:
 *
 *   determinism_gate --mode sweep [--threads N] [--shots S]
 *       Crossing-window threshold sweep; identical output is required
 *       for every thread count (the determinism contract).
 *
 *   determinism_gate --mode spot --engine batched
 *       [--group G] [--compaction on|off] [--threads N] [--shots S]
 *       Single-point L1+L2 failure counts on the batched engine;
 *       identical output is required for every group width and for
 *       compaction on vs off.
 *
 *   determinism_gate --mode spot --engine scalar [--shots S]
 *       The scalar reference engine's counts (self-reproducibility).
 *
 *   determinism_gate --mode crosscheck [--shots S]
 *       Statistical scalar-vs-batched agreement at a spot point;
 *       exits non-zero when the estimates disagree beyond their
 *       combined 95% intervals (with slack).
 *
 *   determinism_gate --mode interconnect [--threads N]
 *       [--fault-rate F] [--purification L] [--link-fidelity E]
 *       [--retry-budget R] [--compute-fraction C] [--memory-level M]
 *       Logical-program co-simulation sweep (workloads x bandwidths x
 *       placement seeds on the shot scheduler); identical output is
 *       required for every thread count and for fixed-seed reruns.
 *       With any noisy axis set (nonzero fault rate, purification
 *       level > 0, or link fidelity < 1) the sweep additionally spans
 *       fault rate x purification level x link fidelity against the
 *       clean point and prints the full degradation ledger (drops,
 *       rejections, retries, abandonments, delivered fidelity) -- the
 *       PR-7 noisy-delivery pipeline under the same byte-diff contract.
 *       With --compute-fraction below 1 the sweep additionally spans
 *       the uniform mesh against the CQLA compute/memory split at that
 *       fraction (memory region encoded at --memory-level) and prints
 *       the cache ledger (touches, hits, misses, evictions, fetch and
 *       write-back pairs) -- the PR-8 memory hierarchy under the same
 *       byte-diff contract. With all knobs at their defaults the
 *       output is byte-identical to the clean PR-5 sweep.
 */

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/toffoli.h"
#include "arq/batched_monte_carlo.h"
#include "arq/monte_carlo.h"
#include "common/rng.h"
#include "ecc/steane.h"
#include "network/cosim.h"

using namespace qla;
using namespace qla::arq;

namespace {

constexpr double kSpotError = 6e-3;
constexpr std::uint64_t kSpotSeed = 424242;

int
runSweep(int threads, std::size_t shots)
{
    const std::vector<double> window = {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3,
                                        3.0e-3};
    McRunOptions options;
    options.threads = threads;
    const auto points = thresholdSweep(window, shots, 20050938, options);
    for (const auto &point : points)
        std::printf("p=%.17g L1=%.17g +- %.17g L2=%.17g +- %.17g\n",
                    point.physicalError, point.level1Failure,
                    point.level1Error, point.level2Failure,
                    point.level2Error);
    std::printf("threshold=%.17g\n", estimateThreshold(points));
    return 0;
}

int
runSpotBatched(std::size_t group, bool compaction, int threads,
               std::size_t shots)
{
    McRunOptions options;
    options.threads = threads;
    options.batch.groupWords = group;
    options.batch.laneCompaction = compaction;
    for (const int level : {1, 2}) {
        ExperimentStats stats;
        const auto rate = runLogicalExperiment(
            ecc::steaneCode(), NoiseParameters::swept(kSpotError), level,
            shots, kSpotSeed, options, &stats);
        std::printf("L%d failures=%llu/%llu syndromes=%llu/%llu "
                    "prep_exits=%llu\n",
                    level, (unsigned long long)rate.successes(),
                    (unsigned long long)rate.trials(),
                    (unsigned long long)stats.nontrivialSyndrome
                        .successes(),
                    (unsigned long long)stats.nontrivialSyndrome.trials(),
                    (unsigned long long)stats.prepAttempts.count());
    }
    return 0;
}

int
runSpotScalar(std::size_t shots)
{
    Rng rng(kSpotSeed);
    LogicalQubitExperiment experiment(
        ecc::steaneCode(), NoiseParameters::swept(kSpotError));
    for (const int level : {1, 2}) {
        const auto rate = experiment.failureRate(level, shots, rng);
        std::printf("L%d failures=%llu/%llu\n", level,
                    (unsigned long long)rate.successes(),
                    (unsigned long long)rate.trials());
    }
    return 0;
}

int
runCrosscheck(std::size_t shots)
{
    int failures = 0;
    for (const int level : {1, 2}) {
        const std::size_t level_shots = level == 1 ? shots : shots / 4;
        Rng rng(kSpotSeed);
        LogicalQubitExperiment scalar(
            ecc::steaneCode(), NoiseParameters::swept(kSpotError));
        const auto s = scalar.failureRate(level, level_shots, rng);
        const auto b = runLogicalExperiment(
            ecc::steaneCode(), NoiseParameters::swept(kSpotError), level,
            level_shots, kSpotSeed);
        const double margin = 1.5 * (s.halfWidth95() + b.halfWidth95())
            + 1e-4;
        const double delta = s.rate() > b.rate() ? s.rate() - b.rate()
                                                 : b.rate() - s.rate();
        const bool ok = delta <= margin;
        std::printf("L%d scalar=%.6f batched=%.6f |delta|=%.6f "
                    "margin=%.6f %s\n",
                    level, s.rate(), b.rate(), delta, margin,
                    ok ? "OK" : "FAIL");
        if (!ok)
            ++failures;
    }
    return failures ? 1 : 0;
}

int
runInterconnect(int threads, double fault_rate, int purification,
                double link_fidelity, int retry_budget,
                double compute_fraction, int memory_level)
{
    using namespace qla::network;
    const bool noisy = fault_rate > 0.0 || purification > 0
        || link_fidelity < 1.0;
    const bool hierarchy = compute_fraction < 1.0;

    std::vector<ProgramWorkload> workloads;
    workloads.emplace_back(qla::apps::toffoliNetworkCircuit(15, 12));
    workloads.emplace_back(qla::apps::qclaAdderCircuit(16));
    if (!noisy && !hierarchy)
        workloads.emplace_back(
            qla::apps::bandedQftCircuit(24, qla::apps::qftBandWidth(24)));

    CoSimSweepConfig sweep;
    sweep.bandwidths = {1, 2, 4};
    sweep.seeds = {1, 2};
    sweep.base.placement = PlacementStrategy::Random;
    sweep.threads = threads;
    if (hierarchy) {
        // Memory-hierarchy pipeline: the uniform mesh against the CQLA
        // split at the requested compute fraction, cache model live.
        sweep.bandwidths = {2, 4};
        sweep.seeds = {1};
        sweep.computeFractions = {1.0, compute_fraction};
        sweep.memoryCodeLevels = {memory_level};
    }
    if (noisy) {
        // Noisy pipeline: clean point vs each requested axis value,
        // with threshold gating and the retry/abandonment path live.
        sweep.bandwidths = {2, 4};
        sweep.seeds = {1};
        sweep.faultRates = fault_rate > 0.0
            ? std::vector<double>{0.0, fault_rate}
            : std::vector<double>{0.0};
        sweep.purificationLevels = purification > 0
            ? std::vector<int>{0, purification}
            : std::vector<int>{0};
        sweep.linkFidelities = link_fidelity < 1.0
            ? std::vector<double>{1.0, link_fidelity}
            : std::vector<double>{1.0};
        sweep.base.fidelity.opError = 1e-4;
        sweep.base.fidelity.deliveryThreshold = 0.88;
        sweep.base.fidelity.retryBudget = retry_budget;
    }
    const auto points = runCoSimSweep(workloads, sweep);
    for (const auto &point : points) {
        const auto &r = point.report;
        std::printf(
            "w=%zu bw=%d seed=%llu windows=%llu warmup=%llu "
            "stallW=%llu gatesStalled=%llu req=%llu mesh=%llu "
            "local=%llu deferred=%llu drift=%llu reroutes=%llu "
            "util=%.17g route=%.17g",
            point.workload, point.bandwidth,
            (unsigned long long)point.seed,
            (unsigned long long)r.windows,
            (unsigned long long)r.warmupWindows,
            (unsigned long long)r.stallWindows,
            (unsigned long long)r.gatesStalled,
            (unsigned long long)r.pairsRequested,
            (unsigned long long)r.pairsRoutedOnMesh,
            (unsigned long long)r.pairsLocal,
            (unsigned long long)r.deferredPairWindows,
            (unsigned long long)r.driftMoves,
            (unsigned long long)r.backoffReroutes, r.utilization,
            r.averageRouteLength);
        if (noisy)
            std::printf(
                " fr=%.17g lvl=%d ef=%.17g dropped=%llu lost=%llu "
                "rej=%llu aband=%llu demAband=%llu degraded=%llu "
                "retries=%llu backoffW=%llu penaltyW=%llu "
                "fidMean=%.17g fidMin=%.17g resid=%.17g",
                point.faultRate, point.purificationLevel,
                point.linkFidelity,
                (unsigned long long)r.pairsDropped,
                (unsigned long long)r.pairsLostInTransit,
                (unsigned long long)r.pairsRejectedFidelity,
                (unsigned long long)r.pairsAbandoned,
                (unsigned long long)r.demandsAbandoned,
                (unsigned long long)r.gatesDegraded,
                (unsigned long long)r.retryAttempts,
                (unsigned long long)r.retryBackoffWindows,
                (unsigned long long)r.fallbackPenaltyWindows,
                r.deliveredFidelityMean(), r.deliveredFidelityMin,
                r.residualEprError());
        if (hierarchy)
            std::printf(
                " cf=%.17g ml=%d touches=%llu hits=%llu miss=%llu "
                "inplace=%llu evict=%llu fetchReq=%llu wbReq=%llu "
                "convW=%llu cTiles=%llu mTiles=%llu",
                point.computeFraction, point.memoryLevel,
                (unsigned long long)r.operandTouches,
                (unsigned long long)r.memHits,
                (unsigned long long)r.memMisses,
                (unsigned long long)r.memInPlaceMisses,
                (unsigned long long)r.memEvictions,
                (unsigned long long)r.fetchPairsRequested,
                (unsigned long long)r.writebackPairsRequested,
                (unsigned long long)r.missConversionWindows,
                (unsigned long long)r.computeTiles,
                (unsigned long long)r.memoryTiles);
        std::printf("\n");
    }
    const auto stats = reduceCoSimSweep(points);
    std::printf("makespan_mean=%.17g util_mean=%.17g stall_mean=%.17g "
                "stalled_runs=%llu/%llu",
                stats.makespanWindows.mean(), stats.utilization.mean(),
                stats.stallWindows.mean(),
                (unsigned long long)stats.stalledRuns.successes(),
                (unsigned long long)stats.stalledRuns.trials());
    if (noisy)
        std::printf(" dropped_mean=%.17g abandoned_mean=%.17g "
                    "retries_mean=%.17g resid_mean=%.17g "
                    "degraded_runs=%llu/%llu",
                    stats.droppedPairs.mean(),
                    stats.abandonedPairs.mean(),
                    stats.retryAttempts.mean(),
                    stats.residualEprError.mean(),
                    (unsigned long long)stats.degradedRuns.successes(),
                    (unsigned long long)stats.degradedRuns.trials());
    if (hierarchy)
        std::printf(" miss_mean=%.17g missrate_mean=%.17g "
                    "evict_mean=%.17g",
                    stats.cacheMisses.mean(),
                    stats.cacheMissRate.mean(),
                    stats.cacheEvictions.mean());
    std::printf("\n");
    return 0;
}

/** Whole-value integer parse of @p flag's @p value into [lo, hi]; exits
 *  2 on anything else, so a mistyped CI step fails instead of running
 *  a vacuous sweep. */
long long
parseInteger(const std::string &flag, const char *value, long long lo,
             long long hi)
{
    errno = 0;
    char *end = nullptr;
    const long long parsed = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE || parsed < lo
        || parsed > hi) {
        std::fprintf(stderr, "%s takes an integer in [%lld, %lld], got %s\n",
                     flag.c_str(), lo, hi, value);
        std::exit(2);
    }
    return parsed;
}

/** Whole-value real parse of @p flag's @p value into [lo, hi]; exits 2
 *  on anything else (NaN included). */
double
parseReal(const std::string &flag, const char *value, double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE
        || !(parsed >= lo && parsed <= hi)) {
        std::fprintf(stderr, "%s takes a number in [%g, %g], got %s\n",
                     flag.c_str(), lo, hi, value);
        std::exit(2);
    }
    return parsed;
}

int
printHelp()
{
    std::printf(
        "determinism_gate -- CI byte-diff gate for the Monte Carlo and\n"
        "co-simulation sweeps (see docs/determinism.md).\n"
        "\n"
        "  --mode M           sweep | spot | crosscheck | interconnect\n"
        "  --threads N        worker threads (output must not depend "
        "on N)\n"
        "  --shots S          Monte Carlo shots per point\n"
        "  --engine E         spot mode: batched (default) | scalar\n"
        "  --group G          spot/batched: lane-group width in words, 1..32\n"
        "  --compaction C     spot/batched: lane compaction on | off\n"
        "  --fault-rate F     interconnect: uniform link-fault rate "
        "axis\n"
        "  --purification L   interconnect: purification-level axis\n"
        "  --link-fidelity E  interconnect: elementary link-fidelity "
        "axis\n"
        "  --retry-budget R   interconnect: below-threshold retries "
        "per demand\n"
        "  --compute-fraction C  interconnect: CQLA compute-region "
        "fraction axis (< 1 enables the memory hierarchy)\n"
        "  --memory-level M   interconnect: memory-region code level "
        "(1 or 2)\n"
        "  --help             this text\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = "sweep";
    std::string engine = "batched";
    int threads = 1;
    std::size_t shots = 4000;
    std::size_t group = BatchOptions{}.groupWords;
    bool compaction = true;
    double fault_rate = 0.0;
    int purification = 0;
    double link_fidelity = 1.0;
    int retry_budget = 3;
    double compute_fraction = 1.0;
    int memory_level = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--mode")
            mode = next();
        else if (arg == "--engine") {
            engine = next();
            if (engine != "batched" && engine != "scalar") {
                std::fprintf(stderr,
                             "--engine takes batched or scalar, got %s\n",
                             engine.c_str());
                return 2;
            }
        }
        else if (arg == "--threads")
            threads = static_cast<int>(parseInteger(arg, next(), 0, 1 << 20));
        else if (arg == "--shots")
            shots = static_cast<std::size_t>(
                parseInteger(arg, next(), 1, LLONG_MAX));
        else if (arg == "--group")
            group = static_cast<std::size_t>(parseInteger(
                arg, next(), 1, static_cast<long long>(kMaxGroupWords)));
        else if (arg == "--compaction") {
            const std::string value = next();
            if (value != "on" && value != "off") {
                std::fprintf(stderr, "--compaction takes on or off, got %s\n",
                             value.c_str());
                return 2;
            }
            compaction = value == "on";
        } else if (arg == "--fault-rate")
            fault_rate = parseReal(arg, next(), 0.0, 1.0);
        else if (arg == "--purification")
            purification = static_cast<int>(
                parseInteger(arg, next(), 0, INT_MAX));
        else if (arg == "--link-fidelity")
            link_fidelity = parseReal(arg, next(), 0.0, 1.0);
        else if (arg == "--retry-budget")
            retry_budget = static_cast<int>(
                parseInteger(arg, next(), 0, INT_MAX));
        else if (arg == "--compute-fraction")
            compute_fraction = parseReal(arg, next(), 0.0, 1.0);
        else if (arg == "--memory-level")
            memory_level = static_cast<int>(parseInteger(arg, next(), 1, 2));
        else if (arg == "--help")
            return printHelp();
        else {
            std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
            return 2;
        }
    }

    if (mode == "sweep")
        return runSweep(threads, shots);
    if (mode == "spot")
        return engine == "scalar"
            ? runSpotScalar(shots)
            : runSpotBatched(group, compaction, threads, shots);
    if (mode == "crosscheck")
        return runCrosscheck(shots);
    if (mode == "interconnect")
        return runInterconnect(threads, fault_rate, purification,
                               link_fidelity, retry_budget,
                               compute_fraction, memory_level);
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
}
