/**
 * @file
 * Logical-program co-simulation: computation and communication executed
 * together, one EC window at a time.
 *
 * This is the executable counterpart of the paper's Section-5 study:
 * a real circuit (QCLA adder, Toffoli network, banded QFT) is lowered
 * onto the island mesh (network/program_workload.h, network/placement.h)
 * and driven by a plain loop over EC windows. Each window runs the
 * boundary -- start ready gates, emit demands, greedy routing -- then
 * advances every started gate in gate-id order, then closes the window
 * (probe, mesh clock). A gate's window of progress commits only when
 * all its EPR demands were delivered: computation is *gated on
 * delivery*, and every window a gate waits is a stall charged to that
 * gate. With enough bandwidth the measured makespan equals the
 * dependency-DAG critical path (communication fully overlapped with
 * error correction, the paper's bandwidth-2 conclusion); with too
 * little, stalls stretch it.
 */

#ifndef QLA_NETWORK_COSIM_H
#define QLA_NETWORK_COSIM_H

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/region.h"
#include "network/fidelity.h"
#include "network/placement.h"
#include "network/program_workload.h"
#include "network/scheduler.h"
#include "sim/stats.h"

namespace qla::network {

/** Co-simulation parameters. */
struct CoSimConfig
{
    /**
     * Mesh extent in islands; 0 means size automatically from the
     * program (meshForProgram).
     */
    int meshWidth = 0;
    int meshHeight = 0;
    /** Channels per direction per link. */
    int bandwidth = 2;
    /** Scheduling window: one level-2 EC period. */
    Seconds window = 0.043;
    /** Qubit-drift optimization on/off. */
    bool driftOptimization = true;
    /** Initial placement policy. */
    PlacementStrategy placement = PlacementStrategy::Affinity;
    /** Seed for the Random placement shuffle. */
    std::uint64_t seed = 1;
    /** Runaway guard: abort (completed = false) past this many windows. */
    std::uint64_t maxWindows = 1u << 22;

    /**
     * Stochastic link faults (PR 7). The fault-process seed is mixed
     * with the run seed so sweep seeds perturb fault realizations too.
     * All-zero rates (the default) keep the engine bit-identical to the
     * fault-free PR-5 path.
     */
    LinkFaultConfig linkFaults;
    /**
     * Fidelity-aware delivery (PR 7): per-link Werner pairs, pumping to
     * the purification-level target paid for in channel slots, swap
     * composition along routes, delivered-fidelity threshold gating
     * with bounded retry/backoff and abandonment. The defaults
     * (fidelity 1.0, level 0, no threshold) are byte-identical to the
     * ideal engine.
     */
    FidelityConfig fidelity;
    /**
     * CQLA memory hierarchy (PR 8): split the mesh into compute and
     * memory island columns (arch::RegionMap), place cold qubits in
     * memory, and charge cache misses as fidelity-priced teleport
     * round-trips on the missing gate's dependency chain. The default
     * (computeFraction 1.0) keeps the mesh uniform and the engine
     * byte-identical to the single-region schedule.
     */
    arch::MemoryHierarchyConfig memory;
};

/** Results of one co-simulated program execution. */
struct CoSimReport
{
    /** False when the run hit maxWindows before finishing. */
    bool completed = false;
    /** EC windows consumed by computation. */
    std::uint64_t windows = 0;
    /**
     * Routing-only windows before computation begins: the first gates'
     * pairs prefetch while the logical qubits are still being encoded
     * and verified (initialization takes far longer than this), exact
     * like every later gate prefetches under its predecessors. Equals
     * kPrefetchWindows; not charged to the makespan.
     */
    std::uint64_t warmupWindows = 0;
    /** windows x window length. */
    Seconds makespan = 0.0;
    /** Ideal windows (dependency critical path) for this program. */
    std::uint64_t criticalPathWindows = 0;
    /** Gates executed. */
    std::uint64_t gates = 0;
    /** Transversal interactions issued. */
    std::uint64_t interactions = 0;

    /** EPR-pair conservation ledger: requested = delivered (mesh-routed
     *  + island-local) + dropped + abandoned, plus whatever is still
     *  pending inside an open window (zero once completed). A pair lost
     *  in transit or rejected below the fidelity threshold counts as
     *  dropped AND as a fresh request (the replacement shipment), so
     *  every term is monotone and the identity holds at every window
     *  boundary -- asserted by the test_network conservation property
     *  test. */
    std::uint64_t pairsRequested = 0;
    std::uint64_t pairsRoutedOnMesh = 0;
    std::uint64_t pairsLocal = 0;
    /** Pairs destroyed before use: lost in transit on faulty links or
     *  rejected below the delivery-fidelity threshold (PR 7; the two
     *  sub-counters below partition it). Zero on the clean path. */
    std::uint64_t pairsDropped = 0;
    /** Dropped sub-counter: transit losses on faulty links. */
    std::uint64_t pairsLostInTransit = 0;
    /** Dropped sub-counter: delivered below the fidelity threshold. */
    std::uint64_t pairsRejectedFidelity = 0;
    /** Pairs of demands abandoned after the retry budget ran out (the
     *  fallback path: the gate pays abandonPenaltyWindows instead). */
    std::uint64_t pairsAbandoned = 0;
    /** Demands abandoned (each charges one fallback penalty). */
    std::uint64_t demandsAbandoned = 0;
    /** Gates that had at least one demand abandoned. */
    std::uint64_t gatesDegraded = 0;
    /** Below-threshold rejection events (each one burns one unit of the
     *  demand's retry budget and triggers backoff). */
    std::uint64_t retryAttempts = 0;
    /** Demand-windows spent waiting out a retry backoff. */
    std::uint64_t retryBackoffWindows = 0;
    /** Stall windows charged as abandonment fallback penalty (subset of
     *  stallWindows). */
    std::uint64_t fallbackPenaltyWindows = 0;
    std::uint64_t pairsDelivered() const
    {
        return pairsRoutedOnMesh + pairsLocal;
    }
    /** Pair-windows deferred: undelivered pairs carried across a window
     *  boundary, summed over boundaries. */
    std::uint64_t deferredPairWindows = 0;

    /** Delivered-fidelity aggregates over accepted mesh-routed pairs
     *  (only tracked when the fidelity model is enabled; the clean
     *  engine leaves them at their ideal defaults). */
    std::uint64_t fidelityPairs = 0;
    double deliveredFidelitySum = 0.0;
    double deliveredFidelityMin = 1.0;
    double deliveredFidelityMean() const
    {
        return fidelityPairs
            ? deliveredFidelitySum / static_cast<double>(fidelityPairs)
            : 1.0;
    }
    /** Residual interconnect error fed to the ARQ noise model as
     *  NoiseParameters::eprResidualError: the mean infidelity of the
     *  pairs actually consumed by transversal interactions. */
    double residualEprError() const
    {
        return 1.0 - deliveredFidelityMean();
    }

    /** CQLA cache ledger (PR 8; all zero on the uniform mesh). Every
     *  data-qubit operand of every gate is classified exactly once when
     *  the gate first emits demands: operandTouches = memHits +
     *  memMisses at every window boundary (the cache conservation
     *  identity, asserted by the test_network property test). A miss
     *  either teleports the operand into the compute region (fetch,
     *  possibly after evicting the coldest resident) or -- when no
     *  compute tile can be freed -- executes in place in memory. */
    std::uint64_t operandTouches = 0;
    /** Operand already resident in the compute region (local window). */
    std::uint64_t memHits = 0;
    /** Operand found in the memory region (includes in-place misses). */
    std::uint64_t memMisses = 0;
    /** Misses served without relocation (compute region full even
     *  after eviction); subset of memMisses. */
    std::uint64_t memInPlaceMisses = 0;
    /** Compute-resident qubits written back to memory to make room. */
    std::uint64_t memEvictions = 0;
    /** EPR pairs requested by miss fetches (subset of pairsRequested). */
    std::uint64_t fetchPairsRequested = 0;
    /** EPR pairs requested by eviction write-backs (subset of
     *  pairsRequested). */
    std::uint64_t writebackPairsRequested = 0;
    /** Stall windows spent re-encoding fetched qubits up to the compute
     *  code level (subset of stallWindows; zero when the memory region
     *  runs the compute-level code). */
    std::uint64_t missConversionWindows = 0;
    /** Region split actually used (computeTiles = all tiles and
     *  memoryTiles = 0 on the uniform mesh). */
    std::uint64_t computeTiles = 0;
    std::uint64_t memoryTiles = 0;
    /** Cache miss rate over all operand touches (0 when untouched). */
    double missRate() const
    {
        return operandTouches
            ? static_cast<double>(memMisses)
                / static_cast<double>(operandTouches)
            : 0.0;
    }

    /** Per-gate retry/stall attribution (indexed by gate id). */
    struct GateAttribution
    {
        std::uint32_t stallWindows = 0;   ///< EC windows this gate stalled.
        std::uint32_t retryAttempts = 0;  ///< Below-threshold re-requests.
        std::uint32_t penaltyWindows = 0; ///< Abandonment fallback windows.
        std::uint64_t pairsAbandoned = 0; ///< Pairs given up on for it.
    };
    std::vector<GateAttribution> perGate;

    /** Gate-windows spent waiting on delivery (the stall charge). */
    std::uint64_t stallWindows = 0;
    /** Gates that stalled at least once. */
    std::uint64_t gatesStalled = 0;
    /** Gate-windows a ready gate waited because its gadget-ancilla
     *  tiles could not be allocated (mesh too full). */
    std::uint64_t allocationStallWindows = 0;
    /** Drift relocations performed. */
    std::uint64_t driftMoves = 0;
    std::uint64_t backoffReroutes = 0;
    double utilization = 0.0;
    double averageRouteLength = 0.0;

    /** Communication (and tile allocation) never held computation back:
     *  when true and completed, the makespan is the dependency-DAG
     *  critical path. */
    bool fullyOverlapped() const
    {
        return stallWindows == 0 && allocationStallWindows == 0;
    }
};

/** Per-window observer snapshot (property tests hook in here). All
 *  counters are cumulative EPR pairs up to this boundary; the
 *  conservation identity requested = delivered + pending + dropped +
 *  abandoned must hold at every one. */
struct WindowProbe
{
    std::uint64_t window = 0; ///< 0-based boundary index.
    std::uint64_t pairsRequested = 0;
    std::uint64_t pairsDelivered = 0;
    std::uint64_t pairsPending = 0;
    std::uint64_t pairsDropped = 0;
    std::uint64_t pairsAbandoned = 0;
    std::uint64_t retryAttempts = 0;
    /** Cumulative gate-windows stalled so far. */
    std::uint64_t stallWindows = 0;
    /** Cumulative cache-ledger counters (operandTouches = memHits +
     *  memMisses must hold at every boundary). */
    std::uint64_t operandTouches = 0;
    std::uint64_t memHits = 0;
    std::uint64_t memMisses = 0;
    std::uint64_t memEvictions = 0;
    const TilePlacement *placement = nullptr;
    const IslandMesh *mesh = nullptr;
};

using WindowProbeFn = std::function<void(const WindowProbe &)>;

/**
 * Window-loop executor for one lowered program.
 */
class ProgramCoSimulator
{
  public:
    /** @p program is held by reference and must outlive the simulator
     *  (lowered workloads are typically reused across many runs). */
    ProgramCoSimulator(const ProgramWorkload &program, CoSimConfig config);
    ProgramCoSimulator(ProgramWorkload &&, CoSimConfig) = delete;

    /** Execute the program; @p probe (optional) fires at the end of
     *  every window before reservations clear. */
    CoSimReport run(const WindowProbeFn &probe = {});

    /** Mesh extent actually used (after auto-sizing). */
    MeshExtent meshExtent() const { return extent_; }

  private:
    const ProgramWorkload &program_;
    CoSimConfig config_;
    MeshExtent extent_;
};

//
// Configuration sweeps.
//

/** One point of a co-simulation sweep. */
struct CoSimSweepPoint
{
    std::size_t workload = 0; ///< Index into CoSimSweepConfig::workloads.
    int bandwidth = 0;        ///< Channels per direction per mesh link.
    /** Uniform link-fault rate (LinkFaultConfig::atRate axis). */
    double faultRate = 0.0;
    /** Purification level for the fidelity model. */
    int purificationLevel = 0;
    /** Elementary link fidelity for the fidelity model. */
    double linkFidelity = 1.0;
    /** Compute-region fraction (memory-hierarchy axis; 1.0 = uniform). */
    double computeFraction = 1.0;
    /** Memory-region code level (only meaningful when split). */
    int memoryLevel = 1;
    std::uint64_t seed = 0; ///< Placement/noise seed of this run.
    CoSimReport report;     ///< The executed schedule's ledger.
};

/** Sweep axes: workloads x bandwidths x fault rates x purification
 *  levels x link fidelities x compute fractions x memory code levels x
 *  seeds (PR 7 degradation surface x PR 8 hierarchy surface). The
 *  fault/fidelity/hierarchy axes default to the ideal uniform point,
 *  reproducing the PR-5 sweep exactly. */
struct CoSimSweepConfig
{
    /** Base configuration (mesh auto-sizing per workload when 0). Note
     *  the fault-rate axis overrides base.linkFaults' rates via
     *  LinkFaultConfig::atRate, and the fidelity axes override
     *  base.fidelity.{elementaryFidelity, purificationLevel}. */
    CoSimConfig base;
    std::vector<int> bandwidths = {1, 2, 3, 4};
    std::vector<double> faultRates = {0.0};
    std::vector<int> purificationLevels = {0};
    std::vector<double> linkFidelities = {1.0};
    /** Compute-region fractions (base.memory.computeFraction axis);
     *  the default single 1.0 keeps every point uniform. */
    std::vector<double> computeFractions = {1.0};
    /** Memory-region code levels (base.memory.memoryCodeLevel axis). */
    std::vector<int> memoryCodeLevels = {1};
    /** Seeds; each perturbs the (Random-strategy) placement and the
     *  fault realization. */
    std::vector<std::uint64_t> seeds = {1};
    /** Worker threads (sim::resolveThreadCount semantics). */
    int threads = 0;
};

/** Fixed-order reduction over a sweep's points. */
struct CoSimSweepStats
{
    sim::ScalarStat makespanWindows;
    sim::ScalarStat utilization;
    sim::ScalarStat stallWindows;
    sim::RateStat stalledRuns;
    // PR 7 degradation aggregates (all zero on a clean sweep).
    sim::ScalarStat droppedPairs;
    sim::ScalarStat abandonedPairs;
    sim::ScalarStat retryAttempts;
    sim::ScalarStat residualEprError;
    sim::RateStat degradedRuns; ///< Runs with >= 1 abandoned demand.
    // PR 8 memory-hierarchy aggregates (zero on a uniform sweep).
    sim::ScalarStat cacheMisses;
    sim::ScalarStat cacheMissRate;
    sim::ScalarStat cacheEvictions;
};

/**
 * Run every (workload, bandwidth, fault rate, purification level, link
 * fidelity, compute fraction, memory level, seed) combination on the
 * shot scheduler. Points come back
 * in fixed lexicographic job order (axes nested in that order) and each
 * job's result depends only on its own parameters, so the sweep is
 * bit-identical for every thread count (the repo determinism contract;
 * enforced by tools/determinism_gate --mode interconnect).
 */
std::vector<CoSimSweepPoint> runCoSimSweep(
    const std::vector<ProgramWorkload> &workloads,
    const CoSimSweepConfig &config);

/** Reduce sweep points in index order (deterministic merge). */
CoSimSweepStats reduceCoSimSweep(
    const std::vector<CoSimSweepPoint> &points);

} // namespace qla::network

#endif // QLA_NETWORK_COSIM_H
