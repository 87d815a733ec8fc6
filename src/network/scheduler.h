/**
 * @file
 * Greedy EPR-pair communication routing and scheduling (paper Section 5).
 *
 * "The scheduler is a heuristic greedy scheduler ... It works by grabbing
 * all available bandwidth whenever it can. However, if this means that
 * the scheduler cannot find the necessary paths, it will back off and
 * retry with a different set of start and end points." The goal is to
 * deliver every EPR pair a gate needs within the level-2 error-correction
 * window it overlaps with, so that communication never stalls
 * computation.
 *
 * The routing core, routePairs, is shared by two drivers: the synthetic
 * window loop runSyntheticScheduler below (random-placement Toffoli
 * traffic, the paper's ~23%-utilization experiment) and the
 * logical-program co-simulation (network/cosim.h), which gates
 * computation on delivery. Both also implement the drift optimization:
 * after a two-qubit interaction, logical qubit A is teleported to B but
 * "only moved back if necessary", so qubits drift toward their
 * communication partners and subsequent traffic shortens.
 *
 * The synthetic workload follows "our implementation of the Toffoli
 * gate": each Toffoli operates on three logical qubits plus six ancilla
 * logical qubits, runs for 21 error-correction windows (15 time-steps of
 * ancilla preparation + 6 to finish the gate), and in each window the
 * interacting logical-qubit pairs exchange one transversal round of EPR
 * pairs (one pair per physical data ion, 49 at level 2).
 */

#ifndef QLA_NETWORK_SCHEDULER_H
#define QLA_NETWORK_SCHEDULER_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "network/mesh.h"

namespace qla::network {

/**
 * Service time per *purified* EPR pair on one channel. Raw transport is
 * cheap; the delivery rate is purification-limited. The value comes
 * from the repeater model at the paper's fixed 100-cell island
 * separation (RepeaterChain: ~13 pump operations per delivered pair at
 * ~110 us each). One channel therefore moves ~30 purified pairs per EC
 * window -- which is why a transversal logical interaction (49 pairs)
 * needs bandwidth 2, exactly the paper's conclusion.
 */
inline constexpr Seconds kPurifiedPairServiceTime =
    units::microseconds(1400.0);

/** Detour shifts the router tries on each side of a congested route. */
inline constexpr int kDetourRadius = 2;

/**
 * How many windows ahead the co-simulation issues an active gate's EPR
 * demands. Pairs for a gate's window k can be delivered any time from
 * k - kPrefetchWindows up to the end of window k -- the paper's
 * pipelining of communication under the preceding error-correction
 * cycles ("communication always overlapped with error correction").
 *
 * Modeling decision: a prefetched demand pins its endpoint islands at
 * emission time. Drift moves between emission and consumption do not
 * re-target it -- the pairs are already in flight to where the qubits
 * were, and in-flight halves are not recalled -- so a pair that drifts
 * co-located after emission still counts as mesh traffic. This slightly
 * overstates traffic/stalls near drift moves, i.e. it is conservative
 * for the paper's bandwidth-sufficiency and drift-saves-traffic
 * conclusions.
 */
inline constexpr int kPrefetchWindows = 2;

/** Islands per side of the synthetic experiment's square mesh. */
inline constexpr int kSyntheticMeshSize = 12;

/**
 * Windows a synthetic demand may be deferred before it stalls
 * computation. EPR pairs are prefetched while the consuming qubits are
 * still in error correction, so one window of slack exists naturally.
 */
inline constexpr int kSlackWindows = 3;

/** Error-correction windows each synthetic Toffoli spans. */
inline constexpr int kToffoliWindows = 21;
/** Interacting logical pairs per window of a running Toffoli. */
inline constexpr int kToffoliInteractionsPerWindow = 2;
/** EPR pairs per logical interaction (49 physical ions at L2). */
inline constexpr std::uint64_t kToffoliPairsPerInteraction = 49;
/** Operand spread: max island-grid distance per axis between a
 *  Toffoli's center and each of its qubits. */
inline constexpr int kToffoliOperandSpread = 4;

/** Pairs one channel can carry per scheduling window of length
 *  @p window when each purified pair holds the channel for
 *  kPurifiedPairServiceTime. */
inline std::uint64_t
slotsPerChannel(Seconds window)
{
    return static_cast<std::uint64_t>(window / kPurifiedPairServiceTime);
}

/** One EPR-delivery demand inside a single scheduling window. */
struct EprDemand
{
    IslandCoord source;
    IslandCoord destination;
    std::uint64_t pairs = 0;
    /** Gate this demand belongs to (for stall accounting). */
    std::size_t gateId = 0;
};

/** Counters the router accumulates while placing traffic. */
struct RouteStats
{
    /** Demands rerouted after the first (greedy) path was refused. */
    std::uint64_t backoffReroutes = 0;
};

/** One bundle of pairs reserved on a single path (PR 7: carries the
 *  geometry the fidelity model needs to price the delivery). */
struct PathGrab
{
    /** Pairs reserved on this path. */
    std::uint64_t pairs = 0;
    /** Links the path crosses (path length). */
    int hops = 0;
    /** Links with an active depolarization burst this window. */
    int burstLinks = 0;
};

/**
 * Greedy multi-path routing over the island mesh: grab everything the
 * dimension-ordered route offers, back off onto the alternate dimension
 * order, then detour through shifted columns (legs x, y, x) and rows
 * (legs y, x, y) up to kDetourRadius away. Each shape is a MeshRoute
 * the mesh walks in place; a try stops at the first full link.
 *
 * Routes up to @p pairs of the demand in the current window, splitting
 * across alternate paths when the greedy route saturates. Co-located
 * demands (source == destination) need no mesh capacity and are
 * reported fully routed.
 * @param grabs When non-null, receives one PathGrab per reserved path
 *        (pairs, hop count, bursting links crossed) so the caller can
 *        price loss and fidelity. Co-located pairs produce no grab.
 * @return pairs actually reserved this window.
 */
std::uint64_t routePairs(IslandMesh &mesh, const EprDemand &demand,
                         std::uint64_t pairs, RouteStats &stats,
                         std::vector<PathGrab> *grabs = nullptr);

/** The synthetic Section-5 experiment: Toffoli gates at random
 *  (bounded-spread) places on a kSyntheticMeshSize-square mesh. */
struct SyntheticConfig
{
    /** Channels per direction per link (the paper's "bandwidth"). */
    int bandwidth = 2;
    /** Scheduling window: one level-2 EC period (Section 4.1.1). */
    Seconds window = 0.043;
    std::uint64_t seed = 12345;
    /** Total windows to simulate. */
    int totalWindows = 200;
    /** Toffoli gates active simultaneously. */
    int concurrentToffolis = 24;
    /**
     * Qubit-drift optimization (Section 5): after an interaction the
     * teleported qubit stays at its partner's location instead of being
     * teleported back, halving the traffic and shortening later routes.
     * When disabled every interaction is a round trip.
     */
    bool driftOptimization = true;
};

/**
 * Generates per-window EPR demands for a stream of Toffoli gates placed
 * at random (bounded-spread) locations on the island mesh. Completed
 * gates are immediately replaced so `concurrentToffolis` stay in flight.
 */
class ToffoliWorkload
{
  public:
    ToffoliWorkload(const SyntheticConfig &config, int mesh_width,
                    int mesh_height, Rng rng);

    /** Demands for the next window (advances the workload clock). */
    std::vector<EprDemand> nextWindow();

    /** Total gates started so far. */
    std::size_t gatesStarted() const { return next_gate_id_; }

  private:
    struct ActiveToffoli
    {
        std::size_t id = 0;
        int windowsLeft = 0;
        /** The 3 operand qubits + 6 ancilla qubits, as island coords. */
        std::array<IslandCoord, 9> members;
    };

    IslandCoord randomNear(const IslandCoord &center);
    /** A fresh gate: its id, then its center and members drawn. */
    ActiveToffoli spawnToffoli();

    bool drift_;
    int width_;
    int height_;
    Rng rng_;
    std::vector<ActiveToffoli> active_;
    std::size_t next_gate_id_ = 0;
};

/** Results of one scheduling run. */
struct SchedulerReport
{
    std::uint64_t windows = 0;
    std::uint64_t demands = 0;
    std::uint64_t pairsRequested = 0;
    std::uint64_t pairsDelivered = 0;
    /** Demands that could not be fully routed inside their window. */
    std::uint64_t stalledDemands = 0;
    /** Windows containing at least one stalled demand. */
    std::uint64_t stalledWindows = 0;
    /** Aggregate channel utilization over all links and windows. */
    double utilization = 0.0;
    /** Demands rerouted after the first (greedy) path was refused. */
    std::uint64_t backoffReroutes = 0;
    /** Average island-grid distance of routed demands. */
    double averageRouteLength = 0.0;

    /** True when communication fully overlapped with error correction. */
    bool fullyOverlapped() const { return stalledDemands == 0; }
};

/**
 * Window-slotted greedy scheduling of the synthetic Toffoli workload:
 * one pass per scheduling window (emit, order, route, defer or stall,
 * advance the mesh clock).
 */
SchedulerReport runSyntheticScheduler(const SyntheticConfig &config);

} // namespace qla::network

#endif // QLA_NETWORK_SCHEDULER_H
