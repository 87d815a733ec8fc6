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
 * The routing core lives in EprRouter and is shared by two drivers: the
 * synthetic window-slotted GreedyEprScheduler below (random-placement
 * Toffoli traffic, the paper's ~23%-utilization experiment) and the
 * logical-program co-simulation (network/cosim.h), which gates
 * computation on delivery. Both also implement the drift optimization:
 * after a two-qubit interaction, logical qubit A is teleported to B but
 * "only moved back if necessary", so qubits drift toward their
 * communication partners and subsequent traffic shortens.
 */

#ifndef QLA_NETWORK_SCHEDULER_H
#define QLA_NETWORK_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "common/tech_params.h"
#include "network/mesh.h"
#include "network/workload.h"
#include "sim/event_queue.h"

namespace qla::network {

/** Scheduler knobs and experiment parameters. */
struct SchedulerConfig
{
    int meshWidth = 12;
    int meshHeight = 12;
    /** Channels per direction per link (the paper's "bandwidth"). */
    int bandwidth = 2;
    /** Scheduling window: one level-2 EC period (Section 4.1.1). */
    Seconds window = 0.043;
    /**
     * Service time per *purified* EPR pair on one channel. Raw transport
     * is cheap; the delivery rate is purification-limited. The default
     * comes from the repeater model at the paper's fixed 100-cell island
     * separation (RepeaterChain: ~13 pump operations per delivered pair
     * at ~110 us each). One channel therefore moves ~30 purified pairs
     * per EC window -- which is why a transversal logical interaction
     * (49 pairs) needs bandwidth 2, exactly the paper's conclusion.
     */
    Seconds purifiedPairServiceTime = units::microseconds(1400.0);
    /** Enable the qubit-drift optimization. */
    bool driftOptimization = true;
    /** Detour attempts around congested rows/columns. */
    int detourRadius = 2;
    /**
     * Windows a demand may be deferred before it stalls computation.
     * EPR pairs are prefetched while the consuming qubits are still in
     * error correction, so one window of slack exists naturally.
     */
    int slackWindows = 3;
    std::uint64_t seed = 12345;
};

/** Pairs one channel can carry per scheduling window of length @p window
 *  when each purified pair holds the channel for @p pair_service_time. */
std::uint64_t slotsPerChannel(Seconds window, Seconds pair_service_time);

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

/** Per-call delivery detail from EprRouter::routePairs. */
struct RouteDelivery
{
    std::vector<PathGrab> grabs;
};

/**
 * Greedy multi-path router over the island mesh: grab everything the
 * dimension-ordered route offers, back off onto the alternate
 * dimension order, then detour through shifted columns (legs x, y, x)
 * and rows (legs y, x, y). Each shape is a MeshRoute the mesh walks in
 * place; a try stops at the first full link.
 */
class EprRouter
{
  public:
    explicit EprRouter(int detour_radius = 2)
        : detour_radius_(detour_radius)
    {
    }

    /**
     * Route up to @p pairs of the demand in the current window,
     * splitting across alternate paths when the greedy route saturates.
     * Co-located demands (source == destination) need no mesh capacity
     * and are reported fully routed.
     * @param delivery When non-null, receives one PathGrab per reserved
     *        path (pairs, hop count, bursting links crossed) so the
     *        caller can price loss and fidelity. Co-located pairs
     *        produce no grab.
     * @return pairs actually reserved this window.
     */
    std::uint64_t routePairs(IslandMesh &mesh, const EprDemand &demand,
                             std::uint64_t pairs, RouteStats &stats,
                             RouteDelivery *delivery = nullptr) const;

  private:
    int detour_radius_;
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
 * Window-slotted greedy scheduler over the synthetic random-placement
 * Toffoli workload. Each scheduling window is one event on the
 * discrete-event kernel; the window handler schedules its successor, so
 * the run is a self-propelled event chain on sim::EventQueue.
 */
class GreedyEprScheduler
{
  public:
    GreedyEprScheduler(const SchedulerConfig &config,
                       const WorkloadConfig &workload);

    /** Run the full workload; returns the report. */
    SchedulerReport run();

    /** Pairs one channel can carry per window. */
    std::uint64_t slotsPerChannel() const;

  private:
    SchedulerConfig config_;
    WorkloadConfig workload_config_;
};

} // namespace qla::network

#endif // QLA_NETWORK_SCHEDULER_H
