/**
 * @file
 * Teleportation-island mesh with per-link channel capacity.
 *
 * Paper Section 5: the QLA interconnect is a mesh of teleportation
 * islands (an island every third logical qubit in x, every qubit in y,
 * for the 100-cell separation), with a fixed number of physical channels
 * per direction ("we define the bandwidth of QLA's communication channels
 * as the number of physical channels in each direction"). One channel
 * carries fresh EPR halves outward, another returns used ions; pairs are
 * pipelined within a channel.
 */

#ifndef QLA_NETWORK_MESH_H
#define QLA_NETWORK_MESH_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/logging.h"
#include "common/units.h"

namespace qla::network {

/** Position of an island in the mesh. */
struct IslandCoord
{
    int x = 0; ///< Island column (0-based; one island per 3 tiles in x).
    int y = 0; ///< Island row (0-based; one island per tile row).

    bool operator==(const IslandCoord &o) const
    {
        return x == o.x && y == o.y;
    }
};

/** Manhattan distance between two islands. */
int islandDistance(const IslandCoord &a, const IslandCoord &b);

/** Directions of mesh links. */
enum class Direction : std::uint8_t { East, West, North, South };

/**
 * A candidate route: a start island and three axis-aligned legs whose
 * axes alternate -- x, y, x, or y, x, y when @c yFirst. A leg may be
 * empty. The mesh walks a route's links by index arithmetic, so trying
 * a shape builds no path.
 */
struct MeshRoute
{
    IslandCoord from;
    bool yFirst = false;
    /** Signed leg lengths in islands (+x east, +y north). */
    int legs[3] = {0, 0, 0};

    /**
     * Route from @p from to @p to whose first leg moves @p first_leg
     * along the first axis; the second leg closes the other axis and the
     * third the rest of the first. A first leg covering the whole
     * first-axis offset is the dimension-ordered route.
     */
    static MeshRoute via(const IslandCoord &from, const IslandCoord &to,
                         bool y_first, int first_leg)
    {
        const int d_first = y_first ? to.y - from.y : to.x - from.x;
        const int d_second = y_first ? to.x - from.x : to.y - from.y;
        return {from, y_first, {first_leg, d_second, d_first - first_leg}};
    }

    /** Dimension-ordered route: the first axis closed, then the other. */
    static MeshRoute dimensionOrdered(const IslandCoord &from,
                                      const IslandCoord &to, bool y_first)
    {
        return via(from, to, y_first, y_first ? to.y - from.y
                                              : to.x - from.x);
    }

    /** Links the route crosses. */
    int hops() const
    {
        return std::abs(legs[0]) + std::abs(legs[1]) + std::abs(legs[2]);
    }
};

/**
 * Stochastic link-fault model (PR 7 noisy-interconnect co-design).
 *
 * Three fault processes degrade EPR delivery:
 *
 *  - pair loss:     each pair crossing a link is lost with probability
 *                   pairLossRate (drawn per routed bundle by the
 *                   co-simulator, binomially over the path's hops);
 *  - link down:     a link enters a down interval (zero capacity for
 *                   linkDownWindows windows) with per-window probability
 *                   linkDownRate;
 *  - depol. burst:  a link depolarizes every pair crossing it this
 *                   window (extra Werner decay burstDepolarization) with
 *                   per-window probability burstRate.
 *
 * Determinism contract: the down/burst state of (link, window) is a pure
 * function of (seed, link index, window index) -- one fresh
 * SplitMix64-seeded Rng per draw -- so fault realizations are identical
 * regardless of routing order, thread count, or how many reservations
 * probed the link. All-zero rates disable the machinery entirely
 * (bit-identical to the fault-free mesh).
 */
struct LinkFaultConfig
{
    /** Per-hop probability a transported pair is lost in transit. */
    double pairLossRate = 0.0;
    /** Per-link per-window probability a down interval starts. */
    double linkDownRate = 0.0;
    /** Length of one down interval in windows. */
    int linkDownWindows = 2;
    /** Per-link per-window probability of a depolarization burst. */
    double burstRate = 0.0;
    /** Werner depolarization applied per bursting link crossed. */
    double burstDepolarization = 0.05;
    /** Fault-process seed (mixed with the run seed by the co-sim). */
    std::uint64_t seed = 1;

    bool any() const
    {
        return pairLossRate > 0.0 || linkDownRate > 0.0
            || burstRate > 0.0;
    }

    /** The sweep's uniform fault-rate axis: loss and bursts at @p rate,
     *  down-interval starts at rate/4, structural knobs kept. */
    LinkFaultConfig atRate(double rate) const
    {
        LinkFaultConfig c = *this;
        c.pairLossRate = rate;
        c.burstRate = rate;
        c.linkDownRate = 0.25 * rate;
        return c;
    }
};

/**
 * Island mesh with window-slotted channel accounting.
 *
 * Time is divided into scheduling windows (one level-2 error-correction
 * period each). Each directed link can carry a bounded number of EPR
 * pairs per window: bandwidth channels x (window / per-pair headway).
 */
class IslandMesh
{
  public:
    /**
     * @param width       Islands in x.
     * @param height      Islands in y.
     * @param bandwidth   Channels per direction per link.
     * @param slots_per_channel Pairs one channel can move in one window.
     */
    IslandMesh(int width, int height, int bandwidth,
               std::uint64_t slots_per_channel);

    int width() const { return width_; }
    int height() const { return height_; }
    int bandwidth() const { return bandwidth_; }
    std::uint64_t slotsPerChannel() const { return slots_per_channel_; }

    bool inBounds(const IslandCoord &c) const;

    /** Directed-link capacity in pairs per window. */
    std::uint64_t linkCapacity() const;

    /** Remaining pair slots on the directed link from @p from toward
     *  @p dir in the current window. */
    std::uint64_t freeSlots(const IslandCoord &from, Direction dir) const;

    /** Slots reserved on the directed link in the current window. */
    std::uint64_t usedSlots(const IslandCoord &from, Direction dir) const;

    /**
     * Largest reservation @p route can currently accept: the minimum free
     * slots over its links, returned as 0 at the first full link without
     * walking the rest; UINT64_MAX for a zero-hop route.
     */
    std::uint64_t maxReservable(const MeshRoute &route) const;

    /**
     * Reserve @p pairs slots on every link of @p route, which must stay
     * within maxReservable(route) (a link over capacity panics).
     * @return bursting links the route crosses this window.
     */
    int reserve(const MeshRoute &route, std::uint64_t pairs);

    /** Begin a new window: clears all reservations, accumulates stats. */
    void advanceWindow();

    /**
     * Install the stochastic link-fault model (PR 7). Draws the current
     * window's down/burst state immediately; all-zero rates are a no-op.
     */
    void setLinkFaults(const LinkFaultConfig &config);

    const LinkFaultConfig &linkFaults() const { return faults_; }
    bool faultsEnabled() const { return faults_on_; }

    /** Link is inside a down interval this window (zero capacity). */
    bool linkDown(const IslandCoord &from, Direction dir) const;

    /** Link carries a depolarization burst this window. */
    bool linkBurst(const IslandCoord &from, Direction dir) const;

    /** @name Fault-process event counters
     *  For the statistical crosscheck that injected faults match their
     *  configured rates: events / trials estimates the per-link
     *  per-window rate. A down trial is counted only when the link was
     *  eligible (not already down). */
    ///@{
    std::uint64_t faultDownEvents() const { return down_events_; }
    std::uint64_t faultDownTrials() const { return down_trials_; }
    std::uint64_t faultBurstEvents() const { return burst_events_; }
    std::uint64_t faultBurstTrials() const { return burst_trials_; }
    /** (link, window) cells spent inside down intervals. */
    std::uint64_t linkWindowsDown() const { return link_windows_down_; }
    ///@}

    /** Windows elapsed (advanceWindow calls). */
    std::uint64_t windowsElapsed() const { return windows_; }

    /** Total directed links in the mesh. */
    std::uint64_t totalLinks() const;

    /**
     * Aggregate bandwidth utilization so far: reserved slots divided by
     * available slots over all links and completed windows.
     */
    double aggregateUtilization() const;

    /** Slots reserved in the current (open) window. */
    std::uint64_t reservedThisWindow() const { return window_reserved_; }

  private:
    /** One leg of a route as directed-link indices: @p count links
     *  from @p first, @p stride apart. */
    struct LinkRun
    {
        std::ptrdiff_t first = 0;
        std::ptrdiff_t stride = 0;
        int count = 0;
    };

    std::size_t linkIndex(const IslandCoord &from, Direction dir) const;
    /** Split @p route into its legs' link runs (bounds asserted on the
     *  endpoints and waypoints); @return the number of non-empty legs. */
    int linkRuns(const MeshRoute &route, LinkRun (&runs)[3]) const;
    static IslandCoord neighbor(const IslandCoord &c, Direction dir);

    /** Capacity of link slot @p link this window (0 while down). */
    std::uint64_t capacityOf(std::size_t link) const;

    /** Redraw down/burst state for the current window (pure in
     *  (seed, link, window); link-index order). */
    void refreshFaults();

    int width_;
    int height_;
    int bandwidth_;
    std::uint64_t slots_per_channel_;
    std::vector<std::uint64_t> used_; // per directed link, current window
    std::uint64_t windows_ = 0;
    std::uint64_t window_reserved_ = 0;
    std::uint64_t total_reserved_ = 0;

    // Link-fault state (allocated only when faults are installed).
    LinkFaultConfig faults_;
    bool faults_on_ = false;
    std::vector<std::uint8_t> link_valid_; // geometric link slot exists
    std::vector<std::uint64_t> down_until_; // absolute window, exclusive
    std::vector<std::uint8_t> burst_;       // this window only
    std::uint64_t down_events_ = 0;
    std::uint64_t down_trials_ = 0;
    std::uint64_t burst_events_ = 0;
    std::uint64_t burst_trials_ = 0;
    std::uint64_t link_windows_down_ = 0;
};

} // namespace qla::network

#endif // QLA_NETWORK_MESH_H
