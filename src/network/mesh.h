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

/** Werner depolarization applied per bursting link crossed. */
inline constexpr double kBurstDepolarization = 0.05;

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
 *                   window (extra Werner decay kBurstDepolarization) with
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
 *
 * Alongside the slot counts the mesh keeps a full-link index for the
 * open window: one bitset per direction and line (a row for east/west
 * links, a column for north/south links), where a set bit means the
 * link has no free slot -- it filled up, or it is inside a down
 * interval. A route leg is a contiguous bit range of one line, so a
 * blocked shape is refused with a few masked word tests before any
 * slot count is read. Lines longer than 64 links span several words.
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

    bool inBounds(const IslandCoord &c) const
    {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }

    /** Directed-link capacity in pairs per window. */
    std::uint64_t linkCapacity() const;

    /** Remaining pair slots on the directed link from @p from toward
     *  @p dir in the current window. */
    std::uint64_t freeSlots(const IslandCoord &from, Direction dir) const;

    /** Slots reserved on the directed link in the current window. */
    std::uint64_t usedSlots(const IslandCoord &from, Direction dir) const;

    /**
     * Largest reservation @p route can currently accept: the minimum free
     * slots over its links; UINT64_MAX for a zero-hop route. A route
     * with any full or down link gets 0 from the full-link index alone;
     * only a route that passes walks its slot counts.
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
     * Every rate must lie in [0, 1] and linkDownWindows be at least 1.
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
    /**
     * One non-empty leg of a route: the links toward @p dir from the
     * islands at positions [lo, hi) along row (east/west) or column
     * (north/south) @p line. Position k's link is bit k of that line in
     * the full-link index, whichever way the leg runs. (No member
     * initializers: legs are built on every router try.)
     */
    struct Leg
    {
        Direction dir;
        int line;
        int lo;
        int hi;
    };

    /** A real directed link and its per-link fault seed. */
    struct FaultLink
    {
        std::size_t link = 0;
        std::uint64_t seed = 0;
    };

    std::size_t linkIndex(const IslandCoord &from, Direction dir) const;
    /** Assert that @p route starts and stays inside the mesh. A
     *  straight leg between two in-bounds islands stays in bounds, so
     *  only the start, the waypoints and the end need checking. */
    void checkBounds(const MeshRoute &route) const
    {
        IslandCoord at = route.from;
        qla_assert(inBounds(at), "route starts outside the mesh");
        for (int leg = 0; leg < 3; ++leg) {
            (route.yFirst != (leg == 1) ? at.y : at.x) += route.legs[leg];
            qla_assert(inBounds(at), "route leaves the mesh");
        }
    }
    /** The non-empty leg moving @p len islands from (@p x, @p y) along
     *  y or x; moves (@p x, @p y) to its end. */
    static Leg nextLeg(bool along_y, int len, int &x, int &y)
    {
        // Moving back, the links leave the islands just past the end.
        Leg leg = along_y
            ? (len > 0 ? Leg{Direction::North, x, y, y + len}
                       : Leg{Direction::South, x, y + len + 1, y + 1})
            : (len > 0 ? Leg{Direction::East, y, x, x + len}
                       : Leg{Direction::West, y, x + len + 1, x + 1});
        (along_y ? y : x) += len;
        return leg;
    }
    static IslandCoord neighbor(const IslandCoord &c, Direction dir);

    /** First word of full-link line @p line toward @p dir. */
    std::size_t fullLine(Direction dir, int line) const
    {
        const auto d = static_cast<std::size_t>(dir);
        return full_base_[d] + static_cast<std::size_t>(line) * line_words_[d];
    }

    /** Whether any link of @p leg is full this window: one masked test
     *  per word of its bit range. */
    bool legFull(const Leg &leg) const
    {
        const std::uint64_t *words =
            full_.data() + fullLine(leg.dir, leg.line);
        const int first = leg.lo >> 6;
        const int last = (leg.hi - 1) >> 6;
        const std::uint64_t head = ~std::uint64_t{0} << (leg.lo & 63);
        const std::uint64_t tail =
            ~std::uint64_t{0} >> (63 - ((leg.hi - 1) & 63));
        if (first == last)
            return (words[first] & head & tail) != 0;
        if ((words[first] & head) != 0)
            return true;
        for (int w = first + 1; w < last; ++w)
            if (words[w] != 0)
                return true;
        return (words[last] & tail) != 0;
    }

    /** Directed-link index of the link at position lo of @p leg; the
     *  next positions follow legStride() apart. */
    std::ptrdiff_t legFirstLink(const Leg &leg) const;
    std::ptrdiff_t legStride(const Leg &leg) const
    {
        return leg.dir == Direction::East || leg.dir == Direction::West
            ? 4
            : 4 * static_cast<std::ptrdiff_t>(width_);
    }

    /** Mark directed link slot @p link full for the rest of the window. */
    void markFull(std::size_t link);

    /** Capacity of link slot @p link this window (0 while down). */
    std::uint64_t capacityOf(std::size_t link) const;

    /** Redraw down/burst state for the current window (pure in
     *  (seed, link, window); link-index order) and mark down links
     *  full. */
    void refreshFaults();

    int width_;
    int height_;
    int bandwidth_;
    std::uint64_t slots_per_channel_;
    std::vector<std::uint64_t> used_; // per directed link, current window
    // Full-link index, by Direction: east rows, west rows, north
    // columns, south columns; line_words_[dir] words per line, starting
    // at word full_base_[dir].
    std::size_t line_words_[4];
    std::size_t full_base_[4];
    std::vector<std::uint64_t> full_;
    std::uint64_t windows_ = 0;
    std::uint64_t window_reserved_ = 0;
    std::uint64_t total_reserved_ = 0;

    // Link-fault state (allocated only when faults are installed).
    LinkFaultConfig faults_;
    bool faults_on_ = false;
    std::vector<FaultLink> fault_links_; // real links, link-index order
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
