/**
 * @file
 * Interconnect-layer tests (Section 5): island mesh, greedy EPR routing
 * and scheduling, logical-tile placement, program lowering, and the
 * window-loop logical-program co-simulation, including the scheduler
 * invariants (link capacity, EPR-pair conservation, mesh-walk validity,
 * drift bijection) and the paper's bandwidth/drift conclusions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <set>
#include <tuple>

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/shor.h"
#include "apps/toffoli.h"
#include "arch/region.h"
#include "network/cosim.h"
#include "network/mesh.h"
#include "network/placement.h"
#include "network/program_workload.h"
#include "network/scheduler.h"

using namespace qla;
using namespace qla::network;

TEST(IslandMesh, CapacityAccounting)
{
    IslandMesh mesh(4, 4, 2, 10); // 20 pairs per directed link
    EXPECT_EQ(mesh.linkCapacity(), 20u);
    const MeshRoute route{{0, 0}, false, {2, 0, 0}}; // (0,0) -> (2,0)
    EXPECT_EQ(route.hops(), 2);
    EXPECT_EQ(mesh.maxReservable(route), 20u);
    mesh.reserve(route, 15);
    EXPECT_EQ(mesh.usedSlots({1, 0}, Direction::East), 15u);
    EXPECT_EQ(mesh.reservedThisWindow(), 30u);
    EXPECT_EQ(mesh.maxReservable(route), 5u);
    EXPECT_DEATH(mesh.reserve(route, 6), "exceeds link capacity");
    mesh.reserve(route, 5);
    EXPECT_EQ(mesh.maxReservable(route), 0u);
}

TEST(IslandMesh, DirectedLinksAreIndependent)
{
    IslandMesh mesh(3, 3, 1, 10);
    const MeshRoute east{{0, 0}, false, {1, 0, 0}};
    const MeshRoute west{{1, 0}, false, {-1, 0, 0}};
    mesh.reserve(east, 10);
    // The opposite direction has its own channels.
    EXPECT_EQ(mesh.maxReservable(west), 10u);
    mesh.reserve(west, 10);
    EXPECT_EQ(mesh.maxReservable(east), 0u);
    EXPECT_DEATH(mesh.reserve(east, 1), "exceeds link capacity");
}

TEST(IslandMesh, WindowAdvanceClearsReservations)
{
    IslandMesh mesh(3, 3, 1, 10);
    const MeshRoute route{{0, 0}, false, {1, 0, 0}};
    mesh.reserve(route, 10);
    EXPECT_EQ(mesh.maxReservable(route), 0u);
    mesh.advanceWindow();
    EXPECT_EQ(mesh.maxReservable(route), 10u);
    EXPECT_EQ(mesh.windowsElapsed(), 1u);
}

TEST(IslandMesh, UtilizationAggregation)
{
    IslandMesh mesh(2, 1, 1, 10); // a single east/west link pair
    EXPECT_EQ(mesh.totalLinks(), 2u);
    mesh.reserve({{0, 0}, false, {1, 0, 0}}, 5);
    mesh.advanceWindow();
    // 5 of 20 available slots used.
    EXPECT_NEAR(mesh.aggregateUtilization(), 0.25, 1e-12);
}

TEST(IslandMesh, TrivialPathNeedsNoCapacity)
{
    IslandMesh mesh(2, 2, 1, 1);
    EXPECT_EQ(mesh.reserve(MeshRoute{{0, 0}}, 1000), 0);
    EXPECT_EQ(mesh.reservedThisWindow(), 0u);
    EXPECT_EQ(mesh.maxReservable(MeshRoute{{1, 1}}), ~std::uint64_t{0});
}

TEST(IslandMesh, RejectsInvalidLinkFaultConfigs)
{
    // A zero-length down interval counted down events but never took a
    // link down; a negative one wrapped and kept links down for good.
    IslandMesh mesh(6, 6, 2, 5);
    for (const int windows : {0, -3}) {
        LinkFaultConfig faults = LinkFaultConfig{}.atRate(0.2);
        faults.linkDownWindows = windows;
        EXPECT_DEATH(mesh.setLinkFaults(faults), "down interval");
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {-0.1, 1.5, nan}) {
        LinkFaultConfig loss, down, burst;
        loss.pairLossRate = bad;
        down.linkDownRate = bad;
        burst.burstRate = bad;
        for (const LinkFaultConfig &faults : {loss, down, burst})
            EXPECT_DEATH(mesh.setLinkFaults(faults), "rates must lie");
    }
    LinkFaultConfig edge;
    edge.linkDownRate = 1.0;
    edge.burstRate = 1.0;
    edge.linkDownWindows = 1;
    mesh.setLinkFaults(edge);
    EXPECT_TRUE(mesh.linkDown({0, 0}, Direction::East));
}

namespace {

/** SplitMix64 finalizer, as the mesh mixes fault seeds. */
std::uint64_t
referenceMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

TEST(IslandMesh, FaultRealizationIsPureInSeedLinkWindow)
{
    // The down/burst state of (link, window) comes from one Rng seeded
    // with mix64(mix64(seed + link) + window), drawing down first and
    // burst second. A rate of 0 or 1 draws nothing, so at down rate 0
    // or 1 the burst draw takes the stream's first output.
    const int width = 5, height = 4;
    const Direction dirs[] = {Direction::East, Direction::West,
                              Direction::North, Direction::South};
    struct Rates
    {
        double down, burst;
    };
    for (const Rates rates : {Rates{0.1, 0.2}, Rates{0.0, 0.3},
                              Rates{1.0, 0.4}, Rates{0.3, 1.0},
                              Rates{0.25, 0.0}}) {
        LinkFaultConfig faults;
        faults.seed = 4242;
        faults.linkDownRate = rates.down;
        faults.burstRate = rates.burst;
        faults.linkDownWindows = 3;
        IslandMesh mesh(width, height, 2, 5);
        mesh.setLinkFaults(faults);

        std::vector<std::uint64_t> down_until(
            static_cast<std::size_t>(width) * height * 4, 0);
        std::uint64_t down_events = 0, down_trials = 0;
        std::uint64_t burst_events = 0, burst_trials = 0;
        std::uint64_t windows_down = 0;
        for (std::uint64_t window = 0; window < 50; ++window) {
            if (window > 0)
                mesh.advanceWindow();
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    for (const Direction dir : dirs) {
                        const bool inside =
                            (dir == Direction::East && x + 1 < width)
                            || (dir == Direction::West && x > 0)
                            || (dir == Direction::North && y + 1 < height)
                            || (dir == Direction::South && y > 0);
                        if (!inside)
                            continue;
                        const std::size_t link =
                            (static_cast<std::size_t>(y) * width + x) * 4
                            + static_cast<std::size_t>(dir);
                        Rng rng(referenceMix64(
                            referenceMix64(faults.seed + link) + window));
                        const bool down = rng.bernoulli(rates.down);
                        const bool burst = rng.bernoulli(rates.burst);
                        if (down_until[link] <= window) {
                            ++down_trials;
                            if (down) {
                                ++down_events;
                                down_until[link] = window + 3;
                            }
                        }
                        windows_down += down_until[link] > window;
                        ++burst_trials;
                        burst_events += burst;
                        ASSERT_EQ(mesh.linkDown({x, y}, dir),
                                  down_until[link] > window)
                            << "link " << link << " window " << window;
                        ASSERT_EQ(mesh.linkBurst({x, y}, dir), burst)
                            << "link " << link << " window " << window;
                        if (down_until[link] > window) {
                            EXPECT_EQ(mesh.freeSlots({x, y}, dir), 0u);
                        }
                    }
                }
            }
            EXPECT_EQ(mesh.faultDownEvents(), down_events);
            EXPECT_EQ(mesh.faultDownTrials(), down_trials);
            EXPECT_EQ(mesh.faultBurstEvents(), burst_events);
            EXPECT_EQ(mesh.faultBurstTrials(), burst_trials);
            EXPECT_EQ(mesh.linkWindowsDown(), windows_down);
        }
        EXPECT_EQ(mesh.windowsElapsed(), 49u);
    }
}

TEST(Workload, GeneratesBoundedDemands)
{
    SyntheticConfig config;
    config.concurrentToffolis = 4;
    ToffoliWorkload workload(config, 8, 8, Rng(1));
    for (int w = 0; w < 50; ++w) {
        const auto demands = workload.nextWindow();
        EXPECT_LE(demands.size(),
                  static_cast<std::size_t>(
                      config.concurrentToffolis
                      * kToffoliInteractionsPerWindow));
        for (const auto &demand : demands) {
            EXPECT_GT(demand.pairs, 0u);
            EXPECT_GE(demand.source.x, 0);
            EXPECT_LT(demand.source.x, 8);
            EXPECT_GE(demand.destination.y, 0);
            EXPECT_LT(demand.destination.y, 8);
        }
    }
    EXPECT_GT(workload.gatesStarted(), 4u); // replacement happened
}

TEST(Workload, DriftCoLocatesPartners)
{
    // With drift on, repeated interactions shrink to zero-distance
    // demands over time; with it off every demand is a round trip.
    SyntheticConfig drift;
    drift.concurrentToffolis = 2;
    drift.driftOptimization = true;
    SyntheticConfig no_drift = drift;
    no_drift.driftOptimization = false;

    ToffoliWorkload with(drift, 8, 8, Rng(3));
    ToffoliWorkload without(no_drift, 8, 8, Rng(3));
    std::uint64_t with_pairs = 0, without_pairs = 0;
    for (int w = 0; w < 40; ++w) {
        for (const auto &d : with.nextWindow())
            with_pairs += d.pairs;
        for (const auto &d : without.nextWindow())
            without_pairs += d.pairs;
    }
    EXPECT_LT(with_pairs, without_pairs);
}

TEST(Scheduler, SlotsPerChannelFromEcWindow)
{
    // 0.043 s window / 1.4 ms per purified pair ~ 30 pairs.
    EXPECT_EQ(slotsPerChannel(SyntheticConfig{}.window), 30u);
}

TEST(Scheduler, BandwidthTwoFullyOverlaps)
{
    SyntheticConfig config;
    config.bandwidth = 2;
    config.totalWindows = 100;
    const auto report = runSyntheticScheduler(config);
    EXPECT_TRUE(report.fullyOverlapped());
    // Paper: ~23% aggregate utilization.
    EXPECT_GT(report.utilization, 0.15);
    EXPECT_LT(report.utilization, 0.30);
    // All but the final windows' still-pending prefetches delivered.
    EXPECT_GE(report.pairsDelivered,
              static_cast<std::uint64_t>(0.97 * report.pairsRequested));
}

TEST(Scheduler, BandwidthOneStallsComputation)
{
    SyntheticConfig config;
    config.bandwidth = 1;
    config.totalWindows = 100;
    const auto report = runSyntheticScheduler(config);
    EXPECT_FALSE(report.fullyOverlapped());
    // A 49-pair transversal interaction cannot fit in ~30 slots.
    EXPECT_GT(report.stalledDemands, report.demands / 20);
}

TEST(Scheduler, MoreBandwidthNeverHurts)
{
    std::uint64_t previous_stalls = ~std::uint64_t{0};
    for (int bandwidth : {1, 2, 4}) {
        SyntheticConfig config;
        config.bandwidth = bandwidth;
        config.totalWindows = 60;
        const auto report = runSyntheticScheduler(config);
        EXPECT_LE(report.stalledDemands, previous_stalls);
        previous_stalls = report.stalledDemands;
    }
}

TEST(Scheduler, BackoffReroutesHappenUnderContention)
{
    SyntheticConfig config;
    config.bandwidth = 2;
    config.totalWindows = 100;
    const auto report = runSyntheticScheduler(config);
    // The greedy scheduler must actually exercise its backoff path.
    EXPECT_GT(report.backoffReroutes, 0u);
}

TEST(Scheduler, DeterministicForFixedSeed)
{
    SyntheticConfig config;
    config.totalWindows = 40;
    const auto a = runSyntheticScheduler(config);
    const auto b = runSyntheticScheduler(config);
    EXPECT_EQ(a.pairsDelivered, b.pairsDelivered);
    EXPECT_EQ(a.stalledDemands, b.stalledDemands);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);

    // The exact report of the default experiment, so a change to the
    // workload's draw order or the window loop's routing order shows.
    EXPECT_EQ(a.windows, 40u);
    EXPECT_EQ(a.demands, 1093u);
    EXPECT_EQ(a.pairsRequested, 53557u);
    EXPECT_EQ(a.pairsDelivered, 53557u);
    EXPECT_EQ(a.stalledDemands, 0u);
    EXPECT_EQ(a.stalledWindows, 0u);
    EXPECT_EQ(a.backoffReroutes, 492u);
    EXPECT_EQ(a.utilization, 0.21186631944444445);
    EXPECT_EQ(a.averageRouteLength, 4.8188472095150958);

    config.bandwidth = 1;
    const auto narrow = runSyntheticScheduler(config);
    EXPECT_EQ(narrow.demands, 1093u);
    EXPECT_EQ(narrow.pairsRequested, 53557u);
    EXPECT_EQ(narrow.pairsDelivered, 51508u);
    EXPECT_EQ(narrow.stalledDemands, 67u);
    EXPECT_EQ(narrow.stalledWindows, 20u);
    EXPECT_EQ(narrow.backoffReroutes, 1248u);
    EXPECT_EQ(narrow.utilization, 0.43395675505050507);
    EXPECT_EQ(narrow.averageRouteLength, 4.8777335984095425);
}

TEST(Scheduler, UtilizationWithinPhysicalBounds)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SyntheticConfig config;
        config.seed = seed;
        config.totalWindows = 50;
        const auto report = runSyntheticScheduler(config);
        EXPECT_GE(report.utilization, 0.0);
        EXPECT_LE(report.utilization, 1.0);
        EXPECT_LE(report.pairsDelivered, report.pairsRequested);
    }
}

//
// Router path properties (scheduler invariant: every candidate path
// is a valid walk on the mesh).
//

namespace {

/** Islands a route visits, stepping its legs one hop at a time. */
std::vector<IslandCoord>
routeIslands(const MeshRoute &route)
{
    std::vector<IslandCoord> islands{route.from};
    IslandCoord at = route.from;
    for (int leg = 0; leg < 3; ++leg) {
        int &axis = (route.yFirst != (leg == 1)) ? at.y : at.x;
        const int step = route.legs[leg] > 0 ? 1 : -1;
        for (int i = 0; i < std::abs(route.legs[leg]); ++i) {
            axis += step;
            islands.push_back(at);
        }
    }
    return islands;
}

void
expectValidWalk(const std::vector<IslandCoord> &path,
                const IslandCoord &from, const IslandCoord &to,
                int width, int height)
{
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), from);
    EXPECT_EQ(path.back(), to);
    for (const auto &c : path) {
        EXPECT_GE(c.x, 0);
        EXPECT_LT(c.x, width);
        EXPECT_GE(c.y, 0);
        EXPECT_LT(c.y, height);
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const int dx = std::abs(path[i + 1].x - path[i].x);
        const int dy = std::abs(path[i + 1].y - path[i].y);
        EXPECT_EQ(dx + dy, 1) << "non-unit hop at " << i;
    }
}

} // namespace

TEST(Router, PathsAreValidMeshWalks)
{
    const int width = 9, height = 7;
    Rng rng(2024);
    for (int trial = 0; trial < 500; ++trial) {
        const IslandCoord from{
            static_cast<int>(rng.uniformInt(width)),
            static_cast<int>(rng.uniformInt(height))};
        const IslandCoord to{
            static_cast<int>(rng.uniformInt(width)),
            static_cast<int>(rng.uniformInt(height))};
        if (from == to)
            continue;
        for (const bool y_first : {false, true})
            expectValidWalk(
                routeIslands(MeshRoute::dimensionOrdered(from, to, y_first)),
                from, to, width, height);
        for (int shift = -2; shift <= 2; ++shift) {
            if (shift == 0)
                continue;
            if (from.x + shift >= 0 && from.x + shift < width)
                expectValidWalk(
                    routeIslands(MeshRoute::via(from, to, false, shift)),
                    from, to, width, height);
            if (from.y + shift >= 0 && from.y + shift < height)
                expectValidWalk(
                    routeIslands(MeshRoute::via(from, to, true, shift)),
                    from, to, width, height);
        }
    }
}

TEST(Router, DimensionOrderedPathIsShortest)
{
    const IslandCoord from{1, 1}, to{4, 5};
    for (const bool y_first : {false, true}) {
        const auto route = MeshRoute::dimensionOrdered(from, to, y_first);
        EXPECT_EQ(route.hops(), 3 + 4);
        EXPECT_EQ(routeIslands(route).size(), 1u + 3u + 4u);
    }
}

namespace {

/** The path builders the router used before routes were walked in
 *  place, kept as the reference: every island of the walk, in order. */
std::vector<IslandCoord>
referenceDimensionOrderedPath(const IslandCoord &from,
                              const IslandCoord &to, bool y_first)
{
    std::vector<IslandCoord> path{from};
    IslandCoord cur = from;
    auto walk_x = [&]() {
        while (cur.x != to.x) {
            cur.x += (to.x > cur.x) ? 1 : -1;
            path.push_back(cur);
        }
    };
    auto walk_y = [&]() {
        while (cur.y != to.y) {
            cur.y += (to.y > cur.y) ? 1 : -1;
            path.push_back(cur);
        }
    };
    if (y_first) {
        walk_y();
        walk_x();
    } else {
        walk_x();
        walk_y();
    }
    return path;
}

std::vector<IslandCoord>
referenceDetourPath(const IslandCoord &from, const IslandCoord &to,
                    int x_shift)
{
    // Route via a shifted column: x-first to the detour column, then y,
    // then x to the destination.
    const IslandCoord mid1{from.x + x_shift, from.y};
    const IslandCoord mid2{from.x + x_shift, to.y};
    std::vector<IslandCoord> path{from};
    IslandCoord cur = from;
    auto walk_to = [&](const IslandCoord &wp) {
        while (cur.x != wp.x) {
            cur.x += (wp.x > cur.x) ? 1 : -1;
            path.push_back(cur);
        }
        while (cur.y != wp.y) {
            cur.y += (wp.y > cur.y) ? 1 : -1;
            path.push_back(cur);
        }
    };
    walk_to(mid1);
    walk_to(mid2);
    walk_to(to);
    return path;
}

std::vector<IslandCoord>
referenceDetourPathRow(const IslandCoord &from, const IslandCoord &to,
                       int y_shift)
{
    // Route via a shifted row: y-first to the detour row, then x, then
    // y to the destination.
    const IslandCoord mid1{from.x, from.y + y_shift};
    const IslandCoord mid2{to.x, from.y + y_shift};
    std::vector<IslandCoord> path{from};
    IslandCoord cur = from;
    auto walk_to = [&](const IslandCoord &wp) {
        while (cur.y != wp.y) {
            cur.y += (wp.y > cur.y) ? 1 : -1;
            path.push_back(cur);
        }
        while (cur.x != wp.x) {
            cur.x += (wp.x > cur.x) ? 1 : -1;
            path.push_back(cur);
        }
    };
    walk_to(mid1);
    walk_to(mid2);
    walk_to(to);
    return path;
}

Direction
hopDirection(const IslandCoord &a, const IslandCoord &b)
{
    if (b.x != a.x)
        return b.x > a.x ? Direction::East : Direction::West;
    return b.y > a.y ? Direction::North : Direction::South;
}

/** Used slots of every directed link, (island, direction) order. */
std::vector<std::uint64_t>
usedSnapshot(const IslandMesh &mesh)
{
    std::vector<std::uint64_t> used;
    for (int y = 0; y < mesh.height(); ++y)
        for (int x = 0; x < mesh.width(); ++x)
            for (const Direction dir :
                 {Direction::East, Direction::West, Direction::North,
                  Direction::South}) {
                const bool inside =
                    (dir == Direction::East && x + 1 < mesh.width())
                    || (dir == Direction::West && x > 0)
                    || (dir == Direction::North && y + 1 < mesh.height())
                    || (dir == Direction::South && y > 0);
                used.push_back(inside ? mesh.usedSlots({x, y}, dir) : 0);
            }
    return used;
}

/** Check @p route against the reference @p path: same islands in the
 *  same order (so the same directed links), same hop count, and on
 *  @p mesh the same free capacity, reserved links and burst count. */
void
expectRouteMatchesPath(const IslandMesh &mesh, const MeshRoute &route,
                       const std::vector<IslandCoord> &path, Rng &rng)
{
    ASSERT_EQ(routeIslands(route), path);
    ASSERT_EQ(route.hops(), static_cast<int>(path.size()) - 1);

    std::uint64_t free = ~std::uint64_t{0};
    int bursts = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Direction dir = hopDirection(path[i], path[i + 1]);
        free = std::min(free, mesh.freeSlots(path[i], dir));
        bursts += mesh.linkBurst(path[i], dir) ? 1 : 0;
    }
    ASSERT_EQ(mesh.maxReservable(route), free);
    if (free == 0 || path.size() < 2)
        return;

    IslandMesh after = mesh;
    const std::uint64_t pairs = 1 + rng.uniformInt(free);
    ASSERT_EQ(after.reserve(route, pairs), bursts);
    EXPECT_EQ(after.reservedThisWindow(),
              mesh.reservedThisWindow() + pairs * route.hops());
    std::vector<std::uint64_t> expected = usedSnapshot(mesh);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Direction dir = hopDirection(path[i], path[i + 1]);
        expected[(static_cast<std::size_t>(path[i].y) * mesh.width()
                  + path[i].x) * 4 + static_cast<std::size_t>(dir)] +=
            pairs;
    }
    EXPECT_EQ(usedSnapshot(after), expected);
}

} // namespace

TEST(Router, RoutesMatchReferencePaths)
{
    // Every shape the router tries (both dimension orders, and column
    // and row detours for each shift within the detour radius) against
    // the path builders it replaced, on meshes down to 2x1, single
    // rows/columns and lines longer than 64 islands, with endpoints
    // forced onto the edges half the time.
    const int radius = kDetourRadius;
    // 70-island lines span two words of the mesh's full-link index.
    const std::pair<int, int> sizes[] = {{2, 1},  {5, 1},   {1, 4},
                                         {3, 3},  {7, 5},   {12, 12},
                                         {70, 2}, {2, 70}};
    Rng rng(14);
    std::uint64_t checked = 0;
    for (const auto &[width, height] : sizes) {
        for (int trial = 0; trial < 120; ++trial) {
            auto pick = [&](int extent) {
                const int v = static_cast<int>(rng.uniformInt(extent));
                if (trial % 2 == 0)
                    return v;
                return rng.bernoulli(0.5) ? 0 : extent - 1;
            };
            const IslandCoord from{pick(width), pick(height)};
            const IslandCoord to{pick(width), pick(height)};
            if (from == to)
                continue;

            // Load the mesh: down links, bursts and partial reservations
            // so the capacity walk meets full, partly used and free links.
            IslandMesh mesh(width, height, 2, 5);
            LinkFaultConfig faults;
            faults.seed = 100 + trial;
            mesh.setLinkFaults(faults.atRate(0.3));
            for (int w = 0; w < trial % 3; ++w)
                mesh.advanceWindow();
            for (int load = 0; load < width * height; ++load) {
                const IslandCoord a{
                    static_cast<int>(rng.uniformInt(width)),
                    static_cast<int>(rng.uniformInt(height))};
                const MeshRoute hop = MeshRoute::dimensionOrdered(
                    a, {pick(width), pick(height)}, rng.bernoulli(0.5));
                const std::uint64_t room = mesh.maxReservable(hop);
                if (hop.hops() > 0 && room > 0)
                    mesh.reserve(hop, 1 + rng.uniformInt(room));
            }

            for (const bool y_first : {false, true}) {
                expectRouteMatchesPath(
                    mesh, MeshRoute::dimensionOrdered(from, to, y_first),
                    referenceDimensionOrderedPath(from, to, y_first), rng);
                ++checked;
            }
            for (int shift = -radius; shift <= radius; ++shift) {
                if (from.x + shift >= 0 && from.x + shift < width) {
                    expectRouteMatchesPath(
                        mesh, MeshRoute::via(from, to, false, shift),
                        referenceDetourPath(from, to, shift), rng);
                    ++checked;
                }
                if (from.y + shift >= 0 && from.y + shift < height) {
                    expectRouteMatchesPath(
                        mesh, MeshRoute::via(from, to, true, shift),
                        referenceDetourPathRow(from, to, shift), rng);
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 5000u);
}

TEST(Router, CapacityNeverExceededWithinWindow)
{
    // Random demand storms can never push a directed link beyond
    // bandwidth x slots in one window.
    const int width = 6, height = 6;
    IslandMesh mesh(width, height, 2, 30);
    RouteStats stats;
    Rng rng(77);
    for (int window = 0; window < 40; ++window) {
        for (int d = 0; d < 30; ++d) {
            EprDemand demand;
            demand.source = {static_cast<int>(rng.uniformInt(width)),
                             static_cast<int>(rng.uniformInt(height))};
            demand.destination = {
                static_cast<int>(rng.uniformInt(width)),
                static_cast<int>(rng.uniformInt(height))};
            demand.pairs = 1 + rng.uniformInt(90);
            const std::uint64_t moved = routePairs(mesh, demand,
                                                   demand.pairs, stats);
            EXPECT_LE(moved, demand.pairs);
        }
        std::uint64_t used_total = 0;
        for (int x = 0; x < width; ++x)
            for (int y = 0; y < height; ++y)
                for (const Direction dir :
                     {Direction::East, Direction::West, Direction::North,
                      Direction::South}) {
                    const IslandCoord from{x, y};
                    IslandCoord to = from;
                    switch (dir) {
                      case Direction::East: ++to.x; break;
                      case Direction::West: --to.x; break;
                      case Direction::North: ++to.y; break;
                      case Direction::South: --to.y; break;
                    }
                    if (!mesh.inBounds(to))
                        continue;
                    const std::uint64_t used = mesh.usedSlots(from, dir);
                    EXPECT_LE(used, mesh.linkCapacity());
                    EXPECT_EQ(used + mesh.freeSlots(from, dir),
                              mesh.linkCapacity());
                    used_total += used;
                }
        EXPECT_EQ(used_total, mesh.reservedThisWindow());
        mesh.advanceWindow();
    }
}

//
// Tile placement.
//

TEST(TilePlacement, AssignReleaseKeepsBijection)
{
    TilePlacement placement(4, 5, 3); // 12 x 5 tiles
    EXPECT_EQ(placement.totalTiles(), 60u);
    placement.assign(7, {0, 0});
    placement.assign(3, {11, 4});
    EXPECT_TRUE(placement.isBijective());
    EXPECT_EQ(placement.occupantOf({0, 0}), 7u);
    EXPECT_EQ(placement.islandOf(EntityId{7}).x, 0);
    EXPECT_EQ(placement.islandOf(EntityId{3}).x, 3);
    placement.moveTo(7, {1, 1});
    EXPECT_TRUE(placement.isBijective());
    EXPECT_EQ(placement.occupantOf({0, 0}), kNoEntity);
    placement.release(3);
    EXPECT_TRUE(placement.isBijective());
    EXPECT_EQ(placement.occupiedTiles(), 1u);
}

TEST(TilePlacement, NearestFreeIsDeterministicAndNear)
{
    TilePlacement placement(4, 4, 3);
    placement.assign(0, {5, 2});
    const auto a = placement.nearestFree({5, 2});
    const auto b = placement.nearestFree({5, 2});
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(std::abs(a->x - 5) + std::abs(a->y - 2), 1);
}

namespace {

/** Reference for TilePlacement::nearestFree: scan every free tile of the
 *  band and keep the one with the smallest (Manhattan distance, ring-walk
 *  rank) key -- within a ring, dx decreasing, then y below before above. */
std::optional<TileCoord>
bruteForceNearestFree(const TilePlacement &placement, const TileCoord &near,
                      const TileBand &band)
{
    std::optional<TileCoord> best;
    std::tuple<int, int, int> best_key;
    const int x_end = std::min(band.xEnd, placement.tileWidth());
    for (int x = std::max(band.xBegin, 0); x < x_end; ++x)
        for (int y = 0; y < placement.tileHeight(); ++y) {
            if (placement.occupantOf({x, y}) != kNoEntity)
                continue;
            const int dx = x - near.x, dy = y - near.y;
            const std::tuple<int, int, int> key{
                std::abs(dx) + std::abs(dy), -dx, dy > 0 ? 1 : 0};
            if (!best || key < best_key) {
                best = TileCoord{x, y};
                best_key = key;
            }
        }
    return best;
}

} // namespace

TEST(TilePlacement, BandSearchMatchesBruteForceReference)
{
    Rng rng(2024);
    std::uint64_t hits = 0, misses = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const int mesh_w = 1 + static_cast<int>(rng.uniformInt(5));
        const int mesh_h = 1 + static_cast<int>(rng.uniformInt(6));
        const int tpx = 1 + static_cast<int>(rng.uniformInt(3));
        TilePlacement placement(mesh_w, mesh_h, tpx);
        const int w = placement.tileWidth(), h = placement.tileHeight();
        // Occupancy density sweeps empty .. full grids.
        const double density = static_cast<double>(trial % 11) / 10.0;
        EntityId next = 0;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                if (rng.bernoulli(density))
                    placement.assign(next++, {x, y});
        // Release some again on even trials so the column counts go
        // both ways; odd trials keep full grids at density 1.
        for (EntityId e = 0; trial % 2 == 0 && e < next; e += 3)
            placement.release(e);
        ASSERT_TRUE(placement.isBijective());

        std::vector<TileBand> bands = {
            TileBand{},                       // whole grid (unfiltered)
            TileBand{0, w},                   // whole grid, explicit
            TileBand{w / 2, w / 2},           // empty band
            TileBand{w - 1, w},               // one column
            TileBand{-3, w + 3},              // clipped to the grid
        };
        for (int b = 0; b < 4; ++b) {
            const int x0 = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(w)));
            const int x1 = x0 + 1
                + static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(w - x0)));
            bands.push_back(TileBand{x0, x1});
        }
        for (const TileBand &band : bands)
            for (int q = 0; q < 4; ++q) {
                // Anchors anywhere on the grid, so some lie outside
                // the band.
                const TileCoord near{
                    static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(w))),
                    static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(h)))};
                const auto expect =
                    bruteForceNearestFree(placement, near, band);
                const auto got = placement.nearestFree(near, band);
                ASSERT_EQ(got.has_value(), expect.has_value())
                    << "trial " << trial << " near (" << near.x << ","
                    << near.y << ") band [" << band.xBegin << ","
                    << band.xEnd << ")";
                if (expect) {
                    EXPECT_EQ(*got, *expect) << "trial " << trial;
                    ++hits;
                } else {
                    ++misses;
                }
            }
    }
    // Both outcomes were exercised.
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(misses, 100u);

    // Fixed layouts for the band-emptiness check, on an 8x3 tile grid
    // with the band [2, 6) and every column outside it free.
    const TileBand band{2, 6};
    const std::vector<TileCoord> anchors = {
        {0, 0}, {1, 2}, {2, 1}, {4, 0}, {5, 2}, {6, 1}, {7, 0}};
    const auto fill_band = [&](TilePlacement &placement,
                               const TileCoord &keep_free) {
        EntityId next = 0;
        for (int x = band.xBegin; x < band.xEnd; ++x)
            for (int y = 0; y < placement.tileHeight(); ++y)
                if (!(TileCoord{x, y} == keep_free))
                    placement.assign(next++, {x, y});
    };
    // The band's only free tile sits in its last column.
    TilePlacement last_column(4, 3, 2);
    fill_band(last_column, {5, 1});
    for (const TileCoord &near : anchors) {
        const auto got = last_column.nearestFree(near, band);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, (TileCoord{5, 1}));
        EXPECT_EQ(got, bruteForceNearestFree(last_column, near, band));
    }
    // The band is full while the columns just outside it (1 and 6)
    // have free tiles: nothing inside the band.
    TilePlacement full_band(4, 3, 2);
    fill_band(full_band, {-1, -1});
    ASSERT_EQ(full_band.occupiedTiles(), 12u);
    for (const TileCoord &near : anchors) {
        EXPECT_FALSE(full_band.nearestFree(near, band).has_value());
        EXPECT_FALSE(bruteForceNearestFree(full_band, near, band));
        EXPECT_TRUE(full_band.nearestFree(near).has_value());
    }
}

TEST(TilePlacement, DriftMovesTowardPartnerIsland)
{
    TilePlacement placement(6, 1, 3);
    placement.assign(0, {0, 0});
    placement.assign(1, {17, 0});
    EXPECT_TRUE(placement.driftToward(0, 1));
    EXPECT_TRUE(placement.isBijective());
    // Partner island has free tiles, so the pair is now co-located.
    EXPECT_TRUE(placement.islandOf(EntityId{0})
                == placement.islandOf(EntityId{1}));
    // Already co-located: no further move.
    EXPECT_FALSE(placement.driftToward(0, 1));
    // Drift never moves *away*: a qubit already nearest its partner's
    // full island stays put.
    TilePlacement tight(2, 1, 1);
    tight.assign(0, {0, 0});
    tight.assign(1, {1, 0});
    EXPECT_FALSE(tight.driftToward(0, 1)); // partner island is full
    EXPECT_EQ(tight.tileOf(0), (TileCoord{0, 0}));
    // A band keeps the mover inside it: the partner's island lies
    // beyond the band, so the mover lands on the band's edge tile.
    TilePlacement banded(6, 1, 3);
    banded.assign(0, {0, 0});
    banded.assign(1, {17, 0});
    EXPECT_TRUE(banded.driftToward(0, 1, TileBand{0, 9}));
    EXPECT_EQ(banded.tileOf(0), (TileCoord{8, 0}));
    EXPECT_TRUE(banded.isBijective());
}

TEST(TilePlacement, HilbertOrderCoversEveryTileOnce)
{
    for (const auto &[w, h] : {std::pair{5, 7}, {8, 8}, {12, 3}}) {
        const auto order = hilbertTileOrder(w, h);
        ASSERT_EQ(order.size(), static_cast<std::size_t>(w) * h);
        std::set<std::pair<int, int>> seen;
        for (const auto &t : order) {
            EXPECT_GE(t.x, 0);
            EXPECT_LT(t.x, w);
            EXPECT_GE(t.y, 0);
            EXPECT_LT(t.y, h);
            seen.insert({t.x, t.y});
        }
        EXPECT_EQ(seen.size(), order.size());
    }
}

TEST(TilePlacement, AffinityOrderInterleavesAdderRegisters)
{
    // In the carry-lookahead adder a_i, b_i and s_i interact heavily;
    // the affinity arrangement must put them close together -- far
    // tighter than the register-by-register identity order.
    const auto circuit = apps::qclaAdderCircuit(64);
    const auto order = affinityOrder(circuit);
    ASSERT_EQ(order.size(), circuit.numQubits());
    std::vector<std::size_t> position(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    double affinity_sum = 0.0, identity_sum = 0.0;
    std::uint64_t edges = 0;
    for (const auto &op : circuit.ops()) {
        const auto qs = op.qubits();
        for (std::size_t i = 0; i < qs.size(); ++i)
            for (std::size_t j = i + 1; j < qs.size(); ++j) {
                affinity_sum += std::abs(
                    static_cast<double>(position[qs[i]])
                    - static_cast<double>(position[qs[j]]));
                identity_sum += std::abs(static_cast<double>(qs[i])
                                         - static_cast<double>(qs[j]));
                ++edges;
            }
    }
    ASSERT_GT(edges, 0u);
    EXPECT_LT(affinity_sum, 0.5 * identity_sum);
    // And it is deterministic.
    EXPECT_EQ(order, affinityOrder(circuit));
}

TEST(TilePlacement, PlaceProgramQubitsStrideLeavesLocalFreeTiles)
{
    const auto circuit = apps::qclaAdderCircuit(16);
    TilePlacement placement(8, 8, 3);
    placeProgramQubits(placement, circuit, PlacementStrategy::Affinity,
                       Rng(1), 3);
    EXPECT_EQ(placement.occupiedTiles(), circuit.numQubits());
    EXPECT_TRUE(placement.isBijective());
    // Every placed qubit has a free tile within 2 hops.
    for (const EntityId e : placement.placedEntities()) {
        const TileCoord t = placement.tileOf(e);
        const auto free = placement.nearestFree(t);
        ASSERT_TRUE(free);
        EXPECT_LE(std::abs(free->x - t.x) + std::abs(free->y - t.y), 2);
    }
}

//
// Program lowering.
//

TEST(ProgramWorkload, GateDurationsAndDependencies)
{
    circuit::QuantumCircuit c(4, "demo");
    c.h(0);                // gate 0
    c.cnot(0, 1);          // gate 1, depends on 0
    c.toffoli(0, 1, 2);    // gate 2, depends on 1 (both operands)
    c.x(3);                // gate 3, independent
    c.cz(2, 3);            // gate 4, depends on 2 and 3
    const ProgramWorkload program(c);
    ASSERT_EQ(program.gates().size(), 5u);
    EXPECT_EQ(program.gates()[0].durationWindows, 1);
    EXPECT_EQ(program.gates()[2].durationWindows, 21);
    EXPECT_EQ(program.gates()[2].ancillaCount, 6);
    EXPECT_EQ(program.gates()[0].dependencyCount, 0);
    EXPECT_EQ(program.gates()[1].dependencyCount, 1);
    EXPECT_EQ(program.gates()[2].dependencyCount, 1);
    EXPECT_EQ(program.gates()[4].dependencyCount, 2);
    EXPECT_EQ(program.gates()[0].successors,
              (std::vector<std::size_t>{1}));
    // Critical path: h(1) + cnot(1) + toffoli(21) + cz(1) = 24 windows,
    // with exactly one Toffoli on it.
    const auto critical = program.criticalPath();
    EXPECT_EQ(critical.windows, 24u);
    EXPECT_EQ(critical.toffolis, 1u);
}

TEST(ProgramWorkload, ToffoliInteractionSchedulesAreDeterministic)
{
    circuit::QuantumCircuit c(3, "t");
    c.toffoli(0, 1, 2);
    const ProgramWorkload program(c);
    const auto &gate = program.gates()[0];
    for (int w = 0; w < gate.durationWindows; ++w) {
        const auto a = program.interactionsForWindow(0, w);
        const auto b = program.interactionsForWindow(0, w);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(a.size(), 2u);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].mover, b[i].mover);
            EXPECT_EQ(a[i].target, b[i].target);
        }
        for (const auto &inter : a) {
            // Prep windows stay inside the ancilla network; finish
            // windows couple operands and ancillas.
            const bool prep = w < 15;
            if (prep) {
                EXPECT_TRUE(inter.mover.isAncilla);
                EXPECT_TRUE(inter.target.isAncilla);
            } else {
                EXPECT_TRUE(inter.mover.isAncilla
                            != inter.target.isAncilla);
            }
        }
    }
}

TEST(ProgramWorkload, ToffoliInteractionTableMatchesCyclicSchedule)
{
    // Reference schedule: window w's interaction i is
    // cycle[(w * count + i) % 6], with the prep cycle for the first 15
    // windows and the finish cycle after.
    const GateMember op[3] = {{false, 0}, {false, 1}, {false, 2}};
    GateMember anc[6];
    for (std::size_t i = 0; i < 6; ++i)
        anc[i] = {true, i};
    const MemberInteraction prep[6] = {
        {anc[0], anc[1]}, {anc[2], anc[3]}, {anc[4], anc[5]},
        {anc[1], anc[2]}, {anc[3], anc[4]}, {anc[5], anc[0]},
    };
    const MemberInteraction finish[6] = {
        {op[0], anc[0]}, {op[1], anc[2]}, {op[2], anc[4]},
        {anc[1], op[0]}, {anc[3], op[1]}, {anc[5], op[2]},
    };
    circuit::QuantumCircuit c(5, "t");
    c.toffoli(0, 1, 2); // gate 0
    c.cnot(0, 3);       // gate 1
    c.toffoli(2, 3, 4); // gate 2
    c.cz(1, 4);         // gate 3
    c.swapGate(3, 4);   // gate 4
    c.h(0);             // gate 5
    for (const int count : {0, 1, 2, 3, 7}) {
        ProgramConfig config;
        config.toffoliInteractionsPerWindow = count;
        const ProgramWorkload program(c, config);
        const int duration = program.gates()[0].durationWindows;
        ASSERT_EQ(duration, 21);
        for (int w = 0; w < duration; ++w) {
            const auto got = program.interactionsForWindow(0, w);
            ASSERT_EQ(got.size(), static_cast<std::size_t>(count));
            const auto &cycle = w < 15 ? prep : finish;
            for (int i = 0; i < count; ++i) {
                const MemberInteraction &want = cycle[(w * count + i) % 6];
                EXPECT_EQ(got[static_cast<std::size_t>(i)].mover,
                          want.mover)
                    << "count " << count << " window " << w << " i " << i;
                EXPECT_EQ(got[static_cast<std::size_t>(i)].target,
                          want.target)
                    << "count " << count << " window " << w << " i " << i;
            }
            // Every Toffoli gate reads the one lowered table.
            const auto other = program.interactionsForWindow(2, w);
            EXPECT_EQ(other.data(), got.data());
            EXPECT_EQ(other.size(), got.size());
        }
        const auto cnot = program.interactionsForWindow(1, 0);
        ASSERT_EQ(cnot.size(), 1u);
        EXPECT_EQ(cnot[0].mover, op[0]);
        EXPECT_EQ(cnot[0].target, op[1]);
        const auto cz = program.interactionsForWindow(3, 0);
        ASSERT_EQ(cz.size(), 1u);
        EXPECT_EQ(cz[0].mover, op[0]);
        EXPECT_EQ(cz[0].target, op[1]);
        const auto swap = program.interactionsForWindow(4, 0);
        ASSERT_EQ(swap.size(), 2u);
        EXPECT_EQ(swap[0].mover, op[0]);
        EXPECT_EQ(swap[0].target, op[1]);
        EXPECT_EQ(swap[1].mover, op[1]);
        EXPECT_EQ(swap[1].target, op[0]);
        EXPECT_TRUE(program.interactionsForWindow(5, 0).empty());
    }
}

TEST(ProgramWorkload, RejectsInvalidConfig)
{
    circuit::QuantumCircuit c(3, "t");
    c.toffoli(0, 1, 2);
    ProgramConfig no_tiles;
    no_tiles.tilesPerIslandX = 0;
    EXPECT_DEATH({ const ProgramWorkload program(c, no_tiles); },
                 "tilesPerIslandX must be >= 1");
    ProgramConfig negative;
    negative.toffoliInteractionsPerWindow = -1;
    EXPECT_DEATH({ const ProgramWorkload program(c, negative); },
                 "toffoliInteractionsPerWindow must be >= 0");
}

TEST(ProgramWorkload, MeshSizingFitsProgram)
{
    const ProgramWorkload program(apps::qclaAdderCircuit(32));
    const auto extent = meshForProgram(program);
    EXPECT_GE(extent.width, 2);
    EXPECT_GE(extent.height, 2);
    const std::size_t tiles = static_cast<std::size_t>(extent.width)
        * program.config().tilesPerIslandX * extent.height;
    EXPECT_GE(tiles, program.circuit().numQubits()
                  + program.peakAncillaTiles());
}

//
// Co-simulation: conservation, bijection, and the paper's conclusions.
//

TEST(CoSim, EprPairsConservedEveryWindow)
{
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    CoSimConfig config;
    config.bandwidth = 2;
    ProgramCoSimulator simulator(program, config);
    std::uint64_t windows_probed = 0;
    const auto report = simulator.run([&](const WindowProbe &probe) {
        ++windows_probed;
        // Generated = delivered + still pending (+ dropped/abandoned).
        EXPECT_EQ(probe.pairsRequested,
                  probe.pairsDelivered + probe.pairsPending
                      + probe.pairsDropped + probe.pairsAbandoned);
    });
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(windows_probed, report.windows + report.warmupWindows);
    EXPECT_EQ(report.pairsRequested,
              report.pairsDelivered() + report.pairsDropped
                  + report.pairsAbandoned);
    // Clean run: the noisy ledger stays empty.
    EXPECT_EQ(report.pairsAbandoned, 0u);
    EXPECT_EQ(report.pairsDropped, 0u);
    EXPECT_EQ(report.retryAttempts, 0u);
}

TEST(CoSim, DriftBookkeepingStaysBijective)
{
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    CoSimConfig config;
    config.bandwidth = 2;
    ProgramCoSimulator simulator(program, config);
    const auto report = simulator.run([&](const WindowProbe &probe) {
        ASSERT_NE(probe.placement, nullptr);
        EXPECT_TRUE(probe.placement->isBijective());
    });
    EXPECT_TRUE(report.completed);
    EXPECT_GT(report.driftMoves, 0u);
}

TEST(CoSim, BandwidthTwoFullyOverlapsQcla)
{
    // Acceptance: at the paper's 100-cell design point (window, service
    // time, island pitch defaults), bandwidth 2 runs the QCLA block
    // with communication fully overlapped -- the makespan IS the
    // dependency critical path.
    const ProgramWorkload program(apps::qclaAdderCircuit(64));
    CoSimConfig config;
    config.bandwidth = 2;
    const auto report = ProgramCoSimulator(program, config).run();
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.fullyOverlapped());
    EXPECT_EQ(report.windows, report.criticalPathWindows);
}

TEST(CoSim, BandwidthTwoFullyOverlapsToffoliNetwork)
{
    const ProgramWorkload program(apps::toffoliNetworkCircuit(27, 21));
    CoSimConfig config;
    config.bandwidth = 2;
    const auto report = ProgramCoSimulator(program, config).run();
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.fullyOverlapped());
    EXPECT_EQ(report.windows, report.criticalPathWindows);
}

TEST(CoSim, BandwidthOneStallsComputation)
{
    const ProgramWorkload program(apps::toffoliNetworkCircuit(27, 21));
    CoSimConfig config;
    config.bandwidth = 1;
    const auto report = ProgramCoSimulator(program, config).run();
    EXPECT_TRUE(report.completed);
    EXPECT_FALSE(report.fullyOverlapped());
    EXPECT_GT(report.windows, report.criticalPathWindows);
}

TEST(CoSim, MoreBandwidthNeverStallsMore)
{
    const ProgramWorkload program(apps::bandedQftCircuit(
        64, apps::qftBandWidth(64)));
    std::uint64_t previous = ~std::uint64_t{0};
    for (const int bandwidth : {1, 2, 4}) {
        CoSimConfig config;
        config.bandwidth = bandwidth;
        const auto report = ProgramCoSimulator(program, config).run();
        EXPECT_TRUE(report.completed);
        EXPECT_LE(report.stallWindows, previous);
        previous = report.stallWindows;
    }
}

TEST(CoSim, DriftOptimizationReducesDeliveredTraffic)
{
    // Acceptance: drift reduces delivered-pair mesh traffic (without it
    // every interaction is a round trip and qubits never co-locate).
    const ProgramWorkload program(apps::qclaAdderCircuit(32));
    CoSimConfig with;
    with.driftOptimization = true;
    CoSimConfig without = with;
    without.driftOptimization = false;
    const auto on = ProgramCoSimulator(program, with).run();
    const auto off = ProgramCoSimulator(program, without).run();
    EXPECT_TRUE(on.completed);
    EXPECT_TRUE(off.completed);
    EXPECT_LT(on.pairsRoutedOnMesh, off.pairsRoutedOnMesh);
    EXPECT_GT(on.driftMoves, 0u);
    EXPECT_EQ(off.driftMoves, 0u);
}

TEST(CoSim, DeterministicForFixedConfig)
{
    const ProgramWorkload program(apps::toffoliNetworkCircuit(15, 9));
    CoSimConfig config;
    config.placement = PlacementStrategy::Random;
    config.seed = 9;
    const auto a = ProgramCoSimulator(program, config).run();
    const auto b = ProgramCoSimulator(program, config).run();
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.pairsRoutedOnMesh, b.pairsRoutedOnMesh);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.driftMoves, b.driftMoves);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(CoSim, SweepIsThreadCountInvariant)
{
    // The sweep runs on the shot scheduler with one job per
    // (workload, bandwidth, seed); results must be bit-identical for
    // every thread count (repo determinism contract).
    std::vector<ProgramWorkload> workloads;
    workloads.emplace_back(apps::toffoliNetworkCircuit(12, 6));
    workloads.emplace_back(apps::qclaAdderCircuit(8));
    CoSimSweepConfig sweep;
    sweep.bandwidths = {1, 2};
    sweep.seeds = {1, 2, 3};
    sweep.base.placement = PlacementStrategy::Random;
    sweep.threads = 1;
    const auto serial = runCoSimSweep(workloads, sweep);
    sweep.threads = 4;
    const auto parallel = runCoSimSweep(workloads, sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 2u * 2u * 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].bandwidth, parallel[i].bandwidth);
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        EXPECT_EQ(serial[i].report.windows, parallel[i].report.windows);
        EXPECT_EQ(serial[i].report.pairsRequested,
                  parallel[i].report.pairsRequested);
        EXPECT_EQ(serial[i].report.pairsRoutedOnMesh,
                  parallel[i].report.pairsRoutedOnMesh);
        EXPECT_EQ(serial[i].report.stallWindows,
                  parallel[i].report.stallWindows);
        EXPECT_EQ(serial[i].report.driftMoves,
                  parallel[i].report.driftMoves);
        EXPECT_DOUBLE_EQ(serial[i].report.utilization,
                         parallel[i].report.utilization);
        EXPECT_DOUBLE_EQ(serial[i].report.averageRouteLength,
                         parallel[i].report.averageRouteLength);
    }
    const auto stats = reduceCoSimSweep(serial);
    EXPECT_EQ(stats.makespanWindows.count(), serial.size());
    EXPECT_EQ(stats.stalledRuns.trials(), serial.size());
}

TEST(CoSim, AncillaAllocationPressureIsDiagnosable)
{
    // A mesh too small for the gadget ancillas must show up in the
    // allocation-stall ledger (and break fullyOverlapped), not pass
    // silently as a long stall-free run.
    circuit::QuantumCircuit c(9, "tight");
    c.toffoli(0, 1, 2); // needs 6 ancilla tiles; 2x2x3 - 9 = 3 free
    const ProgramWorkload program(c);
    CoSimConfig config;
    config.meshWidth = 2;
    config.meshHeight = 2;
    config.maxWindows = 50;
    const auto report = ProgramCoSimulator(program, config).run();
    EXPECT_FALSE(report.completed);
    EXPECT_GT(report.allocationStallWindows, 0u);
    EXPECT_FALSE(report.fullyOverlapped());
}

TEST(CoSim, RunawayGuardReportsIncomplete)
{
    const ProgramWorkload program(apps::toffoliNetworkCircuit(9, 12));
    CoSimConfig config;
    config.maxWindows = 5; // far below the ~250-window critical path
    const auto report = ProgramCoSimulator(program, config).run();
    EXPECT_FALSE(report.completed);
    EXPECT_LE(report.windows + report.warmupWindows, 5u);
}

TEST(CoSim, EmptyProgramCompletesImmediately)
{
    const ProgramWorkload program(circuit::QuantumCircuit(4, "empty"));
    CoSimConfig config;
    config.meshWidth = 2;
    config.meshHeight = 2;
    const auto report = ProgramCoSimulator(program, config).run();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.windows, 0u);
    EXPECT_EQ(report.pairsRequested, 0u);
}

//
// PR 7 -- noisy interconnect co-design: fault injection, fidelity-gated
// delivery with retry/backoff, abandonment accounting, and graceful
// degradation.
//

namespace {

/** Shared noisy baseline for the degradation tests. */
CoSimConfig
noisyCoSimConfig()
{
    CoSimConfig config;
    config.bandwidth = 2;
    config.linkFaults = LinkFaultConfig{}.atRate(0.08);
    config.fidelity.elementaryFidelity = 0.96;
    config.fidelity.purificationLevel = 1;
    config.fidelity.opError = 1e-4;
    config.fidelity.deliveryThreshold = 0.9;
    config.fidelity.retryBudget = 2;
    return config;
}

} // namespace

TEST(NoisyCoSim, PerfectFidelityKnobsReproduceCleanSchedule)
{
    // Acceptance: turning the fidelity machinery ON with perfect pairs
    // (F = 1, zero fault rates, satisfiable threshold) must reproduce
    // the clean engine's schedule exactly -- the noisy path may only
    // change behavior through actual noise.
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    CoSimConfig clean;
    clean.bandwidth = 2;
    CoSimConfig perfect = clean;
    perfect.fidelity.elementaryFidelity = 1.0;
    perfect.fidelity.deliveryThreshold = 0.5;
    ASSERT_TRUE(perfect.fidelity.enabled());
    const auto a = ProgramCoSimulator(program, clean).run();
    const auto b = ProgramCoSimulator(program, perfect).run();
    EXPECT_TRUE(b.completed);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.warmupWindows, b.warmupWindows);
    EXPECT_EQ(a.criticalPathWindows, b.criticalPathWindows);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.pairsRequested, b.pairsRequested);
    EXPECT_EQ(a.pairsRoutedOnMesh, b.pairsRoutedOnMesh);
    EXPECT_EQ(a.driftMoves, b.driftMoves);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
    EXPECT_DOUBLE_EQ(a.averageRouteLength, b.averageRouteLength);
    EXPECT_EQ(b.pairsDropped, 0u);
    EXPECT_EQ(b.pairsAbandoned, 0u);
    EXPECT_EQ(b.retryAttempts, 0u);
    EXPECT_DOUBLE_EQ(b.deliveredFidelityMean(), 1.0);
    EXPECT_DOUBLE_EQ(b.residualEprError(), 0.0);
}

TEST(NoisyCoSim, LedgerConservesPairsAndAttributionUnderFaults)
{
    // Satellite: requested = delivered + pending + dropped + abandoned
    // at every window boundary, and the per-gate attribution sums to
    // the run totals.
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    const CoSimConfig config = noisyCoSimConfig();
    ProgramCoSimulator simulator(program, config);
    const auto report = simulator.run([&](const WindowProbe &probe) {
        EXPECT_EQ(probe.pairsRequested,
                  probe.pairsDelivered + probe.pairsPending
                      + probe.pairsDropped + probe.pairsAbandoned);
    });
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.pairsRequested,
              report.pairsDelivered() + report.pairsDropped
                  + report.pairsAbandoned);
    // Drops decompose exactly into transit losses + threshold rejects.
    EXPECT_EQ(report.pairsDropped,
              report.pairsLostInTransit + report.pairsRejectedFidelity);
    EXPECT_GT(report.pairsDropped, 0u);
    EXPECT_GT(report.fidelityPairs, 0u);
    EXPECT_LT(report.deliveredFidelityMin,
              report.deliveredFidelityMean() + 1e-12);
    // Per-gate attribution is a partition of the run totals.
    std::uint64_t stall = 0, retries = 0, penalty = 0, abandoned = 0;
    for (const auto &gate : report.perGate) {
        stall += gate.stallWindows;
        retries += gate.retryAttempts;
        penalty += gate.penaltyWindows;
        abandoned += gate.pairsAbandoned;
    }
    EXPECT_EQ(stall, report.stallWindows);
    EXPECT_EQ(retries, report.retryAttempts);
    EXPECT_EQ(penalty, report.fallbackPenaltyWindows);
    EXPECT_EQ(abandoned, report.pairsAbandoned);
}

TEST(NoisyCoSim, AbandonmentOnlyOnRetryBudgetExhaustion)
{
    const ProgramWorkload program(apps::toffoliNetworkCircuit(15, 9));
    // Achievable delivery: faults drop pairs but nothing is rejected,
    // so the retry/abandonment path must stay untouched.
    CoSimConfig achievable;
    achievable.bandwidth = 2;
    achievable.linkFaults = LinkFaultConfig{}.atRate(0.1);
    const auto ok = ProgramCoSimulator(program, achievable).run();
    EXPECT_TRUE(ok.completed);
    EXPECT_GT(ok.pairsDropped, 0u);
    EXPECT_EQ(ok.retryAttempts, 0u);
    EXPECT_EQ(ok.pairsAbandoned, 0u);
    EXPECT_EQ(ok.demandsAbandoned, 0u);
    EXPECT_EQ(ok.gatesDegraded, 0u);
    EXPECT_EQ(ok.fallbackPenaltyWindows, 0u);

    // Unsatisfiable threshold: every delivery is rejected, every demand
    // burns its retry budget and is abandoned -- and the run still
    // completes (graceful degradation), paying the fallback penalty.
    CoSimConfig impossible;
    impossible.bandwidth = 2;
    impossible.fidelity.elementaryFidelity = 0.9;
    impossible.fidelity.deliveryThreshold = 0.97;
    impossible.fidelity.retryBudget = 1;
    impossible.fidelity.backoffWindows = 1;
    const auto bad = ProgramCoSimulator(program, impossible).run();
    EXPECT_TRUE(bad.completed);
    EXPECT_GT(bad.demandsAbandoned, 0u);
    EXPECT_GT(bad.pairsAbandoned, 0u);
    EXPECT_GT(bad.gatesDegraded, 0u);
    EXPECT_GT(bad.retryAttempts, 0u);
    EXPECT_GT(bad.fallbackPenaltyWindows, 0u);
    EXPECT_GT(bad.stallWindows, 0u);
    EXPECT_GE(bad.stallWindows, bad.fallbackPenaltyWindows);
    EXPECT_EQ(bad.pairsRequested,
              bad.pairsDelivered() + bad.pairsDropped
                  + bad.pairsAbandoned);
}

TEST(NoisyCoSim, DegradationIsMonotoneInFaultRate)
{
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    std::uint64_t prev_dropped = 0;
    std::uint64_t prev_windows = 0;
    for (const double rate : {0.0, 0.05, 0.2}) {
        CoSimConfig config;
        config.bandwidth = 2;
        config.linkFaults = LinkFaultConfig{}.atRate(rate);
        const auto report = ProgramCoSimulator(program, config).run();
        EXPECT_TRUE(report.completed);
        EXPECT_GE(report.pairsDropped, prev_dropped)
            << "rate=" << rate;
        EXPECT_GE(report.windows, prev_windows) << "rate=" << rate;
        if (rate > 0.0) {
            EXPECT_GT(report.pairsDropped, prev_dropped);
        }
        prev_dropped = report.pairsDropped;
        prev_windows = report.windows;
    }
}

TEST(NoisyCoSim, PurificationTrafficCreatesBandwidthCrossover)
{
    // Acceptance crossover: bandwidth 2 fully overlaps the QCLA block
    // on the clean interconnect (existing acceptance test), but once
    // purification traffic is priced into the channel slots the same
    // bandwidth stalls computation; extra bandwidth buys the overlap
    // back.
    const ProgramWorkload program(apps::qclaAdderCircuit(64));
    CoSimConfig clean;
    clean.bandwidth = 2;
    const auto base = ProgramCoSimulator(program, clean).run();
    ASSERT_TRUE(base.completed);
    ASSERT_EQ(base.stallWindows, 0u);

    CoSimConfig purified = clean;
    purified.fidelity.elementaryFidelity = 0.96;
    purified.fidelity.purificationLevel = 2;
    purified.fidelity.opError = 1e-4;
    const auto bw2 = ProgramCoSimulator(program, purified).run();
    EXPECT_TRUE(bw2.completed);
    EXPECT_GT(bw2.stallWindows, 0u);
    EXPECT_GT(bw2.windows, base.windows);

    CoSimConfig wide = purified;
    wide.bandwidth = 4;
    const auto bw4 = ProgramCoSimulator(program, wide).run();
    EXPECT_TRUE(bw4.completed);
    EXPECT_LT(bw4.stallWindows, bw2.stallWindows);
    // Purified pairs arrive above the raw elementary fidelity.
    EXPECT_GT(bw2.deliveredFidelityMean(),
              purified.fidelity.elementaryFidelity);
}

namespace {

/** One-sample goodness-of-fit chi-square (1 dof) for @p events
 *  successes in @p trials Bernoulli(p) draws. */
double
rateChi2(std::uint64_t events, std::uint64_t trials, double p)
{
    const double n = static_cast<double>(trials);
    const double expected = n * p;
    const double observed = static_cast<double>(events);
    return (observed - expected) * (observed - expected)
        / (expected * (1.0 - p));
}

} // namespace

TEST(NoisyCoSim, InjectedFaultProcessMatchesConfiguredRates)
{
    // Satellite: statistical crosscheck that the injected link-fault
    // process matches the configured rates (chi-square, 99.9% cut as
    // in the ARQ scalar-vs-batched crosschecks).
    IslandMesh mesh(6, 6, 2, 10);
    LinkFaultConfig faults;
    faults.linkDownRate = 0.05;
    faults.burstRate = 0.12;
    faults.linkDownWindows = 2;
    faults.seed = 7;
    mesh.setLinkFaults(faults);
    for (int w = 0; w < 500; ++w)
        mesh.advanceWindow();
    ASSERT_GT(mesh.faultDownTrials(), 0u);
    ASSERT_GT(mesh.faultBurstTrials(), 0u);
    // Power checks: enough expected events for the test to mean
    // anything.
    ASSERT_GT(static_cast<double>(mesh.faultDownTrials())
                  * faults.linkDownRate,
              20.0);
    ASSERT_GT(static_cast<double>(mesh.faultBurstTrials())
                  * faults.burstRate,
              20.0);
    EXPECT_LT(rateChi2(mesh.faultDownEvents(), mesh.faultDownTrials(),
                       faults.linkDownRate),
              10.83); // chi^2(1) at 99.9%
    EXPECT_LT(rateChi2(mesh.faultBurstEvents(), mesh.faultBurstTrials(),
                       faults.burstRate),
              10.83);
    // Down intervals actually take capacity offline.
    EXPECT_GT(mesh.linkWindowsDown(), 0u);
    EXPECT_LE(mesh.linkWindowsDown(),
              mesh.faultDownEvents()
                  * static_cast<std::uint64_t>(faults.linkDownWindows));
}

TEST(NoisyCoSim, TransitLossMatchesCompoundedPerHopRate)
{
    Rng rng(123);
    const double per_hop = 0.03;
    const int hops = 2;
    const double p = 1.0 - (1.0 - per_hop) * (1.0 - per_hop);
    std::uint64_t lost = 0;
    const std::uint64_t trials = 40000;
    for (int batch = 0; batch < 400; ++batch)
        lost += sampleLostPairs(rng, trials / 400, per_hop, hops);
    EXPECT_LT(rateChi2(lost, trials, p), 10.83);
    // Rate zero must not consume randomness or lose pairs.
    Rng a(5), b(5);
    EXPECT_EQ(sampleLostPairs(a, 1000, 0.0, 3), 0u);
    EXPECT_EQ(a.next64(), b.next64());
}

TEST(NoisyCoSim, NoisySweepIsThreadCountInvariant)
{
    std::vector<ProgramWorkload> workloads;
    workloads.emplace_back(apps::toffoliNetworkCircuit(12, 6));
    CoSimSweepConfig sweep;
    sweep.bandwidths = {2};
    sweep.seeds = {1, 2};
    sweep.faultRates = {0.0, 0.1};
    sweep.purificationLevels = {0, 1};
    sweep.linkFidelities = {0.96};
    sweep.base.placement = PlacementStrategy::Random;
    sweep.base.fidelity.opError = 1e-4;
    sweep.base.fidelity.deliveryThreshold = 0.88;
    sweep.base.fidelity.retryBudget = 2;
    sweep.threads = 1;
    const auto serial = runCoSimSweep(workloads, sweep);
    sweep.threads = 4;
    const auto parallel = runCoSimSweep(workloads, sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 1u * 1u * 2u * 2u * 1u * 2u);
    bool any_dropped = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].faultRate, parallel[i].faultRate);
        EXPECT_EQ(serial[i].purificationLevel,
                  parallel[i].purificationLevel);
        EXPECT_EQ(serial[i].linkFidelity, parallel[i].linkFidelity);
        EXPECT_EQ(serial[i].report.windows, parallel[i].report.windows);
        EXPECT_EQ(serial[i].report.pairsRequested,
                  parallel[i].report.pairsRequested);
        EXPECT_EQ(serial[i].report.pairsDropped,
                  parallel[i].report.pairsDropped);
        EXPECT_EQ(serial[i].report.pairsAbandoned,
                  parallel[i].report.pairsAbandoned);
        EXPECT_EQ(serial[i].report.retryAttempts,
                  parallel[i].report.retryAttempts);
        EXPECT_EQ(serial[i].report.stallWindows,
                  parallel[i].report.stallWindows);
        EXPECT_EQ(serial[i].report.fidelityPairs,
                  parallel[i].report.fidelityPairs);
        EXPECT_DOUBLE_EQ(serial[i].report.deliveredFidelitySum,
                         parallel[i].report.deliveredFidelitySum);
        EXPECT_DOUBLE_EQ(serial[i].report.deliveredFidelityMin,
                         parallel[i].report.deliveredFidelityMin);
        any_dropped |= serial[i].report.pairsDropped > 0;
    }
    EXPECT_TRUE(any_dropped);
    const auto stats = reduceCoSimSweep(serial);
    EXPECT_EQ(stats.droppedPairs.count(), serial.size());
    EXPECT_EQ(stats.degradedRuns.trials(), serial.size());
}

TEST(NoisyCoSim, ResidualErrorIsExposedForTheArqNoiseModel)
{
    // The co-sim's residual post-purification error is the quantity the
    // ARQ Monte Carlo consumes as NoiseParameters::eprResidualError;
    // it must be a small positive number under noise and improve with
    // purification.
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    CoSimConfig raw;
    raw.bandwidth = 2;
    raw.fidelity.elementaryFidelity = 0.96;
    raw.fidelity.opError = 1e-4;
    const auto level0 = ProgramCoSimulator(program, raw).run();
    CoSimConfig pumped = raw;
    pumped.fidelity.purificationLevel = 2;
    const auto level2 = ProgramCoSimulator(program, pumped).run();
    ASSERT_TRUE(level0.completed);
    ASSERT_TRUE(level2.completed);
    EXPECT_GT(level0.residualEprError(), 0.0);
    EXPECT_GT(level2.residualEprError(), 0.0);
    EXPECT_LT(level2.residualEprError(), level0.residualEprError());
    EXPECT_LT(level0.residualEprError(), 0.5);
}

//
// PR 8 -- CQLA memory hierarchy: compute/memory regions, region-aware
// placement, and the cache model (hit = local window, miss = teleport
// round-trip on the dependency chain) with its conservation ledger.
//

namespace {

/** Shared split baseline: small enough compute region to force misses
 *  on the test workloads. */
CoSimConfig
splitCoSimConfig(double fraction = 0.2, int level = 1)
{
    CoSimConfig config;
    config.bandwidth = 2;
    config.memory.computeFraction = fraction;
    config.memory.memoryCodeLevel = level;
    return config;
}

} // namespace

TEST(MemoryHierarchy, QubitReuseDistanceRanksColdness)
{
    circuit::QuantumCircuit c(4, "reuse");
    // Qubit 0 is touched every op (hot); qubit 2 twice, far apart
    // (cold); qubit 3 never (maximally cold).
    c.cnot(0, 1);
    c.cnot(0, 2);
    c.cnot(0, 1);
    c.cnot(0, 1);
    c.cnot(0, 2);
    const auto d = qubitReuseDistance(c);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_LT(d[0], d[1]);
    EXPECT_LT(d[1], d[2]);
    EXPECT_LT(d[2], d[3]);
    EXPECT_DOUBLE_EQ(d[0], 1.0);
    EXPECT_DOUBLE_EQ(d[3], static_cast<double>(c.ops().size()));
}

TEST(MemoryHierarchy, RegionedPlacementPutsColdQubitsInMemory)
{
    // 4x2 islands, 3 tiles per island in x: island columns >= 1 are
    // memory under fraction 0.25.
    const arch::RegionMap regions(4, 2, 3, 0.25);
    ASSERT_FALSE(regions.uniform());
    circuit::QuantumCircuit c(6, "split");
    for (int rep = 0; rep < 4; ++rep) {
        c.cnot(0, 1);
        c.cnot(1, 2);
    }
    c.cnot(3, 4); // qubits 3-5 are cold
    TilePlacement placement(4, 2, 3);
    placeProgramQubitsRegioned(placement, c, regions,
                               PlacementStrategy::Affinity, Rng(1));
    EXPECT_TRUE(placement.isBijective());
    EXPECT_EQ(placement.occupiedTiles(), 6u);
    // The hot interacting trio lands in compute, the cold tail in
    // memory (hot capacity = 6 compute tiles / 2 = 3).
    for (const std::size_t hot : {0u, 1u, 2u})
        EXPECT_EQ(regions.tileKind(placement.tileOf(hot).x),
                  arch::RegionKind::Compute)
            << "hot qubit " << hot;
    EXPECT_EQ(regions.tileKind(placement.tileOf(5).x),
              arch::RegionKind::Memory);
}

TEST(MemoryHierarchy, UniformRegionReproducesCleanSchedule)
{
    // Acceptance: computeFraction = 1 must reproduce the single-region
    // engine field for field, even with the other hierarchy knobs set
    // -- the cache machinery may only act through an actual split.
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    CoSimConfig clean;
    clean.bandwidth = 2;
    CoSimConfig uniform = clean;
    uniform.memory.computeFraction = 1.0;
    uniform.memory.memoryCodeLevel = 1;
    uniform.memory.conversionWindows = 7;
    ASSERT_FALSE(uniform.memory.enabled());
    const auto a = ProgramCoSimulator(program, clean).run();
    const auto b = ProgramCoSimulator(program, uniform).run();
    EXPECT_TRUE(b.completed);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.warmupWindows, b.warmupWindows);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.pairsRequested, b.pairsRequested);
    EXPECT_EQ(a.pairsRoutedOnMesh, b.pairsRoutedOnMesh);
    EXPECT_EQ(a.pairsLocal, b.pairsLocal);
    EXPECT_EQ(a.driftMoves, b.driftMoves);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
    EXPECT_DOUBLE_EQ(a.averageRouteLength, b.averageRouteLength);
    EXPECT_EQ(b.operandTouches, 0u);
    EXPECT_EQ(b.memMisses, 0u);
    EXPECT_EQ(b.memEvictions, 0u);
    EXPECT_EQ(b.memoryTiles, 0u);
}

TEST(MemoryHierarchy, CacheLedgerConservedEveryWindow)
{
    // Acceptance: operand touches = hits + misses at every window
    // boundary, and the miss traffic joins the EPR conservation
    // identity instead of bypassing it.
    const ProgramWorkload program(apps::toffoliNetworkCircuit(15, 12));
    const CoSimConfig config = splitCoSimConfig();
    ProgramCoSimulator simulator(program, config);
    const auto report = simulator.run([&](const WindowProbe &probe) {
        EXPECT_EQ(probe.operandTouches, probe.memHits + probe.memMisses);
        EXPECT_EQ(probe.pairsRequested,
                  probe.pairsDelivered + probe.pairsPending
                      + probe.pairsDropped + probe.pairsAbandoned);
        ASSERT_NE(probe.placement, nullptr);
        EXPECT_TRUE(probe.placement->isBijective());
    });
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.operandTouches, report.memHits + report.memMisses);
    EXPECT_GT(report.memMisses, 0u);
    EXPECT_GE(report.memMisses, report.memInPlaceMisses);
    EXPECT_EQ(report.pairsRequested,
              report.pairsDelivered() + report.pairsDropped
                  + report.pairsAbandoned);
    // Fetch and write-back traffic is a (nonzero) subset of the total.
    EXPECT_GT(report.fetchPairsRequested, 0u);
    EXPECT_LT(report.fetchPairsRequested
                  + report.writebackPairsRequested,
              report.pairsRequested);
}

TEST(MemoryHierarchy, ComputeFractionTradeoffIsMonotone)
{
    // Acceptance: the CQLA headline tradeoff -- a shrinking compute
    // region monotonically cuts ancilla-factory (compute) tiles and
    // monotonically grows misses and the schedule.
    const ProgramWorkload program(apps::qclaAdderCircuit(16));
    std::uint64_t prev_compute = ~std::uint64_t{0};
    std::uint64_t prev_misses = 0;
    std::uint64_t prev_windows = 0;
    for (const double fraction : {1.0, 0.5, 0.2}) {
        const auto report =
            ProgramCoSimulator(program, splitCoSimConfig(fraction))
                .run();
        ASSERT_TRUE(report.completed) << "fraction " << fraction;
        EXPECT_LT(report.computeTiles, prev_compute);
        EXPECT_GE(report.memMisses, prev_misses);
        EXPECT_GE(report.windows, prev_windows);
        prev_compute = report.computeTiles;
        prev_misses = report.memMisses;
        prev_windows = report.windows;
    }
    EXPECT_GT(prev_misses, 0u); // the smallest region actually missed
}

TEST(MemoryHierarchy, MemoryLevelPricesFetchesAndConversion)
{
    // Level-1 memory teleports 7 pairs per fetched qubit but pays code
    // conversion; level-2 memory ships the full 49 pairs and converts
    // nothing. Both must price fetches at exactly their region profile.
    const ProgramWorkload program(apps::toffoliNetworkCircuit(15, 12));
    const auto l1 =
        ProgramCoSimulator(program, splitCoSimConfig(0.2, 1)).run();
    const auto l2 =
        ProgramCoSimulator(program, splitCoSimConfig(0.2, 2)).run();
    ASSERT_TRUE(l1.completed);
    ASSERT_TRUE(l2.completed);
    ASSERT_GT(l1.memMisses, 0u);
    ASSERT_GT(l2.memMisses, 0u);
    const std::uint64_t l1_fetches = l1.memMisses - l1.memInPlaceMisses;
    const std::uint64_t l2_fetches = l2.memMisses - l2.memInPlaceMisses;
    EXPECT_EQ(l1.fetchPairsRequested, 7u * l1_fetches);
    EXPECT_EQ(l2.fetchPairsRequested, 49u * l2_fetches);
    EXPECT_EQ(l1.writebackPairsRequested, 7u * l1.memEvictions);
    EXPECT_EQ(l2.writebackPairsRequested, 49u * l2.memEvictions);
    EXPECT_GT(l1.missConversionWindows, 0u);
    EXPECT_EQ(l2.missConversionWindows, 0u);
}

TEST(MemoryHierarchy, SweepWithMemoryAxesIsThreadCountInvariant)
{
    std::vector<ProgramWorkload> workloads;
    workloads.emplace_back(apps::toffoliNetworkCircuit(12, 6));
    CoSimSweepConfig sweep;
    sweep.bandwidths = {2};
    sweep.seeds = {1, 2};
    sweep.computeFractions = {1.0, 0.25};
    sweep.memoryCodeLevels = {1, 2};
    sweep.base.placement = PlacementStrategy::Random;
    sweep.threads = 1;
    const auto serial = runCoSimSweep(workloads, sweep);
    sweep.threads = 4;
    const auto parallel = runCoSimSweep(workloads, sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 1u * 1u * 2u * 2u * 2u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].computeFraction,
                  parallel[i].computeFraction);
        EXPECT_EQ(serial[i].memoryLevel, parallel[i].memoryLevel);
        EXPECT_EQ(serial[i].report.windows, parallel[i].report.windows);
        EXPECT_EQ(serial[i].report.memHits, parallel[i].report.memHits);
        EXPECT_EQ(serial[i].report.memMisses,
                  parallel[i].report.memMisses);
        EXPECT_EQ(serial[i].report.memEvictions,
                  parallel[i].report.memEvictions);
        EXPECT_EQ(serial[i].report.fetchPairsRequested,
                  parallel[i].report.fetchPairsRequested);
        EXPECT_EQ(serial[i].report.stallWindows,
                  parallel[i].report.stallWindows);
    }
    const auto stats = reduceCoSimSweep(serial);
    EXPECT_EQ(stats.cacheMisses.count(), serial.size());
}

TEST(MemoryHierarchy, ShorDesignPointTradesAreaForRuntime)
{
    // Shor at N = 1024 as a sized CQLA design point: the split chip is
    // smaller than uniform and the measured schedule no faster.
    const auto point = apps::shorHierarchyDesignPoint(1024, 0.2, 1, 12);
    ASSERT_TRUE(point.uniformReport.completed);
    ASSERT_TRUE(point.splitReport.completed);
    EXPECT_LT(point.areaVersusUniform, 1.0);
    EXPECT_GE(point.runtimeDilation, 1.0);
    EXPECT_GT(point.area.memoryTiles, 0u);
    EXPECT_LT(point.area.areaSquareMeters,
              point.area.uniformAreaSquareMeters);
    EXPECT_GE(point.hierarchyRunTime, point.uniformRunTime);
}
