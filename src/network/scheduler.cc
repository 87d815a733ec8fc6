#include "network/scheduler.h"

#include <algorithm>
#include <cmath>

namespace qla::network {

std::uint64_t
slotsPerChannel(Seconds window, Seconds pair_service_time)
{
    return static_cast<std::uint64_t>(window / pair_service_time);
}

std::uint64_t
EprRouter::routePairs(IslandMesh &mesh, const EprDemand &demand,
                      std::uint64_t pairs, RouteStats &stats,
                      RouteDelivery *delivery) const
{
    if (demand.source == demand.destination)
        return pairs; // co-located after drift; no mesh traffic

    std::uint64_t remaining = pairs;
    bool first_path = true;
    auto grab = [&](const MeshRoute &route) {
        if (remaining == 0)
            return;
        const std::uint64_t amount = std::min(remaining,
                                              mesh.maxReservable(route));
        if (amount == 0)
            return;
        if (!first_path)
            ++stats.backoffReroutes;
        const int bursts = mesh.reserve(route, amount);
        remaining -= amount;
        first_path = false;
        if (delivery != nullptr)
            delivery->grabs.push_back({amount, route.hops(), bursts});
    };

    // Greedy: grab everything the dimension-ordered route offers, then
    // back off onto the alternate shape, then detour columns and rows (a
    // row detour is the only alternate for islands in the same row, which
    // the 100-cell floor plan makes the common case).
    const IslandCoord &from = demand.source;
    const IslandCoord &to = demand.destination;
    grab(MeshRoute::dimensionOrdered(from, to, false));
    grab(MeshRoute::dimensionOrdered(from, to, true));
    for (int r = 1; r <= detour_radius_ && remaining > 0; ++r) {
        for (int sign : {+1, -1}) {
            const int shift = sign * r;
            const int col = from.x + shift;
            if (col >= 0 && col < mesh.width())
                grab(MeshRoute::via(from, to, false, shift));
            const int row = from.y + shift;
            if (row >= 0 && row < mesh.height())
                grab(MeshRoute::via(from, to, true, shift));
        }
    }
    return pairs - remaining;
}

GreedyEprScheduler::GreedyEprScheduler(const SchedulerConfig &config,
                                       const WorkloadConfig &workload)
    : config_(config), workload_config_(workload)
{
    qla_assert(config_.meshWidth > 1 && config_.meshHeight > 1,
               "mesh too small");
    workload_config_.driftOptimization = config_.driftOptimization;
}

std::uint64_t
GreedyEprScheduler::slotsPerChannel() const
{
    return network::slotsPerChannel(config_.window,
                                    config_.purifiedPairServiceTime);
}

SchedulerReport
GreedyEprScheduler::run()
{
    IslandMesh mesh(config_.meshWidth, config_.meshHeight,
                    config_.bandwidth, slotsPerChannel());
    ToffoliWorkload workload(workload_config_, config_.meshWidth,
                             config_.meshHeight, Rng(config_.seed));
    const EprRouter router(config_.detourRadius);

    SchedulerReport report;
    RouteStats route_stats;
    double route_length_sum = 0.0;
    std::uint64_t routed = 0;
    // Demands deferred from previous windows, with their ages.
    std::vector<std::pair<EprDemand, int>> pending;

    // The simulation is a self-propelled chain on the discrete-event
    // kernel: each window-boundary event (the instant the next EC cycle
    // begins and freshly delivered EPR pairs are consumed) processes
    // one window and schedules its successor.
    sim::EventQueue events;
    std::function<void()> window_event = [&]() {
        for (const EprDemand &demand : workload.nextWindow()) {
            ++report.demands;
            report.pairsRequested += demand.pairs;
            pending.emplace_back(demand, 0);
        }
        // Oldest first, then longest routes: deferred demands are
        // closest to stalling and long routes are hardest to place
        // once bandwidth fragments.
        std::sort(pending.begin(), pending.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return islandDistance(a.first.source,
                                            a.first.destination)
                          > islandDistance(b.first.source,
                                           b.first.destination);
                  });

        bool window_stalled = false;
        std::vector<std::pair<EprDemand, int>> still_pending;
        for (auto &[demand, age] : pending) {
            const int dist = islandDistance(demand.source,
                                            demand.destination);
            const std::uint64_t moved = router.routePairs(
                mesh, demand, demand.pairs, route_stats);
            report.pairsDelivered += moved;
            demand.pairs -= moved;
            if (demand.pairs == 0) {
                route_length_sum += dist;
                ++routed;
            } else if (age < config_.slackWindows) {
                still_pending.emplace_back(demand, age + 1);
            } else {
                ++report.stalledDemands;
                window_stalled = true;
            }
        }
        pending = std::move(still_pending);
        if (window_stalled)
            ++report.stalledWindows;
        mesh.advanceWindow();
        if (mesh.windowsElapsed()
            < static_cast<std::uint64_t>(workload_config_.totalWindows))
            events.scheduleAfter(config_.window, window_event);
    };
    if (workload_config_.totalWindows > 0)
        events.schedule(0.0, window_event);
    events.run();

    report.windows = mesh.windowsElapsed();
    report.utilization = mesh.aggregateUtilization();
    report.backoffReroutes = route_stats.backoffReroutes;
    report.averageRouteLength = routed
        ? route_length_sum / static_cast<double>(routed)
        : 0.0;
    return report;
}

} // namespace qla::network
