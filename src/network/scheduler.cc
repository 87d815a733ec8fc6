#include "network/scheduler.h"

#include <algorithm>

namespace qla::network {

std::uint64_t
routePairs(IslandMesh &mesh, const EprDemand &demand, std::uint64_t pairs,
           RouteStats &stats, std::vector<PathGrab> *grabs)
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
        if (grabs != nullptr)
            grabs->push_back({amount, route.hops(), bursts});
    };

    // Greedy: grab everything the dimension-ordered route offers, then
    // back off onto the alternate shape, then detour columns and rows (a
    // row detour is the only alternate for islands in the same row, which
    // the 100-cell floor plan makes the common case).
    const IslandCoord &from = demand.source;
    const IslandCoord &to = demand.destination;
    grab(MeshRoute::dimensionOrdered(from, to, false));
    grab(MeshRoute::dimensionOrdered(from, to, true));
    for (int r = 1; r <= kDetourRadius && remaining > 0; ++r) {
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

ToffoliWorkload::ToffoliWorkload(const SyntheticConfig &config,
                                 int mesh_width, int mesh_height, Rng rng)
    : drift_(config.driftOptimization), width_(mesh_width),
      height_(mesh_height), rng_(rng)
{
    qla_assert(width_ > 1 && height_ > 1, "mesh too small for workload");
    for (int i = 0; i < config.concurrentToffolis; ++i)
        active_.push_back(spawnToffoli());
}

IslandCoord
ToffoliWorkload::randomNear(const IslandCoord &center)
{
    IslandCoord c;
    const auto jitter = [&](int v, int bound) {
        const int lo = std::max(0, v - kToffoliOperandSpread);
        const int hi = std::min(bound - 1, v + kToffoliOperandSpread);
        return lo + static_cast<int>(rng_.uniformInt(
            static_cast<std::uint64_t>(hi - lo + 1)));
    };
    c.x = jitter(center.x, width_);
    c.y = jitter(center.y, height_);
    return c;
}

ToffoliWorkload::ActiveToffoli
ToffoliWorkload::spawnToffoli()
{
    ActiveToffoli gate;
    gate.id = next_gate_id_++;
    gate.windowsLeft = kToffoliWindows;
    const IslandCoord center{
        static_cast<int>(rng_.uniformInt(static_cast<std::uint64_t>(
            width_))),
        static_cast<int>(rng_.uniformInt(static_cast<std::uint64_t>(
            height_)))};
    // Three operands plus six ancilla logical qubits (the fault-tolerant
    // Toffoli construction of Section 5).
    for (IslandCoord &member : gate.members)
        member = randomNear(center);
    return gate;
}

std::vector<EprDemand>
ToffoliWorkload::nextWindow()
{
    std::vector<EprDemand> demands;
    for (auto &gate : active_) {
        for (int i = 0; i < kToffoliInteractionsPerWindow; ++i) {
            // Pick a random interacting pair among the gate's members;
            // co-located members need no mesh traffic.
            const std::size_t a = rng_.uniformInt(gate.members.size());
            std::size_t b = rng_.uniformInt(gate.members.size() - 1);
            if (b >= a)
                ++b;
            if (gate.members[a] == gate.members[b])
                continue;
            EprDemand demand;
            demand.source = gate.members[a];
            demand.destination = gate.members[b];
            demand.pairs = kToffoliPairsPerInteraction;
            demand.gateId = gate.id;
            if (drift_) {
                // The qubit teleports to its partner and stays there.
                gate.members[a] = gate.members[b];
            } else {
                // Round trip: teleport out and back.
                demand.pairs *= 2;
            }
            demands.push_back(demand);
        }
        --gate.windowsLeft;
    }

    // Replace finished gates to keep the pipeline full.
    for (auto &gate : active_)
        if (gate.windowsLeft <= 0)
            gate = spawnToffoli();
    return demands;
}

SchedulerReport
runSyntheticScheduler(const SyntheticConfig &config)
{
    IslandMesh mesh(kSyntheticMeshSize, kSyntheticMeshSize,
                    config.bandwidth, slotsPerChannel(config.window));
    ToffoliWorkload workload(config, kSyntheticMeshSize, kSyntheticMeshSize,
                             Rng(config.seed));

    SchedulerReport report;
    RouteStats route_stats;
    double route_length_sum = 0.0;
    std::uint64_t routed = 0;
    // Demands deferred from previous windows, with their ages.
    std::vector<std::pair<EprDemand, int>> pending;
    std::vector<std::pair<EprDemand, int>> still_pending;

    // Each pass is one window boundary: the instant the next EC cycle
    // begins and freshly delivered EPR pairs are consumed.
    for (int w = 0; w < config.totalWindows; ++w) {
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
        still_pending.clear();
        for (auto &[demand, age] : pending) {
            const int dist = islandDistance(demand.source,
                                            demand.destination);
            const std::uint64_t moved = routePairs(mesh, demand,
                                                   demand.pairs,
                                                   route_stats);
            report.pairsDelivered += moved;
            demand.pairs -= moved;
            if (demand.pairs == 0) {
                route_length_sum += dist;
                ++routed;
            } else if (age < kSlackWindows) {
                still_pending.emplace_back(demand, age + 1);
            } else {
                ++report.stalledDemands;
                window_stalled = true;
            }
        }
        pending.swap(still_pending);
        if (window_stalled)
            ++report.stalledWindows;
        mesh.advanceWindow();
    }

    report.windows = mesh.windowsElapsed();
    report.utilization = mesh.aggregateUtilization();
    report.backoffReroutes = route_stats.backoffReroutes;
    report.averageRouteLength = routed
        ? route_length_sum / static_cast<double>(routed)
        : 0.0;
    return report;
}

} // namespace qla::network
