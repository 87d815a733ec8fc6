#include "network/placement.h"

#include <algorithm>
#include <limits>

namespace qla::network {

TilePlacement::TilePlacement(int mesh_width, int mesh_height,
                             int tiles_per_island_x)
    : tile_width_(mesh_width * tiles_per_island_x),
      tile_height_(mesh_height), tiles_per_island_x_(tiles_per_island_x),
      occupant_(static_cast<std::size_t>(tile_width_) * tile_height_,
                kNoEntity),
      free_in_column_(static_cast<std::size_t>(tile_width_), tile_height_)
{
    qla_assert(mesh_width > 0 && mesh_height > 0 && tiles_per_island_x > 0,
               "bad tile-grid parameters");
}

TileCoord
TilePlacement::tileOf(EntityId entity) const
{
    qla_assert(isPlaced(entity), "entity ", entity, " is not placed");
    return *tiles_[entity];
}

bool
TilePlacement::isPlaced(EntityId entity) const
{
    return entity < tiles_.size() && tiles_[entity].has_value();
}

EntityId
TilePlacement::occupantOf(const TileCoord &t) const
{
    qla_assert(inBounds(t), "tile out of bounds");
    return occupant_[tileIndex(t)];
}

void
TilePlacement::assign(EntityId entity, const TileCoord &tile)
{
    qla_assert(inBounds(tile), "tile out of bounds");
    qla_assert(!isPlaced(entity), "entity ", entity, " already placed");
    qla_assert(occupant_[tileIndex(tile)] == kNoEntity,
               "tile already occupied");
    if (entity >= tiles_.size())
        tiles_.resize(entity + 1);
    tiles_[entity] = tile;
    occupant_[tileIndex(tile)] = entity;
    --free_in_column_[static_cast<std::size_t>(tile.x)];
    ++occupied_;
}

void
TilePlacement::release(EntityId entity)
{
    const TileCoord tile = tileOf(entity);
    occupant_[tileIndex(tile)] = kNoEntity;
    ++free_in_column_[static_cast<std::size_t>(tile.x)];
    tiles_[entity].reset();
    --occupied_;
}

void
TilePlacement::moveTo(EntityId entity, const TileCoord &tile)
{
    release(entity);
    assign(entity, tile);
}

std::optional<TileCoord>
TilePlacement::nearestFree(const TileCoord &near, const TileBand &band) const
{
    return nearestFreeWithin(near, band, std::numeric_limits<int>::max());
}

std::optional<TileCoord>
TilePlacement::nearestFreeWithin(const TileCoord &near, const TileBand &band,
                                 int radius_cap) const
{
    qla_assert(inBounds(near), "tile out of bounds");
    const int x_begin = std::max(band.xBegin, 0);
    const int x_end = std::min(band.xEnd, tile_width_);
    // The band has a free tile iff one of its columns does; stop at the
    // first such column.
    int x_free = x_begin;
    while (x_free < x_end
           && free_in_column_[static_cast<std::size_t>(x_free)] == 0)
        ++x_free;
    if (x_free >= x_end)
        return std::nullopt;
    // Expanding Manhattan rings out to the band's farthest corner;
    // within a ring, a fixed deterministic walk (decreasing dx from +r
    // to -r, y below before above). Columns outside the band or without
    // a free tile are skipped, which leaves the first hit unchanged.
    const int max_radius = std::min(
        radius_cap,
        std::max(near.x - x_begin, x_end - 1 - near.x)
            + std::max(near.y, tile_height_ - 1 - near.y));
    for (int r = 0; r <= max_radius; ++r) {
        const int dx_hi = std::min(r, x_end - 1 - near.x);
        const int dx_lo = std::max(-r, x_begin - near.x);
        for (int dx = dx_hi; dx >= dx_lo; --dx) {
            const int x = near.x + dx;
            if (free_in_column_[static_cast<std::size_t>(x)] == 0)
                continue;
            const int dy_mag = r - std::abs(dx);
            const int below = near.y - dy_mag;
            if (below >= 0 && occupant_[tileIndex({x, below})] == kNoEntity)
                return TileCoord{x, below};
            const int above = near.y + dy_mag;
            if (dy_mag > 0 && above < tile_height_
                && occupant_[tileIndex({x, above})] == kNoEntity)
                return TileCoord{x, above};
        }
    }
    return std::nullopt;
}

bool
TilePlacement::driftToward(EntityId entity, EntityId partner,
                           const TileBand &band)
{
    const TileCoord from = tileOf(entity);
    const TileCoord target = tileOf(partner);
    const IslandCoord target_island = islandOf(target);
    const int distance = islandDistance(islandOf(from), target_island);
    if (distance == 0)
        return false; // already co-located: nothing to gain
    // Only move when it brings the pair strictly closer in island-grid
    // distance ("only moved back if necessary" -- never drift away). A
    // tile r rings from the target is at least floor(|dx| / k) + |dy|
    // islands away (k = tilesPerIslandX, r = |dx| + |dy|), so past ring
    // k * distance - 1 every tile is at least `distance` islands away
    // and would be refused: the ring walk stops there. Inside the cap
    // the first free tile is the uncapped walk's first hit.
    const auto free = nearestFreeWithin(
        target, band, tiles_per_island_x_ * distance - 1);
    if (!free
        || islandDistance(islandOf(*free), target_island) >= distance)
        return false;
    moveTo(entity, *free);
    return true;
}

bool
TilePlacement::isBijective() const
{
    std::size_t placed = 0;
    for (std::size_t e = 0; e < tiles_.size(); ++e) {
        if (!tiles_[e])
            continue;
        ++placed;
        if (!inBounds(*tiles_[e])
            || occupant_[tileIndex(*tiles_[e])] != e)
            return false;
    }
    // Reverse direction: every occupied tile points back at its entity,
    // and every column's free count matches its empty tiles.
    std::size_t occupied_tiles = 0;
    std::vector<int> free_in_column(free_in_column_.size(), 0);
    for (std::size_t i = 0; i < occupant_.size(); ++i) {
        if (occupant_[i] == kNoEntity) {
            ++free_in_column[i % free_in_column.size()];
            continue;
        }
        ++occupied_tiles;
        const EntityId e = occupant_[i];
        if (!(e < tiles_.size() && tiles_[e]
              && tileIndex(*tiles_[e]) == i))
            return false;
    }
    return placed == occupied_tiles && placed == occupied_
        && free_in_column == free_in_column_;
}

std::vector<EntityId>
TilePlacement::placedEntities() const
{
    std::vector<EntityId> out;
    for (std::size_t e = 0; e < tiles_.size(); ++e)
        if (tiles_[e])
            out.push_back(e);
    return out;
}

std::vector<std::size_t>
affinityOrder(const circuit::QuantumCircuit &circuit)
{
    const std::size_t n = circuit.numQubits();
    // Dense interaction-count matrix; circuits here are at most a few
    // thousand qubits, so n^2 counters are fine.
    std::vector<std::uint32_t> weight(n * n, 0);
    for (const auto &op : circuit.ops()) {
        const auto qs = op.qubits();
        for (std::size_t i = 0; i < qs.size(); ++i)
            for (std::size_t j = i + 1; j < qs.size(); ++j) {
                ++weight[qs[i] * n + qs[j]];
                ++weight[qs[j] * n + qs[i]];
            }
    }
    std::vector<std::uint64_t> degree(n, 0);
    for (std::size_t q = 0; q < n; ++q)
        for (std::size_t o = 0; o < n; ++o)
            degree[q] += weight[q * n + o];

    // Recency-weighted greedy linear arrangement: append the qubit most
    // connected to recently placed ones (geometric decay per step), so
    // interacting registers interleave -- e.g. an adder comes out
    // a0 b0 s0 a1 b1 s1 ... instead of register-by-register. Measured
    // ~6x lower mean edge length than Cuthill-McKee-style BFS on the
    // QCLA adder's interaction graph.
    constexpr double kDecay = 0.7;
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<bool> visited(n, false);
    std::vector<double> score(n, 0.0);
    while (order.size() < n) {
        std::size_t best = n;
        for (std::size_t q = 0; q < n; ++q)
            if (!visited[q] && score[q] > 0.0
                && (best == n || score[q] > score[best]))
                best = q;
        if (best == n) // nothing attached yet: heaviest unvisited
            for (std::size_t q = 0; q < n; ++q)
                if (!visited[q]
                    && (best == n || degree[q] > degree[best]))
                    best = q;
        visited[best] = true;
        order.push_back(best);
        for (std::size_t q = 0; q < n; ++q) {
            score[q] *= kDecay;
            if (!visited[q])
                score[q] += weight[best * n + q];
        }
    }
    return order;
}

std::vector<TileCoord>
hilbertTileOrder(int width, int height)
{
    // Hilbert curve over the bounding power-of-2 square, keeping only
    // in-grid cells: 1D-close positions stay 2D-close, so a good linear
    // arrangement becomes a good 2D placement (a serpentine would
    // stretch medium-range neighbors across whole rows).
    int side = 1;
    while (side < width || side < height)
        side <<= 1;
    std::vector<TileCoord> order;
    order.reserve(static_cast<std::size_t>(width) * height);
    const std::size_t cells = static_cast<std::size_t>(side) * side;
    for (std::size_t d = 0; d < cells; ++d) {
        // Standard d -> (x, y) Hilbert decoding.
        int x = 0, y = 0;
        std::size_t t = d;
        for (int s = 1; s < side; s <<= 1) {
            const int rx = 1 & static_cast<int>(t / 2);
            const int ry = 1 & static_cast<int>(t ^ rx);
            if (ry == 0) { // rotate
                if (rx == 1) {
                    x = s - 1 - x;
                    y = s - 1 - y;
                }
                std::swap(x, y);
            }
            x += s * rx;
            y += s * ry;
            t /= 4;
        }
        if (x < width && y < height)
            order.push_back(TileCoord{x, y});
    }
    return order;
}

void
placeProgramQubits(TilePlacement &placement,
                   const circuit::QuantumCircuit &circuit,
                   PlacementStrategy strategy, Rng rng, int stride)
{
    qla_assert(placement.occupiedTiles() == 0,
               "placement must start empty");
    qla_assert(stride >= 1, "stride must be positive");
    qla_assert(circuit.numQubits() <= placement.totalTiles(),
               "circuit needs ", circuit.numQubits(), " tiles, grid has ",
               placement.totalTiles());
    // A stride that would not fit every qubit degrades gracefully.
    while (stride > 1
           && circuit.numQubits() * static_cast<std::size_t>(stride)
               > placement.totalTiles())
        --stride;

    std::vector<std::size_t> order;
    if (strategy == PlacementStrategy::Affinity) {
        order = affinityOrder(circuit);
    } else {
        order.resize(circuit.numQubits());
        for (std::size_t q = 0; q < order.size(); ++q)
            order[q] = q;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.uniformInt(i)]);
    }

    // Walk the tile grid along a Hilbert curve so order-adjacent qubits
    // land on the same or neighboring islands in both dimensions; every
    // stride-th curve position takes a qubit, the rest stay free.
    const auto tiles = hilbertTileOrder(placement.tileWidth(),
                                        placement.tileHeight());
    std::size_t next = 0;
    for (std::size_t position = 0;
         position < tiles.size() && next < order.size(); ++position) {
        if (position % static_cast<std::size_t>(stride) != 0)
            continue;
        placement.assign(order[next++], tiles[position]);
    }
    qla_assert(next == order.size(), "stride left qubits unplaced");
}

std::vector<double>
qubitReuseDistance(const circuit::QuantumCircuit &circuit)
{
    const std::size_t n = circuit.numQubits();
    std::vector<double> gap_sum(n, 0.0);
    std::vector<std::size_t> uses(n, 0);
    std::vector<std::size_t> last(n, 0);
    std::size_t index = 0;
    for (const auto &op : circuit.ops()) {
        for (const auto q : op.qubits()) {
            if (uses[q] > 0)
                gap_sum[q] += static_cast<double>(index - last[q]);
            ++uses[q];
            last[q] = index;
        }
        ++index;
    }
    const double cold =
        static_cast<double>(std::max<std::size_t>(index, 1));
    std::vector<double> distance(n, cold);
    for (std::size_t q = 0; q < n; ++q)
        if (uses[q] >= 2)
            distance[q] =
                gap_sum[q] / static_cast<double>(uses[q] - 1);
    return distance;
}

void
placeProgramQubitsRegioned(TilePlacement &placement,
                           const circuit::QuantumCircuit &circuit,
                           const arch::RegionMap &regions,
                           PlacementStrategy strategy, Rng rng,
                           int computeStride)
{
    if (regions.uniform()) {
        // The uniform-mesh path must stay byte-identical to the
        // single-region placement.
        placeProgramQubits(placement, circuit, strategy, rng,
                           computeStride);
        return;
    }
    qla_assert(placement.occupiedTiles() == 0,
               "placement must start empty");
    qla_assert(computeStride >= 1, "stride must be positive");
    const std::size_t n = circuit.numQubits();
    qla_assert(n <= placement.totalTiles(),
               "circuit needs ", n, " tiles, grid has ",
               placement.totalTiles());

    // Hottest (shortest mean reuse distance) first; stable sort keeps
    // the qubit-index tie-break deterministic.
    const auto distance = qubitReuseDistance(circuit);
    std::vector<std::size_t> by_heat(n);
    for (std::size_t q = 0; q < n; ++q)
        by_heat[q] = q;
    std::stable_sort(by_heat.begin(), by_heat.end(),
                     [&](std::size_t a, std::size_t b) {
                         return distance[a] < distance[b];
                     });

    // Split the Hilbert walk by region so each region keeps the
    // locality of its own sub-walk.
    const auto walk = hilbertTileOrder(placement.tileWidth(),
                                       placement.tileHeight());
    std::vector<TileCoord> compute_walk, memory_walk;
    for (const auto &t : walk)
        (regions.tileKind(t.x) == arch::RegionKind::Compute
             ? compute_walk
             : memory_walk)
            .push_back(t);

    // The hot working set takes at most half the compute region --
    // the rest stays free for gadget ancillas and fetched operands.
    const std::size_t hot = std::min(n, compute_walk.size() / 2);
    int stride = computeStride;
    while (stride > 1
           && hot * static_cast<std::size_t>(stride)
               > compute_walk.size())
        --stride;
    for (std::size_t i = 0; i < hot; ++i)
        placement.assign(by_heat[i],
                         compute_walk[i * static_cast<std::size_t>(
                                          stride)]);

    // Cold qubits pack densely along the memory walk; overflow (more
    // cold qubits than memory tiles) spills to the nearest free tile.
    std::size_t mem_pos = 0;
    for (std::size_t i = hot; i < n; ++i) {
        if (mem_pos < memory_walk.size()) {
            placement.assign(by_heat[i], memory_walk[mem_pos++]);
            continue;
        }
        const TileCoord anchor =
            memory_walk.empty() ? compute_walk.back()
                                : memory_walk.back();
        const auto free = placement.nearestFree(anchor);
        qla_assert(free.has_value(), "regioned placement ran out of "
                                     "tiles");
        placement.assign(by_heat[i], *free);
    }
}

} // namespace qla::network
