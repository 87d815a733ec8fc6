/**
 * @file
 * Logical-tile placement over the island mesh (paper Section 4.2/5).
 *
 * The QLA floor plan is a grid of logical-qubit tiles with a
 * teleportation island every `tilesPerIslandX` tiles in x and every tile
 * in y (the 100-cell separation puts an island every third logical
 * qubit). The placement layer assigns each program entity -- a circuit
 * qubit or a transient Toffoli-gadget ancilla -- to exactly one tile,
 * keeps the entity->tile map a bijection onto occupied tiles, and
 * implements the drift optimization: after a two-qubit interaction the
 * teleported qubit stays near its partner instead of being moved back,
 * so subsequent traffic shortens.
 */

#ifndef QLA_NETWORK_PLACEMENT_H
#define QLA_NETWORK_PLACEMENT_H

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "arch/region.h"
#include "circuit/circuit.h"
#include "common/rng.h"
#include "network/mesh.h"

namespace qla::network {

/** Position of a logical-qubit tile in the tile grid. */
struct TileCoord
{
    int x = 0; ///< Tile column (tilesPerIslandX tiles per island in x).
    int y = 0; ///< Tile row (one tile row per island row).

    bool operator==(const TileCoord &o) const
    {
        return x == o.x && y == o.y;
    }
};

/** Identifies a placed program entity (qubit or gadget ancilla). */
using EntityId = std::size_t;

inline constexpr EntityId kNoEntity = ~EntityId{0};

/** Half-open range of tile columns [xBegin, xEnd) restricting a tile
 *  search (e.g. one CQLA region, which is a band of whole island
 *  columns). Clipped to the grid; the default is the whole grid. */
struct TileBand
{
    int xBegin = 0;
    int xEnd = std::numeric_limits<int>::max();
};

/** Initial-placement policies. */
enum class PlacementStrategy : std::uint8_t
{
    /**
     * Interaction-affinity order (see affinityOrder): a recency-greedy
     * linear arrangement of the circuit's interaction graph, laid out
     * along a Hilbert walk of the tile grid so frequently interacting
     * qubits land on nearby islands.
     */
    Affinity,
    /** Seeded uniform shuffle of the qubits over the same Hilbert
     *  walk. */
    Random,
};

/**
 * Bijective entity->tile occupancy map over the tile grid of an island
 * mesh.
 *
 * The tile grid is `meshWidth * tilesPerIslandX` wide and `meshHeight`
 * tall; tile (tx, ty) belongs to island (tx / tilesPerIslandX, ty). All
 * mutators preserve the invariant that every entity occupies exactly one
 * tile and every tile holds at most one entity (checked by
 * isBijective(), exercised by the drift property tests).
 */
class TilePlacement
{
  public:
    TilePlacement(int mesh_width, int mesh_height, int tiles_per_island_x);

    int tileWidth() const { return tile_width_; }
    int tileHeight() const { return tile_height_; }
    int tilesPerIslandX() const { return tiles_per_island_x_; }
    std::size_t totalTiles() const
    {
        return static_cast<std::size_t>(tile_width_) * tile_height_;
    }
    std::size_t occupiedTiles() const { return occupied_; }

    /** Island hosting a tile. */
    IslandCoord islandOf(const TileCoord &t) const
    {
        return {t.x / tiles_per_island_x_, t.y};
    }

    /** Island hosting a placed entity. */
    IslandCoord islandOf(EntityId entity) const
    {
        return islandOf(tileOf(entity));
    }

    bool inBounds(const TileCoord &t) const
    {
        return t.x >= 0 && t.x < tile_width_ && t.y >= 0
            && t.y < tile_height_;
    }

    /** Tile of a placed entity (fatal if unplaced). */
    TileCoord tileOf(EntityId entity) const;

    /** True when @p entity currently occupies a tile. */
    bool isPlaced(EntityId entity) const;

    /** Entity on a tile, or kNoEntity. */
    EntityId occupantOf(const TileCoord &t) const;

    /** Place @p entity on a free tile (fatal if occupied/placed). */
    void assign(EntityId entity, const TileCoord &tile);

    /** Remove @p entity from its tile. */
    void release(EntityId entity);

    /** Move a placed entity onto a free tile. */
    void moveTo(EntityId entity, const TileCoord &tile);

    /**
     * Nearest free tile to @p near inside @p band, or empty when the
     * band has none. Deterministic ring walk (part of the determinism
     * contract): increasing Manhattan distance; within a ring, dx
     * decreasing from +r to -r, y below before y above. The walk only
     * visits the band's columns; the search returns empty unless a
     * per-column free count of the band is nonzero (checked up to the
     * first such column). @p near may lie outside
     * the band. The CQLA cache model uses bands to keep fetches inside
     * the compute region and evictions inside the memory region.
     */
    std::optional<TileCoord> nearestFree(const TileCoord &near,
                                         const TileBand &band = {}) const;

    /**
     * Drift move: relocate @p entity to the free tile of @p band nearest
     * to @p partner's tile -- ideally on the partner's island, so the
     * next interaction of the pair is island-local (a band keeps a
     * drifting qubit inside its region). No-op when the entity already
     * shares the partner's island or no free tile exists.
     * @return true when the entity moved.
     */
    bool driftToward(EntityId entity, EntityId partner,
                     const TileBand &band = {});

    /** Every entity on exactly one tile, every tile at most one entity,
     *  and the per-column free counts match the occupancy. */
    bool isBijective() const;

    /** Placed entity ids in increasing order (for deterministic scans). */
    std::vector<EntityId> placedEntities() const;

  private:
    std::size_t tileIndex(const TileCoord &t) const
    {
        return static_cast<std::size_t>(t.y) * tile_width_ + t.x;
    }

    int tile_width_;
    int tile_height_;
    int tiles_per_island_x_;
    std::vector<EntityId> occupant_;          // per tile
    std::vector<int> free_in_column_;         // per tile column
    std::vector<std::optional<TileCoord>> tiles_; // per entity id
    std::size_t occupied_ = 0;
};

/**
 * Initial placement of @p circuit's qubits onto @p placement (which must
 * be empty): qubits ordered per @p strategy, then assigned along a
 * Hilbert walk of the tile grid (hilbertTileOrder) so order-adjacent
 * qubits stay close in both grid dimensions. @p stride spaces the
 * qubits out (qubit j lands on walk position j * stride), interleaving
 * free tiles so gadget ancilla blocks can allocate -- and qubits can
 * drift -- right next to their operands instead of past the edge of a
 * densely packed data block. @p rng drives the Random strategy (and is
 * unused by Affinity, which is fully deterministic).
 */
void placeProgramQubits(TilePlacement &placement,
                        const circuit::QuantumCircuit &circuit,
                        PlacementStrategy strategy, Rng rng,
                        int stride = 1);

/**
 * Interaction-affinity qubit order used by PlacementStrategy::Affinity
 * (exposed for tests): a recency-weighted greedy linear arrangement of
 * the two-qubit/Toffoli interaction graph -- each step appends the
 * unplaced qubit with the largest decayed interaction weight to the
 * recently placed ones, falling back to the heaviest unplaced qubit.
 * Fully deterministic (index tie-breaks).
 */
std::vector<std::size_t> affinityOrder(
    const circuit::QuantumCircuit &circuit);

/**
 * The tile-grid visit order used by placeProgramQubits: a Hilbert curve
 * over the bounding power-of-2 square restricted to the grid, so
 * positions close in the 1D order are close in both grid dimensions.
 */
std::vector<TileCoord> hilbertTileOrder(int width, int height);

/**
 * Mean reuse distance of every circuit qubit: the average gap (in gate
 * indices) between a qubit's consecutive uses in the gate DAG. Qubits
 * used at most once get the circuit length (maximally cold). This is
 * the coldness metric of the CQLA placement: small distance = hot
 * (reused soon, belongs in compute), large = cold (belongs in memory).
 */
std::vector<double> qubitReuseDistance(
    const circuit::QuantumCircuit &circuit);

/**
 * Region-aware initial placement (CQLA): the hottest qubits by
 * qubitReuseDistance -- as many as fit half the compute region's
 * Hilbert walk -- go to compute tiles with @p computeStride spacing
 * (room for gadget ancillas); the cold remainder packs densely
 * (stride 1) along the memory region's walk. With a uniform @p regions
 * this defers to placeProgramQubits byte-for-byte. Ties in coldness
 * break by qubit index; @p rng only drives the Random strategy inside
 * the uniform fallback.
 */
void placeProgramQubitsRegioned(TilePlacement &placement,
                                const circuit::QuantumCircuit &circuit,
                                const arch::RegionMap &regions,
                                PlacementStrategy strategy, Rng rng,
                                int computeStride = 1);

} // namespace qla::network

#endif // QLA_NETWORK_PLACEMENT_H
