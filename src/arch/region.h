/**
 * @file
 * CQLA compute/memory regions (Thaker et al., *Quantum Memory
 * Hierarchies*, quant-ph/0604070).
 *
 * The uniform QLA mesh provisions every logical qubit identically:
 * level-2 code distance, full ancilla factories, a 441-ion tile. The
 * authors' follow-up splits the array into a small fast **compute
 * region** (high-distance code, full Toffoli-ancilla factories) and a
 * dense cheap **memory region** (lower-level code, minimal ancilla),
 * with logical qubits teleported between the two on demand. This module
 * holds the architecture-level half of that split: per-region
 * technology/code profiles (RegionCodeParams) and the geometric
 * partition of the island mesh (RegionMap). The cache model that
 * charges the teleport-on-miss traffic lives in network/cosim.h; the
 * region-aware initial placement in network/placement.h.
 */

#ifndef QLA_ARCH_REGION_H
#define QLA_ARCH_REGION_H

#include <cstdint>

#include "arch/logical_tile.h"
#include "common/units.h"

namespace qla::arch {

/** Which half of the CQLA split a tile or island belongs to. */
enum class RegionKind : std::uint8_t
{
    /** High-distance code, full ancilla factories; gates execute here. */
    Compute,
    /** Dense low-cost storage; qubits idle in EC until fetched. */
    Memory,
};

/**
 * Per-region ECC/technology profile: code level, tile geometry, ion
 * budget and EC period for every tile of one region. The compute
 * default is the paper's level-2 tile; memoryAtLevel(1) models a
 * level-1 storage tile as one conglomeration of the level-2 tile
 * (one third of the footprint and ions, the Section-4.1.1 L1 EC
 * period).
 */
struct RegionCodeParams
{
    /** Steane concatenation level of the region's code (1 or 2). */
    int codeLevel = 2;
    /** Tile footprint at that level (cells; includes channel share). */
    TileGeometry tile;
    /** Trapped ions per tile (441 at L2, 147 at L1 -- Figure 5). */
    std::uint64_t ionsPerTile = 441;
    /** Region hosts Toffoli-gadget ancilla factories (compute only). */
    bool ancillaFactories = true;
    /** EC period of the region's code in seconds (Section 4.1.1:
     *  ~0.043 s at L2, ~0.003 s at L1). */
    Seconds ecWindow = 0.043;
    /** EPR pairs consumed per transversal teleport of one logical
     *  qubit encoded at this level (one pair per physical data ion:
     *  49 at L2, 7 at L1). */
    std::uint64_t teleportPairs = 49;

    /** The uniform-QLA compute profile (level-2, factories). */
    static RegionCodeParams computeDefault();

    /** Memory profile at Steane @p level (1 or 2): level 1 is the
     *  dense one-conglomeration tile, level 2 a factory-less copy of
     *  the compute tile. */
    static RegionCodeParams memoryAtLevel(int level);
};

/**
 * Geometric partition of the island mesh into a compute region (the
 * leftmost island columns) and a memory region (the rest).
 *
 * The split is by whole island columns so a tile and its hosting
 * island always agree on region kind, and routes between the regions
 * cross a well-defined boundary. A default-constructed (or
 * computeFraction >= 1) map is **uniform**: every tile is compute and
 * the memory machinery is disabled -- the configuration that must stay
 * byte-identical to the single-region mesh.
 */
class RegionMap
{
  public:
    /** Uniform map: everything compute, uniform() == true. */
    RegionMap() = default;

    /**
     * Partition a @p mesh_width x @p mesh_height island mesh (with
     * @p tiles_per_island_x logical tiles per island in x) so that
     * ceil(@p compute_fraction x mesh_width) island columns -- clamped
     * to [1, mesh_width - 1] -- form the compute region.
     * @p compute_fraction >= 1 yields a uniform map.
     */
    RegionMap(int mesh_width, int mesh_height, int tiles_per_island_x,
              double compute_fraction);

    /** True when every island is compute (the single-region mesh). */
    bool uniform() const;

    /** Island columns in the compute region (mesh_width if uniform). */
    int computeIslandColumns() const { return compute_columns_; }

    /** Region of island column @p ix (uniform maps: always Compute). */
    RegionKind islandKind(int ix) const
    {
        return (uniform() || ix < compute_columns_) ? RegionKind::Compute
                                                    : RegionKind::Memory;
    }

    /** Region of tile column @p tx in the tile grid. */
    RegionKind tileKind(int tx) const
    {
        return islandKind(tiles_per_island_x_ > 0
                              ? tx / tiles_per_island_x_
                              : 0);
    }

    /** Tiles in the compute region (= ancilla-factory-capable tiles). */
    std::size_t computeTiles() const;

    /** Tiles in the memory region (zero if uniform). */
    std::size_t memoryTiles() const;

    /** All tiles of the mesh. */
    std::size_t totalTiles() const;

  private:
    int mesh_width_ = 0;
    int mesh_height_ = 0;
    int tiles_per_island_x_ = 0;
    int compute_columns_ = 0;
};

/** Extra EC windows a gate spends re-encoding fetched operands up to
 *  the compute level when the memory code is below it (code
 *  conversion); charged once per missing gate, on its dependency
 *  chain. */
inline constexpr int kConversionWindows = 1;

/**
 * Knobs of the CQLA cache model as consumed by the co-simulator. A
 * default-constructed config (computeFraction = 1) is **disabled**:
 * the mesh stays uniform and the engine must be byte-identical to the
 * single-region schedule.
 */
struct MemoryHierarchyConfig
{
    /** Fraction of island columns in the compute region; >= 1 disables
     *  the hierarchy (the uniform mesh). */
    double computeFraction = 1.0;
    /** Steane level of the memory-region code (1 or 2); selects the
     *  RegionCodeParams::memoryAtLevel profile. */
    int memoryCodeLevel = 1;

    /** True when the hierarchy is active (computeFraction < 1). */
    bool enabled() const { return computeFraction < 1.0; }
};

/**
 * Region-aware chip area (the CQLA headline tradeoff's x-axis): the
 * compute tiles priced at the compute profile, the memory tiles at the
 * (denser) memory profile, against the all-compute baseline.
 */
struct RegionChipEstimate
{
    std::uint64_t computeTiles = 0;
    std::uint64_t memoryTiles = 0;
    /** Compute-region area in square meters. */
    double computeAreaSquareMeters = 0.0;
    /** Memory-region area in square meters. */
    double memoryAreaSquareMeters = 0.0;
    /** Total chip area in square meters. */
    double areaSquareMeters = 0.0;
    /** Area had every tile been a compute tile (the uniform mesh). */
    double uniformAreaSquareMeters = 0.0;
    /** areaSquareMeters / uniformAreaSquareMeters (<= 1). */
    double areaVersusUniform = 1.0;
    /** Total trapped ions across both regions. */
    std::uint64_t totalIons = 0;
};

/**
 * Price @p compute_tiles + @p memory_tiles at their region profiles
 * with trap cells of @p cell_size micrometers (paper default 20 um).
 */
RegionChipEstimate regionChipEstimate(std::uint64_t compute_tiles,
                                      std::uint64_t memory_tiles,
                                      const RegionCodeParams &compute,
                                      const RegionCodeParams &memory,
                                      Micrometers cell_size = 20.0);

} // namespace qla::arch

#endif // QLA_ARCH_REGION_H
