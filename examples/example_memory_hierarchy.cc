/**
 * @file
 * Quantum memory hierarchy walkthrough (docs/memory-hierarchy.md).
 *
 * Reproduces the CQLA area-versus-runtime tradeoff on the co-simulated
 * island mesh: sweep the compute fraction for a QCLA adder block, print
 * the cache ledger at each point, then size Shor design points at
 * N = 1024 and 2048 with the split chip model.
 *
 * Usage: example_memory_hierarchy [adder-bits]   (1..4096, default 16)
 */

#include <cstdio>

#include "apps/qcla.h"
#include "apps/shor.h"
#include "example_args.h"
#include "network/cosim.h"

using namespace qla;

int
main(int argc, char **argv)
{
    const auto bits = static_cast<std::size_t>(
        positionalArgument(argc, argv, 16, 1, 4096, "adder-bits"));

    // -- Compute-fraction sweep: one QCLA block, shrinking compute ----
    const network::ProgramWorkload program(apps::qclaAdderCircuit(bits));
    std::printf("== %zu-bit QCLA adder, memory level 1 ==\n\n", bits);
    std::printf("%-6s %-7s %-7s %-8s %-8s %-6s %-6s %-7s %-9s\n",
                "cf", "cTiles", "mTiles", "windows", "dilate", "miss",
                "evict", "missrt", "area/uni");

    std::uint64_t uniform_windows = 0;
    for (const double fraction : {1.0, 0.75, 0.5, 0.33, 0.2}) {
        network::CoSimConfig config;
        config.bandwidth = 2;
        config.memory.computeFraction = fraction;
        config.memory.memoryCodeLevel = 1;
        const auto report =
            network::ProgramCoSimulator(program, config).run();
        if (fraction == 1.0)
            uniform_windows = report.windows;
        const double dilation = uniform_windows
            ? static_cast<double>(report.windows)
                / static_cast<double>(uniform_windows)
            : 1.0;
        const auto area = arch::regionChipEstimate(
            report.computeTiles, report.memoryTiles,
            arch::RegionCodeParams::computeDefault(),
            arch::RegionCodeParams::memoryAtLevel(1));
        std::printf("%-6.2f %-7llu %-7llu %-8llu %-8.2f %-6llu %-6llu "
                    "%-7.3f %-9.3f\n",
                    fraction,
                    static_cast<unsigned long long>(report.computeTiles),
                    static_cast<unsigned long long>(report.memoryTiles),
                    static_cast<unsigned long long>(report.windows),
                    dilation,
                    static_cast<unsigned long long>(report.memMisses),
                    static_cast<unsigned long long>(report.memEvictions),
                    report.missRate(), area.areaVersusUniform);
        // The conserved cache ledger: every operand touch is a hit or
        // a miss, no window drops a classification.
        if (report.operandTouches
            != report.memHits + report.memMisses) {
            std::printf("cache ledger broken!\n");
            return 1;
        }
    }

    // -- Sized Shor design points (paper Table 2 range) ---------------
    std::printf("\n== Shor with a CQLA split (block = 12-bit QCLA) "
                "==\n\n");
    std::printf("%-6s %-5s %-8s %-10s %-10s %-9s\n", "N", "cf",
                "dilate", "area (m^2)", "uniform", "area/uni");
    for (const std::uint64_t n : {1024ull, 2048ull}) {
        for (const double fraction : {0.5, 0.2}) {
            const auto point =
                apps::shorHierarchyDesignPoint(n, fraction, 1, 12);
            std::printf("%-6llu %-5.2f %-8.2f %-10.3f %-10.3f %-9.3f\n",
                        static_cast<unsigned long long>(n), fraction,
                        point.runtimeDilation,
                        point.area.areaSquareMeters,
                        point.area.uniformAreaSquareMeters,
                        point.areaVersusUniform);
        }
    }
    std::printf("\nShrinking the compute region trades chip area "
                "(memory tiles are\ndenser and factory-less) for "
                "schedule dilation (cache-miss\nteleports on the "
                "dependency chain).\n");
    return 0;
}
