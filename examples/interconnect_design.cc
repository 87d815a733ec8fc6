/**
 * @file
 * Interconnect design exploration: pick an island separation for a QLA
 * chip, inspect the purification schedule behind it, and check the
 * bandwidth needed to hide communication under error correction.
 *
 * Usage: interconnect_design [distance-in-cells]   (default 6000)
 */

#include <cstdio>
#include <cstdlib>

#include "apps/qcla.h"
#include "network/cosim.h"
#include "network/scheduler.h"
#include "teleport/connection_model.h"

using namespace qla;
using namespace qla::teleport;

int
main(int argc, char **argv)
{
    Cells distance = 6000;
    if (argc > 1)
        distance = std::strtoll(argv[1], nullptr, 10);

    const RepeaterChain chain{RepeaterConfig{}};

    std::printf("== connection across %lld cells ==\n\n",
                static_cast<long long>(distance));
    std::printf("%-8s %-10s %-10s %-9s %-12s %-12s\n", "d", "time (s)",
                "final F", "segments", "swap levels", "ops/island");
    for (Cells d : figure9Separations()) {
        const auto plan = chain.plan(distance, d);
        if (!plan.feasible) {
            std::printf("%-8lld %-10s\n", static_cast<long long>(d),
                        "infeasible");
            continue;
        }
        std::printf("%-8lld %-10.4f %-10.4f %-9d %-12d %-12.0f\n",
                    static_cast<long long>(d), plan.connectionTime,
                    plan.finalFidelity, plan.segments, plan.swapLevels,
                    plan.opsAtBusiestIsland);
    }

    const auto best = bestSeparation(chain, figure9Separations(),
                                     distance);
    if (best) {
        const auto plan = chain.plan(distance, *best);
        std::printf("\nbest separation: d = %lld cells\n",
                    static_cast<long long>(*best));
        std::printf("pumping schedule per segment (steps per nesting "
                    "grade):");
        for (int steps : plan.segmentPlan.stepsPerGrade)
            std::printf(" %d", steps);
        std::printf("\nsegment fidelity required %.5f, reached %.5f; "
                    "%.0f elementary pairs per segment\n",
                    plan.requiredSegmentFidelity,
                    plan.segmentPlan.finalFidelity,
                    plan.elementaryPairsPerSegment);
    }

    // How much channel bandwidth does a running program need?
    std::printf("\n== bandwidth check (Toffoli workload, Section 5) "
                "==\n");
    for (int bandwidth : {1, 2}) {
        network::SyntheticConfig config;
        config.bandwidth = bandwidth;
        config.totalWindows = 80;
        const auto report = network::runSyntheticScheduler(config);
        std::printf("bandwidth %d: %s, utilization %.1f%%\n", bandwidth,
                    report.fullyOverlapped() ? "fully overlapped"
                                             : "stalls computation",
                    100.0 * report.utilization);
    }

    // And the same question asked of a *real program*: lower a 64-bit
    // carry-lookahead adder onto the island mesh and co-simulate
    // computation and communication window by window.
    std::printf("\n== co-simulated 64-bit QCLA adder ==\n");
    const network::ProgramWorkload program(apps::qclaAdderCircuit(64));
    for (int bandwidth : {1, 2}) {
        network::CoSimConfig config;
        config.bandwidth = bandwidth;
        network::ProgramCoSimulator simulator(program, config);
        const auto report = simulator.run();
        std::printf("bandwidth %d: %llu EC windows (critical path "
                    "%llu), %llu gate-window stalls, utilization "
                    "%.1f%%\n",
                    bandwidth,
                    static_cast<unsigned long long>(report.windows),
                    static_cast<unsigned long long>(
                        report.criticalPathWindows),
                    static_cast<unsigned long long>(report.stallWindows),
                    100.0 * report.utilization);
    }
    return 0;
}
