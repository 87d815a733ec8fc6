/**
 * @file
 * Mini threshold study: how the logical-qubit failure rate responds to
 * each error source separately (gates, measurement, movement), and how
 * recursion level 2 behaves around the pseudo-threshold.
 *
 * Usage: threshold_study [shots]    (2..1e9, default 2000)
 */

#include <cstdio>

#include "arq/monte_carlo.h"
#include "ecc/steane.h"
#include "example_args.h"

using namespace qla;
using namespace qla::arq;

int
main(int argc, char **argv)
{
    // Level 2 runs shots / 2, so fewer than 2 shots would run none.
    const auto shots = static_cast<std::size_t>(
        positionalArgument(argc, argv, 2000, 2, 1000000000, "shots"));
    Rng rng(77);

    std::printf("== sensitivity of the level-1 logical qubit (%zu "
                "shots/point) ==\n\n",
                shots);
    std::printf("%-34s %-12s\n", "noise configuration", "L1 failure");

    auto run1 = [&](const char *label, NoiseParameters noise) {
        LogicalQubitExperiment experiment(ecc::steaneCode(), noise);
        const auto rate = experiment.failureRate(1, shots, rng);
        std::printf("%-34s %.5f +- %.5f\n", label, rate.rate(),
                    rate.halfWidth95());
    };

    NoiseParameters base = NoiseParameters::swept(2e-3);
    run1("all components at 2e-3", base);

    NoiseParameters gates_only = base;
    gates_only.measureError = 1e-8;
    run1("gates 2e-3, perfect measurement", gates_only);

    NoiseParameters meas_only = NoiseParameters::swept(1e-8);
    meas_only.measureError = 2e-3;
    run1("measurement 2e-3, perfect gates", meas_only);

    NoiseParameters move_heavy = NoiseParameters::swept(1e-8);
    move_heavy.movementErrorPerCell = 1e-4;
    run1("movement 1e-4/cell, rest perfect", move_heavy);

    std::printf("\n== level 1 vs level 2 around the pseudo-threshold "
                "==\n\n%-10s %-22s %-22s %-8s\n",
                "p", "L1", "L2", "L2<L1?");
    for (double p : {1e-3, 2e-3, 3e-3, 5e-3}) {
        LogicalQubitExperiment experiment(ecc::steaneCode(),
                                          NoiseParameters::swept(p));
        const auto l1 = experiment.failureRate(1, shots, rng);
        const auto l2 = experiment.failureRate(2, shots / 2, rng);
        std::printf("%-10.1e %8.5f +- %-10.5f %8.5f +- %-10.5f %s\n", p,
                    l1.rate(), l1.halfWidth95(), l2.rate(),
                    l2.halfWidth95(),
                    l2.rate() <= l1.rate() ? "yes" : "no");
    }
    std::printf("\nrecursion helps below the threshold and hurts above "
                "it -- the Figure-7 story.\n");
    return 0;
}
