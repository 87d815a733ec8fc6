/**
 * @file
 * Shor's-algorithm planning on the QLA, plus a live run of the quantum
 * adder that modular exponentiation is built from.
 *
 * Usage: shor_factoring [bits]    (2..2^20, default 128)
 */

#include <cstdio>

#include "apps/qcla.h"
#include "apps/shor.h"
#include "arq/executor.h"
#include "arq/mapper.h"
#include "common/rng.h"
#include "ecc/latency.h"
#include "ecc/steane.h"
#include "example_args.h"
#include "quantum/statevector.h"

using namespace qla;
using namespace qla::apps;

int
main(int argc, char **argv)
{
    const auto bits = static_cast<std::uint64_t>(
        positionalArgument(argc, argv, 128, 2, 1 << 20, "bits"));

    // Resource plan for factoring a `bits`-bit modulus.
    const ecc::EccLatencyModel latency(ecc::steaneCode(),
                                       TechnologyParameters::expected());
    ShorModelConfig config;
    config.eccCycleTime = latency.eccTime(2);
    const ShorResourceModel model(config);
    const arch::QlaChipModel chip;
    const auto plan = model.estimate(bits, chip);

    std::printf("== Factoring a %llu-bit modulus on the QLA ==\n\n",
                (unsigned long long)bits);
    std::printf("logical qubits:     %llu\n",
                (unsigned long long)plan.logicalQubits);
    std::printf("Toffoli gates:      %llu (x21 EC steps each)\n",
                (unsigned long long)plan.toffoliGates);
    std::printf("total EC steps:     %.3e at %.4f s each\n",
                static_cast<double>(plan.eccSteps),
                config.eccCycleTime);
    std::printf("chip area:          %.2f m^2 (%.1f cm edge)\n",
                plan.areaSquareMeters,
                chip.estimate(plan.logicalQubits).edgeCentimeters);
    std::printf("expected runtime:   %.1f hours (%.2f days)\n",
                units::toHours(plan.expectedTime),
                units::toDays(plan.expectedTime));

    // The workhorse inside modular exponentiation: the quantum adder.
    // Cost model for the log-depth carry-lookahead version...
    const auto cost = qclaCost(bits);
    std::printf("\nQCLA adder (%llu bits): Toffoli depth %llu, %llu "
                "Toffolis, %llu ancilla qubits\n",
                (unsigned long long)bits,
                (unsigned long long)cost.toffoliDepth,
                (unsigned long long)cost.toffoliCount,
                (unsigned long long)cost.ancillaQubits);

    // ...and a live 4-bit ripple adder run end-to-end on the dense
    // simulator: compute 6 + 7 = 13.
    const std::size_t n = 4;
    auto adder = rippleAdderCircuit(n);
    quantum::StateVector psi(rippleAdderQubits(n));
    const unsigned a = 6, b = 7;
    for (std::size_t i = 0; i < n; ++i) {
        if ((a >> i) & 1)
            psi.x(i);
        if ((b >> i) & 1)
            psi.x(n + i);
    }
    Rng rng(9);
    arq::executeOnStateVector(adder, psi, rng);
    unsigned sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (psi.measureZ(n + i, rng))
            sum |= 1u << i;
    std::printf("\nlive 4-bit quantum adder check: %u + %u = %u (mod "
                "16) %s\n",
                a, b, sum, sum == ((a + b) % 16) ? "[ok]" : "[FAIL]");

    // Map the adder onto a trap layout for physical cost.
    auto [grid, homes] = arq::makeLinearLayout(rippleAdderQubits(n));
    const arq::LayoutMapper mapper(grid,
                                   TechnologyParameters::expected(),
                                   homes);
    const auto schedule = mapper.map(adder);
    std::printf("mapped onto a QCCD array: %zu physical ops, makespan "
                "%.1f us, %lld cells of ion movement\n",
                schedule.ops.size(), schedule.makespan * 1e6,
                static_cast<long long>(schedule.totalCellsMoved));
    return 0;
}
