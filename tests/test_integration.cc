/**
 * @file
 * Cross-module integration tests: the full reproduction pipelines that
 * the benches exercise, asserted end to end.
 */

#include <gtest/gtest.h>

#include "apps/shor.h"
#include "arq/executor.h"
#include "arq/mapper.h"
#include "arq/monte_carlo.h"
#include "circuit/builders.h"
#include "ecc/latency.h"
#include "ecc/steane.h"
#include "ecc/threshold.h"
#include "network/scheduler.h"
#include "teleport/connection_model.h"

using namespace qla;

TEST(Integration, LatencyModelFeedsShorPipeline)
{
    // Eq.-1 latency -> Table-2 time column: the whole chain stays within
    // 10% of the paper on every row.
    const ecc::EccLatencyModel latency(ecc::steaneCode(),
                                       TechnologyParameters::expected());
    apps::ShorModelConfig config;
    config.eccCycleTime = latency.eccTime(2);
    const apps::ShorResourceModel model(config);
    const arch::QlaChipModel chip;
    for (const auto &paper : apps::paperTable2()) {
        const auto ours = model.estimate(paper.bits, chip);
        EXPECT_NEAR(units::toDays(ours.expectedTime) / paper.timeDays,
                    1.0, 0.10)
            << "N=" << paper.bits;
    }
}

TEST(Integration, Equation2SupportsLevelTwoChoice)
{
    // The level the Eq.-2 model demands for the Table-2 workload is the
    // level the whole architecture is built around.
    const double p0 = TechnologyParameters::expected()
        .averageComponentError();
    const ecc::EccLatencyModel latency(ecc::steaneCode(),
                                       TechnologyParameters::expected());
    apps::ShorModelConfig config;
    config.eccCycleTime = latency.eccTime(2);
    const apps::ShorResourceModel model(config);
    const arch::QlaChipModel chip;
    for (const auto &paper : apps::paperTable2()) {
        const auto ours = model.estimate(paper.bits, chip);
        EXPECT_EQ(ecc::requiredRecursionLevel(
                      ours.computationSize, p0,
                      ecc::thresholds::kTheoretical),
                  2)
            << "N=" << paper.bits;
    }
}

TEST(Integration, SchedulerWindowMatchesLatencyModel)
{
    // The scheduler's window is one L2 EC period; using the computed
    // value keeps the bandwidth-2 conclusion.
    const ecc::EccLatencyModel latency(ecc::steaneCode(),
                                       TechnologyParameters::expected());
    network::SyntheticConfig config;
    config.window = latency.eccTime(2);
    config.bandwidth = 2;
    config.totalWindows = 60;
    const auto report = network::runSyntheticScheduler(config);
    EXPECT_TRUE(report.fullyOverlapped());
}

TEST(Integration, InterconnectServiceTimeFromRepeaterModel)
{
    // The purified-pair service time the scheduler assumes (~1.4 ms)
    // must be consistent with the repeater model at the paper's fixed
    // 100-cell island separation over a typical on-chip span.
    const teleport::RepeaterChain chain{teleport::RepeaterConfig{}};
    const auto plan = chain.plan(1000, 100); // typical neighbor traffic
    ASSERT_TRUE(plan.feasible);
    const double ops_per_pair = plan.segmentPlan.expectedOpsPerEnd;
    const Seconds service = ops_per_pair
        * teleport::RepeaterConfig{}.purifyStepTime;
    EXPECT_GT(service, 0.2e-3);
    EXPECT_LT(service, 5e-3);
}

TEST(Integration, MappedEncoderMatchesTableauSemantics)
{
    // Map the Steane encoder onto a trap array: the schedule must
    // execute every op, and the same circuit run on the tableau must
    // produce |0>_L.
    const auto circuit = ecc::steaneCode().zeroEncoderCircuit();
    auto [grid, homes] = arq::makeLinearLayout(7);
    const arq::LayoutMapper mapper(grid,
                                   TechnologyParameters::expected(),
                                   homes);
    const auto schedule = mapper.map(circuit);
    EXPECT_GT(schedule.ops.size(), circuit.size());
    EXPECT_GT(schedule.makespan, 0.0);
    // Error budget stays tiny at expected parameters.
    EXPECT_LT(schedule.totalErrorBudget, 1e-3);

    quantum::StabilizerTableau state(7);
    Rng rng(3);
    arq::executeOnTableau(circuit, state, rng);
    quantum::PauliString logical_z(7);
    for (std::size_t q = 0; q < 7; ++q)
        logical_z.set(q, quantum::Pauli::Z);
    EXPECT_EQ(state.deterministicValue(logical_z),
              std::optional<bool>(false));
}

TEST(Integration, EndToEndFigure7MiniSweep)
{
    // Small-budget version of the Figure-7 bench: L2 beats L1 at 1e-3,
    // loses at 8e-3.
    const auto points = arq::thresholdSweep({1e-3, 8e-3}, 800, 99);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_LE(points[0].level2Failure,
              points[0].level1Failure + 0.01);
    EXPECT_GT(points[1].level2Failure, points[1].level1Failure);
}

TEST(Integration, Figure9BestSeparationConsistentWithScheduler)
{
    // At the paper's fixed 100-cell island spacing, connections across
    // typical chip spans finish far inside one EC window -- the
    // precondition for hiding communication under error correction.
    const teleport::RepeaterChain chain{teleport::RepeaterConfig{}};
    const ecc::EccLatencyModel latency(ecc::steaneCode(),
                                       TechnologyParameters::expected());
    const auto plan = chain.plan(470, 100); // ~10 tiles
    ASSERT_TRUE(plan.feasible);
    EXPECT_LT(plan.connectionTime, latency.eccTime(2));
}

TEST(Integration, TeleportationOverMappedLayout)
{
    // Run the teleportation circuit through the mapper and the
    // stabilizer engine: physical plausibility plus logical
    // correctness in one pipeline.
    const auto circuit = circuit::teleportation();
    auto [grid, homes] = arq::makeLinearLayout(3);
    const arq::LayoutMapper mapper(grid,
                                   TechnologyParameters::expected(),
                                   homes);
    const auto schedule = mapper.map(circuit);
    EXPECT_GT(schedule.totalCellsMoved, 0);

    Rng rng(4);
    for (int trial = 0; trial < 16; ++trial) {
        quantum::StabilizerTableau state(3);
        state.h(0);
        state.s(0); // teleport |+i>
        arq::executeOnTableau(circuit, state, rng);
        const auto y2 = state.deterministicValue(
            quantum::PauliString::fromString("IIY"));
        ASSERT_TRUE(y2.has_value());
        EXPECT_FALSE(*y2);
    }
}
