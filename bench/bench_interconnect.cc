/**
 * @file
 * System-layer interconnect benchmarks (google-benchmark), consolidating
 * the former printf drivers for experiments E3 (Figure 9: connection
 * time vs distance), E7 (Section-5 scheduler bandwidth sweep) and E10
 * (communication ablation), and adding the logical-program
 * co-simulation pipeline (circuit -> placement -> window-loop
 * scheduler). Every benchmark reports its paper-facing quantities as
 * counters, so the `--json` snapshot (BENCH_interconnect.json) both
 * tracks throughput regressions via scripts/compare_bench.py and
 * records the reproduced Section-4.2/5 numbers.
 */

#include <benchmark/benchmark.h>

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/shor.h"
#include "apps/toffoli.h"
#include "common/tech_params.h"
#include "network/cosim.h"
#include "network/scheduler.h"
#include "teleport/connection_model.h"

#include "gbench_json_main.h"

using namespace qla;

//
// E3 -- Figure 9: repeater connection planning over distance, per
// island separation. Counters record the paper's headline points.
//

static void
BM_Fig9ConnectionSweep(benchmark::State &state)
{
    const teleport::RepeaterChain chain{teleport::RepeaterConfig{}};
    const Cells separation = state.range(0);
    double time_at_6000 = 0.0;
    std::uint64_t feasible = 0;
    for (auto _ : state) {
        feasible = 0;
        for (Cells distance = 2000; distance <= 30000; distance += 1000) {
            const auto plan = chain.plan(distance, separation);
            benchmark::DoNotOptimize(plan);
            if (plan.feasible)
                ++feasible;
            if (distance == 6000)
                time_at_6000 = plan.connectionTime;
        }
    }
    state.counters["time_at_6000_cells_s"] = time_at_6000;
    state.counters["feasible_distances"] =
        static_cast<double>(feasible);
}
BENCHMARK(BM_Fig9ConnectionSweep)
    ->Arg(35)->Arg(100)->Arg(350)->Arg(1000);

static void
BM_Fig9CrossoverSearch(benchmark::State &state)
{
    const teleport::RepeaterChain chain{teleport::RepeaterConfig{}};
    std::optional<Cells> crossover;
    for (auto _ : state) {
        crossover = teleport::crossoverDistance(chain, 100, 350, 2000,
                                                30000, 500);
        benchmark::DoNotOptimize(crossover);
    }
    // Paper: ~6000 cells.
    state.counters["crossover_cells"] =
        crossover ? static_cast<double>(*crossover) : -1.0;
}
BENCHMARK(BM_Fig9CrossoverSearch);

//
// E10 -- communication ablation baselines.
//

static void
BM_AblationCommBaselines(benchmark::State &state)
{
    const auto tech = TechnologyParameters::expected();
    const teleport::RepeaterConfig config;
    const teleport::RepeaterChain chain(config);
    const Cells distance = state.range(0);
    double ballistic_error = 0.0, naive_infidelity = 0.0,
           repeater_error = 0.0;
    for (auto _ : state) {
        ballistic_error = teleport::ballisticErrorProbability(tech,
                                                              distance);
        naive_infidelity = teleport::simplisticTeleportInfidelity(
            config, distance);
        const auto best = teleport::bestSeparation(
            chain, teleport::figure9Separations(), distance);
        if (best) {
            const auto plan = chain.plan(distance, *best);
            repeater_error = 1.0 - plan.finalFidelity;
        }
        benchmark::DoNotOptimize(repeater_error);
    }
    state.counters["ballistic_error"] = ballistic_error;
    state.counters["single_epr_infidelity"] = naive_infidelity;
    state.counters["repeater_error"] = repeater_error;
}
BENCHMARK(BM_AblationCommBaselines)->Arg(1000)->Arg(6000)->Arg(30000);

//
// E7 -- synthetic Section-5 scheduler: bandwidth sweep over the
// random-placement Toffoli workload.
//

static void
BM_SyntheticSchedulerBandwidth(benchmark::State &state)
{
    network::SyntheticConfig config;
    config.bandwidth = static_cast<int>(state.range(0));
    config.totalWindows = 150;
    network::SchedulerReport report;
    for (auto _ : state) {
        report = network::runSyntheticScheduler(config);
        benchmark::DoNotOptimize(report);
    }
    state.counters["utilization"] = report.utilization;
    state.counters["stalled_demands"] =
        static_cast<double>(report.stalledDemands);
    state.counters["windows_per_s"] = benchmark::Counter(
        static_cast<double>(report.windows),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SyntheticSchedulerBandwidth)->DenseRange(1, 4);

//
// The logical-program co-simulation pipeline: lower a real circuit onto
// the island mesh and execute computation + communication together.
// items_per_second reports simulated EC windows per wall second.
//

namespace {

void
runCoSimBench(benchmark::State &state,
              const network::ProgramWorkload &program, int bandwidth)
{
    network::CoSimConfig config;
    config.bandwidth = bandwidth;
    network::CoSimReport report;
    for (auto _ : state) {
        network::ProgramCoSimulator simulator(program, config);
        report = simulator.run();
        benchmark::DoNotOptimize(report);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(report.windows));
    state.counters["windows"] = static_cast<double>(report.windows);
    state.counters["critical_windows"] =
        static_cast<double>(report.criticalPathWindows);
    state.counters["stall_windows"] =
        static_cast<double>(report.stallWindows);
    state.counters["utilization"] = report.utilization;
}

} // namespace

static void
BM_CoSimQcla128(benchmark::State &state)
{
    const network::ProgramWorkload program(apps::qclaAdderCircuit(128));
    runCoSimBench(state, program, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CoSimQcla128)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

static void
BM_CoSimToffoliNetwork(benchmark::State &state)
{
    const network::ProgramWorkload program(
        apps::toffoliNetworkCircuit(60, 42));
    runCoSimBench(state, program, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CoSimToffoliNetwork)
    ->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

static void
BM_CoSimBandedQft(benchmark::State &state)
{
    const network::ProgramWorkload program(
        apps::bandedQftCircuit(128, apps::qftBandWidth(128)));
    runCoSimBench(state, program, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CoSimBandedQft)
    ->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

static void
BM_CoSimSweepThreads(benchmark::State &state)
{
    // The (workload x bandwidth x seed) sweep on the shot scheduler;
    // results are bit-identical for every thread count (determinism
    // gate), so this only measures scaling.
    std::vector<network::ProgramWorkload> workloads;
    workloads.emplace_back(apps::toffoliNetworkCircuit(27, 21));
    workloads.emplace_back(apps::qclaAdderCircuit(32));
    network::CoSimSweepConfig sweep;
    sweep.bandwidths = {1, 2, 4};
    sweep.seeds = {1, 2, 3};
    sweep.base.placement = network::PlacementStrategy::Random;
    sweep.threads = static_cast<int>(state.range(0));
    std::size_t points = 0;
    for (auto _ : state) {
        const auto result = network::runCoSimSweep(workloads, sweep);
        points = result.size();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(points));
}
BENCHMARK(BM_CoSimSweepThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

//
// PR 7 -- the noisy delivery pipeline: purification traffic competing
// with program traffic, and the threshold/retry/abandonment path.
//

static void
BM_CoSimPurificationOverhead(benchmark::State &state)
{
    // Purification level 0/1/2 at fixed elementary fidelity: measures
    // the cost of pricing pumping traffic in channel slots (the
    // capacity shrink) against the clean pipeline, and records the
    // resulting stall/fidelity ledger.
    const network::ProgramWorkload program(apps::qclaAdderCircuit(64));
    network::CoSimConfig config;
    config.bandwidth = 2;
    config.fidelity.elementaryFidelity = 0.96;
    config.fidelity.purificationLevel =
        static_cast<int>(state.range(0));
    config.fidelity.opError = 1e-4;
    network::CoSimReport report;
    for (auto _ : state) {
        network::ProgramCoSimulator simulator(program, config);
        report = simulator.run();
        benchmark::DoNotOptimize(report);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(report.windows));
    state.counters["windows"] = static_cast<double>(report.windows);
    state.counters["stall_windows"] =
        static_cast<double>(report.stallWindows);
    state.counters["delivered_fidelity_mean"] =
        report.deliveredFidelityMean();
    state.counters["residual_epr_error"] = report.residualEprError();
}
BENCHMARK(BM_CoSimPurificationOverhead)
    ->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

static void
BM_CoSimFaultRetryPath(benchmark::State &state)
{
    // Link faults (loss + bursts + down intervals) with threshold
    // gating: measures the retry/backoff/abandonment path's simulation
    // cost at fault rate range(0)/1000 and records the degradation
    // ledger the sweep reports.
    const network::ProgramWorkload program(apps::qclaAdderCircuit(48));
    network::CoSimConfig config;
    config.bandwidth = 3;
    config.linkFaults =
        network::LinkFaultConfig{}.atRate(
            static_cast<double>(state.range(0)) / 1000.0);
    config.fidelity.elementaryFidelity = 0.96;
    config.fidelity.opError = 1e-4;
    config.fidelity.deliveryThreshold = 0.88;
    config.fidelity.retryBudget = 2;
    network::CoSimReport report;
    for (auto _ : state) {
        network::ProgramCoSimulator simulator(program, config);
        report = simulator.run();
        benchmark::DoNotOptimize(report);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(report.windows));
    state.counters["windows"] = static_cast<double>(report.windows);
    state.counters["dropped_pairs"] =
        static_cast<double>(report.pairsDropped);
    state.counters["retry_attempts"] =
        static_cast<double>(report.retryAttempts);
    state.counters["abandoned_pairs"] =
        static_cast<double>(report.pairsAbandoned);
    state.counters["penalty_windows"] =
        static_cast<double>(report.fallbackPenaltyWindows);
}
BENCHMARK(BM_CoSimFaultRetryPath)
    ->Arg(0)->Arg(20)->Arg(80)->Unit(benchmark::kMillisecond);

static void
BM_ShorCoSimValidation(benchmark::State &state)
{
    // The full closed-form-vs-executed-schedule validation at N = 128.
    apps::ShorCoSimValidation validation;
    for (auto _ : state) {
        validation = apps::validateShorAgainstCoSim(
            static_cast<std::uint64_t>(state.range(0)));
        benchmark::DoNotOptimize(validation);
    }
    state.counters["ratio_x1000"] = validation.ratio * 1000.0;
    state.counters["windows_per_toffoli"] =
        validation.measuredWindowsPerToffoli;
    state.counters["stall_windows"] =
        static_cast<double>(validation.blockReport.stallWindows);
}
BENCHMARK(BM_ShorCoSimValidation)
    ->Arg(128)->Unit(benchmark::kMillisecond);

static void
BM_CoSimMemoryHierarchy(benchmark::State &state)
{
    // The PR-8 cache model: a 64-bit QCLA adder on a split mesh with
    // the compute fraction from Arg (percent), memory at level 1.
    const network::ProgramWorkload program(apps::qclaAdderCircuit(64));
    network::CoSimConfig config;
    config.bandwidth = 2;
    config.memory.computeFraction =
        static_cast<double>(state.range(0)) / 100.0;
    config.memory.memoryCodeLevel = 1;
    network::CoSimReport report;
    for (auto _ : state) {
        network::ProgramCoSimulator simulator(program, config);
        report = simulator.run();
        benchmark::DoNotOptimize(report);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(report.windows));
    state.counters["windows"] = static_cast<double>(report.windows);
    state.counters["miss_rate_x1000"] = report.missRate() * 1000.0;
    state.counters["evictions"] =
        static_cast<double>(report.memEvictions);
}
BENCHMARK(BM_CoSimMemoryHierarchy)
    ->Arg(100)->Arg(50)->Arg(20)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    return runGoogleBenchmarkMain(argc, argv);
}
