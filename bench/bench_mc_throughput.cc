/**
 * @file
 * Monte-Carlo throughput: the batched 64-shot-per-word Pauli-frame
 * engine against the scalar one-shot-at-a-time reference, measured in
 * shots/sec on the Figure-7 experiment.
 *
 * Benchmarks
 *   - BM_{Scalar,Batched}RunShotL{1,2}/<p*1e4>: single-point shot
 *     throughput of the level-1 / level-2 logical-gate + EC experiment
 *     at component failure rate p (the `items_per_second` counter is
 *     shots/sec; batched / scalar of the same benchmark is the engine
 *     speedup).
 *   - BM_ThresholdSweep{Scalar,Batched}Window: the Figure-7 threshold
 *     measurement -- the sweep over the paper's crossing window
 *     (1.0e-3 .. 3.0e-3, where the L1/L2 curves cross at
 *     p_th = (2.1 +- 1.8)e-3) from which estimateThreshold interpolates
 *     the threshold.
 *   - BM_ThresholdSweep{Scalar,Batched}Full: the full bench_fig7 sweep
 *     including the far-above-threshold tail (4e-3 .. 8e-3), where
 *     word-wide retry amplification costs the batched engine part of
 *     its lead.
 *   - BM_ThresholdSweepBatchedTail: the far-above-threshold tail alone
 *     (4e-3 .. 8e-3) on the current defaults.
 *
 * `--json <path>` records the google-benchmark JSON report
 * (BENCH_mc_throughput.json snapshots).
 */

#include <benchmark/benchmark.h>

#include "arq/batched_monte_carlo.h"
#include "arq/monte_carlo.h"
#include "common/rng.h"
#include "ecc/steane.h"

using namespace qla;
using namespace qla::arq;

namespace {

/** The crossing window of Figure 7 (threshold measurement region). */
const std::vector<double> kWindowSweep = {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3,
                                          3.0e-3};

/** The full bench_fig7 sweep including the above-threshold tail. */
const std::vector<double> kFullSweep = {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3,
                                        3.0e-3, 4.0e-3, 6.0e-3, 8.0e-3};

/** The far-above-threshold tail alone: the retry-amplified regime. */
const std::vector<double> kTailSweep = {4.0e-3, 6.0e-3, 8.0e-3};

void
BM_ScalarRunShotL1(benchmark::State &state)
{
    const double p = state.range(0) * 1e-4;
    Rng rng(7);
    LogicalQubitExperiment experiment(ecc::steaneCode(),
                                      NoiseParameters::swept(p));
    for (auto _ : state) {
        Rng shot = rng.split();
        benchmark::DoNotOptimize(experiment.runShot(1, shot));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarRunShotL1)->Arg(10)->Arg(30);

void
BM_BatchedRunShotL1(benchmark::State &state)
{
    const double p = state.range(0) * 1e-4;
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             NoiseParameters::swept(p));
    std::uint64_t shots = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            experiment.failureRate(1, 64, ++shots).rate());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchedRunShotL1)->Arg(10)->Arg(30);

void
BM_ScalarRunShotL2(benchmark::State &state)
{
    const double p = state.range(0) * 1e-4;
    Rng rng(7);
    LogicalQubitExperiment experiment(ecc::steaneCode(),
                                      NoiseParameters::swept(p));
    for (auto _ : state) {
        Rng shot = rng.split();
        benchmark::DoNotOptimize(experiment.runShot(2, shot));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarRunShotL2)->Arg(10)->Arg(30);

void
BM_BatchedRunShotL2(benchmark::State &state)
{
    const double p = state.range(0) * 1e-4;
    BatchedLogicalQubitExperiment experiment(ecc::steaneCode(),
                                             NoiseParameters::swept(p));
    std::uint64_t shots = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            experiment.failureRate(2, 64, ++shots).rate());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchedRunShotL2)->Arg(10)->Arg(30);

constexpr std::size_t kSweepShots = 2048;

/** Single-thread defaults (group of 16 words + lane compaction): the
 *  engine-level speedup, comparable across machines. */
McRunOptions
singleThreadOptions()
{
    McRunOptions options;
    options.threads = 1;
    return options;
}

/** PR-2 execution shape: one 64-shot word at a time, no compaction. */
McRunOptions
plainOptions()
{
    McRunOptions options;
    options.threads = 1;
    options.batch.groupWords = 1;
    options.batch.laneCompaction = false;
    return options;
}

void
BM_ThresholdSweepScalarWindow(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            thresholdSweepScalar(kWindowSweep, kSweepShots, 20050938));
    // Shots per sweep: points x two recursion levels x shots.
    state.SetItemsProcessed(state.iterations() * kWindowSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepScalarWindow);

void
BM_ThresholdSweepBatchedWindow(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(thresholdSweep(
            kWindowSweep, kSweepShots, 20050938, singleThreadOptions()));
    state.SetItemsProcessed(state.iterations() * kWindowSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepBatchedWindow);

void
BM_ThresholdSweepScalarFull(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            thresholdSweepScalar(kFullSweep, kSweepShots, 20050938));
    state.SetItemsProcessed(state.iterations() * kFullSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepScalarFull);

void
BM_ThresholdSweepBatchedFull(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(thresholdSweep(
            kFullSweep, kSweepShots, 20050938, singleThreadOptions()));
    state.SetItemsProcessed(state.iterations() * kFullSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepBatchedFull);

/** Tail-only fixture on the current defaults. */
void
BM_ThresholdSweepBatchedTail(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(thresholdSweep(
            kTailSweep, kSweepShots, 20050938, singleThreadOptions()));
    state.SetItemsProcessed(state.iterations() * kTailSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepBatchedTail);

/** The PR-2 execution shape (single word, no compaction): the delta to
 *  BM_ThresholdSweepBatchedFull is the lane-compaction recovery on the
 *  far-above-threshold tail. */
void
BM_ThresholdSweepBatchedFullNoCompaction(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(thresholdSweep(
            kFullSweep, kSweepShots, 20050938, plainOptions()));
    state.SetItemsProcessed(state.iterations() * kFullSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepBatchedFullNoCompaction);

/** Thread scaling of the ordered-claim sweep scheduler; the argument is
 *  the worker-thread count (results are bit-identical across them). */
void
BM_ThresholdSweepBatchedFullThreads(benchmark::State &state)
{
    McRunOptions options;
    options.threads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            thresholdSweep(kFullSweep, kSweepShots, 20050938, options));
    state.SetItemsProcessed(state.iterations() * kFullSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepBatchedFullThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void
BM_ThresholdSweepBatchedWindowThreads(benchmark::State &state)
{
    McRunOptions options;
    options.threads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            thresholdSweep(kWindowSweep, kSweepShots, 20050938, options));
    state.SetItemsProcessed(state.iterations() * kWindowSweep.size() * 2
                            * kSweepShots);
}
BENCHMARK(BM_ThresholdSweepBatchedWindowThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

} // namespace

#include "gbench_json_main.h"

int
main(int argc, char **argv)
{
    return runGoogleBenchmarkMain(argc, argv);
}
