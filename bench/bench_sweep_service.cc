/**
 * @file
 * Sweep-service record/replay fixture: what the warm caches buy.
 *
 * Benchmarks
 *   - BM_SweepServiceColdRecord: one threshold job on a fresh
 *     SweepCaches instance -- every noise point constructs its
 *     experiment, binding its noise classes to the shared tile
 *     recording and allocating frames and samplers, before the shots
 *     replay (the cold-query cost). Only the first query of a process
 *     records the tile schedule; every later iteration binds to that
 *     recording, so this lands close to the warm cache.
 *   - BM_SweepServiceWarmCache: the same job on caches kept warm by a
 *     prior run -- the cached experiments replay, nothing is
 *     constructed (the repeated-query cost). The serve-layer cache
 *     contract is that warm output is byte-identical to cold (asserted
 *     here and in tests/test_sweep_service.cc); the CI bench gate
 *     tracks both against their baselines.
 *   - BM_SweepServiceResultCacheReplay: the same job resubmitted to a
 *     SweepService that already served it -- pure result-cache lookup,
 *     no simulation at all.
 *
 * `--json <path>` records the google-benchmark JSON report
 * (BENCH_sweep_service.json snapshots; compared by the CI bench-smoke
 * job via scripts/compare_bench.py).
 */

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "serve/service.h"
#include "serve/sweep_runner.h"

using namespace qla::serve;

namespace {

/** Few shots over several points, so experiment construction is a
 *  visible share of a cold run: the gap the caches close. */
SweepJobSpec
fixtureSpec()
{
    SweepJobSpec spec;
    spec.kind = SweepKind::Threshold;
    spec.threshold.physicalErrors = {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3,
                                     3.0e-3};
    spec.threshold.shots = 64;
    spec.threshold.chunkShots = 64;
    spec.threshold.groupWords = 1;
    return spec;
}

void
BM_SweepServiceColdRecord(benchmark::State &state)
{
    const SweepJobSpec spec = fixtureSpec();
    RunnerOptions options;
    options.workers = 1;
    for (auto _ : state) {
        SweepCaches caches; // Fresh: every point is constructed.
        const RunOutcome outcome = runSweepJob(spec, options, caches);
        if (!outcome.complete)
            state.SkipWithError("cold run incomplete");
        benchmark::DoNotOptimize(outcome.output.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * spec.threshold.physicalErrors.size() * 2
                            * spec.threshold.shots);
}
BENCHMARK(BM_SweepServiceColdRecord)->UseRealTime();

void
BM_SweepServiceWarmCache(benchmark::State &state)
{
    const SweepJobSpec spec = fixtureSpec();
    RunnerOptions options;
    options.workers = 1;
    SweepCaches caches;
    const RunOutcome cold = runSweepJob(spec, options, caches);
    for (auto _ : state) {
        const RunOutcome warm = runSweepJob(spec, options, caches);
        if (warm.output != cold.output)
            state.SkipWithError("warm replay diverged from cold run");
        benchmark::DoNotOptimize(warm.output.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * spec.threshold.physicalErrors.size() * 2
                            * spec.threshold.shots);
}
BENCHMARK(BM_SweepServiceWarmCache)->UseRealTime();

void
BM_SweepServiceResultCacheReplay(benchmark::State &state)
{
    SweepService service;
    SweepRequest request;
    request.name = "fixture";
    request.spec = fixtureSpec();
    request.options.workers = 1;
    service.submit(request);
    SweepResponse first;
    service.processNext(first);
    if (!first.complete) {
        state.SkipWithError("fixture job failed");
        return;
    }
    for (auto _ : state) {
        service.submit(request);
        SweepResponse response;
        service.processNext(response);
        if (!response.fromResultCache
            || response.output != first.output)
            state.SkipWithError("result cache missed");
        benchmark::DoNotOptimize(response.output.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepServiceResultCacheReplay)->UseRealTime();

} // namespace

#include "gbench_json_main.h"

int
main(int argc, char **argv)
{
    return runGoogleBenchmarkMain(argc, argv);
}
