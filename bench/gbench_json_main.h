/**
 * @file
 * Shared main() for the google-benchmark executables, with the repo's
 * perf-trajectory hook: `--json <path>` (or `--json=<path>`)
 * additionally writes the google-benchmark JSON report to @p path so
 * successive PRs can record BENCH_*.json files and track throughput
 * over time. All other flags pass through to google-benchmark
 * unchanged.
 *
 * Include after registering benchmarks and call runGoogleBenchmarkMain
 * from main().
 */

#ifndef QLA_BENCH_GBENCH_JSON_MAIN_H
#define QLA_BENCH_GBENCH_JSON_MAIN_H

#include <benchmark/benchmark.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <cstring>
#include <string>
#include <vector>

inline int
runGoogleBenchmarkMain(int argc, char **argv)
{
    // Stamp the report with this TU's build type so compare_bench.py
    // can refuse baselines recorded from a debug build. Keyed off
    // NDEBUG as seen by the benchmark translation unit, which is what
    // actually determines how fast the measured library code runs.
#ifdef NDEBUG
    benchmark::AddCustomContext("library_build_type", "release");
#else
    benchmark::AddCustomContext("library_build_type", "debug");
#endif
#ifdef __linux__
    // num_cpus counts the machine's cores. Stamp how many this run may
    // use, which is what the *Threads* fixtures scale over (baselines
    // are recorded pinned to one core with taskset).
    cpu_set_t affinity;
    CPU_ZERO(&affinity);
    if (sched_getaffinity(0, sizeof(affinity), &affinity) == 0)
        benchmark::AddCustomContext("affinity_cpus",
                                    std::to_string(CPU_COUNT(&affinity)));
#endif
    std::string json_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else {
            args.push_back(argv[i]);
        }
    }
    // Route through google-benchmark's native file reporter.
    std::string out_flag;
    std::string format_flag;
    if (!json_path.empty()) {
        out_flag = "--benchmark_out=" + json_path;
        format_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }
    int args_count = static_cast<int>(args.size());

    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

#endif // QLA_BENCH_GBENCH_JSON_MAIN_H
