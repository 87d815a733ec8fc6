/**
 * @file
 * qla_perfbench: the repository benchmark program.
 *
 *   qla_perfbench --workload fig7|cosim|serve --seed N --seconds S
 *                 --trace 0|1 --workdir DIR
 *
 * Runs every phase (phases.h); the workload names the phase that gets
 * 40% of the measured time, the other two get 30% each. Prints a run
 * stamp, the paper-accuracy lines, the host-speed scale
 * (host_speed.h), the output digests, in traced runs the per-layer
 * self-time table, in plain runs the unscaled timings, and as its last
 * line the result JSON: end-to-end metrics with --trace 0, per-layer
 * metrics with --trace 1.
 * Traced runs also write DIR/trace-<workload>-<seed>.json (Chrome
 * trace-event format).
 */

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>

#include "host_speed.h"
#include "phases.h"

namespace perfbench {

void
reportLayerTimes(const Tracer &tracer, const char *phase,
                 const char *const *layers, std::size_t layer_count,
                 std::size_t traced_passes, double overhead_ms,
                 Report &report)
{
    const auto self = selfTimeByLayer(tracer.spans());
    for (std::size_t i = 0; i < layer_count; ++i) {
        const auto it = self.find(layers[i]);
        const double ms = it == self.end()
            ? 0.0
            : static_cast<double>(it->second) * 1e-6
                / static_cast<double>(traced_passes);
        std::printf("layer %-8s phase %-6s self %10.3f ms per traced pass\n",
                    layers[i], phase, ms);
        report.metric(std::string(layers[i]) + ".self_ms", ms, "ms");
    }
    std::printf("layer %-8s phase %-6s tracing overhead %10.3f ms per pass\n",
                "-", phase, overhead_ms);
    report.metric(std::string("trace.overhead_ms.") + phase, overhead_ms,
                  "ms");
}

namespace {

/** Worker threads for the sweep and the service; all load is one
 *  process, and the workload sizes assume two workers. */
constexpr int kWorkers = 2;
constexpr std::size_t kSetupRounds = 9;
/** Shares of the run's time spent repeating set-up rounds and timing
 *  the host-speed kernel. */
constexpr double kSetupShare = 0.03;
constexpr double kKernelShare = 0.05;
constexpr std::size_t kKernelRuns = 20;

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "qla_perfbench: %s\nusage: qla_perfbench --workload "
                 "fig7|cosim|serve --seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n",
                 message);
    return 2;
}

bool
parseUnsigned(const char *text, unsigned long long &value)
{
    char *end = nullptr;
    value = std::strtoull(text, &end, 10);
    return end != text && *end == '\0' && text[0] != '-';
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

int
run(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "qla_perfbench: refusing to report from a build "
                         "without NDEBUG (library_build_type debug); "
                         "build with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
#endif
    std::string workload, workdir;
    unsigned long long seed = 0, seconds = 0, trace = 2;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--workdir")
            workdir = value;
        else if (arg == "--seed" && parseUnsigned(value, seed))
            have_seed = true;
        else if (arg == "--seconds" && parseUnsigned(value, seconds))
            have_seconds = seconds > 0 && seconds <= 3600;
        else if (arg == "--trace" && parseUnsigned(value, trace) && trace <= 1)
            continue;
        else
            return usage(("bad argument " + arg + " " + value).c_str());
    }
    if (workload != "fig7" && workload != "cosim" && workload != "serve")
        return usage("--workload must be fig7, cosim or serve");
    if (!have_seed || !have_seconds || trace > 1 || workdir.empty())
        return usage("--seed, --seconds, --trace and --workdir are required");

    const int nproc = availableCpus();
    if (kWorkers > nproc) {
        std::fprintf(stderr,
                     "qla_perfbench: %d workers need %d CPUs, only %d "
                     "available; refusing to measure an oversubscribed "
                     "run\n",
                     kWorkers, kWorkers, nproc);
        return 2;
    }
    std::printf("stamp workload=%s seed=%llu seconds=%llu trace=%llu "
                "nproc=%d workers=%d compiler=\"%s\" native_arch=%s "
                "build_type=%s\n",
                workload.c_str(), seed, seconds, trace, nproc, kWorkers,
                PERFBENCH_COMPILER, PERFBENCH_NATIVE_ARCH,
                PERFBENCH_BUILD_TYPE);

    Tracer tracer;
    RunContext context;
    context.seed = seed;
    context.workers = kWorkers;
    context.workdir = workdir;
    context.tracer = trace == 1 ? &tracer : nullptr;
    std::unique_ptr<Phase> phases[] = {makeFig7Phase(context),
                                       makeCoSimPhase(context),
                                       makeServePhase(context)};

    // Set-up is repeated and its median reported, so a change that
    // moves work into set-up shows despite run-to-run noise. The first
    // round runs before measuring; the rest are spread over the run
    // like the passes below, so they sample the same host conditions.
    std::vector<double> setup_s;
    const std::function<void()> setup_round = [&] {
        const auto start = Clock::now();
        for (auto &phase : phases)
            phase->setup();
        setup_s.push_back(secondsSince(start));
    };
    setup_round();

    // Interleave single passes: always run the part furthest behind its
    // share of the time, until the time is spent and every part has
    // the samples its metrics need. Set-up rounds and the host-speed
    // kernel (host_speed.h) are parts too.
    struct Part
    {
        std::function<void()> step;
        std::function<bool()> satisfied;
        double share;
        double used = 0.0;
    };
    Report report;
    std::vector<double> kernel_us;
    std::uint64_t kernel_sum = 0;
    std::vector<Part> parts;
    parts.push_back({setup_round,
                     [&] { return setup_s.size() >= kSetupRounds; },
                     kSetupShare});
    parts.push_back({[&] {
                         const auto start = Clock::now();
                         kernel_sum += hostSpeedKernel();
                         kernel_us.push_back(secondsSince(start) * 1e6);
                     },
                     [&] { return kernel_us.size() >= kKernelRuns; },
                     kKernelShare});
    for (auto &phase : phases) {
        const double share = workload == phase->name() ? 0.4 : 0.3;
        const std::vector<double> shares = phase->partShares();
        for (std::size_t i = 0; i < shares.size(); ++i)
            parts.push_back(
                {[&report, p = phase.get(), i] { p->step(i, report); },
                 [p = phase.get(), i] { return p->satisfied(i); },
                 share * shares[i]});
    }
    const auto start = Clock::now();
    for (;;) {
        const bool time_spent
            = secondsSince(start) >= static_cast<double>(seconds);
        Part *next = nullptr;
        for (Part &part : parts) {
            if (time_spent && part.satisfied())
                continue;
            if (!next || part.used / part.share < next->used / next->share)
                next = &part;
        }
        if (!next)
            break;
        const auto step_start = Clock::now();
        next->step();
        next->used += secondsSince(step_start);
    }

    double kernel_mean_us = 0.0;
    for (double us : kernel_us)
        kernel_mean_us += us / static_cast<double>(kernel_us.size());
    report.setHostScale(kReferenceKernelUs / kernel_mean_us);
    std::printf("host speed kernel %.1f us mean over %zu runs (reference "
                "%.1f us; checksum %llu): end-to-end timings are scaled "
                "by %.4f\n",
                kernel_mean_us, kernel_us.size(), kReferenceKernelUs,
                (unsigned long long)kernel_sum,
                kReferenceKernelUs / kernel_mean_us);
    for (auto &phase : phases)
        phase->finish(report);
    if (context.tracer)
        report.metric("host.kernel_us", kernel_mean_us, "us");

    std::printf("digest");
    for (const auto &[phase, digest] : report.digests())
        std::printf(" %s=%016llx", phase.c_str(), (unsigned long long)digest);
    std::printf("\n");

    if (context.tracer) {
        const std::string path = workdir + "/trace-" + workload + "-"
            + std::to_string(seed) + ".json";
        const std::string json = chromeTraceJson(tracer.spans());
        std::FILE *file = std::fopen(path.c_str(), "wb");
        const bool written = file
            && std::fwrite(json.data(), 1, json.size(), file) == json.size();
        if (!file || std::fclose(file) != 0 || !written) {
            std::fprintf(stderr, "qla_perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("trace %s\n", path.c_str());
    } else {
        rusage usage_now{};
        getrusage(RUSAGE_SELF, &usage_now);
        report.hostTime("setup_s", median(setup_s), "s");
        report.metric("peak_rss_mb",
                      static_cast<double>(usage_now.ru_maxrss) / 1024.0,
                      "MB");
    }
    if (!context.tracer)
        std::printf("%s\n", report.rawLine().c_str());
    std::printf("%s\n", report.resultJson().c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "qla_perfbench: %s\n", error.what());
        return 1;
    }
}
