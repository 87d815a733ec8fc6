/**
 * @file
 * Sweep-service CLI and queue daemon.
 *
 *   sweep_service run --spec FILE | --preset NAME
 *       [--workers N] [--shard I/N] [--checkpoint FILE]
 *       [--checkpoint-every N] [--kill-after-chunks N]
 *       [--out FILE] [--progress]
 *     Execute (or resume) one sweep job. Results go to --out or
 *     stdout; with --progress, per-chunk progress lines with the
 *     merged-so-far Wilson intervals stream to stderr. Exit 0 on a
 *     complete run, 3 when the run stopped early (--kill-after-chunks,
 *     the CI resume gate's injected crash), 2 on errors.
 *
 *   sweep_service merge --spec FILE|--preset NAME
 *       --checkpoint FILE... [--out FILE]
 *     Merge shard checkpoints of one job into its final output --
 *     byte-identical to an unsharded run of the same spec.
 *
 *   sweep_service serve --queue DIR [--once] [--workers N]
 *     Queue daemon: each DIR/NAME.req file holds a job spec; the
 *     daemon processes them in name order, streams progress lines to
 *     NAME.progress, writes the result to NAME.out (errors to
 *     NAME.err) and renames the request to NAME.req.done. --once
 *     drains the current queue and exits; otherwise the daemon polls
 *     until DIR/stop exists.
 *
 *   sweep_service hash --spec FILE|--preset NAME
 *     Print the job's canonical text and config hash.
 *
 * Presets: "window" is the determinism gate's crossing-window
 * threshold sweep (byte-comparable against determinism_gate --mode
 * sweep); "gate" is a small threshold job sized for the CI resume
 * gate; "cosim" is a small co-simulation job.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "serve/service.h"
#include "serve/sweep_runner.h"

using namespace qla::serve;

namespace {

int
usage(const char *error = nullptr)
{
    if (error)
        std::fprintf(stderr, "sweep_service: %s\n", error);
    std::fprintf(
        stderr,
        "usage: sweep_service run --spec FILE|--preset NAME [options]\n"
        "       sweep_service merge --spec FILE|--preset NAME "
        "--checkpoint FILE... [--out FILE]\n"
        "       sweep_service serve --queue DIR [--once] [--workers N]\n"
        "       sweep_service hash --spec FILE|--preset NAME\n"
        "run options: --workers N, --shard I/N, --checkpoint FILE,\n"
        "  --checkpoint-every N, --kill-after-chunks N, --out FILE,\n"
        "  --progress\n"
        "presets: window (determinism-gate threshold sweep), gate\n"
        "  (small CI threshold job), cosim (small co-sim job)\n");
    return 2;
}

bool
presetSpec(const std::string &name, SweepJobSpec &spec)
{
    spec = SweepJobSpec{};
    if (name == "window") {
        spec.kind = SweepKind::Threshold;
        spec.threshold.physicalErrors
            = {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3, 3.0e-3};
        return true;
    }
    if (name == "gate") {
        spec.kind = SweepKind::Threshold;
        spec.threshold.physicalErrors = {1.5e-3, 2.5e-3};
        spec.threshold.shots = 512;
        spec.threshold.chunkShots = 64;
        spec.threshold.groupWords = 1;
        return true;
    }
    if (name == "cosim") {
        spec.kind = SweepKind::CoSim;
        WorkloadSpec workload;
        workload.app = WorkloadSpec::App::Qcla;
        workload.size = 16;
        spec.cosim.workloads = {workload};
        spec.cosim.bandwidths = {1, 2, 4};
        spec.cosim.seeds = {1, 2};
        spec.cosim.randomPlacement = true;
        return true;
    }
    return false;
}

bool
readFile(const std::string &path, std::string &text)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    char buf[4096];
    std::size_t got = 0;
    text.clear();
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    std::fclose(file);
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    const bool ok
        = std::fwrite(text.data(), 1, text.size(), file) == text.size();
    return std::fclose(file) == 0 && ok;
}

/** --spec FILE / --preset NAME resolution shared by the subcommands. */
bool
resolveSpec(const std::string &spec_path, const std::string &preset,
            SweepJobSpec &spec, std::string &error)
{
    if (!spec_path.empty() && !preset.empty()) {
        error = "--spec and --preset are mutually exclusive";
        return false;
    }
    if (!preset.empty()) {
        if (!presetSpec(preset, spec)) {
            error = "unknown preset '" + preset + "'";
            return false;
        }
        return true;
    }
    if (spec_path.empty()) {
        error = "need --spec FILE or --preset NAME";
        return false;
    }
    std::string text;
    if (!readFile(spec_path, text)) {
        error = "cannot read spec file " + spec_path;
        return false;
    }
    std::string parse_error;
    if (!SweepJobSpec::parse(text, spec, parse_error)) {
        error = spec_path + ": " + parse_error;
        return false;
    }
    return true;
}

bool
parseSizeArg(const char *arg, std::size_t &value)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0' || errno == ERANGE)
        return false;
    value = static_cast<std::size_t>(parsed);
    return true;
}

/** --workers: a whole count in [0, 2^20] (0 = QLA_THREADS, then the
 *  hardware concurrency). */
bool
parseWorkersArg(const char *arg, int &workers)
{
    std::size_t value = 0;
    if (!parseSizeArg(arg, value) || value > (std::size_t{1} << 20))
        return false;
    workers = static_cast<int>(value);
    return true;
}

int
emitResult(const std::string &out_path, const std::string &output)
{
    if (out_path.empty()) {
        std::fwrite(output.data(), 1, output.size(), stdout);
        return 0;
    }
    if (!writeFile(out_path, output)) {
        std::fprintf(stderr, "sweep_service: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string spec_path, preset, out_path;
    RunnerOptions options;
    bool progress = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *value = nullptr;
        if (arg == "--spec" && (value = next()))
            spec_path = value;
        else if (arg == "--preset" && (value = next()))
            preset = value;
        else if (arg == "--out" && (value = next()))
            out_path = value;
        else if (arg == "--checkpoint" && (value = next()))
            options.checkpointPath = value;
        else if (arg == "--workers" && (value = next())) {
            if (!parseWorkersArg(value, options.workers))
                return usage("bad --workers");
        } else if (arg == "--checkpoint-every" && (value = next())) {
            if (!parseSizeArg(value, options.checkpointEveryChunks)
                || options.checkpointEveryChunks == 0)
                return usage("bad --checkpoint-every");
        } else if (arg == "--kill-after-chunks" && (value = next())) {
            if (!parseSizeArg(value, options.killAfterChunks))
                return usage("bad --kill-after-chunks");
        } else if (arg == "--shard" && (value = next())) {
            if (std::sscanf(value, "%d/%d", &options.shardIndex,
                            &options.shardCount)
                    != 2
                || options.shardCount < 1 || options.shardIndex < 0
                || options.shardIndex >= options.shardCount)
                return usage("bad --shard (want I/N with 0 <= I < N)");
        } else if (arg == "--progress") {
            progress = true;
        } else {
            return usage(("unknown run option '" + arg + "'").c_str());
        }
    }

    SweepJobSpec spec;
    std::string error;
    if (!resolveSpec(spec_path, preset, spec, error))
        return usage(error.c_str());
    if (progress)
        options.progress = [](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        };

    SweepCaches caches;
    const RunOutcome outcome = runSweepJob(spec, options, caches);
    if (!outcome.error.empty()) {
        std::fprintf(stderr, "sweep_service: %s\n",
                     outcome.error.c_str());
        return 2;
    }
    if (!outcome.complete) {
        std::fprintf(stderr,
                     "sweep_service: stopped after %zu newly computed "
                     "chunks (%zu resumed); checkpoint %s holds the "
                     "partial sweep\n",
                     outcome.chunksComputed,
                     outcome.chunksFromCheckpoint,
                     options.checkpointPath.empty()
                         ? "(none)"
                         : options.checkpointPath.c_str());
        return 3;
    }
    if (options.shardCount > 1) {
        std::fprintf(stderr,
                     "sweep_service: shard %d/%d complete; merge the "
                     "shard checkpoints for the final output\n",
                     options.shardIndex, options.shardCount);
        return 0;
    }
    return emitResult(out_path, outcome.output);
}

int
cmdMerge(int argc, char **argv)
{
    std::string spec_path, preset, out_path;
    std::vector<std::string> checkpoint_paths;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *value = nullptr;
        if (arg == "--spec" && (value = next()))
            spec_path = value;
        else if (arg == "--preset" && (value = next()))
            preset = value;
        else if (arg == "--out" && (value = next()))
            out_path = value;
        else if (arg == "--checkpoint" && (value = next()))
            checkpoint_paths.push_back(value);
        else
            return usage(("unknown merge option '" + arg + "'").c_str());
    }

    SweepJobSpec spec;
    std::string error;
    if (!resolveSpec(spec_path, preset, spec, error))
        return usage(error.c_str());
    if (checkpoint_paths.empty())
        return usage("merge needs at least one --checkpoint FILE");

    std::vector<CheckpointData> shards;
    for (const std::string &path : checkpoint_paths) {
        CheckpointData data;
        if (!loadCheckpointFile(path, data, error)) {
            std::fprintf(stderr, "sweep_service: %s\n", error.c_str());
            return 2;
        }
        shards.push_back(std::move(data));
    }

    std::string output;
    if (!mergeSweepCheckpoints(spec, shards, output, error)) {
        std::fprintf(stderr, "sweep_service: %s\n", error.c_str());
        return 2;
    }
    return emitResult(out_path, output);
}

int
cmdHash(int argc, char **argv)
{
    std::string spec_path, preset;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *value = nullptr;
        if (arg == "--spec" && (value = next()))
            spec_path = value;
        else if (arg == "--preset" && (value = next()))
            preset = value;
        else
            return usage(("unknown hash option '" + arg + "'").c_str());
    }
    SweepJobSpec spec;
    std::string error;
    if (!resolveSpec(spec_path, preset, spec, error))
        return usage(error.c_str());
    std::fputs(spec.canonicalText().c_str(), stdout);
    std::printf("config %016llx\n",
                (unsigned long long)spec.configHash());
    return 0;
}

std::vector<std::string>
listRequests(const std::string &queue_dir)
{
    std::vector<std::string> requests;
    DIR *dir = ::opendir(queue_dir.c_str());
    if (!dir)
        return requests;
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.size() > 4
            && name.compare(name.size() - 4, 4, ".req") == 0)
            requests.push_back(name.substr(0, name.size() - 4));
    }
    ::closedir(dir);
    std::sort(requests.begin(), requests.end());
    return requests;
}

int
cmdServe(int argc, char **argv)
{
    std::string queue_dir;
    bool once = false;
    int workers = 1;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *value = nullptr;
        if (arg == "--queue" && (value = next()))
            queue_dir = value;
        else if (arg == "--workers" && (value = next())) {
            if (!parseWorkersArg(value, workers))
                return usage("bad --workers");
        } else if (arg == "--once")
            once = true;
        else
            return usage(("unknown serve option '" + arg + "'").c_str());
    }
    if (queue_dir.empty())
        return usage("serve needs --queue DIR");

    SweepService service;
    for (;;) {
        for (const std::string &name : listRequests(queue_dir)) {
            const std::string base = queue_dir + "/" + name;
            std::string text;
            if (!readFile(base + ".req", text))
                continue;

            SweepRequest request;
            request.name = name;
            request.options.workers = workers;
            const std::string progress_path = base + ".progress";
            std::remove(progress_path.c_str());
            request.options.progress
                = [&progress_path](const std::string &line) {
                      // Streamed (append + flush per line) so clients
                      // can tail the Wilson intervals mid-run.
                      std::FILE *file
                          = std::fopen(progress_path.c_str(), "ab");
                      if (!file)
                          return;
                      std::fprintf(file, "%s\n", line.c_str());
                      std::fclose(file);
                  };

            std::string error;
            if (!SweepJobSpec::parse(text, request.spec, error)) {
                writeFile(base + ".err", error + "\n");
            } else {
                service.submit(std::move(request));
                SweepResponse response;
                service.processNext(response);
                if (!response.error.empty())
                    writeFile(base + ".err", response.error + "\n");
                else
                    writeFile(base + ".out", response.output);
            }
            std::rename((base + ".req").c_str(),
                        (base + ".req.done").c_str());
        }
        if (once)
            return 0;
        if (checkpointFileExists(queue_dir + "/stop"))
            return 0;
        ::usleep(200 * 1000);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "--help" || command == "help") {
        usage();
        return 0;
    }
    if (command == "run")
        return cmdRun(argc - 2, argv + 2);
    if (command == "merge")
        return cmdMerge(argc - 2, argv + 2);
    if (command == "hash")
        return cmdHash(argc - 2, argv + 2);
    if (command == "serve")
        return cmdServe(argc - 2, argv + 2);
    return usage(("unknown command '" + command + "'").c_str());
}
