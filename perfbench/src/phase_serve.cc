/**
 * @file
 * serve: a closed loop of one client and an in-process
 * serve::SweepService running two workers.
 *
 * Each pass sends the seeded request sequence of requests.h to a fresh
 * service, one request at a time: the request text goes through
 * SweepJobSpec::parse as the daemon's does, then submit and
 * processNext; latency is parse-to-response. Only here do spec
 * parsing, partitioning, the three caches and checkpoint I/O carry the
 * cost: cold requests write the engine caches, warm requests read
 * them, and the result cache grows with every distinct request.
 *
 * Correctness: every response must be complete (a kill request must
 * stop incomplete) and carry no error; warm and resumed outputs must
 * equal a cold, uninterrupted run of the same spec on fresh caches
 * (run untimed); result-cache hits must equal the first answer.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "phases.h"
#include "requests.h"
#include "serve/checkpoint.h"
#include "serve/partition.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using namespace qla::serve;

constexpr std::size_t kRequestsPerPass = 40;
/** Passes whose outputs form the serve digest (every run makes them). */
constexpr std::size_t kDigestPasses = 2;

/** Per-layer samples from traced passes. */
struct ServeTrace
{
    std::vector<double> parseUs, partitionUs, chunkMs, saveMs, loadMs;
};

class ServePhase : public Phase
{
  public:
    explicit ServePhase(const RunContext &context) : ctx_(context) {}

    const char *name() const override { return "serve"; }

    void setup() override
    {
        // Service construction and one untimed request at a point the
        // generator never draws (outside (1e-3, 3e-3)).
        SweepService service;
        SweepRequest request;
        request.name = "warm-up";
        std::string error;
        SweepJobSpec::parse("kind threshold\nerrors 9e-4\nshots 64\n"
                            "chunk-shots 64\ngroup-words 1\n",
                            request.spec, error);
        request.options.workers = ctx_.workers;
        service.submit(request);
        SweepResponse response;
        service.processNext(response);
    }

    void step(std::size_t part, Report &report) override;
    bool satisfied(std::size_t part) const override;
    void finish(Report &report) override;

  private:
    std::string checkpointPath(std::size_t pass, std::size_t index) const
    {
        return ctx_.workdir + "/ckpt-" + std::to_string(pass) + "-"
            + std::to_string(index) + ".txt";
    }

    /** Cold, uninterrupted output of @p spec on fresh caches. */
    std::string reference(const SweepJobSpec &spec) const
    {
        SweepCaches caches;
        RunnerOptions options;
        options.workers = ctx_.workers;
        return runSweepJob(spec, options, caches).output;
    }

    /** Time loading and re-saving a finished checkpoint file. */
    void timeCheckpointIo(const std::string &path, Report &report);

    RunContext ctx_;
    std::size_t passes_ = 0, tracedPasses_ = 0;
    std::map<RequestKind, std::vector<double>> latencyMs_;
    std::vector<double> plainMs_, tracedMs_;
    ServeTrace trace_;
    /** Cache counters summed over traced passes. */
    double recordings_ = 0, replays_ = 0, lowerings_ = 0,
           workloadReplays_ = 0, hits_ = 0, cacheSize_ = 0;
};

void
ServePhase::timeCheckpointIo(const std::string &path, Report &report)
{
    ServeTrace &trace = trace_;
    Tracer &tracer = *ctx_.tracer;
    CheckpointData data;
    std::string error;
    std::int64_t t0 = tracer.now();
    const bool loaded = loadCheckpointFile(path, data, error);
    std::int64_t t1 = tracer.now();
    tracer.record("serve.checkpoint_load", t0, t1, -1, 0);
    trace.loadMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
    const std::string copy = path + ".copy";
    t0 = tracer.now();
    const bool saved = loaded && saveCheckpointFile(copy, data, error);
    t1 = tracer.now();
    tracer.record("serve.checkpoint_save", t0, t1, -1, 0);
    trace.saveMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
    std::remove(copy.c_str());
    report.operation(loaded && saved && data.doneChunks() == data.totalChunks,
                     "serve checkpoint " + path + ": " + error);
}

void
ServePhase::step(std::size_t, Report &report)
{
    const std::size_t pass = passes_++;
    const bool traced_pass = ctx_.tracer && pass % 2 == 1;
    Tracer *tracer = traced_pass ? ctx_.tracer : nullptr;
    const std::vector<GeneratedRequest> requests
        = generateRequests(ctx_.seed, pass, kRequestsPerPass);
    SweepService service;
    std::vector<SweepResponse> responses(requests.size());
    std::vector<std::string> paths;
    double pass_ms = 0.0;

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const GeneratedRequest &generated = requests[i];
        const RequestKind kind = generated.kind;
        const bool threshold = kind != RequestKind::CoSim;
        SweepRequest request;
        request.name = std::to_string(i);
        request.options.workers = ctx_.workers;
        if (kind == RequestKind::Checkpoint || kind == RequestKind::Kill
            || kind == RequestKind::Resume) {
            const std::size_t owner
                = kind == RequestKind::Resume ? generated.ref : i;
            request.options.checkpointPath = checkpointPath(pass, owner);
            if (kind != RequestKind::Resume) {
                std::remove(request.options.checkpointPath.c_str());
                paths.push_back(request.options.checkpointPath);
            }
        }
        request.options.killAfterChunks = generated.killAfterChunks;

        int request_span = -1, process_span = -1;
        std::int64_t process_start = 0;
        std::map<std::thread::id, std::int64_t> last_done;
        if (tracer && threshold && kind != RequestKind::Hit) {
            request.options.progress = [&](const std::string &) {
                // Runs on the worker that finished the chunk, under
                // the runner's record lock: a chunk spans from that
                // worker's previous completion (or the request's
                // start) to now.
                const std::int64_t now = tracer->now();
                auto [it, first] = last_done.try_emplace(
                    std::this_thread::get_id(), 0);
                const std::int64_t from
                    = first ? process_start : it->second;
                tracer->record("serve.chunk", from, now, process_span,
                               static_cast<int>(last_done.size()));
                trace_.chunkMs.push_back(
                    static_cast<double>(now - from) * 1e-6);
                it->second = now;
            };
        }

        const auto request_start = Clock::now();
        if (tracer)
            request_span = tracer->open("serve.request", -1, 0);
        std::string error;
        std::int64_t t0 = tracer ? tracer->now() : 0;
        const bool parsed
            = SweepJobSpec::parse(generated.text, request.spec, error);
        if (tracer) {
            const std::int64_t t1 = tracer->now();
            tracer->record("serve.parse", t0, t1, request_span, 0);
            trace_.parseUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
            t0 = tracer->now();
            partitionJob(request.spec);
            const std::int64_t t2 = tracer->now();
            tracer->record("serve.partition", t0, t2, request_span, 0);
            trace_.partitionUs.push_back(
                static_cast<double>(t2 - t0) * 1e-3);
            process_span
                = tracer->open("serve.process", request_span, 0);
            process_start = tracer->now();
        }
        SweepResponse &response = responses[i];
        if (parsed) {
            service.submit(request);
            service.processNext(response);
        }
        if (tracer) {
            tracer->close(process_span);
            tracer->close(request_span);
        }
        const double ms = secondsSince(request_start) * 1e3;
        pass_ms += ms;
        latencyMs_[kind].push_back(ms);

        bool ok = parsed && response.error.empty();
        if (kind == RequestKind::Kill)
            ok = ok && !response.complete && !response.fromResultCache;
        else
            ok = ok && response.complete && !response.output.empty()
                && response.fromResultCache == (kind == RequestKind::Hit);
        if (kind == RequestKind::Hit)
            ok = ok && response.output == responses[generated.ref].output;
        if (ok && (kind == RequestKind::Warm || kind == RequestKind::Resume))
            ok = response.output == reference(request.spec);
        report.operation(ok, std::string("serve pass ")
                                 + std::to_string(pass) + " request "
                                 + std::to_string(i) + " ("
                                 + kindName(kind) + ") "
                                 + (parsed ? response.error : error));
        if (tracer
            && (kind == RequestKind::Checkpoint
                || kind == RequestKind::Resume))
            timeCheckpointIo(request.options.checkpointPath, report);
        if (pass < kDigestPasses)
            report.digest("serve",
                          std::string(kindName(kind)) + ' '
                              + (response.complete ? "complete " : "partial ")
                              + (response.fromResultCache ? "hit\n" : "run\n")
                              + response.output);
    }
    for (const std::string &path : paths)
        std::remove(path.c_str());

    const CacheCounters counters = service.cacheCounters();
    std::size_t pass_hits = 0;
    for (const SweepResponse &response : responses)
        pass_hits += response.fromResultCache ? 1 : 0;
    if (pass < kDigestPasses) {
        // The workload cache is shared by the workers and filled
        // before the scheduler starts, so its counts are
        // deterministic; the per-worker experiment caches depend on
        // which worker ran which chunk, and are reported only.
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "pass %zu hits=%zu results=%zu lowerings=%llu "
                      "workload_replays=%llu\n",
                      pass, pass_hits, service.resultCacheSize(),
                      (unsigned long long)counters.workloadLowerings,
                      (unsigned long long)counters.workloadReplays);
        report.digest("serve", buf);
    }
    if (traced_pass) {
        ++tracedPasses_;
        recordings_ += static_cast<double>(counters.traceRecordings);
        replays_ += static_cast<double>(counters.traceReplays);
        lowerings_ += static_cast<double>(counters.workloadLowerings);
        workloadReplays_ += static_cast<double>(counters.workloadReplays);
        hits_ += static_cast<double>(pass_hits);
        cacheSize_ += static_cast<double>(service.resultCacheSize());
    }
    (traced_pass ? tracedMs_ : plainMs_).push_back(pass_ms);
}

bool
ServePhase::satisfied(std::size_t) const
{
    const std::size_t p90_samples = samplesForPercentile(0.9);
    auto samples = [&](RequestKind kind) {
        const auto it = latencyMs_.find(kind);
        return it == latencyMs_.end() ? 0 : it->second.size();
    };
    return passes_ >= kDigestPasses && samples(RequestKind::Cold) >= p90_samples
        && samples(RequestKind::Warm) >= p90_samples
        && (!ctx_.tracer
            || (tracedPasses_ >= 2 && trace_.chunkMs.size() >= p90_samples));
}

void
ServePhase::finish(Report &report)
{
    if (!ctx_.tracer) {
        for (const auto &[kind, prefix] :
             {std::pair{RequestKind::Cold, "cold"},
              std::pair{RequestKind::Warm, "warm"}}) {
            const std::vector<double> &ms = latencyMs_[kind];
            report.hostTime(std::string(prefix) + "_ms_p50", median(ms),
                            "ms");
            report.hostTime(std::string(prefix) + "_ms_p90",
                            *tailPercentile(ms, 0.9), "ms");
        }
        return;
    }

    const double passes = static_cast<double>(tracedPasses_);
    report.metric("serve.parse_us", median(trace_.parseUs), "us");
    report.metric("serve.partition_us", median(trace_.partitionUs), "us");
    report.metric("serve.chunk_ms_p50", median(trace_.chunkMs), "ms");
    report.metric("serve.chunk_ms_p90", *tailPercentile(trace_.chunkMs, 0.9),
                  "ms");
    report.metric("serve.checkpoint_save_ms", median(trace_.saveMs), "ms");
    report.metric("serve.checkpoint_load_ms", median(trace_.loadMs), "ms");
    report.metric("serve.resume_ms", median(latencyMs_[RequestKind::Resume]),
                  "ms");
    report.metric("serve.trace_recordings", recordings_ / passes, "count");
    report.metric("serve.trace_replays", replays_ / passes, "count");
    report.metric("serve.workload_lowerings", lowerings_ / passes, "count");
    report.metric("serve.workload_replays", workloadReplays_ / passes,
                  "count");
    report.metric("serve.experiment_cache_hit_frac",
                  replays_ / std::max(1.0, recordings_ + replays_), "fraction");
    report.metric("serve.result_cache_hits", hits_ / passes, "count");
    report.metric("serve.hit_us_p50",
                  median(latencyMs_[RequestKind::Hit]) * 1e3, "us");
    report.metric("serve.result_cache_size", cacheSize_ / passes, "count");
    report.metric("serve.cosim_job_ms_p50",
                  median(latencyMs_[RequestKind::CoSim]), "ms");
    static const char *const kLayers[] = {"serve"};
    reportLayerTimes(*ctx_.tracer, "serve", kLayers, 1, tracedPasses_,
                     median(tracedMs_) - median(plainMs_), report);
}

} // namespace

std::unique_ptr<Phase>
makeServePhase(const RunContext &context)
{
    return std::make_unique<ServePhase>(context);
}

} // namespace perfbench
