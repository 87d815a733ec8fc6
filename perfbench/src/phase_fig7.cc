/**
 * @file
 * fig7: the Figure-7 threshold sweep through arq::thresholdSweep.
 *
 * A pass makes one call over the crossing window {1.0 .. 3.0}e-3 and
 * one over the tail {4, 6, 8}e-3, both at levels 1 and 2, with default
 * BatchOptions on two workers. Window points spend their time in replay
 * and sampling; tail points are retry-amplified, so the tail carries
 * the cost of prep-retry pooling, segment migration and twin subtrees.
 *
 * The traced pass rebuilds the same sweep from its public parts --
 * serve::partitionJob's chunk list, BatchedLogicalQubitExperiment
 * construction and failureRateRange per chunk on a two-worker
 * sim::ShotScheduler -- with spans around each call, and its points
 * must equal thresholdSweep's byte for byte.
 */

#include <cstdio>
#include <cstring>

#include "arq/batched_monte_carlo.h"
#include "arq/monte_carlo.h"
#include "ecc/steane.h"
#include "phases.h"
#include "requests.h"
#include "serve/partition.h"
#include "sim/shot_scheduler.h"

namespace perfbench {
namespace {

using qla::arq::ThresholdPoint;

/** Shots per (point, level): about 0.12 s per call on two workers. */
constexpr std::size_t kWindowShots = 8192;
constexpr std::size_t kTailShots = 4096;
/** Experiments each worker keeps, as thresholdSweep's worker cache. */
constexpr std::size_t kCacheSlots = 3;

struct SweepGroup
{
    const char *name;
    std::vector<double> points;
    std::size_t shots;
    std::uint64_t seed;

    double totalShots() const
    {
        return static_cast<double>(points.size() * 2 * shots);
    }
};

bool
samePoints(const std::vector<ThresholdPoint> &a,
           const std::vector<ThresholdPoint> &b)
{
    return a.size() == b.size()
        && std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(ThresholdPoint))
        == 0;
}

std::string
pointsText(const char *group, const std::vector<ThresholdPoint> &points)
{
    std::string out;
    char buf[192];
    for (const ThresholdPoint &p : points) {
        std::snprintf(buf, sizeof(buf),
                      "%s p=%.17g L1=%.17g +- %.17g L2=%.17g +- %.17g\n",
                      group, p.physicalError, p.level1Failure,
                      p.level1Error, p.level2Failure, p.level2Error);
        out += buf;
    }
    return out;
}

/** What the traced passes measured, summed over passes. */
struct TracedTotals
{
    double replayNs[2][2] = {};         ///< [group][level - 1]
    double replayShots[2][2] = {};
    double recordNs = 0.0;
    std::size_t records = 0;
    std::vector<double> chunkMs;
    double chunkNs = 0.0;
    double sweepNs = 0.0;
    std::size_t chunks = 0;
    /** Deterministic outputs of the first traced pass. */
    bool haveOutputs = false;
    double prepAttemptsMean[2] = {};
    std::uint64_t logicalFailures[2] = {}; ///< [level - 1]
};

class Fig7Phase : public Phase
{
  public:
    explicit Fig7Phase(const RunContext &context) : ctx_(context)
    {
        groups_.push_back({"window", {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3, 3.0e-3},
                           kWindowShots, mixSeed(ctx_.seed, 1)});
        groups_.push_back({"tail", {4.0e-3, 6.0e-3, 8.0e-3}, kTailShots,
                           mixSeed(ctx_.seed, 2)});
    }

    const char *name() const override { return "fig7"; }

    void setup() override
    {
        // Untimed warm-up: one chunk per task over every point starts
        // the thread pool and touches the recording and replay code.
        std::vector<double> all;
        for (const SweepGroup &group : groups_)
            all.insert(all.end(), group.points.begin(),
                       group.points.end());
        qla::arq::thresholdSweep(all, qla::arq::McRunOptions{}.chunkShots,
                                 mixSeed(ctx_.seed, 3), options());
    }

    void step(std::size_t part, Report &report) override;
    bool satisfied(std::size_t part) const override;
    void finish(Report &report) override;

  private:
    qla::arq::McRunOptions options() const
    {
        qla::arq::McRunOptions options;
        options.threads = ctx_.workers;
        return options;
    }

    std::vector<ThresholdPoint> tracedSweep(std::size_t g);

    RunContext ctx_;
    std::vector<SweepGroup> groups_;
    std::size_t passes_ = 0;
    /** thresholdSweep's points of the first pass, per group. */
    std::vector<std::vector<ThresholdPoint>> reference_;
    /** Shots and host seconds summed over plain calls, per group. */
    std::vector<double> plainShots_, plainSeconds_;
    std::vector<double> plainMs_, tracedMs_;
    TracedTotals totals_;
};

std::vector<ThresholdPoint>
Fig7Phase::tracedSweep(std::size_t g)
{
    TracedTotals &totals = totals_;
    using namespace qla;
    const SweepGroup &group = groups_[g];
    Tracer &tracer = *ctx_.tracer;

    serve::SweepJobSpec spec;
    spec.kind = serve::SweepKind::Threshold;
    spec.threshold.physicalErrors = group.points;
    spec.threshold.shots = group.shots;
    spec.threshold.seed = group.seed;
    spec.threshold.chunkShots = arq::McRunOptions{}.chunkShots;
    spec.threshold.groupWords = arq::BatchOptions{}.groupWords;
    const serve::JobPartition partition = serve::partitionJob(spec);

    struct ChunkOut
    {
        sim::RateStat rate;
        arq::ExperimentStats stats;
        std::int64_t startNs = 0, endNs = 0, recordNs = 0, replayNs = 0;
        bool recorded = false;
    };
    std::vector<ChunkOut> out(partition.chunks.size());

    // Per-worker experiment cache, as thresholdSweep keeps one.
    struct WorkerCache
    {
        std::size_t point[kCacheSlots] = {};
        std::unique_ptr<arq::BatchedLogicalQubitExperiment>
            experiment[kCacheSlots];
        std::size_t nextEvict = 0;
    };
    sim::ShotScheduler scheduler(ctx_.workers);
    std::vector<WorkerCache> caches(
        static_cast<std::size_t>(scheduler.threadCount()));

    const int sweep_span = tracer.open("sim.sweep", -1, 0);
    const std::int64_t sweep_start = tracer.now();
    scheduler.run(out.size(), [&](std::size_t job, int worker) {
        ChunkOut &chunk_out = out[job];
        const int chunk_span = tracer.open("sim.chunk", sweep_span, worker);
        chunk_out.startNs = tracer.now();
        const serve::SweepChunk &chunk = partition.chunks[job];
        const serve::ThresholdTask &task = partition.tasks[chunk.task];
        WorkerCache &cache = caches[static_cast<std::size_t>(worker)];
        arq::BatchedLogicalQubitExperiment *experiment = nullptr;
        for (std::size_t s = 0; s < kCacheSlots; ++s)
            if (cache.experiment[s] && cache.point[s] == task.point)
                experiment = cache.experiment[s].get();
        if (!experiment) {
            const std::size_t slot = cache.nextEvict;
            cache.nextEvict = (slot + 1) % kCacheSlots;
            const std::int64_t start = tracer.now();
            cache.point[slot] = task.point;
            cache.experiment[slot]
                = std::make_unique<arq::BatchedLogicalQubitExperiment>(
                    ecc::steaneCode(),
                    arq::NoiseParameters::swept(task.physicalError),
                    arq::LayoutDistances{}, 16, arq::BatchOptions{});
            experiment = cache.experiment[slot].get();
            const std::int64_t end = tracer.now();
            tracer.record("arq.record", start, end, chunk_span, worker);
            chunk_out.recordNs = end - start;
            chunk_out.recorded = true;
        }
        const std::int64_t start = tracer.now();
        chunk_out.rate = experiment->failureRateRange(
            task.level, chunk.firstShot, chunk.shotCount, task.seed,
            &chunk_out.stats);
        const std::int64_t end = tracer.now();
        tracer.record(task.level == 1 ? "arq.replay.l1" : "arq.replay.l2",
                      start, end, chunk_span, worker);
        chunk_out.replayNs = end - start;
        tracer.close(chunk_span);
        chunk_out.endNs = tracer.now();
    });
    tracer.close(sweep_span);
    totals.sweepNs += static_cast<double>(tracer.now() - sweep_start)
        * scheduler.threadCount();

    // Fixed chunk-order reduction, as thresholdSweep reduces.
    std::vector<sim::RateStat> task_rates(partition.tasks.size());
    arq::ExperimentStats stats;
    std::uint64_t failures[2] = {};
    for (std::size_t j = 0; j < out.size(); ++j) {
        const serve::SweepChunk &chunk = partition.chunks[j];
        const int level = partition.tasks[chunk.task].level;
        task_rates[chunk.task].merge(out[j].rate);
        stats.merge(out[j].stats);
        failures[level - 1] += out[j].rate.successes();
        totals.replayNs[g][level - 1] += static_cast<double>(out[j].replayNs);
        totals.replayShots[g][level - 1]
            += static_cast<double>(chunk.shotCount);
        if (out[j].recorded) {
            totals.recordNs += static_cast<double>(out[j].recordNs);
            ++totals.records;
        }
        const double chunk_ns
            = static_cast<double>(out[j].endNs - out[j].startNs);
        totals.chunkMs.push_back(chunk_ns * 1e-6);
        totals.chunkNs += chunk_ns;
        ++totals.chunks;
    }
    if (!totals.haveOutputs) {
        totals.prepAttemptsMean[g] = stats.prepAttempts.mean();
        for (int level = 0; level < 2; ++level)
            totals.logicalFailures[level] += failures[level];
        if (g + 1 == groups_.size())
            totals.haveOutputs = true;
    }

    std::vector<ThresholdPoint> points(group.points.size());
    for (std::size_t t = 0; t < partition.tasks.size(); ++t) {
        const serve::ThresholdTask &task = partition.tasks[t];
        ThresholdPoint &point = points[task.point];
        point.physicalError = task.physicalError;
        if (task.level == 1) {
            point.level1Failure = task_rates[t].rate();
            point.level1Error = task_rates[t].halfWidth95();
        } else {
            point.level2Failure = task_rates[t].rate();
            point.level2Error = task_rates[t].halfWidth95();
        }
    }
    return points;
}

void
Fig7Phase::step(std::size_t, Report &report)
{
    const std::size_t pass = passes_++;
    const bool traced_pass = ctx_.tracer && pass % 2 == 1;
    if (pass == 0) {
        reference_.resize(groups_.size());
        plainShots_.resize(groups_.size());
        plainSeconds_.resize(groups_.size());
    }
    const auto pass_start = Clock::now();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const SweepGroup &group = groups_[g];
        const auto call_start = Clock::now();
        const std::vector<ThresholdPoint> points = traced_pass
            ? tracedSweep(g)
            : qla::arq::thresholdSweep(group.points, group.shots,
                                       group.seed, options());
        const double call_s = secondsSince(call_start);
        if (!traced_pass) {
            plainShots_[g] += group.totalShots();
            plainSeconds_[g] += call_s;
        }
        if (pass == 0) {
            reference_[g] = points;
            report.digest("fig7", pointsText(group.name, points));
        }
        report.operation(samePoints(points, reference_[g]),
                         std::string("fig7 ") + group.name + " pass "
                             + std::to_string(pass)
                             + (traced_pass ? " (traced)" : "")
                             + " differs from thresholdSweep");
    }
    (traced_pass ? tracedMs_ : plainMs_)
        .push_back(secondsSince(pass_start) * 1e3);
}

bool
Fig7Phase::satisfied(std::size_t) const
{
    return plainMs_.size() >= 3
        && (!ctx_.tracer
            || (tracedMs_.size() >= 2
                && totals_.chunkMs.size() >= samplesForPercentile(0.9)));
}

void
Fig7Phase::finish(Report &report)
{
    const double crossing = qla::arq::estimateThreshold(reference_[0]);
    std::printf("paper: fig7 L1/L2 crossing p_th=%.3g at %zu shots per "
                "point and level (paper: 2.1e-3 +- 1.8e-3; inside the "
                "paper's band: %s)\n",
                crossing, groups_[0].shots,
                crossing >= 0.3e-3 && crossing <= 3.9e-3 ? "yes" : "no");

    if (!ctx_.tracer) {
        // Throughput over every plain call of the run: host speed here
        // shifts between levels every second or so, and a ratio of sums
        // averages the levels where a median of calls would jump
        // between them.
        report.hostRate("window_shots_per_s",
                        plainShots_[0] / plainSeconds_[0], "shots/s");
        report.hostRate("tail_shots_per_s", plainShots_[1] / plainSeconds_[1],
                        "shots/s");
        return;
    }

    const TracedTotals &totals = totals_;
    const double passes = static_cast<double>(tracedMs_.size());
    report.metric("arq.record_ms",
                  totals.records ? totals.recordNs * 1e-6
                          / static_cast<double>(totals.records)
                                 : 0.0,
                  "ms");
    report.metric("arq.records",
                  static_cast<double>(totals.records) / passes, "count");
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        for (int level = 1; level <= 2; ++level)
            report.metric(std::string("arq.replay_ns_per_shot.")
                              + groups_[g].name + ".l"
                              + std::to_string(level),
                          totals.replayNs[g][level - 1]
                              / totals.replayShots[g][level - 1],
                          "ns");
        report.metric(std::string("arq.prep_attempts_mean.")
                          + groups_[g].name,
                      totals.prepAttemptsMean[g], "count");
    }
    for (int level = 1; level <= 2; ++level)
        report.metric("arq.logical_failures.l" + std::to_string(level),
                      static_cast<double>(totals.logicalFailures[level - 1]),
                      "count");
    report.metric("sim.chunks",
                  static_cast<double>(totals.chunks) / passes, "count");
    report.metric("sim.chunk_ms_p50", median(totals.chunkMs), "ms");
    report.metric("sim.chunk_ms_p90", *tailPercentile(totals.chunkMs, 0.9),
                  "ms");
    report.metric("sim.busy_frac", totals.chunkNs / totals.sweepNs,
                  "fraction");
    static const char *const kLayers[] = {"arq", "sim"};
    reportLayerTimes(*ctx_.tracer, "fig7", kLayers, 2, tracedMs_.size(),
                     median(tracedMs_) - median(plainMs_), report);
}

} // namespace

std::unique_ptr<Phase>
makeFig7Phase(const RunContext &context)
{
    return std::make_unique<Fig7Phase>(context);
}

} // namespace perfbench
