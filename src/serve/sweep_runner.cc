#include "serve/sweep_runner.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <mutex>

#include "arq/monte_carlo.h"
#include "common/logging.h"
#include "network/cosim.h"
#include "sim/shot_scheduler.h"

namespace qla::serve {

void
SweepCaches::reserveWorkers(std::size_t workers)
{
    while (perWorkerExperiments.size() < workers)
        perWorkerExperiments.push_back(
            std::make_unique<ExperimentCache>());
}

ExperimentCache &
SweepCaches::workerCache(std::size_t worker)
{
    qla_assert(worker < perWorkerExperiments.size(),
               "no experiment cache reserved for worker ", worker);
    return *perWorkerExperiments[worker];
}

CacheCounters
SweepCaches::counters() const
{
    CacheCounters total = workloads.counters();
    for (const auto &cache : perWorkerExperiments) {
        const CacheCounters c = cache->counters();
        total.traceRecordings += c.traceRecordings;
        total.traceReplays += c.traceReplays;
    }
    return total;
}

void
SweepCaches::resetCounters()
{
    workloads.resetCounters();
    for (auto &cache : perWorkerExperiments)
        cache->resetCounters();
}

namespace {

void
appendf(std::string &out, const char *format, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *format, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, format);
    const int n = std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

/** Shared record-side state of one run (guarded by its mutex). */
struct RunState
{
    std::mutex mutex;
    std::map<std::size_t, ThresholdChunkPartial> threshold;
    std::map<std::size_t, CoSimChunkPartial> cosim;
    std::size_t computed = 0;
    std::size_t loaded = 0;
    bool killed = false;
    std::string checkpointError;

    std::size_t done() const { return loaded + computed; }

    CheckpointData snapshot(const SweepJobSpec &spec,
                            std::size_t total_chunks) const
    {
        CheckpointData data;
        data.configHash = spec.configHash();
        data.kind = spec.kind;
        data.totalChunks = total_chunks;
        for (const auto &[index, partial] : threshold)
            data.threshold.push_back(partial);
        for (const auto &[index, partial] : cosim)
            data.cosim.push_back(partial);
        return data;
    }
};

} // namespace

RunOutcome
runSweepJob(const SweepJobSpec &spec, const RunnerOptions &options,
            SweepCaches &caches)
{
    RunOutcome outcome;
    if (options.shardCount < 1 || options.shardIndex < 0
        || options.shardIndex >= options.shardCount) {
        outcome.error = "bad shard selection";
        return outcome;
    }
    if (options.shardCount > 1 && options.checkpointPath.empty()) {
        outcome.error = "sharded runs need --checkpoint (the shard's "
                        "result artifact)";
        return outcome;
    }

    const JobPartition partition = partitionJob(spec);
    const std::uint64_t config_hash = spec.configHash();

    std::vector<std::size_t> owned;
    for (const SweepChunk &chunk : partition.chunks)
        if (chunkInShard(chunk.index, options.shardIndex,
                         options.shardCount))
            owned.push_back(chunk.index);

    RunState state;
    if (!options.checkpointPath.empty()
        && checkpointFileExists(options.checkpointPath)) {
        CheckpointData data;
        std::string error;
        if (!loadCheckpointFile(options.checkpointPath, data, error)) {
            outcome.error = error;
            return outcome;
        }
        if (data.configHash != config_hash) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "checkpoint config hash %016llx does not "
                          "match job %016llx",
                          (unsigned long long)data.configHash,
                          (unsigned long long)config_hash);
            outcome.error = options.checkpointPath + ": " + buf;
            return outcome;
        }
        if (data.kind != spec.kind
            || data.totalChunks != partition.chunks.size()) {
            outcome.error = options.checkpointPath
                + ": checkpoint does not match the job's partition";
            return outcome;
        }
        for (const ThresholdChunkPartial &partial : data.threshold)
            state.threshold.emplace(partial.chunk, partial);
        for (const CoSimChunkPartial &partial : data.cosim)
            state.cosim.emplace(partial.chunk, partial);
        state.loaded = state.threshold.size() + state.cosim.size();
    }

    std::vector<std::size_t> pending;
    for (const std::size_t index : owned)
        if (!state.threshold.count(index) && !state.cosim.count(index))
            pending.push_back(index);
    if (spec.kind == SweepKind::Threshold) {
        // Start chunks in the sweep's dispatch order (most expensive
        // first); partials still land by chunk index.
        std::vector<arq::SweepChunkKey> keys;
        keys.reserve(pending.size());
        for (const std::size_t index : pending) {
            const ThresholdTask &task
                = partition.tasks[partition.chunks[index].task];
            keys.push_back({task.point, task.physicalError, task.level});
        }
        std::vector<std::size_t> ordered;
        ordered.reserve(pending.size());
        for (const std::size_t k : arq::sweepDispatchOrder(keys))
            ordered.push_back(pending[k]);
        pending = std::move(ordered);
    }

    // Lowered workloads pinned for the scheduler's lifetime (cosim).
    std::vector<std::shared_ptr<const network::ProgramWorkload>>
        workloads;
    network::CoSimConfig base_config;
    if (spec.kind == SweepKind::CoSim && !pending.empty()) {
        for (const WorkloadSpec &workload : spec.cosim.workloads)
            workloads.push_back(caches.workloads.acquire(workload));
        base_config = coSimSweepConfig(spec.cosim).base;
    }

    const std::size_t total_owned = owned.size();
    auto record_progress = [&](const std::string &line) {
        if (options.progress)
            options.progress(line);
    };

    // Incremental per-task rates for the streaming Wilson intervals
    // (integer-count merges, so completion order cannot skew them).
    std::vector<sim::RateStat> task_rates(partition.tasks.size());

    auto maybe_checkpoint = [&](bool force) {
        if (options.checkpointPath.empty())
            return;
        if (!force && options.checkpointEveryChunks > 1
            && state.computed % options.checkpointEveryChunks != 0)
            return;
        std::string error;
        if (!saveCheckpointFile(options.checkpointPath,
                                state.snapshot(spec,
                                               partition.chunks.size()),
                                error)
            && state.checkpointError.empty())
            state.checkpointError = error;
    };

    sim::ShotScheduler scheduler(options.workers);
    // Workers index the per-worker caches concurrently, so the vector
    // must be sized here, before any of them starts.
    caches.reserveWorkers(
        static_cast<std::size_t>(scheduler.threadCount()));
    scheduler.run(pending.size(), [&](std::size_t job, int worker) {
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            if (state.killed)
                return;
        }
        const SweepChunk &chunk = partition.chunks[pending[job]];

        if (spec.kind == SweepKind::Threshold) {
            const ThresholdTask &task = partition.tasks[chunk.task];
            auto experiment = caches.workerCache(worker).acquire(
                task.physicalError, spec.threshold.groupWords);
            ThresholdChunkPartial partial;
            partial.chunk = chunk.index;
            partial.failures = experiment->failureRateRange(
                task.level, chunk.firstShot, chunk.shotCount, task.seed,
                &partial.stats);

            std::lock_guard<std::mutex> lock(state.mutex);
            state.threshold.emplace(partial.chunk, partial);
            ++state.computed;
            task_rates[chunk.task].merge(partial.failures);
            const sim::RateStat &rate = task_rates[chunk.task];
            std::string line;
            appendf(line,
                    "progress %zu/%zu p=%.17g L%d rate=%.17g +- %.17g",
                    state.done(), total_owned, task.physicalError,
                    task.level, rate.rate(), rate.halfWidth95());
            record_progress(line);
            if (options.killAfterChunks
                && state.computed >= options.killAfterChunks)
                state.killed = true;
            maybe_checkpoint(state.killed);
            return;
        }

        const network::CoSimPointParams &point
            = partition.points[chunk.task];
        network::ProgramCoSimulator simulator(
            *workloads[point.workload],
            network::pointCoSimConfig(base_config, point));
        CoSimChunkPartial partial;
        partial.chunk = chunk.index;
        partial.report = simulator.run();
        partial.report.perGate.clear(); // Not persisted; keep loaded
                                        // and computed partials equal.

        std::lock_guard<std::mutex> lock(state.mutex);
        state.cosim.emplace(partial.chunk, partial);
        ++state.computed;
        std::string line;
        appendf(line, "progress %zu/%zu w=%zu bw=%d seed=%llu "
                      "windows=%llu",
                state.done(), total_owned, point.workload,
                point.bandwidth, (unsigned long long)point.seed,
                (unsigned long long)partial.report.windows);
        record_progress(line);
        if (options.killAfterChunks
            && state.computed >= options.killAfterChunks)
            state.killed = true;
        maybe_checkpoint(state.killed);
    });

    maybe_checkpoint(true);
    if (!state.checkpointError.empty()) {
        outcome.error = state.checkpointError;
        return outcome;
    }

    outcome.chunksComputed = state.computed;
    outcome.chunksFromCheckpoint = state.loaded;
    outcome.complete = state.done() == total_owned;
    if (outcome.complete && options.shardCount == 1) {
        std::vector<ThresholdChunkPartial> threshold_partials;
        for (const auto &[index, partial] : state.threshold)
            threshold_partials.push_back(partial);
        std::vector<CoSimChunkPartial> cosim_partials;
        for (const auto &[index, partial] : state.cosim)
            cosim_partials.push_back(partial);
        outcome.output = renderSweepOutput(spec, partition,
                                           threshold_partials,
                                           cosim_partials);
    }
    return outcome;
}

std::string
renderThresholdPoints(const std::vector<arq::ThresholdPoint> &points)
{
    std::string out;
    for (const arq::ThresholdPoint &point : points)
        appendf(out, "p=%.17g L1=%.17g +- %.17g L2=%.17g +- %.17g\n",
                point.physicalError, point.level1Failure,
                point.level1Error, point.level2Failure,
                point.level2Error);
    appendf(out, "threshold=%.17g\n", arq::estimateThreshold(points));
    return out;
}

std::string
renderCoSimPoints(const std::vector<network::CoSimSweepPoint> &points,
                  bool noisy, bool hierarchy)
{
    std::string out;
    for (const network::CoSimSweepPoint &point : points) {
        const network::CoSimReport &r = point.report;
        appendf(out,
                "w=%zu bw=%d seed=%llu windows=%llu warmup=%llu "
                "stallW=%llu gatesStalled=%llu req=%llu mesh=%llu "
                "local=%llu deferred=%llu drift=%llu reroutes=%llu "
                "util=%.17g route=%.17g",
                point.workload, point.bandwidth,
                (unsigned long long)point.seed,
                (unsigned long long)r.windows,
                (unsigned long long)r.warmupWindows,
                (unsigned long long)r.stallWindows,
                (unsigned long long)r.gatesStalled,
                (unsigned long long)r.pairsRequested,
                (unsigned long long)r.pairsRoutedOnMesh,
                (unsigned long long)r.pairsLocal,
                (unsigned long long)r.deferredPairWindows,
                (unsigned long long)r.driftMoves,
                (unsigned long long)r.backoffReroutes, r.utilization,
                r.averageRouteLength);
        if (noisy)
            appendf(out,
                    " fr=%.17g lvl=%d ef=%.17g dropped=%llu lost=%llu "
                    "rej=%llu aband=%llu demAband=%llu degraded=%llu "
                    "retries=%llu backoffW=%llu penaltyW=%llu "
                    "fidMean=%.17g fidMin=%.17g resid=%.17g",
                    point.faultRate, point.purificationLevel,
                    point.linkFidelity,
                    (unsigned long long)r.pairsDropped,
                    (unsigned long long)r.pairsLostInTransit,
                    (unsigned long long)r.pairsRejectedFidelity,
                    (unsigned long long)r.pairsAbandoned,
                    (unsigned long long)r.demandsAbandoned,
                    (unsigned long long)r.gatesDegraded,
                    (unsigned long long)r.retryAttempts,
                    (unsigned long long)r.retryBackoffWindows,
                    (unsigned long long)r.fallbackPenaltyWindows,
                    r.deliveredFidelityMean(), r.deliveredFidelityMin,
                    r.residualEprError());
        if (hierarchy)
            appendf(out,
                    " cf=%.17g ml=%d touches=%llu hits=%llu miss=%llu "
                    "inplace=%llu evict=%llu fetchReq=%llu wbReq=%llu "
                    "convW=%llu cTiles=%llu mTiles=%llu",
                    point.computeFraction, point.memoryLevel,
                    (unsigned long long)r.operandTouches,
                    (unsigned long long)r.memHits,
                    (unsigned long long)r.memMisses,
                    (unsigned long long)r.memInPlaceMisses,
                    (unsigned long long)r.memEvictions,
                    (unsigned long long)r.fetchPairsRequested,
                    (unsigned long long)r.writebackPairsRequested,
                    (unsigned long long)r.missConversionWindows,
                    (unsigned long long)r.computeTiles,
                    (unsigned long long)r.memoryTiles);
        out += '\n';
    }

    const network::CoSimSweepStats stats
        = network::reduceCoSimSweep(points);
    appendf(out,
            "makespan_mean=%.17g util_mean=%.17g stall_mean=%.17g "
            "stalled_runs=%llu/%llu",
            stats.makespanWindows.mean(), stats.utilization.mean(),
            stats.stallWindows.mean(),
            (unsigned long long)stats.stalledRuns.successes(),
            (unsigned long long)stats.stalledRuns.trials());
    if (noisy)
        appendf(out,
                " dropped_mean=%.17g abandoned_mean=%.17g "
                "retries_mean=%.17g resid_mean=%.17g "
                "degraded_runs=%llu/%llu",
                stats.droppedPairs.mean(), stats.abandonedPairs.mean(),
                stats.retryAttempts.mean(),
                stats.residualEprError.mean(),
                (unsigned long long)stats.degradedRuns.successes(),
                (unsigned long long)stats.degradedRuns.trials());
    if (hierarchy)
        appendf(out,
                " miss_mean=%.17g missrate_mean=%.17g evict_mean=%.17g",
                stats.cacheMisses.mean(), stats.cacheMissRate.mean(),
                stats.cacheEvictions.mean());
    out += '\n';
    return out;
}

std::string
renderSweepOutput(
    const SweepJobSpec &spec, const JobPartition &partition,
    const std::vector<ThresholdChunkPartial> &threshold_partials,
    const std::vector<CoSimChunkPartial> &cosim_partials)
{
    // Partials arrive complete and in ascending chunk order, so the
    // i-th partial is chunk i.
    if (spec.kind == SweepKind::Threshold) {
        std::vector<sim::RateStat> rates;
        rates.reserve(threshold_partials.size());
        for (const ThresholdChunkPartial &partial : threshold_partials) {
            qla_assert(partial.chunk == rates.size());
            rates.push_back(partial.failures);
        }
        return renderThresholdPoints(
            arq::foldThresholdSweep(partition, rates));
    }
    std::vector<network::CoSimSweepPoint> points;
    points.reserve(cosim_partials.size());
    for (const CoSimChunkPartial &partial : cosim_partials)
        points.push_back(
            {partition.points[partial.chunk], partial.report});
    return renderCoSimPoints(points, spec.cosim.noisy(),
                             spec.cosim.hierarchical());
}

bool
mergeSweepCheckpoints(const SweepJobSpec &spec,
                      const std::vector<CheckpointData> &shards,
                      std::string &output, std::string &error)
{
    const JobPartition partition = partitionJob(spec);
    const std::uint64_t config_hash = spec.configHash();

    std::map<std::size_t, ThresholdChunkPartial> threshold;
    std::map<std::size_t, CoSimChunkPartial> cosim;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const CheckpointData &shard = shards[s];
        if (shard.configHash != config_hash) {
            error = "shard " + std::to_string(s)
                + " carries a different config hash than the job";
            return false;
        }
        if (shard.kind != spec.kind
            || shard.totalChunks != partition.chunks.size()) {
            error = "shard " + std::to_string(s)
                + " does not match the job's partition";
            return false;
        }
        for (const ThresholdChunkPartial &partial : shard.threshold)
            if (!threshold.emplace(partial.chunk, partial).second) {
                error = "chunk " + std::to_string(partial.chunk)
                    + " appears in more than one shard";
                return false;
            }
        for (const CoSimChunkPartial &partial : shard.cosim)
            if (!cosim.emplace(partial.chunk, partial).second) {
                error = "chunk " + std::to_string(partial.chunk)
                    + " appears in more than one shard";
                return false;
            }
    }
    const std::size_t have = threshold.size() + cosim.size();
    if (have != partition.chunks.size()) {
        error = "shards cover " + std::to_string(have) + " of "
            + std::to_string(partition.chunks.size()) + " chunks";
        return false;
    }

    std::vector<ThresholdChunkPartial> threshold_partials;
    for (const auto &[index, partial] : threshold)
        threshold_partials.push_back(partial);
    std::vector<CoSimChunkPartial> cosim_partials;
    for (const auto &[index, partial] : cosim)
        cosim_partials.push_back(partial);
    output = renderSweepOutput(spec, partition, threshold_partials,
                               cosim_partials);
    return true;
}

} // namespace qla::serve
