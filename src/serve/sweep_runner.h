/**
 * @file
 * Sharded, resumable execution of one sweep job.
 *
 * runSweepJob() drives a job's chunk list over the shot scheduler
 * (threshold chunks start in arq::sweepDispatchOrder, cosim chunks in
 * index order): each worker computes whole chunks (threshold shot
 * ranges via the record/replay experiment cache, co-simulation points
 * via the workload cache), partials are recorded under a lock keyed
 * by chunk index, and the checkpoint file is rewritten atomically
 * every checkpointEveryChunks completions. Resume loads the
 * checkpoint, skips its chunks, and computes only the rest.
 *
 * The output contract: the final text is assembled from per-chunk
 * partials merged in ascending chunk-index order, with every partial
 * bit-identical however it was produced (computed this run, loaded
 * from a checkpoint, computed by another shard, any worker count).
 * So a killed-and-resumed run, a 1-vs-N-worker run, and a sharded
 * run reassembled by mergeSweepCheckpoints() all emit byte-identical
 * output -- the property the CI resume-equivalence gate and
 * tests/test_sweep_service.cc enforce with cmp/EXPECT_EQ. The text
 * comes from renderThresholdPoints / renderCoSimPoints, the renderers
 * the determinism gate prints the in-process sweeps with, applied to
 * arq::foldThresholdSweep of the partials or to the partials' points,
 * so served output equals the in-process sweep's byte for byte.
 */

#ifndef QLA_SERVE_SWEEP_RUNNER_H
#define QLA_SERVE_SWEEP_RUNNER_H

#include <functional>
#include <string>
#include <vector>

#include "serve/checkpoint.h"
#include "serve/engine_cache.h"
#include "serve/job_spec.h"
#include "serve/partition.h"

namespace qla::serve {

/** Warm state shared across jobs (the service keeps one). */
struct SweepCaches
{
    /** One experiment cache per scheduler worker slot -- recorded
     *  frame traces are not shared across concurrent workers (the
     *  batched engine mutates per-run scratch), but they stay warm
     *  across sequential jobs on the same worker slot. */
    std::vector<std::unique_ptr<ExperimentCache>> perWorkerExperiments;
    WorkloadCache workloads;

    /** Grow perWorkerExperiments to at least @p workers caches. Call
     *  before the workers start: they index the vector concurrently. */
    void reserveWorkers(std::size_t workers);
    /** The cache of worker slot @p worker (must be reserved). */
    ExperimentCache &workerCache(std::size_t worker);
    /** Summed record/replay tallies across workers + workload cache. */
    CacheCounters counters() const;
    void resetCounters();
};

struct RunnerOptions
{
    /** Worker threads (sim::resolveThreadCount semantics; 0 = env). */
    int workers = 1;
    /** This process's shard (round-robin chunk ownership). Sharded
     *  runs (shardCount > 1) require a checkpointPath: the checkpoint
     *  is the shard's result artifact, merged by
     *  mergeSweepCheckpoints. */
    int shardIndex = 0;
    int shardCount = 1;
    /** Checkpoint file; empty disables checkpointing and resume. */
    std::string checkpointPath;
    /** Rewrite the checkpoint after every N newly computed chunks. */
    std::size_t checkpointEveryChunks = 1;
    /** Injected kill for the resume-equivalence gate: stop after this
     *  many newly computed chunks (0 = run to completion). The final
     *  checkpoint is still written; the outcome reports incomplete. */
    std::size_t killAfterChunks = 0;
    /** Streaming progress: one line per completed chunk with the
     *  chunk's task identity and the merged-so-far Wilson interval
     *  (threshold) or window count (cosim). Called under the record
     *  lock, in completion order. */
    std::function<void(const std::string &line)> progress;
};

struct RunOutcome
{
    /** Every owned chunk has a partial (loaded or computed). */
    bool complete = false;
    std::size_t chunksComputed = 0;       ///< Newly computed this run.
    std::size_t chunksFromCheckpoint = 0; ///< Resumed from disk.
    /** Rendered result text; set only when complete and unsharded
     *  (sharded shards deliver their checkpoint file instead). */
    std::string output;
    /** Set when the run could not start or finish cleanly (bad
     *  checkpoint, config-hash mismatch, I/O failure). */
    std::string error;
};

/** Execute (or resume) @p spec under @p options. @p caches may be
 *  shared across calls for warm-cache replay; pass a fresh instance
 *  for cold runs. */
RunOutcome runSweepJob(const SweepJobSpec &spec,
                       const RunnerOptions &options, SweepCaches &caches);

/**
 * Merge shard checkpoints into the job's final output. Every
 * checkpoint must carry @p spec's config hash and chunk count, and
 * together they must cover every chunk exactly once.
 * @return false with @p error set otherwise.
 */
bool mergeSweepCheckpoints(const SweepJobSpec &spec,
                           const std::vector<CheckpointData> &shards,
                           std::string &output, std::string &error);

/** The threshold-sweep text: one "p=... L1=... L2=..." line per point,
 *  then the estimated threshold. */
std::string renderThresholdPoints(
    const std::vector<arq::ThresholdPoint> &points);

/** The co-simulation sweep text: one line per point, extended with the
 *  degradation ledger when @p noisy and the cache ledger when
 *  @p hierarchy, then one summary line of the sweep's
 *  reduceCoSimSweep. */
std::string renderCoSimPoints(
    const std::vector<network::CoSimSweepPoint> &points, bool noisy,
    bool hierarchy);

/** Render the final result text from a complete, ascending partial
 *  set (exposed for the merge path and tests). */
std::string renderSweepOutput(
    const SweepJobSpec &spec, const JobPartition &partition,
    const std::vector<ThresholdChunkPartial> &threshold_partials,
    const std::vector<CoSimChunkPartial> &cosim_partials);

} // namespace qla::serve

#endif // QLA_SERVE_SWEEP_RUNNER_H
