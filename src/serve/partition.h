/**
 * @file
 * Deterministic task partitioning and sharding for sweep jobs.
 *
 * A job decomposes into an ordered chunk list that is a pure function
 * of its spec -- the same list on every machine, every run, every
 * worker count. The decomposition is the engines' own: threshold jobs
 * run arq::planThresholdSweep (the plan arq::thresholdSweep runs), and
 * co-simulation jobs run network::enumerateCoSimPoints (the points
 * network::runCoSimSweep runs), one chunk per point.
 *
 * The chunk index is the unit of everything downstream: checkpoints
 * record per-chunk partials by index, shards own the round-robin
 * residue classes of the index space, and final assembly always merges
 * partials in ascending index order -- which is why a resumed, sharded
 * or differently-threaded run reassembles byte-identical output.
 */

#ifndef QLA_SERVE_PARTITION_H
#define QLA_SERVE_PARTITION_H

#include <vector>

#include "arq/monte_carlo.h"
#include "network/cosim.h"
#include "serve/job_spec.h"

namespace qla::serve {

using ThresholdTask = arq::ThresholdTask;
/** One schedulable, checkpointable unit. Threshold jobs: a shot range
 *  of tasks[task]. CoSim jobs: the whole run points[task]
 *  (firstShot/shotCount unused). */
using SweepChunk = arq::SweepChunk;

/** The full deterministic decomposition of one job: the threshold
 *  plan (tasks and chunks), or the co-simulation points with one chunk
 *  per point. */
struct JobPartition : arq::ThresholdPlan
{
    std::vector<network::CoSimPointParams> points; ///< CoSim jobs only.
};

/** The in-process sweep configuration of a co-simulation job: the
 *  base CoSimConfig plus every axis. */
network::CoSimSweepConfig coSimSweepConfig(const CoSimJobParams &params);

/** Decompose @p spec; pure function of the spec. */
JobPartition partitionJob(const SweepJobSpec &spec);

/**
 * Round-robin shard ownership: shard s of n owns the chunks whose
 * index ≡ s (mod n). Round-robin (rather than contiguous blocks)
 * balances the expensive far-above-threshold points across shards.
 */
bool chunkInShard(std::size_t chunk_index, int shard_index,
                  int shard_count);

} // namespace qla::serve

#endif // QLA_SERVE_PARTITION_H
