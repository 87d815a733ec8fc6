#include "serve/partition.h"

#include "common/logging.h"

namespace qla::serve {

network::CoSimSweepConfig
coSimSweepConfig(const CoSimJobParams &params)
{
    network::CoSimSweepConfig config;
    config.base.placement = params.randomPlacement
        ? network::PlacementStrategy::Random
        : network::PlacementStrategy::Affinity;
    config.base.fidelity.opError = params.opError;
    config.base.fidelity.deliveryThreshold = params.deliveryThreshold;
    config.base.fidelity.retryBudget = params.retryBudget;
    config.bandwidths = params.bandwidths;
    config.faultRates = params.faultRates;
    config.purificationLevels = params.purificationLevels;
    config.linkFidelities = params.linkFidelities;
    config.computeFractions = params.computeFractions;
    config.memoryCodeLevels = params.memoryCodeLevels;
    config.seeds = params.seeds;
    return config;
}

JobPartition
partitionJob(const SweepJobSpec &spec)
{
    if (spec.kind == SweepKind::Threshold) {
        const ThresholdJobParams &params = spec.threshold;
        return {arq::planThresholdSweep(params.physicalErrors, params.shots,
                                        params.seed, params.chunkShots,
                                        params.groupWords),
                {}};
    }

    JobPartition partition;
    partition.points = network::enumerateCoSimPoints(
        spec.cosim.workloads.size(), coSimSweepConfig(spec.cosim));
    for (std::size_t p = 0; p < partition.points.size(); ++p)
        partition.chunks.push_back({p, p, 0, 0});
    return partition;
}

bool
chunkInShard(std::size_t chunk_index, int shard_index, int shard_count)
{
    qla_assert(shard_count >= 1 && shard_index >= 0
               && shard_index < shard_count);
    return chunk_index % static_cast<std::size_t>(shard_count)
        == static_cast<std::size_t>(shard_index);
}

} // namespace qla::serve
