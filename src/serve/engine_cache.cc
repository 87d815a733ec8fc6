#include "serve/engine_cache.h"

#include <cstring>

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/toffoli.h"
#include "ecc/steane.h"

namespace qla::serve {

namespace {

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace

std::shared_ptr<arq::BatchedLogicalQubitExperiment>
ExperimentCache::acquire(double p, std::size_t group_words)
{
    const Key key{doubleBits(p), group_words};
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = cache_.find(key);
    if (found != cache_.end()) {
        ++counters_.traceReplays;
        return found->second;
    }

    if (cache_.size() >= slots_) {
        cache_.erase(insertionOrder_[nextEvict_]);
        insertionOrder_[nextEvict_] = key;
        nextEvict_ = (nextEvict_ + 1) % slots_;
    } else {
        insertionOrder_.push_back(key);
    }
    arq::BatchOptions batch;
    batch.groupWords = group_words;
    // Same construction as thresholdSweep's worker cache: this binds
    // the noise point to the shared tile recording (recording it only
    // on the process's first query of the shape).
    auto experiment
        = std::make_shared<arq::BatchedLogicalQubitExperiment>(
            ecc::steaneCode(), arq::NoiseParameters::swept(p),
            arq::LayoutDistances{}, 16, batch);
    ++counters_.traceRecordings;
    cache_[key] = experiment;
    return experiment;
}

CacheCounters
ExperimentCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
ExperimentCache::resetCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = CacheCounters{};
}

network::ProgramWorkload
lowerWorkload(const WorkloadSpec &spec)
{
    switch (spec.app) {
    case WorkloadSpec::App::Toffoli:
        return network::ProgramWorkload(
            apps::toffoliNetworkCircuit(spec.size, spec.depth));
    case WorkloadSpec::App::Qcla:
        return network::ProgramWorkload(apps::qclaAdderCircuit(spec.size));
    case WorkloadSpec::App::BandedQft:
    default:
        return network::ProgramWorkload(apps::bandedQftCircuit(
            spec.size,
            spec.depth ? spec.depth : apps::qftBandWidth(spec.size)));
    }
}

std::shared_ptr<const network::ProgramWorkload>
WorkloadCache::acquire(const WorkloadSpec &spec)
{
    const std::string key = spec.token();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto found = cache_.find(key);
        if (found != cache_.end()) {
            ++counters_.workloadReplays;
            return found->second;
        }
    }
    // Lower outside the lock (lowering a wide QFT is not cheap);
    // a racing duplicate lowering is wasted work, never a wrong result.
    auto workload = std::make_shared<const network::ProgramWorkload>(
        lowerWorkload(spec));
    std::lock_guard<std::mutex> lock(mutex_);
    auto [slot, inserted] = cache_.emplace(key, std::move(workload));
    if (inserted)
        ++counters_.workloadLowerings;
    else
        ++counters_.workloadReplays;
    return slot->second;
}

CacheCounters
WorkloadCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
WorkloadCache::resetCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = CacheCounters{};
}

} // namespace qla::serve
