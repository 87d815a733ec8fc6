/**
 * @file
 * Sweep-service tests: deterministic partitioning, checkpoint
 * bit-exactness and corruption rejection, kill-and-resume byte
 * identity at adversarial boundaries, shard/merge equivalence,
 * record/replay cache identity, and the service queue semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arq/monte_carlo.h"
#include "common/rng.h"
#include "serve/checkpoint.h"
#include "serve/engine_cache.h"
#include "serve/job_spec.h"
#include "serve/partition.h"
#include "serve/service.h"
#include "serve/sweep_runner.h"

using namespace qla;
using namespace qla::serve;

namespace {

/** Small-but-nontrivial threshold job: 2 points x 2 levels x 4 chunks
 *  of 64 shots = 16 chunks, so kill boundaries can land mid-task,
 *  on a task (level) boundary, and on a point boundary. */
SweepJobSpec
smallThresholdSpec()
{
    SweepJobSpec spec;
    spec.kind = SweepKind::Threshold;
    spec.threshold.physicalErrors = {1.5e-3, 2.5e-3};
    spec.threshold.shots = 256;
    spec.threshold.chunkShots = 64;
    spec.threshold.groupWords = 1;
    spec.threshold.seed = 20050938;
    return spec;
}

/** Tiny co-simulation job: 1 workload x 2 bandwidths x 1 seed. */
SweepJobSpec
smallCoSimSpec()
{
    SweepJobSpec spec;
    spec.kind = SweepKind::CoSim;
    WorkloadSpec workload;
    workload.app = WorkloadSpec::App::Qcla;
    workload.size = 8;
    spec.cosim.workloads = {workload};
    spec.cosim.bandwidths = {1, 2};
    spec.cosim.seeds = {7};
    spec.cosim.randomPlacement = true;
    return spec;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "sweep_service_" + name;
}

std::string
runToCompletion(const SweepJobSpec &spec, int workers,
                const std::string &checkpoint = {})
{
    SweepCaches caches;
    RunnerOptions options;
    options.workers = workers;
    options.checkpointPath = checkpoint;
    const RunOutcome outcome = runSweepJob(spec, options, caches);
    EXPECT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_TRUE(outcome.complete);
    EXPECT_FALSE(outcome.output.empty());
    return outcome.output;
}

} // namespace

TEST(SweepJobSpec, RoundTripsThroughCanonicalText)
{
    for (const SweepJobSpec &spec :
         {smallThresholdSpec(), smallCoSimSpec()}) {
        SweepJobSpec reparsed;
        std::string error;
        ASSERT_TRUE(
            SweepJobSpec::parse(spec.canonicalText(), reparsed, error))
            << error;
        EXPECT_EQ(spec.configHash(), reparsed.configHash());
        EXPECT_EQ(spec.canonicalText(), reparsed.canonicalText());
    }
}

TEST(SweepJobSpec, RejectsMalformedRequests)
{
    SweepJobSpec spec;
    std::string error;
    EXPECT_FALSE(SweepJobSpec::parse("", spec, error));
    EXPECT_FALSE(SweepJobSpec::parse("kind threshold\n", spec, error));
    EXPECT_FALSE(SweepJobSpec::parse("kind cosim\n", spec, error));
    EXPECT_FALSE(SweepJobSpec::parse(
        "kind threshold\nerrors 1e-3\nshots 4000x\n", spec, error));
    EXPECT_FALSE(SweepJobSpec::parse(
        "kind threshold\nerrors 1e-3\ngroup-words 33\n", spec, error));
    EXPECT_FALSE(SweepJobSpec::parse(
        "kind threshold\nerrors 1e-3\nbogus-key 1\n", spec, error));
    EXPECT_FALSE(SweepJobSpec::parse(
        "kind cosim\nworkload qcla 0\n", spec, error));
    // Comments and blank lines are fine.
    EXPECT_TRUE(SweepJobSpec::parse(
        "# request\n\nkind threshold\nerrors 1e-3 2e-3\n", spec, error))
        << error;
    EXPECT_EQ(spec.threshold.physicalErrors.size(), 2u);
}

TEST(SweepJobSpec, RejectsValuesTheEnginesWouldAbortOn)
{
    // Each of these parsed before and then hit an engine assert, so a
    // served request file holding one crashed the daemon on every
    // restart. They must fail to parse, naming the offending line.
    const char *threshold = "kind threshold\n";
    const char *cosim = "kind cosim\nworkload qcla 8\n";
    const std::pair<const char *, const char *> bad[] = {
        {threshold, "errors -1"},
        {threshold, "errors 2"},
        {threshold, "errors nan"},
        {threshold, "errors 1e-3 nan"},
        {cosim, "bandwidths 0"},
        {cosim, "bandwidths 2 0"},
        {cosim, "memory-levels 0\ncompute-fractions 0.5"},
        {cosim, "memory-levels 3\ncompute-fractions 0.5"},
        {cosim, "op-error 2"},
        {cosim, "op-error nan"},
        {cosim, "op-error -0.1"},
        {"kind cosim\n", "workload toffoli 1"},
        {"kind cosim\n", "workload toffoli 2 4"},
        {cosim, "fault-rates 2"},
        {cosim, "fault-rates -0.5"},
        {cosim, "fault-rates 0 nan"},
        {cosim, "link-fidelities 1.5"},
        {cosim, "link-fidelities nan"},
        {cosim, "link-fidelities -1"},
    };
    for (const auto &[head, line] : bad) {
        const std::string text = std::string(head) + line + "\n";
        const std::string line_no = "line "
            + std::to_string(1 + std::count(head, head + std::strlen(head),
                                            '\n'))
            + ":";
        SweepJobSpec spec;
        std::string error;
        EXPECT_FALSE(SweepJobSpec::parse(text, spec, error)) << text;
        EXPECT_EQ(error.rfind(line_no, 0), 0u) << text << " -> " << error;
    }
    // The edges of each range still parse.
    SweepJobSpec spec;
    std::string error;
    EXPECT_TRUE(SweepJobSpec::parse(
        "kind threshold\nerrors 0 1\n", spec, error))
        << error;
    EXPECT_TRUE(SweepJobSpec::parse(
        "kind cosim\nworkload toffoli 3\nbandwidths 1\n"
        "fault-rates 0 1\nlink-fidelities 0 1\nmemory-levels 1 2\n"
        "op-error 1\n",
        spec, error))
        << error;
}

TEST(SweepPartition, IsDeterministicAndMirrorsThresholdSweepSeeds)
{
    const SweepJobSpec spec = smallThresholdSpec();
    const JobPartition a = partitionJob(spec);
    const JobPartition b = partitionJob(spec);
    ASSERT_EQ(a.tasks.size(), 4u);
    ASSERT_EQ(a.chunks.size(), 16u);
    ASSERT_EQ(a.chunks.size(), b.chunks.size());

    // Seeds derive exactly as arq::thresholdSweep derives them.
    Rng seeder(spec.threshold.seed);
    for (std::size_t i = 0; i < spec.threshold.physicalErrors.size();
         ++i) {
        EXPECT_EQ(a.tasks[2 * i].seed, seeder.next64());
        EXPECT_EQ(a.tasks[2 * i].level, 1);
        EXPECT_EQ(a.tasks[2 * i + 1].seed, seeder.next64());
        EXPECT_EQ(a.tasks[2 * i + 1].level, 2);
    }

    // Chunks tile every task's shot range exactly, in index order.
    std::vector<std::uint64_t> covered(a.tasks.size(), 0);
    for (std::size_t j = 0; j < a.chunks.size(); ++j) {
        const SweepChunk &chunk = a.chunks[j];
        EXPECT_EQ(chunk.index, j);
        EXPECT_EQ(chunk.firstShot, covered[chunk.task]);
        covered[chunk.task] += chunk.shotCount;
    }
    for (const std::uint64_t shots : covered)
        EXPECT_EQ(shots, spec.threshold.shots);
}

TEST(SweepPartition, ShardsOwnEveryChunkExactlyOnce)
{
    const JobPartition partition = partitionJob(smallThresholdSpec());
    for (const int shard_count : {1, 2, 3, 5}) {
        for (const SweepChunk &chunk : partition.chunks) {
            int owners = 0;
            for (int s = 0; s < shard_count; ++s)
                owners += chunkInShard(chunk.index, s, shard_count);
            EXPECT_EQ(owners, 1);
        }
    }
}

TEST(SweepCheckpoint, RoundTripsBitExactly)
{
    CheckpointData data;
    data.configHash = 0xdeadbeefcafef00dULL;
    data.kind = SweepKind::Threshold;
    data.totalChunks = 7;
    for (const std::size_t index : {0u, 3u, 6u}) {
        ThresholdChunkPartial partial;
        partial.chunk = index;
        partial.failures.addBulk(index + 1, 64);
        partial.stats.logicalFailure.addBulk(index + 1, 64);
        partial.stats.nontrivialSyndrome.addBulk(index * 5, 64);
        // Awkward doubles: subnormal, non-terminating binary fraction.
        partial.stats.prepAttempts.add(0.1 + 1e-17 * index);
        partial.stats.prepAttempts.add(5e-324);
        partial.stats.prepAttempts.add(1e300);
        data.threshold.push_back(partial);
    }

    const std::string text = encodeCheckpoint(data);
    CheckpointData loaded;
    std::string error;
    ASSERT_TRUE(decodeCheckpoint(text, loaded, error)) << error;
    EXPECT_EQ(loaded.configHash, data.configHash);
    EXPECT_EQ(loaded.totalChunks, data.totalChunks);
    ASSERT_EQ(loaded.threshold.size(), data.threshold.size());
    for (std::size_t i = 0; i < data.threshold.size(); ++i) {
        const auto want = data.threshold[i].stats.prepAttempts.raw();
        const auto got = loaded.threshold[i].stats.prepAttempts.raw();
        EXPECT_EQ(want.count, got.count);
        // Bit-level equality, not approximate: hexfloat round trip.
        EXPECT_EQ(std::memcmp(&want, &got, sizeof(want)), 0);
        EXPECT_EQ(data.threshold[i].failures.successes(),
                  loaded.threshold[i].failures.successes());
    }
    // Re-encoding the loaded data reproduces the file byte for byte.
    EXPECT_EQ(encodeCheckpoint(loaded), text);
}

TEST(SweepCheckpoint, RejectsCorruptionAndTruncation)
{
    CheckpointData data;
    data.configHash = 42;
    data.kind = SweepKind::Threshold;
    data.totalChunks = 4;
    ThresholdChunkPartial partial;
    partial.chunk = 2;
    partial.failures.addBulk(3, 64);
    partial.stats.prepAttempts.add(1.5);
    data.threshold.push_back(partial);
    const std::string text = encodeCheckpoint(data);

    CheckpointData loaded;
    std::string error;

    // Truncation: missing end line, and a cut mid-line.
    const std::size_t end_at = text.rfind("end ");
    EXPECT_FALSE(
        decodeCheckpoint(text.substr(0, end_at), loaded, error));
    EXPECT_FALSE(
        decodeCheckpoint(text.substr(0, text.size() / 2), loaded,
                         error));

    // A single flipped payload byte breaks the integrity hash.
    std::string flipped = text;
    flipped[text.find("chunk") + 8] ^= 1;
    EXPECT_FALSE(decodeCheckpoint(flipped, loaded, error));
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;

    // Wrong magic and unsupported version.
    EXPECT_FALSE(decodeCheckpoint("not a checkpoint\n" + text, loaded,
                                  error));
    std::string v2 = text;
    v2.replace(v2.find("v1"), 2, "v2");
    EXPECT_FALSE(decodeCheckpoint(v2, loaded, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    // Duplicate and out-of-range chunk indices (hash recomputed so
    // only the index check can reject).
    CheckpointData dup = data;
    dup.threshold.push_back(partial);
    EXPECT_FALSE(decodeCheckpoint(encodeCheckpoint(dup), loaded, error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    CheckpointData oob = data;
    oob.threshold[0].chunk = 9;
    EXPECT_FALSE(decodeCheckpoint(encodeCheckpoint(oob), loaded, error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;

    // Trailing garbage after the end line.
    EXPECT_FALSE(decodeCheckpoint(text + "extra\n", loaded, error));
}

TEST(SweepRunner, ThresholdOutputMatchesInProcessSweep)
{
    const SweepJobSpec spec = smallThresholdSpec();
    const std::string served = runToCompletion(spec, 2);

    // The reference: arq::thresholdSweep with the same window, shots
    // and seed (engine defaults -- the determinism contract makes
    // group width and chunking result-neutral).
    const auto points
        = arq::thresholdSweep(spec.threshold.physicalErrors,
                              spec.threshold.shots,
                              spec.threshold.seed);
    std::string expected;
    char buf[256];
    for (const auto &point : points) {
        std::snprintf(buf, sizeof(buf),
                      "p=%.17g L1=%.17g +- %.17g L2=%.17g +- %.17g\n",
                      point.physicalError, point.level1Failure,
                      point.level1Error, point.level2Failure,
                      point.level2Error);
        expected += buf;
    }
    std::snprintf(buf, sizeof(buf), "threshold=%.17g\n",
                  arq::estimateThreshold(points));
    expected += buf;
    EXPECT_EQ(served, expected);
}

TEST(SweepRunner, KillAndResumeIsByteIdenticalAtEveryBoundary)
{
    const SweepJobSpec spec = smallThresholdSpec();
    const std::string full = runToCompletion(spec, 1);
    const std::size_t total = partitionJob(spec).chunks.size();
    ASSERT_EQ(total, 16u);

    // Adversarial kill boundaries, counted in dispatch order (four
    // chunks per task, level 2 before level 1 within a point): first
    // chunk, mid-point (inside one task's shot range), mid-level (on
    // the L2/L1 task seam), point boundary, all-but-one.
    for (const std::size_t kill_after : {1u, 3u, 4u, 8u, 15u}) {
        for (const int workers : {1, 2}) {
            const std::string checkpoint = tempPath(
                "resume_" + std::to_string(kill_after) + "_"
                + std::to_string(workers));
            std::remove(checkpoint.c_str());

            const std::string context = "kill_after="
                + std::to_string(kill_after)
                + " workers=" + std::to_string(workers);

            SweepCaches caches;
            RunnerOptions options;
            options.workers = workers;
            options.checkpointPath = checkpoint;
            options.killAfterChunks = kill_after;
            const RunOutcome killed
                = runSweepJob(spec, options, caches);
            ASSERT_TRUE(killed.error.empty())
                << killed.error << " " << context;
            EXPECT_GE(killed.chunksComputed, kill_after) << context;
            if (killed.complete) {
                // Another worker's in-flight chunk can finish the job
                // after the kill: then there is nothing to resume, and
                // the run must still be the uninterrupted one.
                EXPECT_EQ(killed.chunksComputed, total) << context;
                EXPECT_EQ(killed.output, full) << context;
                std::remove(checkpoint.c_str());
                continue;
            }

            options.killAfterChunks = 0;
            SweepCaches fresh;
            const RunOutcome resumed
                = runSweepJob(spec, options, fresh);
            ASSERT_TRUE(resumed.error.empty())
                << resumed.error << " " << context;
            ASSERT_TRUE(resumed.complete) << context;
            EXPECT_EQ(resumed.chunksFromCheckpoint,
                      killed.chunksComputed)
                << context;
            EXPECT_EQ(resumed.output, full) << context;
            std::remove(checkpoint.c_str());
        }
    }
}

TEST(SweepRunner, ResumesFromZeroCompletedAndFullyCompletedCheckpoints)
{
    const SweepJobSpec spec = smallThresholdSpec();
    const std::string full = runToCompletion(spec, 1);
    const std::string checkpoint = tempPath("edge_resume");

    // Zero-completed: a valid checkpoint with no chunks (the process
    // died before finishing any work).
    CheckpointData empty;
    empty.configHash = spec.configHash();
    empty.kind = spec.kind;
    empty.totalChunks = partitionJob(spec).chunks.size();
    std::string error;
    ASSERT_TRUE(saveCheckpointFile(checkpoint, empty, error)) << error;
    SweepCaches caches;
    RunnerOptions options;
    options.checkpointPath = checkpoint;
    RunOutcome outcome = runSweepJob(spec, options, caches);
    ASSERT_TRUE(outcome.complete) << outcome.error;
    EXPECT_EQ(outcome.chunksFromCheckpoint, 0u);
    EXPECT_EQ(outcome.output, full);

    // All-completed: resuming the finished checkpoint computes nothing
    // and still renders the identical output.
    outcome = runSweepJob(spec, options, caches);
    ASSERT_TRUE(outcome.complete) << outcome.error;
    EXPECT_EQ(outcome.chunksComputed, 0u);
    EXPECT_EQ(outcome.chunksFromCheckpoint, empty.totalChunks);
    EXPECT_EQ(outcome.output, full);
    std::remove(checkpoint.c_str());
}

TEST(SweepRunner, RejectsCheckpointFromDifferentJob)
{
    const SweepJobSpec spec = smallThresholdSpec();
    SweepJobSpec other = spec;
    other.threshold.seed += 1;
    const std::string checkpoint = tempPath("wrong_job");

    CheckpointData data;
    data.configHash = other.configHash();
    data.kind = other.kind;
    data.totalChunks = partitionJob(other).chunks.size();
    std::string error;
    ASSERT_TRUE(saveCheckpointFile(checkpoint, data, error)) << error;

    SweepCaches caches;
    RunnerOptions options;
    options.checkpointPath = checkpoint;
    const RunOutcome outcome = runSweepJob(spec, options, caches);
    EXPECT_FALSE(outcome.complete);
    EXPECT_NE(outcome.error.find("config hash"), std::string::npos)
        << outcome.error;
    std::remove(checkpoint.c_str());
}

TEST(SweepRunner, ShardedRunMergesToUnshardedOutput)
{
    const SweepJobSpec spec = smallThresholdSpec();
    const std::string full = runToCompletion(spec, 2);

    const int shard_count = 3;
    std::vector<CheckpointData> shards;
    for (int s = 0; s < shard_count; ++s) {
        const std::string checkpoint
            = tempPath("shard_" + std::to_string(s));
        std::remove(checkpoint.c_str());
        SweepCaches caches;
        RunnerOptions options;
        options.workers = 2;
        options.shardIndex = s;
        options.shardCount = shard_count;
        options.checkpointPath = checkpoint;
        const RunOutcome outcome = runSweepJob(spec, options, caches);
        ASSERT_TRUE(outcome.complete) << outcome.error;
        EXPECT_TRUE(outcome.output.empty());
        CheckpointData data;
        std::string error;
        ASSERT_TRUE(loadCheckpointFile(checkpoint, data, error))
            << error;
        shards.push_back(std::move(data));
        std::remove(checkpoint.c_str());
    }

    std::string merged, error;
    ASSERT_TRUE(mergeSweepCheckpoints(spec, shards, merged, error))
        << error;
    EXPECT_EQ(merged, full);

    // Merge rejects double coverage and holes.
    std::vector<CheckpointData> bad = {shards[0], shards[0], shards[1]};
    EXPECT_FALSE(mergeSweepCheckpoints(spec, bad, merged, error));
    bad = {shards[0], shards[1]};
    EXPECT_FALSE(mergeSweepCheckpoints(spec, bad, merged, error));
}

TEST(SweepRunner, WarmCacheReplayIsByteIdentical)
{
    const SweepJobSpec spec = smallThresholdSpec();
    SweepCaches caches;
    RunnerOptions options;
    options.workers = 1;

    const RunOutcome cold = runSweepJob(spec, options, caches);
    ASSERT_TRUE(cold.complete) << cold.error;
    const CacheCounters after_cold = caches.counters();
    EXPECT_EQ(after_cold.traceRecordings, 2u); // One per noise point.
    EXPECT_GT(after_cold.traceReplays, 0u);

    caches.resetCounters();
    const RunOutcome warm = runSweepJob(spec, options, caches);
    ASSERT_TRUE(warm.complete) << warm.error;
    const CacheCounters after_warm = caches.counters();
    EXPECT_EQ(after_warm.traceRecordings, 0u); // Pure replay.
    EXPECT_GT(after_warm.traceReplays, 0u);
    EXPECT_EQ(warm.output, cold.output);
}

TEST(SweepRunner, CoSimResumeAndWorkloadCacheReplay)
{
    const SweepJobSpec spec = smallCoSimSpec();
    SweepCaches caches;
    RunnerOptions options;
    options.workers = 1;
    const RunOutcome full = runSweepJob(spec, options, caches);
    ASSERT_TRUE(full.complete) << full.error;
    EXPECT_EQ(caches.counters().workloadLowerings, 1u);

    // Kill after the first point, then resume.
    const std::string checkpoint = tempPath("cosim_resume");
    std::remove(checkpoint.c_str());
    options.checkpointPath = checkpoint;
    options.killAfterChunks = 1;
    SweepCaches cold;
    const RunOutcome killed = runSweepJob(spec, options, cold);
    ASSERT_TRUE(killed.error.empty()) << killed.error;
    EXPECT_FALSE(killed.complete);

    options.killAfterChunks = 0;
    const RunOutcome resumed = runSweepJob(spec, options, cold);
    ASSERT_TRUE(resumed.complete) << resumed.error;
    EXPECT_EQ(resumed.output, full.output);
    // The workload lowered once across kill + resume in this cache.
    EXPECT_EQ(cold.counters().workloadLowerings, 1u);
    EXPECT_GT(cold.counters().workloadReplays, 0u);
    std::remove(checkpoint.c_str());
}

TEST(SweepService, ServesFifoWithResultCacheReplay)
{
    SweepService service;
    SweepRequest first;
    first.name = "threshold";
    first.spec = smallThresholdSpec();
    SweepRequest second;
    second.name = "cosim";
    second.spec = smallCoSimSpec();
    SweepRequest repeat = first;
    repeat.name = "threshold-again";

    service.submit(first);
    service.submit(second);
    service.submit(repeat);
    EXPECT_EQ(service.pendingRequests(), 3u);

    const std::vector<SweepResponse> responses = service.drain();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].name, "threshold");
    EXPECT_EQ(responses[1].name, "cosim");
    EXPECT_EQ(responses[2].name, "threshold-again");
    for (const SweepResponse &response : responses) {
        EXPECT_TRUE(response.complete) << response.error;
        EXPECT_FALSE(response.output.empty());
    }
    EXPECT_FALSE(responses[0].fromResultCache);
    EXPECT_TRUE(responses[2].fromResultCache);
    EXPECT_EQ(responses[2].output, responses[0].output);
    EXPECT_EQ(responses[2].configHash, responses[0].configHash);
    EXPECT_EQ(service.resultCacheSize(), 2u);
}

TEST(SweepService, StreamsIncrementalWilsonIntervals)
{
    SweepService service;
    SweepRequest request;
    request.name = "progress";
    request.spec = smallThresholdSpec();
    request.options.workers = 1;
    std::vector<std::string> lines;
    request.options.progress = [&lines](const std::string &line) {
        lines.push_back(line);
    };
    service.submit(std::move(request));
    SweepResponse response;
    ASSERT_TRUE(service.processNext(response));
    ASSERT_TRUE(response.complete) << response.error;

    const std::size_t total = partitionJob(smallThresholdSpec())
                                  .chunks.size();
    ASSERT_EQ(lines.size(), total);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        char want[64];
        std::snprintf(want, sizeof(want), "progress %zu/%zu ", i + 1,
                      total);
        EXPECT_EQ(lines[i].rfind(want, 0), 0u) << lines[i];
        EXPECT_NE(lines[i].find("+-"), std::string::npos) << lines[i];
    }
}
