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

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/toffoli.h"
#include "arq/monte_carlo.h"
#include "common/rng.h"
#include "network/cosim.h"
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
    // restart -- or, for the delivery threshold, ran a job equal to an
    // in-range one under a config hash of its own. They must fail to
    // parse, naming the offending line.
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
        {cosim, "compute-fractions nan"},
        {cosim, "compute-fractions inf"},
        {cosim, "compute-fractions -1e300"},
        {cosim, "compute-fractions 1.5"},
        {cosim, "delivery-threshold nan"},
        {cosim, "delivery-threshold inf"},
        {cosim, "delivery-threshold -1e300"},
        {cosim, "delivery-threshold 1.5"},
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
        "compute-fractions 0 1\n"
        "op-error 1\ndelivery-threshold 0\n",
        spec, error))
        << error;
    EXPECT_TRUE(SweepJobSpec::parse(
        "kind cosim\nworkload toffoli 3\ndelivery-threshold 1\n", spec,
        error))
        << error;
    EXPECT_EQ(spec.cosim.deliveryThreshold, 1.0);
}

TEST(SweepPartition, IsDeterministicAndMirrorsThresholdSweepSeeds)
{
    // The chunk alignment rule, per (chunkShots, groupWords): below one
    // group's capacity (groupWords x 64 shots) a chunk rounds up to it,
    // above it rounds down to whole groups; the last chunk of a task
    // may be short.
    struct Layout
    {
        std::size_t chunkShots, groupWords, aligned;
    };
    const Layout layouts[] = {
        {64, 1, 64},
        {100, 1, 64},
        {1000, 32, 2048},
        {2048, 32, 2048},
        {5000, 32, 4096},
    };
    for (const Layout &layout : layouts) {
        SCOPED_TRACE(std::to_string(layout.chunkShots) + " shots, "
                     + std::to_string(layout.groupWords) + " words");
        SweepJobSpec spec = smallThresholdSpec();
        spec.threshold.shots = 5000;
        spec.threshold.chunkShots = layout.chunkShots;
        spec.threshold.groupWords = layout.groupWords;
        const JobPartition a = partitionJob(spec);
        const JobPartition b = partitionJob(spec);
        ASSERT_EQ(a.tasks.size(), 4u);
        const std::size_t per_task
            = (spec.threshold.shots + layout.aligned - 1) / layout.aligned;
        ASSERT_EQ(a.chunks.size(), a.tasks.size() * per_task);
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

        // Chunks tile every task's shot range exactly, in index order,
        // each a whole aligned chunk but the task's last.
        std::vector<std::uint64_t> covered(a.tasks.size(), 0);
        for (std::size_t j = 0; j < a.chunks.size(); ++j) {
            const SweepChunk &chunk = a.chunks[j];
            EXPECT_EQ(chunk.index, j);
            EXPECT_EQ(chunk.task, j / per_task);
            EXPECT_EQ(chunk.firstShot, covered[chunk.task]);
            EXPECT_EQ(chunk.firstShot, b.chunks[j].firstShot);
            EXPECT_EQ(chunk.shotCount, b.chunks[j].shotCount);
            covered[chunk.task] += chunk.shotCount;
            if (covered[chunk.task] < spec.threshold.shots)
                EXPECT_EQ(chunk.shotCount, layout.aligned);
            else
                EXPECT_LE(chunk.shotCount, layout.aligned);
        }
        for (const std::uint64_t shots : covered)
            EXPECT_EQ(shots, spec.threshold.shots);
    }
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

TEST(SweepRunner, CoSimOutputMatchesInProcessSweep)
{
    // The determinism gate's three interconnect configurations, served
    // from spec text and run in process through network::runCoSimSweep
    // with hand-built axes. Both run in this process, so the check holds
    // on every build, including ones whose floating-point bytes differ
    // from the golden files.
    struct Config
    {
        const char *name;
        const char *spec;
        bool noisy, hierarchy;
    };
    const Config configs[] = {
        {"clean",
         "kind cosim\nworkload toffoli 15 12\nworkload qcla 16\n"
         "workload qft 24\nbandwidths 1 2 4\nseeds 1 2\n"
         "placement random\n",
         false, false},
        {"hierarchy",
         "kind cosim\nworkload toffoli 15 12\nworkload qcla 16\n"
         "bandwidths 2 4\nseeds 1\ncompute-fractions 1 0.2\n"
         "memory-levels 1\nplacement random\n",
         false, true},
        {"noisy",
         "kind cosim\nworkload toffoli 15 12\nworkload qcla 16\n"
         "bandwidths 2 4\nseeds 1\nfault-rates 0 0.05\n"
         "purifications 0 2\nlink-fidelities 1 0.96\n"
         "placement random\nop-error 1e-4\ndelivery-threshold 0.88\n"
         "retry-budget 2\n",
         true, false},
    };
    for (const Config &config : configs) {
        SCOPED_TRACE(config.name);
        SweepJobSpec spec;
        std::string error;
        ASSERT_TRUE(SweepJobSpec::parse(config.spec, spec, error))
            << error;
        EXPECT_EQ(spec.cosim.noisy(), config.noisy);
        EXPECT_EQ(spec.cosim.hierarchical(), config.hierarchy);
        const std::string served = runToCompletion(spec, 2);

        std::vector<network::ProgramWorkload> workloads;
        workloads.emplace_back(apps::toffoliNetworkCircuit(15, 12));
        workloads.emplace_back(apps::qclaAdderCircuit(16));
        network::CoSimSweepConfig sweep;
        sweep.base.placement = network::PlacementStrategy::Random;
        sweep.threads = 2;
        if (!config.noisy && !config.hierarchy) {
            workloads.emplace_back(
                apps::bandedQftCircuit(24, apps::qftBandWidth(24)));
            sweep.bandwidths = {1, 2, 4};
            sweep.seeds = {1, 2};
        } else {
            sweep.bandwidths = {2, 4};
            sweep.seeds = {1};
        }
        if (config.hierarchy) {
            sweep.computeFractions = {1.0, 0.2};
            sweep.memoryCodeLevels = {1};
        }
        if (config.noisy) {
            sweep.faultRates = {0.0, 0.05};
            sweep.purificationLevels = {0, 2};
            sweep.linkFidelities = {1.0, 0.96};
            sweep.base.fidelity.opError = 1e-4;
            sweep.base.fidelity.deliveryThreshold = 0.88;
            sweep.base.fidelity.retryBudget = 2;
        }
        const auto points = network::runCoSimSweep(workloads, sweep);
        EXPECT_EQ(served, renderCoSimPoints(points, config.noisy,
                                            config.hierarchy));
    }
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

//
// Deterministic mutation fuzzing of the two parsers that take outside
// bytes: seeded byte flips, truncations and splices of valid inputs.
// Every mutant must either be rejected with an error message or parse
// to a value whose re-encoding parses back to the same value.
//

namespace {

/** Printable form of a mutant for failure messages. */
std::string
escapeBytes(const std::string &text)
{
    std::string out;
    for (const unsigned char c : text) {
        if (c == '\n') {
            out += "\\n";
        } else if (c >= 0x20 && c < 0x7f && c != '\\') {
            out += static_cast<char>(c);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", c);
            out += buf;
        }
    }
    return out;
}

/** Start of the line holding byte @p at (at <= text.size()). */
std::size_t
lineStart(const std::string &text, std::size_t at)
{
    if (at == 0)
        return 0;
    const std::size_t newline = text.rfind('\n', at - 1);
    return newline == std::string::npos ? 0 : newline + 1;
}

/** One past the newline ending the line that holds byte @p at. */
std::size_t
lineEnd(const std::string &text, std::size_t at)
{
    const std::size_t newline = text.find('\n', at);
    return newline == std::string::npos ? text.size() : newline + 1;
}

/**
 * One to four random edits of @p text: a bit flip, a byte overwritten
 * with a character the parsers treat specially, a truncation, a splice
 * of a slice of @p donor, a deleted range, a donor line inserted at a
 * line start, two lines swapped, or a decimal number replaced by an
 * edge value.
 */
std::string
mutate(std::string text, const std::string &donor, Rng &rng)
{
    static const char kSpecial[] = "0123456789-+.eExXpPn#: \t\r\n";
    static const char *const kNumbers[] = {
        "0", "1", "2", "-1", "+3", "1e3", "0x10",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999999"};
    const int edits = 1 + static_cast<int>(rng.uniformInt(4));
    for (int e = 0; e < edits; ++e) {
        const std::size_t at = rng.uniformInt(text.size() + 1);
        switch (rng.uniformInt(8)) {
        case 0:
            if (at < text.size())
                text[at] ^= static_cast<char>(1u << rng.uniformInt(8));
            break;
        case 1:
            if (at < text.size())
                text[at] = rng.uniformInt(8) == 0
                    ? '\0'
                    : kSpecial[rng.uniformInt(sizeof(kSpecial) - 1)];
            break;
        case 2:
            text.resize(at);
            break;
        case 3: {
            const std::size_t from = rng.uniformInt(donor.size() + 1);
            const std::size_t len = rng.uniformInt(donor.size() - from + 1);
            text.insert(at, donor, from, len);
            break;
        }
        case 4:
            text.erase(at, rng.uniformInt(text.size() - at + 1));
            break;
        case 5: {
            if (donor.empty())
                break;
            const std::size_t pick = rng.uniformInt(donor.size());
            const std::size_t start = lineStart(donor, pick);
            text.insert(lineStart(text, at), donor, start,
                        lineEnd(donor, pick) - start);
            break;
        }
        case 6: {
            // Swap the line holding byte `at` with a later line.
            if (at >= text.size())
                break;
            const std::size_t a0 = lineStart(text, at);
            const std::size_t a1 = lineEnd(text, at);
            if (a1 >= text.size())
                break;
            const std::size_t pick
                = a1 + rng.uniformInt(text.size() - a1);
            const std::size_t b0 = lineStart(text, pick);
            const std::size_t b1 = lineEnd(text, pick);
            text = text.substr(0, a0) + text.substr(b0, b1 - b0)
                + text.substr(a1, b0 - a1) + text.substr(a0, a1 - a0)
                + text.substr(b1);
            break;
        }
        default: {
            // Replace the digit run holding or following `at`.
            std::size_t begin = at;
            while (begin < text.size()
                   && !(text[begin] >= '0' && text[begin] <= '9'))
                ++begin;
            std::size_t end = begin;
            while (end < text.size() && text[end] >= '0'
                   && text[end] <= '9')
                ++end;
            if (begin < text.size())
                text.replace(begin, end - begin,
                             kNumbers[rng.uniformInt(std::size(kNumbers))]);
            break;
        }
        }
    }
    return text;
}

/**
 * Rewrite the hash on the last "end" line to match the bytes before
 * it, so a mutated checkpoint passes the integrity check and reaches
 * the field validation behind it.
 */
std::string
restampCheckpoint(const std::string &text)
{
    std::size_t pos = text.rfind("end ");
    while (pos != std::string::npos && pos > 0 && text[pos - 1] != '\n')
        pos = text.rfind("end ", pos - 1);
    if (pos == std::string::npos)
        return text;
    const std::size_t eol = text.find('\n', pos);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "end %016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(text.data(), pos)));
    return text.substr(0, pos) + buf
        + (eol == std::string::npos ? std::string() : text.substr(eol));
}

/** Empty when @p text is rejected with a message or round-trips;
 *  otherwise what went wrong. */
std::string
specViolation(const std::string &text)
{
    SweepJobSpec spec;
    std::string error;
    if (!SweepJobSpec::parse(text, spec, error))
        return error.empty() ? "rejected without an error message" : "";
    const std::string canonical = spec.canonicalText();
    SweepJobSpec again;
    if (!SweepJobSpec::parse(canonical, again, error))
        return "accepted, but its canonical text is rejected: " + error;
    if (again.canonicalText() != canonical
        || again.configHash() != spec.configHash())
        return "accepted, but its canonical text parses to another spec";
    return "";
}

std::string
checkpointViolation(const std::string &text)
{
    CheckpointData data;
    std::string error;
    if (!decodeCheckpoint(text, data, error))
        return error.empty() ? "rejected without an error message" : "";
    const std::string encoded = encodeCheckpoint(data);
    CheckpointData again;
    if (!decodeCheckpoint(encoded, again, error))
        return "accepted, but its re-encoding is rejected: " + error;
    if (encodeCheckpoint(again) != encoded
        || again.kind != data.kind
        || again.threshold.size() != data.threshold.size()
        || again.cosim.size() != data.cosim.size())
        return "accepted, but its re-encoding decodes to other data";
    return "";
}

SweepJobSpec
noisyCoSimSpec()
{
    SweepJobSpec spec = smallCoSimSpec();
    WorkloadSpec toffoli;
    toffoli.app = WorkloadSpec::App::Toffoli;
    toffoli.size = 12;
    toffoli.depth = 4;
    spec.cosim.workloads.push_back(toffoli);
    spec.cosim.faultRates = {0.0, 0.02};
    spec.cosim.purificationLevels = {0, 1};
    spec.cosim.linkFidelities = {0.96};
    spec.cosim.computeFractions = {1.0, 0.5};
    spec.cosim.memoryCodeLevels = {1};
    spec.cosim.opError = 1e-4;
    spec.cosim.retryBudget = 2;
    return spec;
}

CheckpointData
thresholdCheckpoint()
{
    CheckpointData data;
    data.configHash = 0x0123456789abcdefULL;
    data.kind = SweepKind::Threshold;
    data.totalChunks = 6;
    for (const std::size_t index : {1u, 2u, 5u}) {
        ThresholdChunkPartial partial;
        partial.chunk = index;
        partial.failures.addBulk(index, 64);
        partial.stats.logicalFailure.addBulk(index, 64);
        partial.stats.nontrivialSyndrome.addBulk(3 * index, 64);
        partial.stats.prepAttempts.add(1.0);
        partial.stats.prepAttempts.add(0.1 * index);
        data.threshold.push_back(partial);
    }
    return data;
}

CheckpointData
coSimCheckpoint()
{
    CheckpointData data;
    data.configHash = 0xfedcba9876543210ULL;
    data.kind = SweepKind::CoSim;
    data.totalChunks = 3;
    for (const std::size_t index : {0u, 2u}) {
        CoSimChunkPartial partial;
        partial.chunk = index;
        partial.report.completed = true;
        partial.report.windows = 40 + index;
        partial.report.pairsRequested = 1000 * (index + 1);
        partial.report.deliveredFidelitySum = 0.97 * index;
        partial.report.deliveredFidelityMin = 0.9;
        partial.report.utilization = 0.23;
        data.cosim.push_back(partial);
    }
    return data;
}

} // namespace

TEST(ParserFuzz, SweepJobSpecMutantsRejectOrRoundTrip)
{
    const std::vector<std::string> seeds = {
        smallThresholdSpec().canonicalText(),
        smallCoSimSpec().canonicalText(),
        noisyCoSimSpec().canonicalText(),
    };
    for (const std::string &seed : seeds)
        ASSERT_EQ(specViolation(seed), "") << seed;
    Rng rng(0x5eedf00d);
    int failures = 0;
    for (int i = 0; i < 20000 && failures < 5; ++i) {
        const std::string &base = seeds[i % seeds.size()];
        const std::string &donor = seeds[rng.uniformInt(seeds.size())];
        const std::string mutant = mutate(base, donor, rng);
        const std::string why = specViolation(mutant);
        if (!why.empty()) {
            ++failures;
            ADD_FAILURE() << why << "\nmutant: " << escapeBytes(mutant);
        }
    }
}

TEST(ParserFuzz, CheckpointMutantsRejectOrRoundTrip)
{
    const std::vector<std::string> seeds = {
        encodeCheckpoint(thresholdCheckpoint()),
        encodeCheckpoint(coSimCheckpoint()),
    };
    for (const std::string &seed : seeds)
        ASSERT_EQ(checkpointViolation(seed), "") << seed;
    Rng rng(0xc0ffee);
    int failures = 0;
    for (int i = 0; i < 20000 && failures < 5; ++i) {
        const std::string &base = seeds[i % seeds.size()];
        const std::string &donor = seeds[rng.uniformInt(seeds.size())];
        const std::string mutant = mutate(base, donor, rng);
        // Raw mutants exercise the integrity check; restamped ones get
        // past it to the line and field validation.
        for (const std::string &text : {mutant, restampCheckpoint(mutant)}) {
            const std::string why = checkpointViolation(text);
            if (!why.empty()) {
                ++failures;
                ADD_FAILURE() << why << "\nmutant: " << escapeBytes(text);
            }
        }
    }
}

TEST(ParserFuzz, CheckpointHeaderLinesOutOfPlaceAreRejected)
{
    // Found by the checkpoint fuzz: a repeated header line after the
    // chunk lines used to override the header, so a file could carry
    // chunk 40 of a 16-chunk job or threshold partials under "kind
    // cosim". A resume from the first never completed and reported no
    // error; a shard merge indexes the partition by the bad chunk. Each
    // case is restamped, so only the header rule can reject it.
    const SweepJobSpec spec = smallThresholdSpec();
    const std::size_t total = partitionJob(spec).chunks.size();
    CheckpointData data;
    data.configHash = spec.configHash();
    data.kind = spec.kind;
    data.totalChunks = 100;
    ThresholdChunkPartial partial;
    partial.chunk = 40;
    partial.failures.addBulk(1, 64);
    data.threshold.push_back(partial);
    const std::string text = encodeCheckpoint(data);
    const std::size_t end_at = text.rfind("end ");
    const std::string body = text.substr(0, end_at);
    const std::string cases[] = {
        body + "chunks " + std::to_string(total) + "\nend 0\n",
        body + "kind cosim\nend 0\n",
        body + "config 0\nend 0\n",
        "qla-sweep-checkpoint v1\nend 0\n",
        "qla-sweep-checkpoint v1\nkind threshold\nconfig 0\nchunks 1\n"
        "end 0\n",
    };
    for (const std::string &raw : cases) {
        CheckpointData loaded;
        std::string error;
        EXPECT_FALSE(decodeCheckpoint(restampCheckpoint(raw), loaded, error))
            << escapeBytes(raw);
        EXPECT_FALSE(error.empty());
    }

    // The first case, fed to a resume: refused, not run.
    const std::string path = tempPath("header_override");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::string hostile = restampCheckpoint(cases[0]);
    std::fwrite(hostile.data(), 1, hostile.size(), file);
    std::fclose(file);
    SweepCaches caches;
    RunnerOptions options;
    options.checkpointPath = path;
    const RunOutcome outcome = runSweepJob(spec, options, caches);
    EXPECT_FALSE(outcome.complete);
    EXPECT_NE(outcome.error.find("after the header"), std::string::npos)
        << outcome.error;
    std::remove(path.c_str());
}

TEST(ParserFuzz, SignedIntegersAreRejected)
{
    // strtoull accepts a sign, so "-1" used to read as 2^64 - 1.
    SweepJobSpec spec;
    std::string error;
    for (const char *line : {"shots -1", "shots +256", "seed -7",
                             "chunk-shots -64", "group-words +1"}) {
        const std::string text = std::string("kind threshold\nerrors 1e-3\n")
            + line + "\n";
        EXPECT_FALSE(SweepJobSpec::parse(text, spec, error)) << line;
    }
    const std::string text = encodeCheckpoint(thresholdCheckpoint());
    const std::pair<const char *, const char *> edits[] = {
        {"chunks 6", "chunks -6"},
        {"config 0123456789abcdef", "config -123456789abcdef"},
    };
    for (const auto &[from, to] : edits) {
        std::string signed_text = text;
        signed_text.replace(signed_text.find(from), std::strlen(from), to);
        CheckpointData loaded;
        EXPECT_FALSE(decodeCheckpoint(restampCheckpoint(signed_text),
                                      loaded, error))
            << to;
    }
}
