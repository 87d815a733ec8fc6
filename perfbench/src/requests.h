/**
 * @file
 * The serve workload's request generator.
 *
 * One pass of the closed loop sends a seeded sequence mixing five kinds
 * of request to a fresh sweep service:
 *  - cold: a threshold job (gate-preset shape: two points, 512 shots,
 *    64-shot chunks, one-word groups) on noise points drawn fresh for
 *    this pass, so the engine caches record them;
 *  - warm: the points of one of the last three recording requests with
 *    a new seed, so the recorded traces replay (three requests record at
 *    most six points, inside the experiment cache's eight slots);
 *  - hit: the exact text of an earlier completed request, answered from
 *    the result cache;
 *  - cosim: a small co-simulation job (qcla 16 or toffoli 15 12);
 *  - checkpoint: a threshold job on fresh points that writes a
 *    checkpoint, either plainly or as a kill-then-resume pair.
 */

#ifndef PERFBENCH_REQUESTS_H
#define PERFBENCH_REQUESTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64 of (a, b): derives independent seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

enum class RequestKind : std::uint8_t {
    Cold,
    Warm,
    Hit,
    CoSim,
    Checkpoint, ///< Checkpointed, runs to completion.
    Kill,       ///< Checkpointed, stopped after killAfterChunks chunks.
    Resume,     ///< Same job and checkpoint as the preceding Kill.
};

const char *kindName(RequestKind kind);

struct GeneratedRequest
{
    RequestKind kind = RequestKind::Cold;
    /** Request text, as a client would send it (SweepJobSpec::parse). */
    std::string text;
    std::size_t killAfterChunks = 0;
    /** Hit: the request it resubmits. Resume: its Kill. */
    std::size_t ref = 0;
};

/** The request sequence of pass @p pass: a pure function of
 *  (@p seed, @p pass). */
std::vector<GeneratedRequest> generateRequests(std::uint64_t seed,
                                               std::uint64_t pass,
                                               std::size_t count);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_H
