#include "requests.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"

namespace perfbench {

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e5dULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const char *
kindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::Cold: return "cold";
    case RequestKind::Warm: return "warm";
    case RequestKind::Hit: return "hit";
    case RequestKind::CoSim: return "cosim";
    case RequestKind::Checkpoint: return "checkpoint";
    case RequestKind::Kill: return "kill";
    case RequestKind::Resume: return "resume";
    }
    return "?";
}

namespace {

constexpr std::size_t kThresholdChunks = 2 * 2 * (512 / 64);

std::string
thresholdText(double p0, double p1, std::uint64_t seed)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "kind threshold\nerrors %.17g %.17g\nshots 512\n"
                  "seed %llu\nchunk-shots 64\ngroup-words 1\n",
                  p0, p1, (unsigned long long)seed);
    return buf;
}

} // namespace

std::vector<GeneratedRequest>
generateRequests(std::uint64_t seed, std::uint64_t pass, std::size_t count)
{
    qla::Rng rng(mixSeed(seed, pass));
    struct Points
    {
        double p0, p1;
    };
    std::vector<Points> recorded; // Point pairs in recording order.
    std::vector<std::size_t> completed; // Requests a hit may repeat.
    auto fresh_points = [&] {
        // Never-recorded points in the crossing window (1e-3, 3e-3).
        const Points points{1.0e-3 + 2.0e-3 * rng.uniform(),
                            1.0e-3 + 2.0e-3 * rng.uniform()};
        recorded.push_back(points);
        return points;
    };
    auto new_seed = [&] { return rng.next64() >> 32; };

    std::vector<GeneratedRequest> out;
    while (out.size() < count) {
        const std::uint64_t roll = rng.uniformInt(100);
        GeneratedRequest request;
        if (roll < 30 || recorded.empty()) {
            request.kind = RequestKind::Cold;
            const Points points = fresh_points();
            request.text = thresholdText(points.p0, points.p1, new_seed());
        } else if (roll < 60) {
            request.kind = RequestKind::Warm;
            const std::size_t back = std::min<std::size_t>(
                recorded.size(), 3);
            const Points points
                = recorded[recorded.size() - 1 - rng.uniformInt(back)];
            request.text = thresholdText(points.p0, points.p1, new_seed());
        } else if (roll < 72 && !completed.empty()) {
            request.kind = RequestKind::Hit;
            request.ref = completed[rng.uniformInt(completed.size())];
            request.text = out[request.ref].text;
        } else if (roll < 84) {
            request.kind = RequestKind::CoSim;
            // Separate statements: the draws must happen in this order
            // on every compiler.
            const char *workload = rng.uniformInt(2)
                ? "workload qcla 16\n"
                : "workload toffoli 15 12\n";
            request.text = std::string("kind cosim\n") + workload
                + "bandwidths 2 4\nseeds " + std::to_string(new_seed())
                + "\nplacement random\n";
        } else if (roll < 92 || out.size() + 2 > count) {
            request.kind = RequestKind::Checkpoint;
            const Points points = fresh_points();
            request.text = thresholdText(points.p0, points.p1, new_seed());
        } else {
            request.kind = RequestKind::Kill;
            const Points points = fresh_points();
            request.text = thresholdText(points.p0, points.p1, new_seed());
            request.killAfterChunks = 1 + rng.uniformInt(kThresholdChunks / 2);
            out.push_back(request);
            GeneratedRequest resume;
            resume.kind = RequestKind::Resume;
            resume.text = request.text;
            resume.ref = out.size() - 1;
            request = resume;
        }
        if (request.kind != RequestKind::Hit
            && request.kind != RequestKind::Kill)
            completed.push_back(out.size());
        out.push_back(request);
    }
    return out;
}

} // namespace perfbench
