/**
 * @file
 * Self-tests of the benchmark's own arithmetic: the percentile rule,
 * the metric-name charset, self-time accounting and the serve request
 * generator's determinism. Exits non-zero on the first failed check.
 *
 *   perfbench_selftest
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "requests.h"
#include "serve/job_spec.h"
#include "trace.h"

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++g_failures;
    }
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = n; i >= 1; --i)
        values.push_back(static_cast<double>(i));
    return values;
}

void
testPercentileRule()
{
    using perfbench::tailPercentile;
    check(!tailPercentile(ramp(99), 0.9), "p90 of 99 samples is refused");
    check(tailPercentile(ramp(100), 0.9) == 90.0,
          "p90 of 1..100 is 90 with ten samples beyond it");
    check(tailPercentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000");
    check(!tailPercentile(ramp(999), 0.99), "p99 of 999 samples is refused");
    check(perfbench::samplesForPercentile(0.9) == 100, "p90 needs 100");
    check(perfbench::samplesForPercentile(0.99) == 1000, "p99 needs 1000");
    check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    check(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void
testMetricNames()
{
    using perfbench::validMetricName;
    check(validMetricName("arq.replay_ns_per_shot.window.l1"), "dotted");
    check(validMetricName("cold_ms_p90"), "underscore");
    check(validMetricName("9-lives"), "leading digit, dash");
    check(!validMetricName(""), "empty");
    check(!validMetricName(".hidden"), "leading dot");
    check(!validMetricName("_x"), "leading underscore");
    check(!validMetricName("a b"), "space");
    check(!validMetricName("a/b"), "slash");
    check(!validMetricName("latency_\xc2\xb5s"), "non-ASCII");
    check(validMetricName(std::string(64, 'a')), "64 letters");
    check(!validMetricName(std::string(65, 'a')), "65 letters");

    perfbench::Report report;
    bool threw = false;
    try {
        report.metric("bad name", 1.0, "ms");
    } catch (const std::exception &) {
        threw = true;
    }
    check(threw, "Report refuses a bad name");
    report.metric("ok", 1.0, "ms");
    threw = false;
    try {
        report.metric("ok", 2.0, "ms");
    } catch (const std::exception &) {
        threw = true;
    }
    check(threw, "Report refuses a repeated name");
}

void
testSelfTime()
{
    using perfbench::coveredNs;
    check(coveredNs(0, 100, {}) == 0, "no children");
    check(coveredNs(0, 100, {{10, 20}, {30, 50}}) == 30, "disjoint");
    check(coveredNs(0, 100, {{10, 40}, {20, 60}, {50, 55}}) == 50,
          "overlapping children count once");
    check(coveredNs(0, 100, {{-20, 10}, {90, 130}}) == 20,
          "children clipped to the parent");

    // sweep [0, 100) on worker 0 with two parallel chunks; the chunks
    // contain replays of another layer.
    std::vector<perfbench::Span> spans(5);
    spans[0] = {"sim.sweep", 0, 100, 0, -1, 0};
    spans[1] = {"sim.chunk", 5, 60, 1, 0, 0};
    spans[2] = {"sim.chunk", 10, 90, 2, 0, 1};
    spans[3] = {"arq.replay", 10, 50, 3, 1, 0};
    spans[4] = {"arq.replay", 20, 80, 4, 2, 1};
    const auto self = perfbench::selfTimeByLayer(spans);
    // sweep self 100 - 85 = 15; chunk 1: 55 - 40 = 15; chunk 2: 80 - 60
    // = 20; replays 40 + 60.
    check(self.at("sim") == 50, "sim self time");
    check(self.at("arq") == 100, "arq self time");
    check(perfbench::layerOf("cosim.window") == "cosim", "layer of name");
}

void
testRequestGenerator()
{
    using namespace perfbench;
    const auto a = generateRequests(7, 3, 40);
    const auto b = generateRequests(7, 3, 40);
    const auto c = generateRequests(8, 3, 40);
    const auto d = generateRequests(7, 4, 40);
    check(a.size() == 40, "request count");
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = a[i].text == b[i].text && a[i].kind == b[i].kind
            && a[i].killAfterChunks == b[i].killAfterChunks
            && a[i].ref == b[i].ref;
    check(same, "same seed and pass give the same request texts");
    check(a[0].text != c[0].text, "another seed gives other requests");
    check(a[0].text != d[0].text, "another pass gives other requests");

    std::size_t kinds[7] = {};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto requests = generateRequests(seed, 0, 40);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const GeneratedRequest &r = requests[i];
            ++kinds[static_cast<int>(r.kind)];
            qla::serve::SweepJobSpec spec;
            std::string error;
            check(qla::serve::SweepJobSpec::parse(r.text, spec, error),
                  "every request text parses");
            if (r.kind == RequestKind::Hit)
                check(r.ref < i && requests[r.ref].text == r.text
                          && requests[r.ref].kind != RequestKind::Kill,
                      "a hit repeats an earlier completed request");
            if (r.kind == RequestKind::Resume)
                check(r.ref + 1 == i
                          && requests[r.ref].kind == RequestKind::Kill
                          && requests[r.ref].text == r.text,
                      "a resume follows its kill");
            if (r.kind == RequestKind::Kill)
                check(r.killAfterChunks > 0 && r.killAfterChunks < 32,
                      "a kill stops inside the job");
        }
    }
    for (std::size_t kind = 0; kind < 7; ++kind)
        check(kinds[kind] > 0, "every request kind is generated");
}

} // namespace

int
main()
{
    testPercentileRule();
    testMetricNames();
    testSelfTime();
    testRequestGenerator();
    if (g_failures) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
