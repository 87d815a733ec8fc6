/**
 * @file
 * cosim: single-threaded network::ProgramCoSimulator::run calls in
 * three configurations.
 *
 *  - clean: QCLA-128 and the 60-qubit, depth-42 Toffoli network at
 *    bandwidth 2. Emit and route dominate; placement searches are
 *    trivial.
 *  - noisy: QCLA-64 at bandwidth 2 with elementary fidelity 0.96,
 *    purification level 1 and op error 1e-4 (tens of thousands of
 *    stall windows of router detour retries), and QCLA-48 at bandwidth
 *    3 with link faults at rate 0.02, threshold 0.88 and retry budget
 *    2 (retry and abandon).
 *  - split: QCLA-64 at bandwidth 2 with compute fraction 0.5 and 0.2
 *    and level-1 memory (the placement searches of the CQLA split).
 *
 * Programs are lowered once, in set-up, as users reuse lowered
 * workloads. The first pass of each configuration runs with a window
 * probe that checks the pair and cache conservation identities at every
 * window; it is untimed, and every later pass must reproduce its
 * ledgers exactly.
 */

#include <algorithm>
#include <cstdio>

#include "apps/qcla.h"
#include "apps/toffoli.h"
#include "arch/region.h"
#include "network/cosim.h"
#include "phases.h"
#include "requests.h"
#include "serve/job_spec.h"

namespace perfbench {
namespace {

using qla::network::CoSimConfig;
using qla::network::CoSimReport;
using qla::network::ProgramWorkload;

struct CoSimRun
{
    const ProgramWorkload *program = nullptr;
    CoSimConfig config;
};

/** One configuration: its programs, its runs and what its passes saw. */
struct ConfigSet
{
    ConfigSet(const char *name_, double share_) : name(name_), share(share_)
    {
    }

    const char *name;
    /** Share of the phase's time: the split runs vary most per pass. */
    double share;
    std::vector<std::unique_ptr<ProgramWorkload>> programs;
    std::vector<CoSimRun> runs;

    std::size_t passes = 0;
    std::vector<std::string> reference; ///< Pass-0 ledger per run.
    std::vector<CoSimReport> reports;   ///< Pass-0 report per run.
    std::vector<double> plainMs, tracedMs, placeMs, windowUs;
    /** Sums over the runs of plain passes. */
    double plainNs = 0.0, plainWindows = 0.0, plainPairs = 0.0;
};

/** Every scalar of the report, and a hash of the per-gate vector. */
std::string
ledgerText(const CoSimReport &r)
{
    std::string gates;
    for (const CoSimReport::GateAttribution &g : r.perGate)
        gates += std::to_string(g.stallWindows) + ','
            + std::to_string(g.retryAttempts) + ','
            + std::to_string(g.penaltyWindows) + ','
            + std::to_string(g.pairsAbandoned) + ';';
    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "completed=%d windows=%llu warmup=%llu makespan=%.17g "
        "critical=%llu gates=%llu interactions=%llu req=%llu mesh=%llu "
        "local=%llu dropped=%llu lost=%llu rej=%llu aband=%llu "
        "demAband=%llu degraded=%llu retries=%llu backoffW=%llu "
        "penaltyW=%llu deferred=%llu fidPairs=%llu fidSum=%.17g "
        "fidMin=%.17g touches=%llu hits=%llu miss=%llu inplace=%llu "
        "evict=%llu fetchReq=%llu wbReq=%llu convW=%llu cTiles=%llu "
        "mTiles=%llu stallW=%llu gatesStalled=%llu allocW=%llu "
        "drift=%llu reroutes=%llu util=%.17g route=%.17g perGate=%016llx\n",
        r.completed ? 1 : 0, (unsigned long long)r.windows,
        (unsigned long long)r.warmupWindows, r.makespan,
        (unsigned long long)r.criticalPathWindows,
        (unsigned long long)r.gates, (unsigned long long)r.interactions,
        (unsigned long long)r.pairsRequested,
        (unsigned long long)r.pairsRoutedOnMesh,
        (unsigned long long)r.pairsLocal,
        (unsigned long long)r.pairsDropped,
        (unsigned long long)r.pairsLostInTransit,
        (unsigned long long)r.pairsRejectedFidelity,
        (unsigned long long)r.pairsAbandoned,
        (unsigned long long)r.demandsAbandoned,
        (unsigned long long)r.gatesDegraded,
        (unsigned long long)r.retryAttempts,
        (unsigned long long)r.retryBackoffWindows,
        (unsigned long long)r.fallbackPenaltyWindows,
        (unsigned long long)r.deferredPairWindows,
        (unsigned long long)r.fidelityPairs, r.deliveredFidelitySum,
        r.deliveredFidelityMin, (unsigned long long)r.operandTouches,
        (unsigned long long)r.memHits, (unsigned long long)r.memMisses,
        (unsigned long long)r.memInPlaceMisses,
        (unsigned long long)r.memEvictions,
        (unsigned long long)r.fetchPairsRequested,
        (unsigned long long)r.writebackPairsRequested,
        (unsigned long long)r.missConversionWindows,
        (unsigned long long)r.computeTiles,
        (unsigned long long)r.memoryTiles,
        (unsigned long long)r.stallWindows,
        (unsigned long long)r.gatesStalled,
        (unsigned long long)r.allocationStallWindows,
        (unsigned long long)r.driftMoves,
        (unsigned long long)r.backoffReroutes, r.utilization,
        r.averageRouteLength,
        (unsigned long long)qla::serve::fnv1a64(gates));
    return buf;
}

/** perGate must sum to the run totals it attributes. */
bool
perGateSumsMatch(const CoSimReport &r)
{
    std::uint64_t stall = 0, retries = 0, penalty = 0, abandoned = 0;
    for (const CoSimReport::GateAttribution &g : r.perGate) {
        stall += g.stallWindows;
        retries += g.retryAttempts;
        penalty += g.penaltyWindows;
        abandoned += g.pairsAbandoned;
    }
    return stall == r.stallWindows && retries == r.retryAttempts
        && penalty == r.fallbackPenaltyWindows
        && abandoned == r.pairsAbandoned;
}

/** Sums of one pass's ledgers over a configuration's runs. */
struct Ledger
{
    double requested = 0, mesh = 0, local = 0, routeSum = 0, reroutes = 0;
    double retries = 0, dropped = 0, abandoned = 0;
    double drift = 0, hits = 0, misses = 0, inplace = 0, evictions = 0,
           touches = 0;
    double windows = 0, stalls = 0, critical = 0;

    void add(const CoSimReport &r)
    {
        requested += static_cast<double>(r.pairsRequested);
        mesh += static_cast<double>(r.pairsRoutedOnMesh);
        local += static_cast<double>(r.pairsLocal);
        routeSum += r.averageRouteLength
            * static_cast<double>(r.pairsRoutedOnMesh);
        reroutes += static_cast<double>(r.backoffReroutes);
        retries += static_cast<double>(r.retryAttempts);
        dropped += static_cast<double>(r.pairsDropped);
        abandoned += static_cast<double>(r.pairsAbandoned);
        drift += static_cast<double>(r.driftMoves);
        hits += static_cast<double>(r.memHits);
        misses += static_cast<double>(r.memMisses);
        inplace += static_cast<double>(r.memInPlaceMisses);
        evictions += static_cast<double>(r.memEvictions);
        touches += static_cast<double>(r.operandTouches);
        windows += static_cast<double>(r.windows);
        stalls += static_cast<double>(r.stallWindows);
        critical += static_cast<double>(r.criticalPathWindows);
    }
};

class CoSimPhase : public Phase
{
  public:
    explicit CoSimPhase(const RunContext &context) : ctx_(context) {}

    const char *name() const override { return "cosim"; }

    void setup() override;
    std::vector<double> partShares() const override
    {
        std::vector<double> shares;
        for (const ConfigSet &set : sets_)
            shares.push_back(set.share);
        return shares;
    }
    void step(std::size_t part, Report &report) override;
    bool satisfied(std::size_t part) const override;
    void finish(Report &report) override;

  private:
    /** The co-simulator's own placement, timed standalone. */
    static void place(const CoSimRun &run);

    RunContext ctx_;
    std::vector<ConfigSet> sets_;
    /** Lowering ns per configuration, one entry per setup() call. */
    std::vector<std::vector<double>> lowerNs_;
};

void
CoSimPhase::setup()
{
    using namespace qla;
    // Later set-up rounds lower into a copy that is then dropped, so
    // the passes keep their programs and ledgers.
    std::vector<ConfigSet> sets;
    sets.emplace_back("clean", 0.2);
    sets.emplace_back("noisy", 0.3);
    sets.emplace_back("split", 0.5);
    lowerNs_.resize(sets.size());

    // Lowering runs once per set-up, not per pass, so it is timed here
    // rather than traced with the per-pass spans.
    using MakeCircuit = circuit::QuantumCircuit (*)();
    auto lower = [&](std::size_t c,
                     std::initializer_list<MakeCircuit> makers) {
        const auto start = Clock::now();
        for (auto make : makers)
            sets[c].programs.push_back(
                std::make_unique<ProgramWorkload>(make()));
        lowerNs_[c].push_back(static_cast<double>(elapsedNs(start)));
    };
    lower(0, {[] { return apps::qclaAdderCircuit(128); },
              [] { return apps::toffoliNetworkCircuit(60, 42); }});
    lower(1, {[] { return apps::qclaAdderCircuit(64); },
              [] { return apps::qclaAdderCircuit(48); }});
    lower(2, {[] { return apps::qclaAdderCircuit(64); }});

    std::size_t run_index = 0;
    auto add_run = [&](std::size_t c, std::size_t program,
                       CoSimConfig config) {
        config.seed = mixSeed(ctx_.seed, 100 + run_index++);
        sets[c].runs.push_back({sets[c].programs[program].get(), config});
    };
    CoSimConfig base;
    base.bandwidth = 2;
    add_run(0, 0, base);
    add_run(0, 1, base);

    CoSimConfig purified = base;
    purified.fidelity.elementaryFidelity = 0.96;
    purified.fidelity.purificationLevel = 1;
    purified.fidelity.opError = 1e-4;
    add_run(1, 0, purified);
    CoSimConfig faulty = base;
    faulty.bandwidth = 3;
    faulty.linkFaults = network::LinkFaultConfig{}.atRate(0.02);
    faulty.fidelity.elementaryFidelity = 0.96;
    faulty.fidelity.opError = 1e-4;
    faulty.fidelity.deliveryThreshold = 0.88;
    faulty.fidelity.retryBudget = 2;
    add_run(1, 1, faulty);

    for (double fraction : {0.5, 0.2}) {
        CoSimConfig split = base;
        split.memory.computeFraction = fraction;
        split.memory.memoryCodeLevel = 1;
        add_run(2, 0, split);
    }
    if (sets_.empty())
        sets_ = std::move(sets);
}

void
CoSimPhase::place(const CoSimRun &run)
{
    using namespace qla;
    const ProgramWorkload &program = *run.program;
    const network::MeshExtent extent = network::meshForProgram(program);
    const int tiles_x = program.config().tilesPerIslandX;
    network::TilePlacement placement(extent.width, extent.height, tiles_x);
    const int stride = static_cast<int>(std::clamp<std::size_t>(
        placement.totalTiles()
            / std::max<std::size_t>(1, program.circuit().numQubits()),
        1, 2 * static_cast<std::size_t>(tiles_x)));
    const arch::RegionMap regions(extent.width, extent.height, tiles_x,
                                  run.config.memory.computeFraction);
    network::placeProgramQubitsRegioned(placement, program.circuit(),
                                        regions, run.config.placement,
                                        Rng(run.config.seed), stride);
}

void
CoSimPhase::step(std::size_t c, Report &report)
{
    ConfigSet &set = sets_[c];
    const std::size_t pass = set.passes++;
    const bool checked = pass == 0;
    const bool traced_pass = ctx_.tracer && pass % 2 == 0 && !checked;
    Tracer *tracer = traced_pass ? ctx_.tracer : nullptr;
    if (tracer) {
        const auto place_start = Clock::now();
        for (const CoSimRun &run : set.runs) {
            const std::int64_t t0 = tracer->now();
            place(run);
            tracer->record("network.place", t0, tracer->now(), -1, 0);
        }
        set.placeMs.push_back(secondsSince(place_start) * 1e3);
    }

    double pass_ns = 0.0;
    for (std::size_t r = 0; r < set.runs.size(); ++r) {
        const CoSimRun &run = set.runs[r];
        std::uint64_t violations = 0;
        int run_span = -1;
        std::int64_t last_probe = -1;
        qla::network::WindowProbeFn probe;
        if (checked) {
            probe = [&](const qla::network::WindowProbe &w) {
                if (w.pairsRequested
                        != w.pairsDelivered + w.pairsPending
                            + w.pairsDropped + w.pairsAbandoned
                    || w.operandTouches != w.memHits + w.memMisses)
                    ++violations;
            };
        } else if (tracer) {
            // A window spans from the previous probe to this one; the
            // stretch before the first probe stays in the run's self time.
            probe = [&](const qla::network::WindowProbe &) {
                const std::int64_t now = tracer->now();
                if (last_probe >= 0) {
                    tracer->record("cosim.window", last_probe, now, run_span,
                                   0);
                    set.windowUs.push_back(
                        static_cast<double>(now - last_probe) * 1e-3);
                }
                last_probe = now;
            };
        }
        if (tracer)
            run_span = tracer->open("cosim.run", -1, 0);
        const auto run_start = Clock::now();
        qla::network::ProgramCoSimulator simulator(*run.program, run.config);
        const CoSimReport result = simulator.run(probe);
        const double run_ns = static_cast<double>(elapsedNs(run_start));
        if (tracer)
            tracer->close(run_span);
        pass_ns += run_ns;

        const std::string text = ledgerText(result);
        const std::string what = std::string("cosim ") + set.name + " run "
            + std::to_string(r) + " pass " + std::to_string(pass);
        if (checked) {
            set.reference.push_back(text);
            set.reports.push_back(result);
            report.digest("cosim", text);
            report.operation(result.completed && violations == 0
                                 && perGateSumsMatch(result),
                             what
                                 + ": incomplete, conservation identity "
                                   "broken or perGate sums off");
            continue;
        }
        report.operation(text == set.reference[r],
                         what + ": ledger differs from pass 0");
        if (!traced_pass) {
            set.plainNs += run_ns;
            set.plainWindows += static_cast<double>(result.windows);
            set.plainPairs += static_cast<double>(result.pairsRequested);
        }
    }
    if (checked)
        return; // Untimed: the probe checks every window.
    (traced_pass ? set.tracedMs : set.plainMs).push_back(pass_ns * 1e-6);
}

bool
CoSimPhase::satisfied(std::size_t c) const
{
    const ConfigSet &set = sets_[c];
    return set.plainMs.size() >= 3
        && (!ctx_.tracer
            || (set.tracedMs.size() >= 2
                && set.windowUs.size() >= samplesForPercentile(0.99)));
}

void
CoSimPhase::finish(Report &report)
{
    const CoSimReport &qcla128 = sets_[0].reports[0];
    std::printf("paper: clean QCLA-128 at bandwidth 2: makespan %llu "
                "windows, critical path %llu (full overlap, the paper's "
                "bandwidth-2 conclusion: %s)\n",
                (unsigned long long)qcla128.windows,
                (unsigned long long)qcla128.criticalPathWindows,
                qcla128.fullyOverlapped()
                        && qcla128.windows == qcla128.criticalPathWindows
                    ? "yes"
                    : "no");

    double overhead_ms = 0.0;
    std::size_t traced_passes = 0;
    for (std::size_t c = 0; c < sets_.size(); ++c) {
        const ConfigSet &set = sets_[c];
        const std::string cfg = set.name;
        if (!ctx_.tracer) {
            // Host time over simulated windows, summed over every plain
            // pass (see window_shots_per_s on why a sum, not a median).
            report.hostTime(cfg + "_us_per_window",
                            set.plainNs * 1e-3 / set.plainWindows, "us");
            continue;
        }
        traced_passes += set.tracedMs.size();
        overhead_ms += median(set.tracedMs) - median(set.plainMs);
        report.metric("network.lower_ms." + cfg, median(lowerNs_[c]) * 1e-6,
                      "ms");
        report.metric("network.place_ms." + cfg, median(set.placeMs), "ms");
        report.metric("cosim.window_us_p50." + cfg, median(set.windowUs),
                      "us");
        report.metric("cosim.window_us_p99." + cfg,
                      *tailPercentile(set.windowUs, 0.99), "us");
        report.metric("cosim.ns_per_pair." + cfg,
                      set.plainNs / set.plainPairs, "ns");
        Ledger l;
        for (const CoSimReport &r : set.reports)
            l.add(r);
        const std::pair<const char *, double> counts[] = {
            {"pairs_requested", l.requested},
            {"pairs_routed_on_mesh", l.mesh},
            {"pairs_local", l.local},
            {"backoff_reroutes", l.reroutes},
            {"retry_attempts", l.retries},
            {"pairs_dropped", l.dropped},
            {"pairs_abandoned", l.abandoned},
            {"drift_moves", l.drift},
            {"mem_hits", l.hits},
            {"mem_misses", l.misses},
            {"mem_inplace_misses", l.inplace},
            {"mem_evictions", l.evictions},
            {"windows", l.windows},
            {"stall_windows", l.stalls},
            {"critical_path_windows", l.critical},
        };
        for (const auto &[name, value] : counts)
            report.metric(std::string("cosim.") + name + "." + cfg, value,
                          "count");
        report.metric("cosim.route_length_mean." + cfg,
                      l.mesh > 0 ? l.routeSum / l.mesh : 0.0, "hops");
        report.metric("cosim.delivered_frac." + cfg,
                      l.requested > 0 ? (l.mesh + l.local) / l.requested
                                      : 0.0,
                      "fraction");
        report.metric("cosim.miss_rate." + cfg,
                      l.touches > 0 ? l.misses / l.touches : 0.0,
                      "fraction");
    }
    if (ctx_.tracer) {
        static const char *const kLayers[] = {"network", "cosim"};
        reportLayerTimes(*ctx_.tracer, "cosim", kLayers, 2,
                         traced_passes / sets_.size(), overhead_ms, report);
    }
}

} // namespace

std::unique_ptr<Phase>
makeCoSimPhase(const RunContext &context)
{
    return std::make_unique<CoSimPhase>(context);
}

} // namespace perfbench
