/**
 * @file
 * The paper's claims table (arXiv quant-ph/0509051): every number the
 * repo reproduces from the paper, one row each.
 *
 * A row shows an id (the experiment's E-number and the row's index),
 * the paper section, the quantity, the paper's value with its error or
 * the tolerance we hold it to, our value, the relative delta, the run
 * behind a Monte-Carlo or seeded value (engine, shots, seed; Monte-Carlo
 * values carry a 95% half-width) or "input" for a value the model copies
 * from the paper, a verdict and, on an outside row, a one-line reason.
 * A row is inside when our value, widened by its half-width, meets the
 * paper's band; "-" marks a number the paper does not give. The bands:
 *   - a value copied from the paper into the model: exact;
 *   - a paper value written as approximate ("~x"): +-10%;
 *   - a model output against a number the paper prints: +-5%, or +-1%
 *     for gate and step counts;
 *   - a paper value with a stated error: that error.
 *
 * The output is deterministic (fixed seeds; thread-count-invariant
 * sweeps) and pinned byte for byte in tests/golden/claims.txt, which
 * docs/determinism.md says how to regenerate. The tool exits 1 when an
 * outside row has no reason, so a paper number that drifts out of its
 * band fails the `claims` ctest until someone explains it.
 *
 * Usage: claims   (no arguments)
 */

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/shor.h"
#include "arq/monte_carlo.h"
#include "common/tech_params.h"
#include "ecc/latency.h"
#include "ecc/steane.h"
#include "ecc/threshold.h"
#include "network/scheduler.h"
#include "qccd/channel.h"
#include "teleport/connection_model.h"

using namespace qla;

namespace {

__attribute__((format(printf, 1, 2))) std::string
format(const char *fmt, ...)
{
    char buffer[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof buffer, fmt, args);
    va_end(args);
    return buffer;
}

/** A paper value and the band our value must meet to be inside. */
struct Paper
{
    std::string text;
    double value = 0.0; ///< Base of the delta column; 0 prints none.
    double lo = 0.0;
    double hi = 0.0;
};

/** A value copied from the paper, or a count that must match. */
Paper
exact(double value, std::string text)
{
    const double slack = 1e-9 * std::fabs(value);
    return {std::move(text), value, value - slack, value + slack};
}

Paper
within(double value, double relative, const std::string &text)
{
    return {format("%s +-%.0f%%", text.c_str(), 100.0 * relative), value,
            value * (1.0 - relative), value * (1.0 + relative)};
}

Paper
plusMinus(double value, double error, std::string text)
{
    return {std::move(text), value, value - error, value + error};
}

/** Rows print as they are made, so print order is call order. */
class Claims
{
  public:
    Claims()
    {
        line("id", "section", "quantity", "paper", "ours", "delta", "run",
             "verdict", "reason");
    }

    /** Start the rows of experiment @p id. */
    void experiment(const char *id, const char *title)
    {
        experiment_ = id;
        index_ = 0;
        std::printf("# %s %s\n", id, title);
    }

    /** A number the paper does not give. */
    void note(const char *section, const std::string &quantity,
              const std::string &ours, const std::string &run = "-")
    {
        line(nextId(), section, quantity, "-", ours, "-", run, "-", "");
    }

    /**
     * A number checked against @p paper. Our value prints as
     * format(@p fmt, ours, half_width); @p reason prints on an outside
     * row only.
     */
    void check(const char *section, const std::string &quantity,
               const Paper &paper, double ours, const char *fmt,
               const std::string &run = "-", double half_width = 0.0,
               const char *reason = "")
    {
        const bool inside =
            ours + half_width >= paper.lo && ours - half_width <= paper.hi;
        // Round-off below the printed precision prints as +0.00%.
        const double delta = paper.value == 0.0
            ? 0.0
            : 100.0 * (ours - paper.value) / paper.value;
        const std::string id = nextId();
        line(id, section, quantity, paper.text,
             format(fmt, ours, half_width),
             paper.value == 0.0
                 ? "-"
                 : format("%+.2f%%", std::fabs(delta) < 0.005 ? 0.0 : delta),
             run, inside ? "inside" : "outside", inside ? "" : reason);
        if (!inside && *reason == '\0') {
            std::fprintf(stderr, "claims: %s is outside with no reason\n",
                         id.c_str());
            status_ = 1;
        }
    }

    /** 1 when an outside row had no reason, else 0. */
    int status() const { return status_; }

  private:
    std::string nextId()
    {
        return format("%s.%d", experiment_, ++index_);
    }

    static void line(const std::string &id, const char *section,
                     const std::string &quantity, const std::string &paper,
                     const std::string &ours, const std::string &delta,
                     const std::string &run, const char *verdict,
                     const char *reason)
    {
        std::string text = format(
            "%-7s %-7s %-47s %-23s %-20s %-9s %-48s %-8s %s", id.c_str(),
            section, quantity.c_str(), paper.c_str(), ours.c_str(),
            delta.c_str(), run.c_str(), verdict, reason);
        while (text.back() == ' ')
            text.pop_back();
        std::printf("%s\n", text.c_str());
    }

    const char *experiment_ = "";
    int index_ = 0;
    int status_ = 0;
};

/** E1: Table 1 and the Section-2.1 channel figures. */
void
technology(Claims &claims)
{
    const auto current = TechnologyParameters::currentGeneration();
    const auto tech = TechnologyParameters::expected();
    claims.experiment("E1", "Table 1 -- ion-trap technology parameters");

    const struct
    {
        const char *quantity;
        Seconds ours;
        double paper_us;
    } times[] = {
        {"single-gate time", tech.singleGateTime, 1},
        {"two-qubit gate time", tech.doubleGateTime, 10},
        {"measurement time", tech.measureTime, 100},
        {"split time", tech.splitTime, 10},
        {"cooling time", tech.coolingTime, 1},
    };
    for (const auto &t : times)
        claims.check("2.2", t.quantity,
                     exact(t.paper_us, format("%.0f us", t.paper_us)),
                     t.ours * 1e6, "%.0f us", "input");
    claims.check("2.2", "movement time per um", exact(10, "10 ns/um"),
                 tech.cellTraversalTime / tech.cellSize * 1e9,
                 "%.1f ns/um", "input", 0.0,
                 "the model moves ions at Section 2.1's 0.01 us per "
                 "20 um cell");
    // A range has no single value, so the row prints no delta.
    claims.check("2.2", "memory time", {"10-100 s", 0.0, 10.0, 100.0},
                 tech.memoryTime, "%.0f s", "input");

    const struct
    {
        const char *quantity;
        double current, expected, paper_current, paper_expected;
        const char *current_text;
    } errors[] = {
        {"single-gate error", current.singleGateError,
         tech.singleGateError, 1e-4, 1e-8, "1.0e-04"},
        {"two-qubit gate error", current.doubleGateError,
         tech.doubleGateError, 3e-2, 1e-7, "3.0e-02"},
        {"measurement error", current.measureError, tech.measureError,
         1e-2, 1e-8, "1.0e-02"},
        {"movement error per cell", current.movementErrorPerCell,
         tech.movementErrorPerCell, 0.1, 1e-6, "0.005/um x 20 um"},
    };
    for (const auto &e : errors) {
        claims.check("2.2", format("%s, Pcurrent", e.quantity),
                     exact(e.paper_current, e.current_text), e.current,
                     "%.1e", "input");
        claims.check("2.2", format("%s, Pexpected", e.quantity),
                     exact(e.paper_expected,
                           format("%.1e", e.paper_expected)),
                     e.expected, "%.1e", "input");
    }

    claims.check("2.1", "cell traversal time",
                 exact(0.01, "0.01 us per 20 um"),
                 tech.cellTraversalTime * 1e6, "%.3f us", "input");
    claims.check("2.1", "ballistic channel bandwidth",
                 within(100, 0.10, "~100 Mqbps"),
                 tech.channelBandwidthQbps() / 1e6, "%.0f Mqbps");
    claims.note("4.1.2", "average component error p0 (feeds Equation 2)",
                format("%.2e", tech.averageComponentError()));

    const qccd::BallisticChannel channel(100, tech);
    claims.note("2.1", "100-cell channel, first-ion latency",
                format("%.2f us", channel.firstIonLatency() * 1e6));
    claims.note("2.1", "100-cell channel, 100-ion pipelined delivery",
                format("%.2f us", channel.deliveryTime(100) * 1e6));
    claims.note("2.1", "100-cell channel, per-ion error",
                format("%.2e", channel.perIonError()));
    claims.note("2.1", "move 1000 cells with 2 turns, time",
                format("%.2f us", tech.moveTime(1000, 2) * 1e6));
    claims.note("2.1", "move 1000 cells with 2 turns, error",
                format("%.2e", tech.moveError(1000, 1, 2)));
}

/** E2: Figure 7, the thresholds and the syndrome rates. */
void
figure7(Claims &claims)
{
    claims.experiment("E2", "Figure 7 -- logical failure vs component "
                            "failure rate (movement fixed at 1e-6/cell)");
    const std::string run = "batched, 3000 shots, seed 20050938";
    const auto points = arq::thresholdSweep(
        {1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3, 3.0e-3, 4.0e-3, 6.0e-3, 8.0e-3},
        3000, 20050938);
    for (const auto &point : points) {
        claims.note("4.1.3",
                    format("L1 failure at p = %.2e", point.physicalError),
                    format("%.5f +- %.5f", point.level1Failure,
                           point.level1Error),
                    run);
        claims.note("4.1.3",
                    format("L2 failure at p = %.2e", point.physicalError),
                    format("%.5f +- %.5f", point.level2Failure,
                           point.level2Error),
                    run);
    }
    claims.check("4.1.3", "L1/L2 crossing p_th",
                 plusMinus(2.1e-3, 1.8e-3, "(2.1 +- 1.8)e-3"),
                 arq::estimateThreshold(points), "%.2e",
                 run + " per point, no CI");
    claims.check("4.1.3", "Reichardt bound [44]", exact(9e-3, "9.0e-03"),
                 ecc::thresholds::kReichardt, "%.1e", "input");
    claims.check("4.1.3", "theoretical threshold [41]",
                 exact(7.5e-5, "7.5e-05"), ecc::thresholds::kTheoretical,
                 "%.1e", "input");

    Rng rng(5);
    arq::LogicalQubitExperiment experiment(ecc::steaneCode(),
                                           arq::NoiseParameters{});
    arq::ExperimentStats stats;
    experiment.failureRate(1, 20000, rng, &stats);
    const auto &syndrome = stats.nontrivialSyndrome;
    claims.check("4.1.1", "non-trivial L1 syndrome rate at Pexpected",
                 plusMinus(3.35e-4, 0.41e-4, "3.35e-4 +- 0.41e-4"),
                 syndrome.rate(), "%.2e +- %.1e",
                 "scalar, 20000 shots, seed 5", syndrome.halfWidth95());
    claims.check("4.1.1", "L2 failures at Pexpected",
                 exact(0, "none observed"),
                 experiment.failureRate(2, 500, rng).successes(),
                 "%.0f/500", "scalar, 500 shots, seed 5 after E2.20");
}

/** E3: the Figure-9 separation crossover. */
void
figure9(Claims &claims)
{
    claims.experiment("E3", "Figure 9 -- repeater connection time vs "
                            "distance");
    const teleport::RepeaterChain chain{teleport::RepeaterConfig{}};
    const auto crossover =
        teleport::crossoverDistance(chain, 100, 350, 2000, 30000, 500);
    // No crossover in range prints -1 cells, outside with no reason.
    claims.check("4.2", "d = 100 / d = 350 crossover (500-cell steps)",
                 within(6000, 0.10, "~6000 cells"),
                 crossover ? static_cast<double>(*crossover) : -1.0,
                 "%.0f cells");
}

/** E4: Table 2. */
void
table2(Claims &claims, const apps::ShorResourceModel &model,
       const arch::QlaChipModel &chip)
{
    claims.experiment("E4", "Table 2 -- Shor's algorithm on the QLA "
                            "(T_ecc(L2) from E5)");
    for (const auto &paper : apps::paperTable2()) {
        const auto ours = model.estimate(paper.bits, chip);
        const auto n = static_cast<unsigned long long>(paper.bits);
        auto count = [&](const char *quantity, double value,
                         double paper_value, double tolerance) {
            const auto text = format("%.0f", paper_value);
            claims.check("5", format("N=%llu %s", n, quantity),
                         tolerance == 0.0
                             ? exact(paper_value, text)
                             : within(paper_value, tolerance, text),
                         value, "%.0f");
        };
        count("logical qubits", ours.logicalQubits, paper.logicalQubits,
              0.0);
        count("Toffoli gates", ours.toffoliGates, paper.toffoliGates,
              0.01);
        count("total gates", ours.totalGates, paper.totalGates, 0.01);
        claims.check("5", format("N=%llu area", n),
                     within(paper.areaSquareMeters, 0.05,
                            format("%.2f m^2", paper.areaSquareMeters)),
                     ours.areaSquareMeters, "%.2f m^2");
        claims.check("5", format("N=%llu expected time", n),
                     within(paper.timeDays, 0.05,
                            format("%.1f days", paper.timeDays)),
                     units::toDays(ours.expectedTime), "%.2f days");
    }
}

/** E5: Equation 1, the error-correction latency. */
void
equation1(Claims &claims, const ecc::EccLatencyModel &model)
{
    claims.experiment("E5", "Equation 1 -- EC latency of the logical "
                            "qubit");
    auto us = [](Seconds t) { return format("%.2f us", t * 1e6); };
    claims.note("4.1.1", "T_synd(L1)",
                format("%.5f s", model.syndromeTime(1)));
    claims.check("4.1.1", "T_ecc(L1)", within(0.003, 0.10, "~0.003 s"),
                 model.eccTime(1), "%.5f s");
    claims.check("4.1.1", "L2 ancilla preparation",
                 within(0.008, 0.10, "~0.008 s"), model.prepTime(2),
                 "%.5f s");
    claims.note("4.1.1", "T_synd(L2)",
                format("%.5f s", model.syndromeTime(2)));
    claims.check("4.1.1", "T_ecc(L2)", within(0.043, 0.10, "~0.043 s"),
                 model.eccTime(2), "%.5f s");

    claims.note("4.1.1", "intra-block CNOT step", us(model.cnotStep(1)));
    claims.note("4.1.1",
                format("inter-block CNOT step (r = %lld cells, %d turns)",
                       static_cast<long long>(
                           model.config().interBlockCells),
                       model.config().interBlockTurns),
                us(model.cnotStep(2)));
    claims.note("4.1.1", "block readout (7 ions)",
                us(model.blockReadoutTime()));
    claims.note("4.1.1", "L2 conglomeration readout (49 serial)",
                us(model.syndromeReadoutTime(2)));
    claims.note("4.1.1",
                format("L1 encode network (depth %zu CNOT layers)",
                       ecc::steaneCode().zeroEncoder().depth),
                us(model.encodeTime(1)));
    claims.note("4.1.1", "L1 verified preparation", us(model.prepTime(1)));
    claims.check("4.1.1", "Equation-1 weight: L1 non-trivial syndrome rate",
                 exact(3.35e-4, "3.35e-4"), model.nontrivialRate(1),
                 "%.2e", "input");
    claims.check("4.1.1", "Equation-1 weight: L2 non-trivial syndrome rate",
                 exact(7.92e-4, "7.92e-4"), model.nontrivialRate(2),
                 "%.2e", "input");
    claims.note("4.1.2", "T_ecc(L3), extrapolated",
                format("%.3f s", model.eccTime(3)));
}

/** E6: Equation 2, reachable computation sizes. */
void
equation2(Claims &claims, const apps::ShorResourceModel &model,
          const arch::QlaChipModel &chip)
{
    using ecc::thresholds::kEmpirical;
    using ecc::thresholds::kTheoretical;
    const double p0 =
        TechnologyParameters::expected().averageComponentError();
    claims.experiment("E6", "Equation 2 -- failure rate vs recursion "
                            "level (p0 from E1)");
    claims.note("4.1.2", "level-1 block communication distance r",
                format("%.0f cells",
                       ecc::thresholds::kCommunicationDistance),
                "input");
    for (const double pth : {kTheoretical, kEmpirical}) {
        for (int level = 0; level <= 3; ++level) {
            const double pf = ecc::localGateFailureRate(level, p0, pth);
            const auto quantity =
                format("P_f(L%d), p_th = %.1e", level, pth);
            if (level != 2)
                claims.note("4.1.2", quantity, format("%.2e", pf));
            else if (pth == kTheoretical)
                claims.check("4.1.2", quantity,
                             within(1.0e-16, 0.05, "1.0e-16"), pf, "%.2e");
            else // an order-of-magnitude claim: within 10x either way
                claims.check("4.1.2", quantity,
                             {"approaching 1e-21 (x10)", 1e-21, 1e-22,
                              1e-20},
                             pf, "%.2e");
        }
    }
    claims.check("4.1.2", "max computation size S at L2",
                 within(9.9e15, 0.05, "9.9e15"),
                 ecc::maxComputationSize(2, p0, kTheoretical), "%.2e");
    const double size = model.estimate(1024, chip).computationSize;
    claims.check("4.1.2", "Shor-1024 computation size S = K x Q",
                 within(4.4e12, 0.10, "~4.4e12"), size, "%.2e", "-", 0.0,
                 "K x Q of the Table-2 model; the paper's S counts the "
                 "circuit of [47]");
    claims.check("4.1.2", "recursion level Shor-1024 needs",
                 exact(2, "2"),
                 ecc::requiredRecursionLevel(size, p0, kTheoretical),
                 "%.0f");
}

/** E7: the synthetic Section-5 scheduler at bandwidth 2. */
void
synthetic(Claims &claims)
{
    claims.experiment("E7", "Section 5 -- synthetic Toffoli traffic on "
                            "the island mesh");
    network::SyntheticConfig config;
    config.bandwidth = 2;
    config.totalWindows = 150;
    claims.check("5", "channel utilization at bandwidth 2",
                 within(23, 0.10, "~23%"),
                 100.0 * network::runSyntheticScheduler(config).utilization,
                 "%.1f%%",
                 format("%d windows, seed %llu", config.totalWindows,
                        static_cast<unsigned long long>(config.seed)));
}

/** E8: the Section-5 walkthrough of factoring a 128-bit number. */
void
shor128(Claims &claims, const apps::ShorResourceModel &model,
        const arch::QlaChipModel &chip)
{
    claims.experiment("E8", "Section 5 -- factoring a 128-bit number "
                            "(qubits, area and days in E4)");
    const auto row = model.estimate(128, chip);
    claims.check("5", "Toffoli gates", within(63730, 0.01, "63,730"),
                 row.toffoliGates, "%.0f");
    claims.check("5", "EC steps per Toffoli", exact(21, "21"),
                 model.config().toffoli.eccStepsPerGate(), "%.0f");
    claims.note("5", "QFT EC steps",
                format("%llu",
                       static_cast<unsigned long long>(row.qftEccSteps)));
    claims.check("5", "total EC steps", within(1.34e6, 0.01, "1.34e6"),
                 row.eccSteps, "%.3e");
    claims.check("5", "single-run time", within(16, 0.10, "~16 h"),
                 units::toHours(row.singleRunTime), "%.1f h");
    claims.check("5", "expected time, x1.3 repetitions",
                 within(21, 0.10, "~21 h"),
                 units::toHours(row.expectedTime), "%.1f h");
    const auto est = chip.estimate(row.logicalQubits);
    claims.check("7", "chip edge", within(0.33, 0.05, "0.33 m"),
                 est.edgeCentimeters / 100.0, "%.3f m");
    claims.check("7", "physical ions", within(7e6, 0.10, "~7e6"),
                 est.totalIons, "%.2e", "-", 0.0,
                 "not yet explained (ROADMAP item 12)");
}

/** E11: EC-latency design and code-choice ablations. */
void
ablationEcc(Claims &claims)
{
    claims.experiment("E11", "EC latency design ablations (QLA defaults "
                             "in E5)");
    const auto tech = TechnologyParameters::expected();
    auto variant = [&](const char *label, const ecc::CssCode &code,
                       const ecc::EccLatencyConfig &config) {
        const ecc::EccLatencyModel model(code, tech, config);
        claims.note("4.1", format("T_ecc(L1), %s", label),
                    format("%.4f s", model.eccTime(1)));
        claims.note("4.1", format("prep(L2), %s", label),
                    format("%.4f s", model.prepTime(2)));
        claims.note("4.1", format("T_ecc(L2), %s", label),
                    format("%.4f s", model.eccTime(2)));
    };
    ecc::EccLatencyConfig c;
    c.measurementPortsPerBlock = 7;
    c.serializeConglomerationReadout = false;
    variant("parallel readout (7 ports/block)", ecc::steaneCode(), c);
    c = {};
    c.interBlockCells = 24;
    variant("2x block separation (r = 24 cells)", ecc::steaneCode(), c);
    c = {};
    c.interBlockTurns = 0;
    variant("turn-free inter-block routing", ecc::steaneCode(), c);
    c = {};
    c.lowerEccRoundsInPrep = 0;
    c.lowerEccRoundsAfterGate = 1;
    c.lowerEccRoundsAfterReadout = 0;
    variant("minimal lower-level EC weaving", ecc::steaneCode(), c);
    c = {};
    c.verificationRounds = 2;
    variant("double ancilla verification", ecc::steaneCode(), c);
    variant("Shor [[9,1,3]] code", ecc::shorCode(), {});
    claims.note("4.1", "Steane [[7,1,3]] L2 tile (Figure 5)",
                format("%zu ions", ecc::tileIonCount(ecc::steaneCode(), 2)));
    claims.note("4.1", "Shor [[9,1,3]] L2 tile",
                format("%zu ions", ecc::tileIonCount(ecc::shorCode(), 2)));
}

/** E12: relaxing the technology toward Pcurrent, one knob at a time. */
void
ablationTechnology(Claims &claims)
{
    claims.experiment("E12", "Section 6 -- relaxing the technology from "
                             "Pexpected toward Pcurrent (E1)");
    auto sweep = [&](const char *knob, double arq::NoiseParameters::*field,
                     const std::vector<double> &values) {
        Rng rng(616);
        for (double value : values) {
            arq::NoiseParameters noise;
            noise.*field = value;
            arq::LogicalQubitExperiment experiment(ecc::steaneCode(),
                                                   noise);
            for (int level : {1, 2}) {
                const std::size_t shots = level == 1 ? 1200 : 600;
                const auto rate = experiment.failureRate(level, shots, rng);
                claims.note("6",
                            format("L%d failure, %s %.1e", level, knob,
                                   value),
                            format("%.5f +- %.5f", rate.rate(),
                                   rate.halfWidth95()),
                            format("scalar, %zu shots, seed 616", shots));
            }
        }
    };
    sweep("two-qubit gate error", &arq::NoiseParameters::gate2Error,
          {1e-7, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2});
    sweep("measurement error", &arq::NoiseParameters::measureError,
          {1e-8, 1e-4, 1e-3, 1e-2});
    sweep("movement error per cell",
          &arq::NoiseParameters::movementErrorPerCell,
          {1e-6, 1e-5, 1e-4, 3e-4, 1e-3});
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: claims   (takes no arguments)\n");
        return 2;
    }
    const ecc::EccLatencyModel latency(ecc::steaneCode(),
                                       TechnologyParameters::expected());
    apps::ShorModelConfig config;
    config.eccCycleTime = latency.eccTime(2);
    const apps::ShorResourceModel model(config);
    const arch::QlaChipModel chip;

    Claims claims;
    technology(claims);
    figure7(claims);
    figure9(claims);
    table2(claims, model, chip);
    equation1(claims, latency);
    equation2(claims, model, chip);
    synthetic(claims);
    shor128(claims, model, chip);
    ablationEcc(claims);
    ablationTechnology(claims);
    return claims.status();
}
