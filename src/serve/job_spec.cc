#include "serve/job_spec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace qla::serve {

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
WorkloadSpec::token() const
{
    char buf[64];
    switch (app) {
    case App::Toffoli:
        std::snprintf(buf, sizeof(buf), "toffoli %zu %zu", size, depth);
        break;
    case App::Qcla:
        std::snprintf(buf, sizeof(buf), "qcla %zu", size);
        break;
    case App::BandedQft:
        std::snprintf(buf, sizeof(buf), "qft %zu %zu", size, depth);
        break;
    }
    return buf;
}

namespace {

void
appendKey(std::string &out, const char *key)
{
    out += key;
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %llu",
                  static_cast<unsigned long long>(value));
    out += buf;
}

void
appendDouble(std::string &out, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), " %.17g", value);
    out += buf;
}

template <typename T, typename Fn>
void
appendList(std::string &out, const char *key,
           const std::vector<T> &values, Fn append_one)
{
    appendKey(out, key);
    for (const T &value : values)
        append_one(out, value);
    out += '\n';
}

//
// Parsing helpers: every value token must consume exactly; trailing
// garbage ("2x", "1e3pts") is a hard error, not a silent prefix parse.
//

bool
parseU64Token(const std::string &token, std::uint64_t &value)
{
    errno = 0;
    char *end = nullptr;
    value = std::strtoull(token.c_str(), &end, 10);
    return end != token.c_str() && *end == '\0' && errno != ERANGE;
}

bool
parseIntToken(const std::string &token, int &value)
{
    std::uint64_t u = 0;
    if (!parseU64Token(token, u) || u > 1u << 20)
        return false;
    value = static_cast<int>(u);
    return true;
}

bool
parseDoubleToken(const std::string &token, double &value)
{
    errno = 0;
    char *end = nullptr;
    value = std::strtod(token.c_str(), &end);
    return end != token.c_str() && *end == '\0' && errno != ERANGE;
}

/** A probability: finite and in [0, 1]. */
bool
parseRateToken(const std::string &token, double &value)
{
    return parseDoubleToken(token, value) && value >= 0.0 && value <= 1.0;
}

template <typename T, typename Fn>
bool
parseList(std::istringstream &rest, std::vector<T> &values, Fn parse_one)
{
    values.clear();
    std::string token;
    while (rest >> token) {
        T value{};
        if (!parse_one(token, value))
            return false;
        values.push_back(value);
    }
    return !values.empty();
}

} // namespace

std::string
SweepJobSpec::canonicalText() const
{
    std::string out;
    if (kind == SweepKind::Threshold) {
        out += "kind threshold\n";
        appendList(out, "errors", threshold.physicalErrors, appendDouble);
        out += "shots";
        appendU64(out, threshold.shots);
        out += "\nseed";
        appendU64(out, threshold.seed);
        out += "\nchunk-shots";
        appendU64(out, threshold.chunkShots);
        out += "\ngroup-words";
        appendU64(out, threshold.groupWords);
        out += '\n';
        return out;
    }
    out += "kind cosim\n";
    for (const WorkloadSpec &workload : cosim.workloads)
        out += "workload " + workload.token() + '\n';
    auto append_int = [](std::string &text, int value) {
        appendU64(text, static_cast<std::uint64_t>(value));
    };
    appendList(out, "bandwidths", cosim.bandwidths, append_int);
    appendList(out, "fault-rates", cosim.faultRates, appendDouble);
    appendList(out, "purifications", cosim.purificationLevels,
               append_int);
    appendList(out, "link-fidelities", cosim.linkFidelities,
               appendDouble);
    appendList(out, "compute-fractions", cosim.computeFractions,
               appendDouble);
    appendList(out, "memory-levels", cosim.memoryCodeLevels, append_int);
    appendList(out, "seeds", cosim.seeds,
               [](std::string &text, std::uint64_t value) {
                   appendU64(text, value);
               });
    out += cosim.randomPlacement ? "placement random\n"
                                 : "placement affinity\n";
    out += "op-error";
    appendDouble(out, cosim.opError);
    out += "\ndelivery-threshold";
    appendDouble(out, cosim.deliveryThreshold);
    out += "\nretry-budget";
    appendU64(out, static_cast<std::uint64_t>(cosim.retryBudget));
    out += '\n';
    return out;
}

std::uint64_t
SweepJobSpec::configHash() const
{
    return fnv1a64(canonicalText());
}

bool
SweepJobSpec::parse(const std::string &text, SweepJobSpec &spec,
                    std::string &error)
{
    spec = SweepJobSpec{};
    spec.cosim.workloads.clear();
    bool saw_kind = false;

    std::istringstream lines(text);
    std::string line;
    std::size_t line_no = 0;
    auto fail = [&](const std::string &message) {
        error = "line " + std::to_string(line_no) + ": " + message;
        return false;
    };
    while (std::getline(lines, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::istringstream rest(line);
        std::string key;
        if (!(rest >> key) || key[0] == '#')
            continue;
        std::string token;
        auto one_u64 = [&](std::uint64_t &value) {
            return static_cast<bool>(rest >> token)
                && parseU64Token(token, value) && !(rest >> token);
        };
        auto one_double = [&](double &value) {
            return static_cast<bool>(rest >> token)
                && parseDoubleToken(token, value) && !(rest >> token);
        };
        if (key == "kind") {
            if (!(rest >> token))
                return fail("missing kind");
            if (token == "threshold")
                spec.kind = SweepKind::Threshold;
            else if (token == "cosim")
                spec.kind = SweepKind::CoSim;
            else
                return fail("unknown kind '" + token + "'");
            saw_kind = true;
        } else if (key == "errors") {
            if (!parseList(rest, spec.threshold.physicalErrors,
                           parseRateToken))
                return fail("bad errors list (want rates in [0, 1])");
        } else if (key == "shots") {
            if (!one_u64(spec.threshold.shots))
                return fail("bad shots");
        } else if (key == "seed") {
            if (!one_u64(spec.threshold.seed))
                return fail("bad seed");
        } else if (key == "chunk-shots") {
            if (!one_u64(spec.threshold.chunkShots)
                || spec.threshold.chunkShots == 0)
                return fail("bad chunk-shots");
        } else if (key == "group-words") {
            if (!one_u64(spec.threshold.groupWords)
                || spec.threshold.groupWords == 0
                || spec.threshold.groupWords > 32)
                return fail("bad group-words (want 1..32)");
        } else if (key == "workload") {
            WorkloadSpec workload;
            if (!(rest >> token))
                return fail("missing workload app");
            if (token == "toffoli")
                workload.app = WorkloadSpec::App::Toffoli;
            else if (token == "qcla")
                workload.app = WorkloadSpec::App::Qcla;
            else if (token == "qft")
                workload.app = WorkloadSpec::App::BandedQft;
            else
                return fail("unknown workload '" + token + "'");
            std::uint64_t size = 0;
            if (!(rest >> token) || !parseU64Token(token, size)
                || size == 0)
                return fail("bad workload size");
            if (workload.app == WorkloadSpec::App::Toffoli && size < 3)
                return fail("bad workload size (toffoli needs 3 qubits)");
            workload.size = size;
            if (rest >> token) {
                std::uint64_t depth = 0;
                if (!parseU64Token(token, depth) || (rest >> token))
                    return fail("bad workload depth");
                workload.depth = depth;
            }
            spec.cosim.workloads.push_back(workload);
        } else if (key == "bandwidths") {
            if (!parseList(rest, spec.cosim.bandwidths,
                           [](const std::string &t, int &v) {
                               return parseIntToken(t, v) && v >= 1;
                           }))
                return fail("bad bandwidths list (want 1 or more)");
        } else if (key == "fault-rates") {
            if (!parseList(rest, spec.cosim.faultRates, parseRateToken))
                return fail("bad fault-rates list (want rates in [0, 1])");
        } else if (key == "purifications") {
            if (!parseList(rest, spec.cosim.purificationLevels,
                           parseIntToken))
                return fail("bad purifications list");
        } else if (key == "link-fidelities") {
            if (!parseList(rest, spec.cosim.linkFidelities,
                           parseRateToken))
                return fail("bad link-fidelities list (want [0, 1])");
        } else if (key == "compute-fractions") {
            if (!parseList(rest, spec.cosim.computeFractions,
                           parseDoubleToken))
                return fail("bad compute-fractions list");
        } else if (key == "memory-levels") {
            if (!parseList(rest, spec.cosim.memoryCodeLevels,
                           [](const std::string &t, int &v) {
                               return parseIntToken(t, v)
                                   && (v == 1 || v == 2);
                           }))
                return fail("bad memory-levels list (want 1 or 2)");
        } else if (key == "seeds") {
            if (!parseList(rest, spec.cosim.seeds, parseU64Token))
                return fail("bad seeds list");
        } else if (key == "placement") {
            if (!(rest >> token)
                || (token != "random" && token != "affinity"))
                return fail("bad placement (want random|affinity)");
            spec.cosim.randomPlacement = token == "random";
        } else if (key == "op-error") {
            if (!(rest >> token)
                || !parseRateToken(token, spec.cosim.opError)
                || (rest >> token))
                return fail("bad op-error (want [0, 1])");
        } else if (key == "delivery-threshold") {
            if (!one_double(spec.cosim.deliveryThreshold))
                return fail("bad delivery-threshold");
        } else if (key == "retry-budget") {
            std::uint64_t budget = 0;
            if (!one_u64(budget) || budget > 1u << 20)
                return fail("bad retry-budget");
            spec.cosim.retryBudget = static_cast<int>(budget);
        } else {
            return fail("unknown key '" + key + "'");
        }
    }

    if (!saw_kind) {
        error = "missing 'kind threshold|cosim' line";
        return false;
    }
    if (spec.kind == SweepKind::Threshold
        && spec.threshold.physicalErrors.empty()) {
        error = "threshold job needs a non-empty 'errors' list";
        return false;
    }
    if (spec.kind == SweepKind::CoSim && spec.cosim.workloads.empty()) {
        error = "cosim job needs at least one 'workload' line";
        return false;
    }
    return true;
}

} // namespace qla::serve
