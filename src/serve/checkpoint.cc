#include "serve/checkpoint.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <sys/stat.h>

namespace qla::serve {

namespace {

constexpr const char *kMagicPrefix = "qla-sweep-checkpoint ";
constexpr const char *kMagicLine = "qla-sweep-checkpoint v1";

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %llu",
                  static_cast<unsigned long long>(value));
    out += buf;
}

/** Hexfloat (%a): exact IEEE-754 round trip, the bit-faithfulness the
 *  resume gate depends on. */
void
appendHexDouble(std::string &out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %a", value);
    out += buf;
}

/** Visits every persisted CoSimReport scalar in checkpoint field
 *  order. Encode and decode share this single enumeration, so the two
 *  directions cannot drift apart. */
template <typename Report, typename Visitor>
void
forEachReportScalar(Report &report, Visitor &&visit)
{
    visit(report.completed);
    visit(report.windows);
    visit(report.warmupWindows);
    visit(report.makespan);
    visit(report.criticalPathWindows);
    visit(report.gates);
    visit(report.interactions);
    visit(report.pairsRequested);
    visit(report.pairsRoutedOnMesh);
    visit(report.pairsLocal);
    visit(report.pairsDropped);
    visit(report.pairsLostInTransit);
    visit(report.pairsRejectedFidelity);
    visit(report.pairsAbandoned);
    visit(report.demandsAbandoned);
    visit(report.gatesDegraded);
    visit(report.retryAttempts);
    visit(report.retryBackoffWindows);
    visit(report.fallbackPenaltyWindows);
    visit(report.deferredPairWindows);
    visit(report.fidelityPairs);
    visit(report.deliveredFidelitySum);
    visit(report.deliveredFidelityMin);
    visit(report.operandTouches);
    visit(report.memHits);
    visit(report.memMisses);
    visit(report.memInPlaceMisses);
    visit(report.memEvictions);
    visit(report.fetchPairsRequested);
    visit(report.writebackPairsRequested);
    visit(report.missConversionWindows);
    visit(report.computeTiles);
    visit(report.memoryTiles);
    visit(report.stallWindows);
    visit(report.gatesStalled);
    visit(report.allocationStallWindows);
    visit(report.driftMoves);
    visit(report.backoffReroutes);
    visit(report.utilization);
    visit(report.averageRouteLength);
}

struct FieldEncoder
{
    std::string &out;
    void operator()(bool value) const { out += value ? " 1" : " 0"; }
    void operator()(std::uint64_t value) const { appendU64(out, value); }
    void operator()(double value) const { appendHexDouble(out, value); }
};

bool
parseU64Token(const std::string &token, std::uint64_t &value)
{
    // Decimal digits only: strtoull alone would take "-1" as 2^64 - 1.
    if (token.empty() || token[0] < '0' || token[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    value = std::strtoull(token.c_str(), &end, 10);
    return end != token.c_str() && *end == '\0' && errno != ERANGE;
}

bool
parseHex64Token(const std::string &token, std::uint64_t &value)
{
    if (token.empty()
        || !std::isxdigit(static_cast<unsigned char>(token[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    value = std::strtoull(token.c_str(), &end, 16);
    return end != token.c_str() && *end == '\0' && errno != ERANGE;
}

bool
parseDoubleToken(const std::string &token, double &value)
{
    errno = 0;
    char *end = nullptr;
    value = std::strtod(token.c_str(), &end);
    return end != token.c_str() && *end == '\0';
}

struct FieldDecoder
{
    std::istringstream &in;
    bool ok = true;

    bool next(std::string &token)
    {
        if (!(in >> token))
            return ok = false;
        return true;
    }
    void operator()(bool &value)
    {
        std::string token;
        if (!next(token))
            return;
        if (token == "0")
            value = false;
        else if (token == "1")
            value = true;
        else
            ok = false;
    }
    void operator()(std::uint64_t &value)
    {
        std::string token;
        if (next(token) && !parseU64Token(token, value))
            ok = false;
    }
    void operator()(double &value)
    {
        std::string token;
        if (next(token) && !parseDoubleToken(token, value))
            ok = false;
    }
};

void
appendRate(std::string &out, const sim::RateStat &rate)
{
    appendU64(out, rate.successes());
    appendU64(out, rate.trials());
}

bool
decodeRate(FieldDecoder &fields, sim::RateStat &rate)
{
    std::uint64_t successes = 0;
    std::uint64_t trials = 0;
    fields(successes);
    fields(trials);
    if (!fields.ok || successes > trials)
        return false;
    rate = sim::RateStat{};
    rate.addBulk(successes, trials);
    return true;
}

void
appendScalarRaw(std::string &out, const sim::ScalarStat &stat)
{
    const sim::ScalarStat::Raw raw = stat.raw();
    appendU64(out, raw.count);
    appendHexDouble(out, raw.mean);
    appendHexDouble(out, raw.m2);
    appendHexDouble(out, raw.sum);
    appendHexDouble(out, raw.min);
    appendHexDouble(out, raw.max);
}

bool
decodeScalarRaw(FieldDecoder &fields, sim::ScalarStat &stat)
{
    sim::ScalarStat::Raw raw;
    fields(raw.count);
    fields(raw.mean);
    fields(raw.m2);
    fields(raw.sum);
    fields(raw.min);
    fields(raw.max);
    if (!fields.ok)
        return false;
    stat = sim::ScalarStat::fromRaw(raw);
    return true;
}

const char *
kindToken(SweepKind kind)
{
    return kind == SweepKind::Threshold ? "threshold" : "cosim";
}

} // namespace

std::string
encodeCheckpoint(const CheckpointData &data)
{
    std::string out = kMagicLine;
    out += '\n';
    char buf[64];
    std::snprintf(buf, sizeof(buf), "config %016llx\n",
                  static_cast<unsigned long long>(data.configHash));
    out += buf;
    out += "kind ";
    out += kindToken(data.kind);
    out += "\nchunks";
    appendU64(out, data.totalChunks);
    out += '\n';

    if (data.kind == SweepKind::Threshold) {
        for (const ThresholdChunkPartial &partial : data.threshold) {
            out += "chunk";
            appendU64(out, partial.chunk);
            appendRate(out, partial.failures);
            appendRate(out, partial.stats.logicalFailure);
            appendRate(out, partial.stats.nontrivialSyndrome);
            appendScalarRaw(out, partial.stats.prepAttempts);
            out += '\n';
        }
    } else {
        for (const CoSimChunkPartial &partial : data.cosim) {
            out += "chunk";
            appendU64(out, partial.chunk);
            forEachReportScalar(partial.report, FieldEncoder{out});
            out += '\n';
        }
    }

    std::snprintf(buf, sizeof(buf), "end %016llx\n",
                  static_cast<unsigned long long>(fnv1a64(out)));
    out += buf;
    return out;
}

bool
decodeCheckpoint(const std::string &text, CheckpointData &data,
                 std::string &error)
{
    data = CheckpointData{};
    std::size_t offset = 0;
    std::size_t line_no = 0;
    bool saw_end = false;
    std::size_t last_chunk = 0;
    bool have_chunk = false;

    auto fail = [&](const std::string &message) {
        error = "checkpoint line " + std::to_string(line_no) + ": "
            + message;
        return false;
    };

    while (offset < text.size()) {
        std::size_t newline = text.find('\n', offset);
        if (newline == std::string::npos)
            return fail("truncated (unterminated line)");
        const std::size_t line_start = offset;
        std::string line = text.substr(offset, newline - offset);
        offset = newline + 1;
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();

        if (line_no == 1) {
            if (line == kMagicLine)
                continue;
            if (line.rfind(kMagicPrefix, 0) == 0)
                return fail("unsupported version '"
                            + line.substr(std::strlen(kMagicPrefix))
                            + "' (want v1)");
            return fail("bad magic (not a qla-sweep-checkpoint file)");
        }

        std::istringstream rest(line);
        std::string key;
        if (!(rest >> key))
            return fail("empty line");
        std::string token;

        // The header is fixed -- config, kind and chunks on lines 2-4,
        // once each -- so every chunk line is checked against the
        // file's final kind and chunk count.
        static const char *const kHeader[] = {"config", "kind", "chunks"};
        if (line_no <= 4 && key != kHeader[line_no - 2])
            return fail(std::string("expected a '") + kHeader[line_no - 2]
                        + "' line");
        if (line_no > 4
            && (key == "config" || key == "kind" || key == "chunks"))
            return fail("'" + key + "' line after the header");

        if (key == "end") {
            if (!(rest >> token))
                return fail("bad end line");
            std::uint64_t recorded = 0;
            if (!parseHex64Token(token, recorded))
                return fail("bad end hash");
            const std::uint64_t actual
                = fnv1a64(text.data(), line_start);
            if (recorded != actual)
                return fail("integrity hash mismatch (file corrupted)");
            if (offset != text.size())
                return fail("trailing bytes after end line");
            saw_end = true;
            break;
        }
        if (key == "config") {
            if (!(rest >> token)
                || !parseHex64Token(token, data.configHash))
                return fail("bad config line");
        } else if (key == "kind") {
            if (!(rest >> token))
                return fail("bad kind line");
            if (token == "threshold")
                data.kind = SweepKind::Threshold;
            else if (token == "cosim")
                data.kind = SweepKind::CoSim;
            else
                return fail("unknown kind '" + token + "'");
        } else if (key == "chunks") {
            std::uint64_t total = 0;
            if (!(rest >> token) || !parseU64Token(token, total))
                return fail("bad chunks line");
            data.totalChunks = total;
        } else if (key == "chunk") {
            FieldDecoder fields{rest};
            std::uint64_t index = 0;
            fields(index);
            if (!fields.ok)
                return fail("bad chunk index");
            if (index >= data.totalChunks)
                return fail("chunk index " + std::to_string(index)
                            + " out of range (job has "
                            + std::to_string(data.totalChunks)
                            + " chunks)");
            if (have_chunk && index <= last_chunk)
                return fail(index == last_chunk
                                ? "duplicate chunk index "
                                    + std::to_string(index)
                                : "chunk indices not ascending");
            last_chunk = index;
            have_chunk = true;
            if (data.kind == SweepKind::Threshold) {
                ThresholdChunkPartial partial;
                partial.chunk = index;
                if (!decodeRate(fields, partial.failures)
                    || !decodeRate(fields, partial.stats.logicalFailure)
                    || !decodeRate(fields,
                                   partial.stats.nontrivialSyndrome)
                    || !decodeScalarRaw(fields,
                                        partial.stats.prepAttempts))
                    return fail("bad threshold chunk payload");
                if (rest >> token)
                    return fail("trailing fields on chunk line");
                data.threshold.push_back(partial);
            } else {
                CoSimChunkPartial partial;
                partial.chunk = index;
                forEachReportScalar(partial.report, fields);
                if (!fields.ok)
                    return fail("bad cosim chunk payload");
                if (rest >> token)
                    return fail("trailing fields on chunk line");
                data.cosim.push_back(partial);
            }
        } else {
            return fail("unknown key '" + key + "'");
        }
    }

    if (!saw_end) {
        error = "checkpoint truncated (missing end line)";
        return false;
    }
    return true;
}

bool
saveCheckpointFile(const std::string &path, const CheckpointData &data,
                   std::string &error)
{
    const std::string text = encodeCheckpoint(data);
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file) {
        error = "cannot open " + tmp + " for writing";
        return false;
    }
    const bool wrote
        = std::fwrite(text.data(), 1, text.size(), file) == text.size();
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !closed) {
        error = "short write to " + tmp;
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        error = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
loadCheckpointFile(const std::string &path, CheckpointData &data,
                   std::string &error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        error = "cannot open checkpoint " + path;
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    std::fclose(file);
    if (!decodeCheckpoint(text, data, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

bool
checkpointFileExists(const std::string &path)
{
    struct stat info;
    return ::stat(path.c_str(), &info) == 0;
}

} // namespace qla::serve
