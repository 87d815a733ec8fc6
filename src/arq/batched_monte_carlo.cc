#include "arq/batched_monte_carlo.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "arq/lane_compaction.h"
#include "arq/tile_schedule.h"
#include "common/logging.h"


namespace qla::arq {

std::uint64_t
LaneSet::count() const
{
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(w[i]));
    return total;
}

std::uint32_t
LaneSet::activeWords() const
{
    std::uint32_t words = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        words += w[i] != 0;
    return words;
}

/**
 * The recorded tile schedule of one experiment shape. Immutable once
 * built and shared by every experiment bound to it -- noise points,
 * workers, twins -- so everything here is a function of the shape
 * alone; per-point probabilities live in each experiment's class table.
 */
struct BatchedLogicalQubitExperiment::Recording
{
    /** Record the schedule against @p classes: the five fixed rates,
     *  already registered. */
    Recording(const ecc::CssCode &code, const NoiseParameters &noise,
              const LayoutDistances &layout,
              const NoiseClassTable &classes);

    /** One trace per segment, indexed by traceIndex; straight-line and
     *  retry replays of a segment differ only in the clock bank. */
    std::vector<FrameTrace> traces;
};

namespace {

/**
 * Everything a recording depends on, compared by value: the code's
 * content, the layout, the attempt cap, the class id of each of the
 * five fixed rates (which rates coincide), and each class's degeneracy
 * (0 normal, 1 for p <= 0, 2 for p >= 1).
 */
struct RecordingKey
{
    std::size_t blockLength = 0;
    std::vector<ecc::QubitMask> xChecks;
    std::vector<ecc::QubitMask> zChecks;
    ecc::QubitMask logicalX = 0;
    ecc::QubitMask logicalZ = 0;
    LayoutDistances layout;
    int maxPrepAttempts = 0;
    std::array<std::uint8_t, 5> slots{};
    std::vector<std::uint8_t> degeneracy;

    bool operator==(const RecordingKey &) const = default;
};

} // namespace

BatchedLogicalQubitExperiment::Binding
BatchedLogicalQubitExperiment::bind(const ecc::CssCode &code,
                                    const NoiseParameters &noise,
                                    const LayoutDistances &layout,
                                    int max_prep_attempts)
{
    qla_assert(max_prep_attempts >= 1);
    qla_assert(code.blockLength() <= 32,
               "bit-sliced decode supports block length <= 32");
    qla_assert(code.xChecks().size() <= 8 && code.zChecks().size() <= 8,
               "bit-sliced decode supports <= 8 check rows");

    // The fixed fault classes, registered in recording order so the
    // class ids are those the recording's ops carry. Retry and
    // conditional-path replays draw from the second clock bank over the
    // same classes (see BatchedNoiseModel::draws).
    const TileRowRecorder rows(code, noise, layout);
    const std::array<double, 5> rates = {
        noise.gate1Error, noise.gate2Error, noise.measureError,
        rows.moveProbability(layout.intraBlockCells,
                             layout.intraBlockTurns),
        rows.interBlockMoveProbability()};
    Binding binding;
    RecordingKey key{code.blockLength(), code.xChecks(), code.zChecks(),
                     code.logicalX(), code.logicalZ(), layout,
                     max_prep_attempts, {}, {}};
    for (std::size_t r = 0; r < rates.size(); ++r)
        key.slots[r] = binding.classes.classOf(rates[r]);
    for (const double p : binding.classes.probabilities())
        key.degeneracy.push_back(p <= 0.0 ? 1 : p >= 1.0 ? 2 : 0);

    // The process-wide recording cache: one entry per distinct key,
    // never evicted (a process sees few shapes; a Figure-7 sweep has
    // one). The first experiment of a shape records it under the lock,
    // so concurrent first use records once and every caller gets the
    // same instance.
    static std::mutex mu;
    static std::vector<
        std::pair<RecordingKey, std::shared_ptr<const Recording>>>
        recordings;
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[k, recording] : recordings) {
        if (k == key) {
            binding.recording = recording;
            return binding;
        }
    }
    binding.recording = std::make_shared<const Recording>(
        code, noise, layout, binding.classes);
    recordings.emplace_back(std::move(key), binding.recording);
    return binding;
}

BatchedLogicalQubitExperiment::BatchedLogicalQubitExperiment(
    const ecc::CssCode &code, NoiseParameters noise, LayoutDistances layout,
    int max_prep_attempts, BatchOptions options)
    : BatchedLogicalQubitExperiment(
          code, max_prep_attempts, options,
          bind(code, noise, layout, max_prep_attempts))
{
}

BatchedLogicalQubitExperiment::BatchedLogicalQubitExperiment(
    const ecc::CssCode &code, int max_prep_attempts, BatchOptions options,
    Binding binding)
    : code_(code), max_prep_attempts_(max_prep_attempts),
      options_(options), n_(code.blockLength()),
      classes_(std::move(binding.classes)),
      recording_(std::move(binding.recording)),
      frames_(3 * code.blockLength() * code.blockLength() * 3,
              options.groupWords)
{
    qla_assert(options_.groupWords >= 1
                   && options_.groupWords <= kMaxGroupWords,
               "groupWords must be in [1, ", kMaxGroupWords, "]");
    for (const ecc::QubitMask row : code_.xChecks())
        x_check_bits_.push_back(bitListOf(row));
    for (const ecc::QubitMask row : code_.zChecks())
        z_check_bits_.push_back(bitListOf(row));
    logical_x_bits_ = bitListOf(code_.logicalX());
    logical_z_bits_ = bitListOf(code_.logicalZ());

    // Corrections are physical single-qubit gates: gate1 is bind()'s
    // first class.
    const double correction_p = classes_.probabilities().front();
    models_.reserve(options_.groupWords);
    for (std::size_t w = 0; w < options_.groupWords; ++w) {
        models_.emplace_back(classes_, correction_p);
        flips_[w].reserve(n_ * n_);
    }
}

BatchedLogicalQubitExperiment::~BatchedLogicalQubitExperiment() = default;

std::size_t
BatchedLogicalQubitExperiment::ion(std::size_t n, std::size_t c,
                                   std::size_t g, Role role, std::size_t i)
{
    qla_assert(c < 3 && g < n && i < n);
    return ((c * n + g) * 3 + static_cast<std::size_t>(role)) * n + i;
}

//
// Trace recording. Each recorder mirrors its scalar twin in
// monte_carlo.cc operation for operation; only the execution strategy
// differs (emit once here, replay word-parallel later). The row-level
// prep/verify segments live in TileRowRecorder, which records them at
// every site's row base.
//

std::size_t
BatchedLogicalQubitExperiment::traceIndex(std::size_t n, Seg seg,
                                          std::size_t c, std::size_t g,
                                          std::size_t role, bool flag)
{
    return ((((static_cast<std::size_t>(seg) * 3 + c) * n + g) * 3 + role)
            << 1)
        | static_cast<std::size_t>(flag);
}

BatchedLogicalQubitExperiment::Recording::Recording(
    const ecc::CssCode &code, const NoiseParameters &noise,
    const LayoutDistances &layout, const NoiseClassTable &classes)
{
    const std::size_t n = code.blockLength();
    const TileRowRecorder rows(code, noise, layout);
    // The builders register into a copy, so a class the recorders add
    // beyond bind()'s fixed ones is caught below: every noise point
    // bound to this recording must carry the same class ids.
    NoiseClassTable table = classes;
    const auto at = [&](Seg seg, std::size_t c, std::size_t g,
                        std::size_t role, bool flag) -> FrameTrace & {
        return traces[traceIndex(n, seg, c, g, role, flag)];
    };

    traces.resize(traceIndex(n, Seg::LogicalGate, 2, n - 1, 2, true) + 1);
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t g = 0; g < n; ++g) {
            for (const Role role : {Role::Data, Role::Ancilla}) {
                const std::size_t q0 = ion(n, c, g, role, 0);
                const std::size_t v0 = ion(n, c, g, Role::Verify, 0);
                const auto r = static_cast<std::size_t>(role);
                for (const bool plus : {false, true}) {
                    FrameTraceBuilder prep(table);
                    rows.prepRound(prep, q0, v0, plus);
                    at(Seg::PrepRound, c, g, r, plus) = prep.take();
                    FrameTraceBuilder pair(table);
                    rows.verifyPair(pair, q0, v0, plus);
                    at(Seg::VerifyPair, c, g, r, plus) = pair.take();
                }
            }
            for (const bool detect_x : {false, true}) {
                FrameTraceBuilder ext(table);
                rows.extractRound(ext, ion(n, c, g, Role::Data, 0),
                                  ion(n, c, g, Role::Ancilla, 0), detect_x);
                at(Seg::ExtractRound, c, g, 0, detect_x) = ext.take();
            }
        }
        for (const bool plus : {false, true}) {
            FrameTraceBuilder net(table);
            rows.l2Network(net, ion(n, c, 0, Role::Data, 0), 3 * n, plus);
            at(Seg::L2Network, c, 0, 0, plus) = net.take();
        }
    }
    for (const bool detect_x : {false, true}) {
        // Transversal logical CNOT data <-> ancilla conglomeration,
        // then the destructive readout of the ancilla conglomeration.
        const std::size_t ac = detect_x ? 1 : 2;
        const double p_move = rows.interBlockMoveProbability();
        FrameTraceBuilder cnot(table);
        for (std::size_t g = 0; g < n; ++g) {
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t qd = ion(n, 0, g, Role::Data, i);
                const std::size_t qa = ion(n, ac, g, Role::Data, i);
                if (detect_x)
                    cnot.noisyCnot(qd, qa, qa, p_move, noise.gate2Error);
                else
                    cnot.noisyCnot(qa, qd, qa, p_move, noise.gate2Error);
            }
        }
        at(Seg::L2Cnot, 0, 0, 0, detect_x) = cnot.take();
        FrameTraceBuilder readout(table);
        for (std::size_t g = 0; g < n; ++g)
            readout.measureRange(ion(n, ac, g, Role::Data, 0), n,
                                 !detect_x, noise.measureError);
        at(Seg::L2Readout, 0, 0, 0, detect_x) = readout.take();
    }
    for (const int level : {1, 2}) {
        // The noisy transversal logical gate under test.
        FrameTraceBuilder gate(table);
        const std::size_t groups = level == 1 ? 1 : n;
        for (std::size_t g = 0; g < groups; ++g)
            gate.noise1Range(ion(n, 0, g, Role::Data, 0), n,
                             noise.gate1Error);
        at(Seg::LogicalGate, 0, 0, 0, level == 2) = gate.take();
    }
    qla_assert(table.probabilities().size()
                   == classes.probabilities().size(),
               "tile recording registered a class beyond the five fixed "
               "rates");

    // Per-class site counts, fire-plan skeletons and compiled effect
    // models power the planned replay. Unrecorded slots of the sparse
    // trace index space are never replayed (replaySeg asserts) and stay
    // unfinalized.
    for (FrameTrace &t : traces)
        if (!t.ops.empty())
            finalizeTraceClassSites(t, classes);
}

void
BatchedLogicalQubitExperiment::replaySeg(Seg seg, std::size_t c,
                                         std::size_t g, std::size_t role,
                                         bool flag, const LaneSet &active)
{
    // The straight-line clock bank on the straight-line schedule, the
    // retry bank inside retry / conditional subtrees. The choice
    // follows the structural position (retry_), never the mask value:
    // which clock a lane draws from at a given site must be a function
    // of that lane's own control-flow path, or a shot's randomness
    // would depend on which word it shares with whom.
    const FrameTrace &t
        = recording_->traces[traceIndex(n_, seg, c, g, role, flag)];
    qla_assert(!t.ops.empty(), "trace not recorded");
    replayTraceGroup(t, frames_, models_.data(), active.w.data(),
                     active.n, flips_.data(), retry_);
}

//
// Bit-sliced classical decoding (lookupCorrectionWords lives in
// arq/bitslice.h).
//

std::uint64_t
BatchedLogicalQubitExperiment::decodeXLogicalPlane(
    const std::uint64_t *x_words) const
{
    const SyndromePlanes synd = planesOf(false, x_words);
    std::array<std::uint64_t, 32> corr{};
    lookupCorrectionWords(code_, true, synd, z_check_bits_.size(),
                          corr.data());
    std::uint64_t plane = 0;
    for (std::size_t j = 0; j < logical_z_bits_.count; ++j) {
        const std::size_t i = logical_z_bits_.idx[j];
        plane ^= x_words[i] ^ corr[i];
    }
    return plane;
}

//
// Driver building blocks.
//

void
BatchedLogicalQubitExperiment::prepVerified(std::size_t c, std::size_t g,
                                            Role role, bool plus,
                                            const LaneSet &active,
                                            ExperimentStats *stats)
{
    const bool caller_retry = retry_;
    const std::size_t num_checks = plus ? x_check_bits_.size()
                                        : z_check_bits_.size();
    const BitList &logical = plus ? logical_x_bits_ : logical_z_bits_;
    LaneSet mask = active;
    int attempts = 0;
    while (mask.any() && attempts < max_prep_attempts_) {
        ++attempts;
        retry_ = caller_retry || attempts > 1;
        replaySeg(Seg::PrepRound, c, g, static_cast<std::size_t>(role),
                  plus, mask);
        for (std::uint32_t w = 0; w < mask.n; ++w) {
            if (!mask.w[w])
                continue;
            const SyndromePlanes synd = planesOf(plus, flips_[w].data());
            std::uint64_t bad = orPlanes(synd, num_checks);
            bad |= parityPlane(logical, flips_[w].data());
            bad &= mask.w[w];
            const std::uint64_t exited = attempts == max_prep_attempts_
                ? mask.w[w] : (mask.w[w] & ~bad);
            if (stats && exited)
                stats->prepAttempts.addRepeated(attempts,
                                                std::popcount(exited));
            mask.w[w] = bad;
        }
    }
    retry_ = caller_retry;
}

void
BatchedLogicalQubitExperiment::extractSyndrome(std::size_t c,
                                               std::size_t g,
                                               bool detect_x,
                                               const LaneSet &active,
                                               GroupSyndrome &synd,
                                               ExperimentStats *stats)
{
    prepVerified(c, g, Role::Ancilla, detect_x, active, stats);
    replaySeg(Seg::ExtractRound, c, g, 0, detect_x, active);
    std::uint64_t nontrivial = 0;
    std::uint64_t total = 0;
    const std::size_t num_checks = detect_x ? z_check_bits_.size()
                                            : x_check_bits_.size();
    for (std::uint32_t w = 0; w < active.n; ++w) {
        if (!active.w[w])
            continue;
        synd[w] = planesOf(!detect_x, flips_[w].data());
        nontrivial += std::popcount(orPlanes(synd[w], num_checks)
                                    & active.w[w]);
        total += std::popcount(active.w[w]);
    }
    if (stats)
        stats->nontrivialSyndrome.addBulk(nontrivial, total);
}

void
BatchedLogicalQubitExperiment::applyCorrection(std::size_t c,
                                               std::size_t g, Role role,
                                               bool detect_x,
                                               const GroupSyndrome &synd,
                                               const LaneSet &active)
{
    const std::size_t num_checks = detect_x ? code_.zChecks().size()
                                            : code_.xChecks().size();
    for (std::uint32_t w = 0; w < active.n; ++w) {
        if (!active.w[w] || !(orPlanes(synd[w], num_checks) & active.w[w]))
            continue;
        std::array<std::uint64_t, 32> inject{};
        lookupCorrectionWords(code_, detect_x, synd[w], num_checks,
                              inject.data());
        for (std::size_t i = 0; i < n_; ++i) {
            const std::uint64_t lanes = inject[i] & active.w[w];
            if (!lanes)
                continue;
            injectCorrection(w, ion(c, g, role, i), detect_x, lanes);
        }
    }
}

void
BatchedLogicalQubitExperiment::injectCorrection(std::uint32_t w,
                                                std::size_t q, bool x,
                                                std::uint64_t lanes)
{
    // The physical gate can itself fault, on exactly the lanes that
    // applied it. Corrections are rare and data-dependent, so they take
    // one trial of the correction clock each, not a trace plan.
    if (x)
        frames_.injectX(w, q, lanes);
    else
        frames_.injectZ(w, q, lanes);
    BatchedNoiseModel &model = models_[w];
    const std::uint64_t fired = model.correction.trial(lanes, model.lanes);
    if (!fired)
        return;
    const quantum::Pauli1Draw d = quantum::drawPauli1(fired, model.lanes);
    if (d.fx)
        frames_.injectX(w, q, d.fx);
    if (d.fz)
        frames_.injectZ(w, q, d.fz);
}

void
BatchedLogicalQubitExperiment::ecCycleL1(std::size_t c, std::size_t g,
                                         const LaneSet &active,
                                         ExperimentStats *stats)
{
    for (const bool detect_x : {true, false}) {
        const std::size_t num_checks = detect_x ? code_.zChecks().size()
                                                : code_.xChecks().size();
        GroupSyndrome first;
        extractSyndrome(c, g, detect_x, active, first, stats);
        LaneSet repeat;
        repeat.n = active.n;
        for (std::uint32_t w = 0; w < active.n; ++w)
            repeat.w[w] = active.w[w]
                ? (orPlanes(first[w], num_checks) & active.w[w]) : 0;
        if (!repeat.any())
            continue;
        // Non-trivial: extract once more on those lanes and act on the
        // repeat (paper Section 4.1.1 assumption (b)). The second
        // extraction's flips are masked to the repeat lanes, so its
        // planes already select only repeat-lane corrections.
        const bool caller_retry = retry_;
        retry_ = true;
        GroupSyndrome second;
        extractSyndrome(c, g, detect_x, repeat, second, stats);
        retry_ = caller_retry;
        for (std::uint32_t w = 0; w < repeat.n; ++w) {
            if (!repeat.w[w])
                continue;
            for (std::size_t j = 0; j < num_checks; ++j)
                second[w][j] &= repeat.w[w];
        }
        applyCorrection(c, g, Role::Data, detect_x, second, repeat);
    }
}

void
BatchedLogicalQubitExperiment::prepL2AttemptRound(std::size_t c, bool plus,
                                                  LaneSet &mask,
                                                  ExperimentStats *stats)
{
    const std::size_t num_checks = plus ? x_check_bits_.size()
                                        : z_check_bits_.size();
    const BitList &logical = plus ? logical_x_bits_ : logical_z_bits_;
    for (std::size_t g = 0; g < n_; ++g)
        prepVerified(c, g, Role::Data, false, mask, stats);
    replaySeg(Seg::L2Network, c, 0, 0, plus, mask);
    for (std::size_t g = 0; g < n_; ++g)
        ecCycleL1(c, g, mask, stats);

    // Level-2 verification: per sub-block difference readout, inner
    // decode, then the outer syndrome/parity check; "Start Over" on
    // the lanes that fail.
    std::array<std::array<std::uint64_t, 32>, kMaxGroupWords>
        outer_flips{};
    for (std::size_t g = 0; g < n_; ++g) {
        replaySeg(Seg::VerifyPair, c, g,
                  static_cast<std::size_t>(Role::Data), plus, mask);
        for (std::uint32_t w = 0; w < mask.n; ++w) {
            if (!mask.w[w])
                continue;
            const SyndromePlanes synd = planesOf(plus, flips_[w].data());
            std::array<std::uint64_t, 32> corr{};
            lookupCorrectionWords(code_, !plus, synd, num_checks,
                                  corr.data());
            std::uint64_t plane = 0;
            for (std::size_t j = 0; j < logical.count; ++j) {
                const std::size_t i = logical.idx[j];
                plane ^= flips_[w][i] ^ corr[i];
            }
            outer_flips[w][g] = plane & mask.w[w];
        }
    }
    for (std::uint32_t w = 0; w < mask.n; ++w) {
        if (!mask.w[w])
            continue;
        const SyndromePlanes outer_synd
            = planesOf(plus, outer_flips[w].data());
        std::uint64_t bad = orPlanes(outer_synd, num_checks);
        bad |= parityPlane(logical, outer_flips[w].data());
        mask.w[w] &= bad;
    }
}

void
BatchedLogicalQubitExperiment::prepL2Ancilla(std::size_t c, bool plus,
                                             const LaneSet &active,
                                             ExperimentStats *stats)
{
    const bool caller_retry = retry_;
    LaneSet mask = active;
    for (int attempt = 0; attempt < max_prep_attempts_ && mask.any();
         ++attempt) {
        retry_ = caller_retry || attempt > 0;
        if (retry_ && subtree_enabled_ && subtreeWorthwhile(mask)) {
            // "Start Over" rounds on a sparse mask: migrate the
            // surviving lanes into the dense twin and run every
            // remaining attempt there. The round re-prepares everything
            // it reads, so only the final conglomeration-c data rows
            // come back.
            compactL2PrepRetries(c, plus, mask, attempt, stats);
            break;
        }
        prepL2AttemptRound(c, plus, mask, stats);
    }
    retry_ = caller_retry;
}

void
BatchedLogicalQubitExperiment::extractSyndromeL2(bool detect_x,
                                                 const LaneSet &active,
                                                 GroupSyndrome &outer,
                                                 ExperimentStats *stats)
{
    const std::size_t ac = detect_x ? 1 : 2;
    prepL2Ancilla(ac, detect_x, active, stats);
    replaySeg(Seg::L2Cnot, 0, 0, 0, detect_x, active);
    for (std::size_t g = 0; g < n_; ++g) {
        ecCycleL1(0, g, active, stats);
        ecCycleL1(ac, g, active, stats);
    }
    replaySeg(Seg::L2Readout, 0, 0, 0, detect_x, active);

    const std::size_t num_checks = detect_x ? z_check_bits_.size()
                                            : x_check_bits_.size();
    const BitList &logical = detect_x ? logical_z_bits_ : logical_x_bits_;
    std::uint64_t nontrivial = 0;
    std::uint64_t total = 0;
    for (std::uint32_t w = 0; w < active.n; ++w) {
        if (!active.w[w])
            continue;
        std::array<std::uint64_t, 32> outer_flips{};
        for (std::size_t g = 0; g < n_; ++g) {
            const std::uint64_t *block_flips = flips_[w].data() + g * n_;
            const SyndromePlanes synd = planesOf(!detect_x, block_flips);
            std::array<std::uint64_t, 32> corr{};
            lookupCorrectionWords(code_, detect_x, synd, num_checks,
                                  corr.data());
            std::uint64_t plane = 0;
            for (std::size_t j = 0; j < logical.count; ++j) {
                const std::size_t i = logical.idx[j];
                plane ^= block_flips[i] ^ corr[i];
            }
            outer_flips[g] = plane & active.w[w];
        }
        outer[w] = planesOf(!detect_x, outer_flips.data());
        nontrivial += std::popcount(orPlanes(outer[w], num_checks)
                                    & active.w[w]);
        total += std::popcount(active.w[w]);
    }
    if (stats)
        stats->nontrivialSyndrome.addBulk(nontrivial, total);
}

void
BatchedLogicalQubitExperiment::ecCycleL2(const LaneSet &active,
                                         ExperimentStats *stats)
{
    for (const bool detect_x : {true, false}) {
        const std::size_t num_checks = detect_x ? code_.zChecks().size()
                                                : code_.xChecks().size();
        GroupSyndrome first;
        extractSyndromeL2(detect_x, active, first, stats);
        LaneSet repeat;
        repeat.n = active.n;
        for (std::uint32_t w = 0; w < active.n; ++w)
            repeat.w[w] = active.w[w]
                ? (orPlanes(first[w], num_checks) & active.w[w]) : 0;
        if (!repeat.any())
            continue;
        retry_ = true;
        GroupSyndrome second;
        if (subtree_enabled_ && subtreeWorthwhile(repeat))
            compactExtractL2(detect_x, repeat, second, stats);
        else
            extractSyndromeL2(detect_x, repeat, second, stats);
        retry_ = false;
        for (std::uint32_t w = 0; w < repeat.n; ++w) {
            if (!repeat.w[w])
                continue;
            for (std::size_t j = 0; j < num_checks; ++j)
                second[w][j] &= repeat.w[w];
            if (!orPlanes(second[w], num_checks))
                continue;
            // Logical Pauli corrections: sub-block g of each selected
            // lane receives a transversal physical Pauli, faults
            // included.
            std::array<std::uint64_t, 32> blocks{};
            lookupCorrectionWords(code_, detect_x, second[w], num_checks,
                                  blocks.data());
            for (std::size_t g = 0; g < n_; ++g) {
                const std::uint64_t lanes = blocks[g] & repeat.w[w];
                if (!lanes)
                    continue;
                for (std::size_t i = 0; i < n_; ++i)
                    injectCorrection(w, ion(0, g, Role::Data, i),
                                     detect_x, lanes);
            }
        }
    }
}

//
// Subtree regrouping via the dense twin experiment.
//

bool
BatchedLogicalQubitExperiment::subtreeWorthwhile(const LaneSet &mask) const
{
    if (!options_.laneCompaction)
        return false;
    const std::uint32_t words = mask.activeWords();
    if (words < 2)
        return false;
    // One migration amortizes over thousands of subtree ops, so any
    // reduction in replayed words pays for it.
    const std::uint64_t dense = (mask.count() + kBatchLanes - 1)
        / kBatchLanes;
    return dense < words;
}

BatchedLogicalQubitExperiment &
BatchedLogicalQubitExperiment::twin()
{
    if (!twin_) {
        // A migration regroups at most groupWords * 64 lanes, so the
        // twin never needs more dense words than the parent has. It
        // binds to this experiment's recording and class table, so
        // class ids coincide and sampler clocks transplant
        // index-for-index.
        twin_.reset(new BatchedLogicalQubitExperiment(
            code_, max_prep_attempts_, options_,
            Binding{classes_, recording_}));
        twin_->subtree_enabled_ = false;
    }
    return *twin_;
}

SegmentPool &
BatchedLogicalQubitExperiment::twinPool()
{
    if (!twin_pool_)
        twin_pool_ = std::make_unique<SegmentPool>();
    return *twin_pool_;
}

void
BatchedLogicalQubitExperiment::compactL2PrepRetries(std::size_t c,
                                                    bool plus,
                                                    const LaneSet &mask,
                                                    int first_attempt,
                                                    ExperimentStats *stats)
{
    BatchedLogicalQubitExperiment &tw = twin();
    SegmentPool &pool = twinPool();
    pool.plan(mask);
    // The attempt round re-prepares every row it reads, so nothing
    // needs gathering in; only lane identity migrates.
    for (std::size_t k = 0; k < pool.chunkCount(); ++k)
        pool.transplantIn(k, models_, tw.models_[k]);
    LaneSet dense = pool.denseSet();
    const bool twin_retry = tw.retry_;
    tw.retry_ = true;
    for (int attempt = first_attempt;
         attempt < max_prep_attempts_ && dense.any(); ++attempt)
        tw.prepL2AttemptRound(c, plus, dense, stats);
    tw.retry_ = twin_retry;
    // Only the prepared conglomeration's data rows survive the round
    // (ancilla and verify rows are re-encoded before every later use).
    for (std::size_t k = 0; k < pool.chunkCount(); ++k) {
        for (std::size_t g = 0; g < n_; ++g)
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t q = ion(c, g, Role::Data, i);
                pool.scatterRow(k, frames_, q, tw.frames_, k, q);
            }
        pool.transplantOut(k, models_, tw.models_[k]);
    }
}

void
BatchedLogicalQubitExperiment::compactExtractL2(bool detect_x,
                                                const LaneSet &repeat,
                                                GroupSyndrome &outer,
                                                ExperimentStats *stats)
{
    BatchedLogicalQubitExperiment &tw = twin();
    SegmentPool &pool = twinPool();
    pool.plan(repeat);
    // The repeated extraction reads and rewrites the data
    // conglomeration; everything else it touches is freshly prepared
    // inside the subtree.
    for (std::size_t k = 0; k < pool.chunkCount(); ++k) {
        pool.transplantIn(k, models_, tw.models_[k]);
        for (std::size_t g = 0; g < n_; ++g)
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t q = ion(0, g, Role::Data, i);
                pool.gatherRow(k, frames_, q, tw.frames_, k, q);
            }
    }

    const LaneSet dense = pool.denseSet();
    const bool twin_retry = tw.retry_;
    tw.retry_ = true;
    GroupSyndrome twin_outer;
    tw.extractSyndromeL2(detect_x, dense, twin_outer, stats);
    tw.retry_ = twin_retry;

    // Scatter the outer syndrome planes back to home lane positions.
    const std::size_t num_checks = detect_x ? z_check_bits_.size()
                                            : x_check_bits_.size();
    for (std::uint32_t w = 0; w < repeat.n; ++w)
        if (repeat.w[w])
            outer[w] = SyndromePlanes{};
    for (std::size_t k = 0; k < pool.chunkCount(); ++k) {
        for (std::size_t j = 0; j < num_checks; ++j)
            pool.scatterPlane(k, twin_outer[k][j], &outer[0][j],
                              std::tuple_size_v<SyndromePlanes>);
        for (std::size_t g = 0; g < n_; ++g)
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t q = ion(0, g, Role::Data, i);
                pool.scatterRow(k, frames_, q, tw.frames_, k, q);
            }
        pool.transplantOut(k, models_, tw.models_[k]);
    }
}

std::uint64_t
BatchedLogicalQubitExperiment::decodeLevel1Word(std::uint32_t word,
                                                std::size_t c,
                                                std::size_t g,
                                                Role role) const
{
    // Only residual logical-X frames count for the |0>_L input; see the
    // scalar decodeLevel1 for the gauge argument.
    std::array<std::uint64_t, 32> xm{};
    for (std::size_t i = 0; i < n_; ++i)
        xm[i] = frames_.xWord(word, ion(c, g, role, i));
    return decodeXLogicalPlane(xm.data());
}

std::uint64_t
BatchedLogicalQubitExperiment::decodeLevel2Word(std::uint32_t word) const
{
    std::array<std::uint64_t, 32> outer{};
    for (std::size_t g = 0; g < n_; ++g)
        outer[g] = decodeLevel1Word(word, 0, g, Role::Data);
    return decodeXLogicalPlane(outer.data());
}

LaneSet
BatchedLogicalQubitExperiment::runShots(int level, const LaneSet &active,
                                        ExperimentStats *stats)
{
    qla_assert(level == 1 || level == 2, "levels 1 and 2 are supported");
    qla_assert(active.n <= options_.groupWords);
    retry_ = false;
    // Perfectly encoded |0>_L input on every lane of the words this
    // batch occupies (stale words beyond active.n are never read).
    frames_.reset(active.n);

    replaySeg(Seg::LogicalGate, 0, 0, 0, level == 2, active);
    LaneSet failed;
    failed.n = active.n;
    if (level == 1) {
        ecCycleL1(0, 0, active, stats);
        for (std::uint32_t w = 0; w < active.n; ++w)
            failed.w[w] = active.w[w]
                ? (decodeLevel1Word(w, 0, 0, Role::Data) & active.w[w])
                : 0;
        return failed;
    }
    ecCycleL2(active, stats);
    for (std::uint32_t w = 0; w < active.n; ++w)
        failed.w[w] = active.w[w]
            ? (decodeLevel2Word(w) & active.w[w]) : 0;
    return failed;
}

sim::RateStat
BatchedLogicalQubitExperiment::failureRate(int level, std::size_t shots,
                                           std::uint64_t seed,
                                           ExperimentStats *stats)
{
    return failureRateRange(level, 0, shots, seed, stats);
}

sim::RateStat
BatchedLogicalQubitExperiment::failureRateRange(int level,
                                                std::uint64_t first_shot,
                                                std::size_t count,
                                                std::uint64_t seed,
                                                ExperimentStats *stats)
{
    sim::RateStat rate;
    const RngFamily family(seed);
    const std::size_t capacity = options_.groupWords * kBatchLanes;
    std::size_t done = 0;
    while (done < count) {
        const std::size_t batch = std::min(capacity, count - done);
        LaneSet active;
        active.n = static_cast<std::uint32_t>(
            (batch + kBatchLanes - 1) / kBatchLanes);
        for (std::uint32_t w = 0; w < active.n; ++w) {
            active.w[w] = denseLaneMask(std::min<std::size_t>(
                kBatchLanes, batch - w * kBatchLanes));
            models_[w].rearm(family,
                             first_shot + done + w * kBatchLanes);
        }
        const LaneSet failed = runShots(level, active, stats);
        const std::uint64_t num_failed = failed.count();
        rate.addBulk(num_failed, batch);
        if (stats)
            stats->logicalFailure.addBulk(num_failed, batch);
        done += batch;
    }
    return rate;
}

} // namespace qla::arq
