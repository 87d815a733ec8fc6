#include "arq/batched_monte_carlo.h"

#include <algorithm>
#include <bit>

#include "arq/lane_compaction.h"
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

BatchedLogicalQubitExperiment::BatchedLogicalQubitExperiment(
    const ecc::CssCode &code, NoiseParameters noise, LayoutDistances layout,
    int max_prep_attempts, BatchOptions options)
    : code_(code), noise_(noise), layout_(layout),
      max_prep_attempts_(max_prep_attempts), options_(options),
      n_(code.blockLength()), rows_(code_, noise_, layout_),
      frames_(3 * code.blockLength() * code.blockLength() * 3,
              options.groupWords)
{
    qla_assert(max_prep_attempts_ >= 1);
    qla_assert(options_.groupWords >= 1
                   && options_.groupWords <= kMaxGroupWords,
               "groupWords must be in [1, ", kMaxGroupWords, "]");
    qla_assert(n_ <= 32, "bit-sliced decode supports block length <= 32");
    qla_assert(code_.xChecks().size() <= 8 && code_.zChecks().size() <= 8,
               "bit-sliced decode supports <= 8 check rows");
    for (const ecc::QubitMask row : code_.xChecks())
        x_check_bits_.push_back(bitListOf(row));
    for (const ecc::QubitMask row : code_.zChecks())
        z_check_bits_.push_back(bitListOf(row));
    logical_x_bits_ = bitListOf(code_.logicalX());
    logical_z_bits_ = bitListOf(code_.logicalZ());

    const NoiseClassTable &table = recordAllTraces();
    models_.reserve(options_.groupWords);
    for (std::size_t w = 0; w < options_.groupWords; ++w) {
        models_.emplace_back(table);
        flips_[w].reserve(n_ * n_);
    }
    retry_pool_ = std::make_unique<PrepRetryPool>(
        code_, rows_, max_prep_attempts_, classes_, shadow_of_primary_);
}

BatchedLogicalQubitExperiment::~BatchedLogicalQubitExperiment() = default;

std::size_t
BatchedLogicalQubitExperiment::ion(std::size_t c, std::size_t g, Role role,
                                   std::size_t i) const
{
    qla_assert(c < 3 && g < n_ && i < n_);
    return ((c * n_ + g) * 3 + static_cast<std::size_t>(role)) * n_ + i;
}

//
// Trace recording. Each recorder mirrors its scalar twin in
// monte_carlo.cc operation for operation; only the execution strategy
// differs (emit once here, replay word-parallel later). The row-level
// prep/verify segments live in TileRowRecorder, shared with the
// lane-compaction pool so the relocated retry traces can never drift
// from these.
//

std::size_t
BatchedLogicalQubitExperiment::traceIndex(Seg seg, std::size_t c,
                                          std::size_t g, std::size_t role,
                                          bool flag) const
{
    return ((((static_cast<std::size_t>(seg) * 3 + c) * n_ + g) * 3 + role)
            << 1)
        | static_cast<std::size_t>(flag);
}

const NoiseClassTable &
BatchedLogicalQubitExperiment::recordAllTraces()
{
    // Register the fixed fault classes up front so the class ids are
    // stable before any trace is recorded.
    classes_.classOf(noise_.gate1Error);
    classes_.classOf(noise_.gate2Error);
    classes_.classOf(noise_.measureError);
    classes_.classOf(rows_.moveProbability(layout_.intraBlockCells,
                                           layout_.intraBlockTurns));
    classes_.classOf(rows_.interBlockMoveProbability());

    traces_[0].resize(traceIndex(Seg::LogicalGate, 2, n_ - 1, 2, true)
                      + 1);
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t g = 0; g < n_; ++g) {
            for (const Role role : {Role::Data, Role::Ancilla}) {
                const std::size_t q0
                    = ion(c, g, role, 0);
                const std::size_t v0 = ion(c, g, Role::Verify, 0);
                for (const bool plus : {false, true}) {
                    FrameTraceBuilder prep(classes_);
                    rows_.prepRound(prep, q0, v0, plus);
                    traces_[0][traceIndex(Seg::PrepRound, c, g,
                                          static_cast<std::size_t>(role),
                                          plus)] = prep.take();
                    FrameTraceBuilder pair(classes_);
                    rows_.verifyPair(pair, q0, v0, plus);
                    traces_[0][traceIndex(Seg::VerifyPair, c, g,
                                          static_cast<std::size_t>(role),
                                          plus)] = pair.take();
                }
            }
            for (const bool detect_x : {false, true}) {
                FrameTraceBuilder ext(classes_);
                rows_.extractRound(ext, ion(c, g, Role::Data, 0),
                                   ion(c, g, Role::Ancilla, 0), detect_x);
                traces_[0][traceIndex(Seg::ExtractRound, c, g, 0,
                                      detect_x)] = ext.take();
            }
        }
        for (const bool plus : {false, true}) {
            FrameTraceBuilder net(classes_);
            rows_.l2Network(net, ion(c, 0, Role::Data, 0), 3 * n_, plus);
            traces_[0][traceIndex(Seg::L2Network, c, 0, 0, plus)]
                = net.take();
        }
    }
    for (const bool detect_x : {false, true}) {
        FrameTraceBuilder cnot(classes_);
        recordL2Cnot(cnot, detect_x);
        traces_[0][traceIndex(Seg::L2Cnot, 0, 0, 0, detect_x)]
            = cnot.take();
        FrameTraceBuilder readout(classes_);
        recordL2Readout(readout, detect_x);
        traces_[0][traceIndex(Seg::L2Readout, 0, 0, 0, detect_x)]
            = readout.take();
    }
    for (const int level : {1, 2}) {
        FrameTraceBuilder gate(classes_);
        recordLogicalGate(gate, level);
        traces_[0][traceIndex(Seg::LogicalGate, 0, 0, 0, level == 2)]
            = gate.take();
    }

    // A shadow class space over the same probabilities: retry /
    // conditional-path replays get samplers of their own and never park
    // and unpark the full-width samplers' lane clocks.
    const std::size_t primary_classes = classes_.probabilities().size();
    shadow_of_primary_.resize(primary_classes);
    for (std::size_t k = 0; k < primary_classes; ++k)
        shadow_of_primary_[k]
            = classes_.newClass(classes_.probabilities()[k]);
    cls_corr_ = shadow_of_primary_[classes_.classOf(noise_.gate1Error)];
    traces_[1].resize(traces_[0].size());
    for (std::size_t t = 0; t < traces_[0].size(); ++t) {
        FrameTrace twin = traces_[0][t];
        for (FrameOp &op : twin.ops) {
            switch (op.kind) {
              case FrameOp::Kind::Noise1:
              case FrameOp::Kind::Noise2:
              case FrameOp::Kind::MeasureZ:
              case FrameOp::Kind::MeasureX:
              case FrameOp::Kind::NoisyH:
              case FrameOp::Kind::Noise1Range:
              case FrameOp::Kind::MeasureZRange:
              case FrameOp::Kind::MeasureXRange:
                op.cls = shadow_of_primary_[op.cls];
                break;
              case FrameOp::Kind::NoisyCnotMT:
              case FrameOp::Kind::NoisyCnotMC:
                op.cls = shadow_of_primary_[op.cls];
                op.cls2 = shadow_of_primary_[op.cls2];
                break;
              case FrameOp::Kind::NoisyCnotMTMeasZ:
              case FrameOp::Kind::NoisyCnotMTMeasX:
              case FrameOp::Kind::NoisyCnotMCMeasZ:
              case FrameOp::Kind::NoisyCnotMCMeasX:
                op.cls = shadow_of_primary_[op.cls];
                op.cls2 = shadow_of_primary_[op.cls2];
                op.cls3 = shadow_of_primary_[op.cls3];
                break;
              default:
                break;
            }
        }
        traces_[1][t] = std::move(twin);
    }

    // Per-class site counts and fire-plan skeletons power the planned
    // replay; finalize after the shadow classes so
    // every class id is covered. Unrecorded slots of the sparse trace
    // index space finalize to all-zero counts and empty skeletons.
    for (auto &variant : traces_)
        for (FrameTrace &t : variant)
            finalizeTraceClassSites(t, classes_);
    return classes_;
}

void
BatchedLogicalQubitExperiment::recordL2Cnot(FrameTraceBuilder &tb,
                                            bool detect_x)
{
    const std::size_t ac = detect_x ? 1 : 2;
    const double p_move = rows_.interBlockMoveProbability();
    for (std::size_t g = 0; g < n_; ++g) {
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t qd = ion(0, g, Role::Data, i);
            const std::size_t qa = ion(ac, g, Role::Data, i);
            if (detect_x)
                tb.noisyCnot(qd, qa, qa, p_move, noise_.gate2Error);
            else
                tb.noisyCnot(qa, qd, qa, p_move, noise_.gate2Error);
        }
    }
}

void
BatchedLogicalQubitExperiment::recordL2Readout(FrameTraceBuilder &tb,
                                               bool detect_x)
{
    const std::size_t ac = detect_x ? 1 : 2;
    for (std::size_t g = 0; g < n_; ++g)
        tb.measureRange(ion(ac, g, Role::Data, 0), n_, !detect_x,
                        noise_.measureError);
}

void
BatchedLogicalQubitExperiment::recordLogicalGate(FrameTraceBuilder &tb,
                                                 int level)
{
    const std::size_t groups = level == 1 ? 1 : n_;
    for (std::size_t g = 0; g < groups; ++g)
        tb.noise1Range(ion(0, g, Role::Data, 0), n_, noise_.gate1Error);
}

void
BatchedLogicalQubitExperiment::replaySeg(Seg seg, std::size_t c,
                                         std::size_t g, std::size_t role,
                                         bool flag, const LaneSet &active)
{
    // Primary classes on the straight-line schedule, the shadow twins
    // inside retry / conditional subtrees. The choice follows the
    // structural position (shadow_), never the mask value: which
    // sampler a lane draws from at a given site must be a function of
    // that lane's own control-flow path, or a shot's randomness would
    // depend on which word it shares with whom.
    const FrameTrace &t = traces_[shadow_ ? 1 : 0]
                                 [traceIndex(seg, c, g, role, flag)];
    qla_assert(!t.ops.empty(), "trace not recorded");
    replayTraceGroup(t, frames_, models_.data(), active.w.data(),
                     active.n, flips_.data());
}

//
// Bit-sliced classical decoding (lookupCorrectionWords shared with the
// segment pool in arq/bitslice.h).
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

bool
BatchedLogicalQubitExperiment::compactionWorthwhile(const LaneSet &mask,
                                                    std::size_t sites) const
{
    if (!options_.laneCompaction)
        return false;
    const std::uint32_t words = mask.activeWords();
    if (words < 2)
        return false;
    // Cost gate: a dense replay saves (words - dense) word replays per
    // site per attempt, while the one-off transplant in/out costs
    // O(migrated lanes). Compact only when the saving clearly wins; the
    // factor approximates (replayed ops per saved word) / (transplant
    // ops per lane), calibrated on the Figure-7 tail.
    const std::uint64_t count = mask.count();
    const std::uint64_t dense = (count + kBatchLanes - 1) / kBatchLanes;
    return (words - dense) * sites * 16 >= count;
}

bool
BatchedLogicalQubitExperiment::segmentWorthwhile(const LaneSet &mask,
                                                 std::size_t ops_scale) const
{
    if (!options_.laneCompaction)
        return false;
    const std::uint32_t words = mask.activeWords();
    if (words < 2)
        return false;
    const std::uint64_t count = mask.count();
    const std::uint64_t dense = (count + kBatchLanes - 1) / kBatchLanes;
    if (dense >= words)
        return false; // regrouping would not drop a single word replay
    // Fill-fraction gate against the *saved* words: migration saves
    // (words - dense) word replays of a segment worth ops_scale
    // prep-round equivalents, while the transplant costs O(migrated
    // lanes) -- so the gate compares the lane count with the saved
    // replay volume, scaled by the tunable threshold.
    return static_cast<double>(count)
        < options_.migrationFillThreshold
              * static_cast<double>(words - dense)
              * static_cast<double>(ops_scale)
              * static_cast<double>(kBatchLanes);
}

void
BatchedLogicalQubitExperiment::prepVerified(std::size_t c, std::size_t g,
                                            Role role, bool plus,
                                            const LaneSet &active,
                                            ExperimentStats *stats)
{
    const bool caller_shadow = shadow_;
    const std::size_t num_checks = plus ? x_check_bits_.size()
                                        : z_check_bits_.size();
    const BitList &logical = plus ? logical_x_bits_ : logical_z_bits_;
    LaneSet mask = active;
    int attempts = 0;
    while (mask.any() && attempts < max_prep_attempts_) {
        ++attempts;
        shadow_ = caller_shadow || attempts > 1;
        if (shadow_ && compactionWorthwhile(mask, 1)) {
            // Sparse retry (or sparse re-extraction subtree): regroup
            // the surviving lanes into dense words and finish their
            // attempts there. Draw-for-draw identical to replaying in
            // place -- see arq/lane_compaction.h.
            retry_pool_->runRetries(plus, mask, attempts, frames_,
                                    models_, ion(c, g, role, 0), stats);
            shadow_ = caller_shadow;
            return;
        }
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
    shadow_ = caller_shadow;
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
            const std::size_t q = ion(c, g, role, i);
            // Fold the Pauli correction into the frame; the physical
            // gate can itself fault, on exactly the lanes that applied
            // it. Corrections are rare and data-dependent, so they draw
            // from the per-site shadow sampler, not a trace plan.
            if (detect_x)
                frames_.injectX(w, q, lanes);
            else
                frames_.injectZ(w, q, lanes);
            quantum::depolarize1(frames_, w, q,
                                 models_[w].samplers[cls_corr_],
                                 models_[w].lanes, lanes);
        }
    }
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
        // planes already select only repeat-lane corrections. A sparse
        // repeat migrates through the segment pool: ancilla prep and
        // extract round replay dense, one transplant of the data row
        // per repeat, draw-for-draw identical to replaying in place.
        const bool caller_shadow = shadow_;
        shadow_ = true;
        GroupSyndrome second;
        if (segmentWorthwhile(repeat, 1))
            retry_pool_->runExtract(detect_x, repeat,
                                    ion(c, g, Role::Data, 0), frames_,
                                    models_, second.data(), stats);
        else
            extractSyndrome(c, g, detect_x, repeat, second, stats);
        shadow_ = caller_shadow;
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
    std::array<std::size_t, 32> sites;
    for (std::size_t g = 0; g < n_; ++g)
        sites[g] = ion(c, g, Role::Data, 0);
    if (shadow_ && compactionWorthwhile(mask, n_)) {
        // The per-group preps of one attempt share this mask, so one
        // transplant serves all of them -- profitable even at the
        // moderate fills of a "Start Over" round.
        retry_pool_->runPrepSeries(false, mask, sites.data(), n_,
                                   frames_, models_, stats);
    } else {
        for (std::size_t g = 0; g < n_; ++g)
            prepVerified(c, g, Role::Data, false, mask, stats);
    }
    if (shadow_ && segmentWorthwhile(mask, 4))
        retry_pool_->runNetwork(plus, mask, sites.data(), n_, frames_,
                                models_);
    else
        replaySeg(Seg::L2Network, c, 0, 0, plus, mask);
    for (std::size_t g = 0; g < n_; ++g)
        ecCycleL1(c, g, mask, stats);

    // Level-2 verification: per sub-block difference readout, inner
    // decode, then the outer syndrome/parity check; "Start Over" on
    // the lanes that fail.
    std::array<std::array<std::uint64_t, 32>, kMaxGroupWords>
        outer_flips{};
    if (shadow_ && segmentWorthwhile(mask, 3)) {
        // One transplant amortizes over the n_ verification sites.
        retry_pool_->runVerifySeries(plus, mask, sites.data(), n_,
                                     frames_, models_,
                                     outer_flips.data());
    } else {
        for (std::size_t g = 0; g < n_; ++g) {
            replaySeg(Seg::VerifyPair, c, g,
                      static_cast<std::size_t>(Role::Data), plus, mask);
            for (std::uint32_t w = 0; w < mask.n; ++w) {
                if (!mask.w[w])
                    continue;
                const SyndromePlanes synd = planesOf(plus,
                                                     flips_[w].data());
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
    const bool caller_shadow = shadow_;
    LaneSet mask = active;
    for (int attempt = 0; attempt < max_prep_attempts_ && mask.any();
         ++attempt) {
        shadow_ = caller_shadow || attempt > 0;
        if (shadow_ && subtree_enabled_ && subtreeWorthwhile(mask)) {
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
    shadow_ = caller_shadow;
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
        shadow_ = true;
        GroupSyndrome second;
        if (subtree_enabled_ && subtreeWorthwhile(repeat))
            compactExtractL2(detect_x, repeat, second, stats);
        else
            extractSyndromeL2(detect_x, repeat, second, stats);
        shadow_ = false;
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
                for (std::size_t i = 0; i < n_; ++i) {
                    const std::size_t q = ion(0, g, Role::Data, i);
                    if (detect_x)
                        frames_.injectX(w, q, lanes);
                    else
                        frames_.injectZ(w, q, lanes);
                    quantum::depolarize1(frames_, w, q,
                                         models_[w].samplers[cls_corr_],
                                         models_[w].lanes, lanes);
                }
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
        // twin never needs more dense words than the parent has.
        twin_ = std::make_unique<BatchedLogicalQubitExperiment>(
            code_, noise_, layout_, max_prep_attempts_, options_);
        twin_->subtree_enabled_ = false;
        // The twin records the identical schedule from the identical
        // noise table, so class ids coincide and sampler clocks
        // transplant index-for-index.
        qla_assert(twin_->shadow_of_primary_ == shadow_of_primary_);
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

SamplerClassMap
BatchedLogicalQubitExperiment::twinClassMap() const
{
    // The subtree replays shadow sites only, so the lanes'
    // primary-class clocks stay home untouched: only the shadow
    // classes migrate, index-for-index (identity map -- the twin
    // records the identical schedule from the identical noise table).
    return {shadow_of_primary_.data(), shadow_of_primary_.data(),
            shadow_of_primary_.size()};
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
    const SamplerClassMap twin_map = twinClassMap();
    // The attempt round re-prepares every row it reads, so nothing
    // needs gathering in; only lane identity migrates.
    for (std::size_t k = 0; k < pool.chunkCount(); ++k)
        pool.transplantIn(k, models_, tw.models_[k], twin_map);
    LaneSet dense = pool.denseSet();
    const bool twin_shadow = tw.shadow_;
    tw.shadow_ = true;
    for (int attempt = first_attempt;
         attempt < max_prep_attempts_ && dense.any(); ++attempt)
        tw.prepL2AttemptRound(c, plus, dense, stats);
    tw.shadow_ = twin_shadow;
    // Only the prepared conglomeration's data rows survive the round
    // (ancilla and verify rows are re-encoded before every later use).
    for (std::size_t k = 0; k < pool.chunkCount(); ++k) {
        for (std::size_t g = 0; g < n_; ++g)
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t q = ion(c, g, Role::Data, i);
                pool.scatterRow(k, frames_, q, tw.frames_, k, q);
            }
        pool.transplantOut(k, models_, tw.models_[k], twin_map);
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
    const SamplerClassMap twin_map = twinClassMap();
    for (std::size_t k = 0; k < pool.chunkCount(); ++k) {
        pool.transplantIn(k, models_, tw.models_[k], twin_map);
        for (std::size_t g = 0; g < n_; ++g)
            for (std::size_t i = 0; i < n_; ++i) {
                const std::size_t q = ion(0, g, Role::Data, i);
                pool.gatherRow(k, frames_, q, tw.frames_, k, q);
            }
    }

    const LaneSet dense = pool.denseSet();
    const bool twin_shadow = tw.shadow_;
    tw.shadow_ = true;
    GroupSyndrome twin_outer;
    tw.extractSyndromeL2(detect_x, dense, twin_outer, stats);
    tw.shadow_ = twin_shadow;

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
        pool.transplantOut(k, models_, tw.models_[k], twin_map);
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
    shadow_ = false;
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
