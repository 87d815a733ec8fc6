#include "arq/frame_trace.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace qla::arq {

namespace {

/** Qubit index narrowed to the packed-op width. */
std::uint16_t
q16(std::size_t q)
{
    qla_assert(q <= 0xffff, "qubit index exceeds packed trace width");
    return static_cast<std::uint16_t>(q);
}

/**
 * Compile the trace's linear-effect model (TraceEffects): a forward
 * pass over the op stream numbers sampler sites in replay order and
 * assigns local indices to touched qubits; a backward influence pass
 * then computes, for each qubit's X and Z components, the set of
 * downstream targets (measurement flips and output-frame coordinates)
 * an injection at the current point toggles. Passing a site records
 * the influence of its injected components; reaching the top records
 * the influence of the input frame itself -- qubits the trace resets
 * before use drop out automatically.
 */
TraceEffects
compileTraceEffects(const FrameTrace &trace)
{
    using K = FrameOp::Kind;
    TraceEffects fx;
    fx.classSiteIds.assign(trace.classSites.size(), {});

    std::vector<std::int32_t> localOf;
    const auto touch = [&](std::uint16_t q) {
        if (localOf.size() <= q)
            localOf.resize(q + std::size_t{1}, -1);
        if (localOf[q] < 0) {
            localOf[q] = static_cast<std::int32_t>(fx.qubitOf.size());
            fx.qubitOf.push_back(q);
        }
    };
    std::uint32_t nm = 0;
    for (const FrameOp &op : trace.ops) {
        touch(op.a);
        const bool two = op.kind == K::Cnot || op.kind == K::Cz
                         || op.kind == K::Swap || op.kind == K::Noise2;
        if (two)
            touch(op.b);
        if (!op.isSite())
            continue;
        TraceEffects::Site site;
        site.cls = op.cls;
        if (op.kind == K::Noise1) {
            site.kind = TraceEffects::kNoise1;
        } else if (op.kind == K::Noise2) {
            site.kind = TraceEffects::kNoise2;
        } else {
            site.kind = TraceEffects::kReadout;
            site.meas = static_cast<std::uint16_t>(nm++);
        }
        fx.classSiteIds[op.cls].push_back(
            static_cast<std::uint32_t>(fx.sites.size()));
        fx.sites.push_back(site);
    }
    // A fire key packs the site id above the six lane bits.
    qla_assert(fx.sites.size() < (std::size_t{1} << 26),
               "trace has too many sites to key fires");
    qla_assert(nm == trace.numMeasurements,
               "effect compiler saw ", nm, " measurements, trace has ",
               trace.numMeasurements);
    for (std::size_t c = 0; c < trace.classSites.size(); ++c)
        qla_assert(fx.classSiteIds[c].size() == trace.classSites[c],
                   "effect compiler site count drifted for class ", c);

    const auto nt = static_cast<std::uint32_t>(fx.qubitOf.size());
    fx.numMeas = nm;
    fx.numTargets = nm + 2 * nt;
    qla_assert(fx.numTargets <= 0xffff, "trace too wide to compile");

    // Backward influence pass. Row 2l is the X component of touched
    // qubit l, row 2l + 1 its Z component; each row is a bitset over
    // target ids. Initialized to the identity (a component injected at
    // the very end lands on its own output coordinate).
    const std::size_t ew = (fx.numTargets + std::size_t{63}) / 64;
    std::vector<std::uint64_t> infl(2 * std::size_t{nt} * ew, 0);
    const auto row = [&](std::size_t coord) {
        return infl.data() + coord * ew;
    };
    const auto setBit = [&](std::uint64_t *r, std::uint32_t t) {
        r[t >> 6] |= std::uint64_t{1} << (t & 63);
    };
    const auto xorRow = [&](std::uint64_t *d, const std::uint64_t *s) {
        for (std::size_t i = 0; i < ew; ++i)
            d[i] ^= s[i];
    };
    const auto swapRow = [&](std::uint64_t *a, std::uint64_t *b) {
        for (std::size_t i = 0; i < ew; ++i)
            std::swap(a[i], b[i]);
    };
    const auto clearRow = [&](std::uint64_t *r) {
        std::fill_n(r, ew, 0);
    };
    const auto makeRec = [&](const std::uint64_t *r) {
        TraceEffects::Rec rec;
        rec.off = static_cast<std::uint32_t>(fx.pool.size());
        for (std::size_t w = 0; w < ew; ++w)
            for (std::uint64_t bits = r[w]; bits; bits &= bits - 1)
                fx.pool.push_back(static_cast<std::uint16_t>(
                    w * 64 + std::countr_zero(bits)));
        rec.len = static_cast<std::uint16_t>(fx.pool.size() - rec.off);
        return rec;
    };
    for (std::uint32_t l = 0; l < nt; ++l) {
        setBit(row(2 * std::size_t{l}), nm + 2 * l);
        setBit(row(2 * std::size_t{l} + 1), nm + 2 * l + 1);
    }
    // Walking backwards, sites are met in reverse numbering order.
    std::size_t site = fx.sites.size();
    const auto rows = [&](std::uint16_t q) {
        return row(2 * static_cast<std::size_t>(localOf[q]));
    };
    for (auto it = trace.ops.rbegin(); it != trace.ops.rend(); ++it) {
        const FrameOp &op = *it;
        std::uint64_t *xa = rows(op.a);
        std::uint64_t *za = xa + ew;
        switch (op.kind) {
          case K::H:
            // X before H acts as Z after it, and vice versa.
            swapRow(xa, za);
            break;
          case K::S:
            // S X S^ = Y = X Z (phases are invisible to the frame).
            xorRow(xa, za);
            break;
          case K::Cnot:
            // X_a -> X_a X_b, Z_b -> Z_a Z_b.
            xorRow(xa, rows(op.b));
            xorRow(rows(op.b) + ew, za);
            break;
          case K::Cz:
            // X_a -> X_a Z_b, X_b -> X_b Z_a.
            xorRow(xa, rows(op.b) + ew);
            xorRow(rows(op.b), za);
            break;
          case K::Swap:
            swapRow(xa, rows(op.b));
            swapRow(za, rows(op.b) + ew);
            break;
          case K::Reset:
            // Anything injected before a reset dies there.
            clearRow(xa);
            clearRow(za);
            break;
          case K::MeasureZ:
          case K::MeasureX:
            // The readout records the measured component and clears the
            // qubit's frame, so an injection before it reaches exactly
            // the one flip word (or nothing, for the other component).
            clearRow(xa);
            clearRow(za);
            setBit(op.kind == K::MeasureX ? za : xa, fx.sites[--site].meas);
            break;
          case K::Noise1:
          case K::Noise2: {
            TraceEffects::Site &s = fx.sites[--site];
            s.xa = makeRec(xa);
            s.za = makeRec(za);
            if (op.kind == K::Noise2) {
                s.xb = makeRec(rows(op.b));
                s.zb = makeRec(rows(op.b) + ew);
            }
            break;
          }
        }
    }
    // What survives to the top is the input frame's own influence.
    for (std::uint32_t l = 0; l < nt; ++l) {
        const std::uint64_t *rx = row(2 * std::size_t{l});
        const std::uint64_t *rz = row(2 * std::size_t{l} + 1);
        bool any = false;
        for (std::size_t i = 0; i < ew; ++i)
            any = any || rx[i] || rz[i];
        if (!any)
            continue;
        TraceEffects::Input in;
        in.q = fx.qubitOf[l];
        in.x = makeRec(rx);
        in.z = makeRec(rz);
        fx.inputs.push_back(in);
    }
    return fx;
}

} // namespace

std::uint8_t
NoiseClassTable::classOf(double p)
{
    for (std::size_t i = 0; i < probs_.size(); ++i)
        if (probs_[i] == p)
            return static_cast<std::uint8_t>(i);
    qla_assert(probs_.size() < 0xff, "noise class table overflow");
    probs_.push_back(p);
    return static_cast<std::uint8_t>(probs_.size() - 1);
}

void
FrameTraceBuilder::h(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::H, 0, q16(q), 0});
}

void
FrameTraceBuilder::s(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::S, 0, q16(q), 0});
}

void
FrameTraceBuilder::cnot(std::size_t control, std::size_t target)
{
    trace_.ops.push_back(
        {FrameOp::Kind::Cnot, 0, q16(control), q16(target)});
}

void
FrameTraceBuilder::cz(std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Cz, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::swapGate(std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Swap, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::reset(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::Reset, 0, q16(q), 0});
}

void
FrameTraceBuilder::noise1(double p, std::size_t q)
{
    trace_.ops.push_back(
        {FrameOp::Kind::Noise1, classes_.classOf(p), q16(q), 0});
}

void
FrameTraceBuilder::noise2(double p, std::size_t a, std::size_t b)
{
    trace_.ops.push_back(
        {FrameOp::Kind::Noise2, classes_.classOf(p), q16(a), q16(b)});
}

void
FrameTraceBuilder::measureZ(std::size_t q, double readout_error)
{
    trace_.ops.push_back({FrameOp::Kind::MeasureZ,
                          classes_.classOf(readout_error), q16(q), 0});
    ++trace_.numMeasurements;
}

void
FrameTraceBuilder::measureX(std::size_t q, double readout_error)
{
    trace_.ops.push_back({FrameOp::Kind::MeasureX,
                          classes_.classOf(readout_error), q16(q), 0});
    ++trace_.numMeasurements;
}

void
FrameTraceBuilder::noisyH(std::size_t q, double p1)
{
    h(q);
    noise1(p1, q);
}

void
FrameTraceBuilder::noisyCnot(std::size_t control, std::size_t target,
                             std::size_t moved, double p_move, double p2)
{
    qla_assert(moved == control || moved == target);
    const std::size_t unmoved = moved == target ? control : target;
    noise1(p_move, moved);
    cnot(control, target);
    noise2(p2, unmoved, moved);
    noise1(p_move, moved);
}

void
FrameTraceBuilder::noisyCnotMeas(std::size_t control, std::size_t target,
                                 std::size_t moved, double p_move,
                                 double p2, bool measure_x,
                                 double readout_error)
{
    noisyCnot(control, target, moved, p_move, p2);
    if (measure_x)
        measureX(moved, readout_error);
    else
        measureZ(moved, readout_error);
}

void
FrameTraceBuilder::resetRange(std::size_t first, std::size_t count)
{
    qla_assert(count > 0);
    for (std::size_t q = first; q < first + count; ++q)
        reset(q);
}

void
FrameTraceBuilder::noise1Range(std::size_t first, std::size_t count,
                               double p)
{
    qla_assert(count > 0);
    for (std::size_t q = first; q < first + count; ++q)
        noise1(p, q);
}

void
FrameTraceBuilder::measureRange(std::size_t first, std::size_t count,
                                bool measure_x, double readout_error)
{
    qla_assert(count > 0);
    for (std::size_t q = first; q < first + count; ++q) {
        if (measure_x)
            measureX(q, readout_error);
        else
            measureZ(q, readout_error);
    }
}

FrameTrace
FrameTraceBuilder::take()
{
    FrameTrace out = std::move(trace_);
    trace_ = FrameTrace{};
    return out;
}

void
finalizeTraceClassSites(FrameTrace &trace, const NoiseClassTable &classes)
{
    // One entry per sampler call the replay makes, in class id space;
    // the effect compiler and the reference interpreter (replayTrace,
    // via PlannedSampling::verifyConsumed) cross-check these rules, so
    // they cannot drift silently.
    const std::size_t num_classes = classes.probabilities().size();
    trace.classSites.assign(num_classes, 0);
    auto &sites = trace.classSites;
    for (const FrameOp &op : trace.ops)
        if (op.isSite())
            ++sites[op.cls];

    // Fire-plan skeleton: record once, per trace, which classes the
    // replay samples and whether their probability is degenerate --
    // the part of per-word replay planning that does not depend on
    // lane clocks. Each class's degeneracy is part of the tile
    // recording's key (arq/batched_monte_carlo.cc), so every noise
    // point bound to a shared recording agrees with this skeleton.
    trace.walkPlan.clear();
    const auto &probs = classes.probabilities();
    for (std::size_t c = 0; c < num_classes; ++c) {
        if (!sites[c])
            continue;
        TraceClassWalk entry;
        entry.cls = static_cast<std::uint8_t>(c);
        entry.sites = sites[c];
        entry.degenerate = probs[c] <= 0.0 || probs[c] >= 1.0;
        entry.degenerateFires = probs[c] >= 1.0 ? ~std::uint64_t{0} : 0;
        trace.walkPlan.push_back(entry);
    }

    trace.effects = std::make_shared<const TraceEffects>(
        compileTraceEffects(trace));
}

BatchedNoiseModel::BatchedNoiseModel(const NoiseClassTable &classes,
                                     double correction_p)
    : correction(correction_p)
{
    // The straight-line bank, then the retry bank, each in class order.
    for (int bank = 0; bank < 2; ++bank)
        for (const double p : classes.probabilities())
            draws.emplace_back(p);
}

void
BatchedNoiseModel::rearm(const RngFamily &family, std::uint64_t first_shot)
{
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(first_shot + l);
    for (auto &draw : draws)
        draw.disarm();
    correction.disarm();
}

namespace {

/**
 * Walk every active lane's clock over the whole trace, one walk per
 * non-degenerate class with sites, and leave the word's fires in
 * model.fireKeys, sorted into site (= trace) order. This is the planned
 * replay's core saving: a no-fire (class, lane) pair costs one counter
 * update for the entire trace instead of one per site. Degenerate
 * classes draw nothing (like Rng::bernoulli): a p >= 1 class keys every
 * active lane at each of its sites, a p <= 0 class nothing. @p retry
 * selects the clock bank walked; no other replay step reads it.
 */
void
planTraceDraws(const FrameTrace &trace, BatchedNoiseModel &model,
               std::uint64_t active, bool retry)
{
    qla_assert(trace.classSites.size() == model.numClasses(),
               "trace not finalized against this class table");
    const TraceEffects &fx = *trace.effects;
    ClassDrawSampler *bank
        = model.draws.data() + (retry ? model.numClasses() : 0);
    std::vector<std::uint32_t> &keys = model.fireKeys;
    keys.clear();
    for (const TraceClassWalk &entry : trace.walkPlan) {
        const std::uint32_t *ids = fx.classSiteIds[entry.cls].data();
        if (entry.degenerate) {
            const std::uint64_t fires = entry.degenerateFires & active;
            for (std::uint32_t k = 0; fires && k < entry.sites; ++k)
                for (std::uint64_t f = fires; f; f &= f - 1)
                    keys.push_back(ids[k] << 6
                                   | static_cast<std::uint32_t>(
                                       std::countr_zero(f)));
            continue;
        }
        bank[entry.cls].walkWord(
            active, entry.sites, model.lanes,
            [&](std::int64_t ord, int lane) {
                keys.push_back(ids[ord] << 6
                               | static_cast<std::uint32_t>(lane));
            });
    }
    std::sort(keys.begin(), keys.end());
#ifndef NDEBUG
    for (std::size_t i = 0; i < keys.size(); ++i) {
        qla_assert(i == 0 || keys[i - 1] < keys[i],
                   "fire keys not strictly ascending at ", i);
        qla_assert((keys[i] >> 6) < fx.sites.size(),
                   "fire key past the trace's sites at ", i);
    }
#endif
}

/**
 * Plan one active word (mask @p m) of @p trace and apply its fired
 * sites into its accumulator column @p col (target t at col[t * W]).
 * Gap draws happen in planTraceDraws; each run of sorted fire keys with
 * one site ORs into that site's fired word, and the sites are visited
 * in trace order, so drawPauli consumes each lane's stream exactly as
 * an op-by-op replay would.
 */
template <std::size_t kWords>
void
applyWordSites(const FrameTrace &trace, BatchedNoiseModel &model,
               std::uint64_t m, std::uint64_t *col, std::size_t W,
               bool retry)
{
    if constexpr (kWords != 0)
        W = kWords;
    planTraceDraws(trace, model, m, retry);
    const TraceEffects &fx = *trace.effects;
    const std::uint16_t *pool = fx.pool.data();
    const auto apply = [&](TraceEffects::Rec r, std::uint64_t v) {
        for (std::uint16_t i = 0; i < r.len; ++i)
            col[std::size_t{pool[r.off + i]} * W] ^= v;
    };
    const std::uint32_t *key = model.fireKeys.data();
    const std::uint32_t *end = key + model.fireKeys.size();
    while (key != end) {
        const std::uint32_t s = *key >> 6;
        std::uint64_t fired = 0;
        do
            fired |= std::uint64_t{1} << (*key & 63);
        while (++key != end && *key >> 6 == s);
        const TraceEffects::Site &site = fx.sites[s];
        if (site.kind == TraceEffects::kReadout) {
            col[std::size_t{site.meas} * W] ^= fired;
        } else if (site.kind == TraceEffects::kNoise1) {
            const auto d = quantum::drawPauli1(fired, model.lanes);
            apply(site.xa, d.fx);
            apply(site.za, d.fz);
        } else {
            const auto d = quantum::drawPauli2(fired, model.lanes);
            apply(site.xa, d.fxa);
            apply(site.za, d.fza);
            apply(site.xb, d.fxb);
            apply(site.zb, d.fzb);
        }
    }
}

/**
 * The group replay (see replayTraceGroup), over a [target][word]
 * accumulator plane of width W: kWords when nonzero, else @p num_words.
 * Every word loop then has a compile-time trip count in the one-word
 * instantiation, which is what keeps the single-word groups of served
 * requests as cheap as a dedicated one-word replay.
 *
 * Cost scales with the nonzero content (live input rows and fired
 * events) rather than the trace length, and the fixed per-trace work --
 * the accumulator fill, the input scan and the frame write-back -- is
 * paid once per group in loops over its words instead of once per word.
 */
template <std::size_t kWords>
void
replayGroupMajor(const FrameTrace &trace, quantum::GroupPauliFrames &frames,
                 BatchedNoiseModel *models, const std::uint64_t *masks,
                 std::size_t num_words, std::vector<std::uint64_t> *flips,
                 bool retry)
{
    const std::size_t W = kWords ? kWords : num_words;
    const TraceEffects &fx = *trace.effects;
    const std::size_t stride = frames.stride();
    std::uint64_t *x = frames.xData();
    std::uint64_t *z = frames.zData();

    // Accumulator plane, then one masked input row each for X and Z.
    thread_local std::vector<std::uint64_t> scratch;
    const std::size_t plane = std::size_t{fx.numTargets} * W;
    if (scratch.size() < plane + 2 * W)
        scratch.resize(plane + 2 * W);
    std::uint64_t *acc = scratch.data();
    std::uint64_t *mx = acc + plane;
    std::uint64_t *mz = mx + W;
    std::fill_n(acc, plane, 0);

    // Input phase: each live input row, masked word by word, toggles
    // its targets across the whole group; an all-zero masked row (clean
    // or inactive frames) costs just its scan.
    const std::uint16_t *pool = fx.pool.data();
    const auto xorInto = [&](TraceEffects::Rec r, const std::uint64_t *src) {
        for (std::uint16_t i = 0; i < r.len; ++i) {
            std::uint64_t *dst = acc + std::size_t{pool[r.off + i]} * W;
            for (std::size_t w = 0; w < W; ++w)
                dst[w] ^= src[w];
        }
    };
    for (const TraceEffects::Input &in : fx.inputs) {
        const std::uint64_t *rx = x + std::size_t{in.q} * stride;
        const std::uint64_t *rz = z + std::size_t{in.q} * stride;
        std::uint64_t anyx = 0;
        std::uint64_t anyz = 0;
        for (std::size_t w = 0; w < W; ++w) {
            mx[w] = rx[w] & masks[w];
            mz[w] = rz[w] & masks[w];
            anyx |= mx[w];
            anyz |= mz[w];
        }
        if (anyx)
            xorInto(in.x, mx);
        if (anyz)
            xorInto(in.z, mz);
    }

    // Fired sites, word by word: each word plans and applies back to
    // back, so its model stays hot and its lanes draw in trace order;
    // its column is then final and its flip row is copied out.
    for (std::size_t w = 0; w < W; ++w) {
        flips[w].clear();
        if (!masks[w])
            continue;
        applyWordSites<kWords>(trace, models[w], masks[w], acc + w, W,
                               retry);
        flips[w].resize(fx.numMeas);
        std::uint64_t *out = flips[w].data();
        for (std::size_t j = 0; j < fx.numMeas; ++j)
            out[j] = acc[j * W + w];
    }

    // Write-back: every accumulator bit lies inside its word's mask, so
    // inactive lanes -- and whole inactive words -- keep their bits.
    for (std::size_t l = 0; l < fx.qubitOf.size(); ++l) {
        std::uint64_t *rx = x + std::size_t{fx.qubitOf[l]} * stride;
        std::uint64_t *rz = z + std::size_t{fx.qubitOf[l]} * stride;
        const std::uint64_t *ax = acc + (fx.numMeas + 2 * l) * W;
        const std::uint64_t *az = ax + W;
        for (std::size_t w = 0; w < W; ++w) {
            rx[w] = (rx[w] & ~masks[w]) | ax[w];
            rz[w] = (rz[w] & ~masks[w]) | az[w];
        }
    }
}

//
// The one-word reference replay (replayTrace): an op interpreter that
// shares nothing with the compiled effect model but the fire keys, and
// checks the compiler's site numbering against its own op stream.
//

/**
 * The interpreter's cursor over one planned replay: its own count of
 * the sites the op stream has reached, its own ordinal per class, and
 * the next unconsumed fire key.
 */
class PlannedSampling
{
  public:
    /** A cursor at the first site of @p trace over the fire keys just
     *  planned on @p model. */
    PlannedSampling(const FrameTrace &trace, const BatchedNoiseModel &model)
        : fx_(*trace.effects), keys_(model.fireKeys),
          ordinals_(model.numClasses(), 0)
    {
    }

    /** The fired lanes of the next site, which the op stream says has
     *  class @p cls. */
    std::uint64_t
    fire(std::uint8_t cls)
    {
        const std::uint32_t s = site_++;
        const std::uint32_t ord = ordinals_[cls]++;
        qla_assert(s < fx_.sites.size() && fx_.sites[s].cls == cls,
                   "op stream site ", s, " has class ", int{cls},
                   ", the compiled site does not");
        qla_assert(ord < fx_.classSiteIds[cls].size()
                       && fx_.classSiteIds[cls][ord] == s,
                   "class ", int{cls}, " ordinal ", ord,
                   " is not compiled site ", s);
        std::uint64_t fired = 0;
        for (; next_ < keys_.size() && keys_[next_] >> 6 == s; ++next_)
            fired |= std::uint64_t{1} << (keys_[next_] & 63);
        return fired;
    }

    /** The replay must visit every site, each class exactly as often
     *  as the trace declares, and consume every fire key. */
    void
    verifyConsumed(const FrameTrace &trace) const
    {
        qla_assert(site_ == fx_.sites.size(), "replay visited ", site_,
                   " sites, trace compiles ", fx_.sites.size());
        for (const TraceClassWalk &entry : trace.walkPlan)
            qla_assert(ordinals_[entry.cls] == entry.sites,
                       "replay visited ", ordinals_[entry.cls],
                       " sites of class ", int{entry.cls},
                       ", trace declares ", entry.sites);
        qla_assert(next_ == keys_.size(), "replay consumed ", next_,
                   " of ", keys_.size(), " fire keys");
    }

  private:
    const TraceEffects &fx_;
    const std::vector<std::uint32_t> &keys_;
    std::vector<std::uint32_t> ordinals_;
    std::uint32_t site_ = 0;
    std::size_t next_ = 0;
};

/**
 * Interpret @p trace op by op on @p frame for the lanes in @p m: gates
 * go through the frame's masked operations, and every sampling site
 * takes its fired word from the fire keys in trace order, drawing the
 * fired lanes' Paulis exactly as the scalar primitives would.
 */
void
interpretTrace(const FrameTrace &trace, quantum::BatchedPauliFrame &frame,
               BatchedNoiseModel &model, PlannedSampling &sampling,
               std::uint64_t m, std::vector<std::uint64_t> &flips)
{
    const auto fire1 = [&](std::uint8_t cls, std::size_t q) {
        const std::uint64_t fired = sampling.fire(cls);
        if (!fired)
            return;
        const auto d = quantum::drawPauli1(fired, model.lanes);
        frame.injectX(q, d.fx);
        frame.injectZ(q, d.fz);
    };
    const auto fire2 = [&](std::uint8_t cls, std::size_t a,
                           std::size_t b) {
        const std::uint64_t fired = sampling.fire(cls);
        if (!fired)
            return;
        const auto d = quantum::drawPauli2(fired, model.lanes);
        frame.injectX(a, d.fxa);
        frame.injectZ(a, d.fza);
        frame.injectX(b, d.fxb);
        frame.injectZ(b, d.fzb);
    };
    const auto readout = [&](std::size_t q, bool measure_x,
                             std::uint8_t cls) {
        const std::uint64_t word = measure_x ? frame.measureXFlip(q, m)
                                             : frame.measureZFlip(q, m);
        flips.push_back(word ^ sampling.fire(cls));
    };

    using K = FrameOp::Kind;
    for (const FrameOp &op : trace.ops) {
        switch (op.kind) {
          case K::H:
            frame.h(op.a, m);
            break;
          case K::S:
            frame.s(op.a, m);
            break;
          case K::Cnot:
            frame.cnot(op.a, op.b, m);
            break;
          case K::Cz:
            frame.cz(op.a, op.b, m);
            break;
          case K::Swap:
            frame.swap(op.a, op.b, m);
            break;
          case K::Reset:
            frame.resetQubit(op.a, m);
            break;
          case K::Noise1:
            fire1(op.cls, op.a);
            break;
          case K::Noise2:
            fire2(op.cls, op.a, op.b);
            break;
          case K::MeasureZ:
          case K::MeasureX:
            readout(op.a, op.kind == K::MeasureX, op.cls);
            break;
        }
    }
}

} // namespace

void
replayTrace(const FrameTrace &trace, quantum::BatchedPauliFrame &frame,
            BatchedNoiseModel &noise, std::uint64_t active,
            std::vector<std::uint64_t> &flips, bool retry)
{
    // An inactive word consumes no randomness and changes no frame bit;
    // it only appends its zero flip words.
    if (!active) {
        flips.resize(flips.size() + trace.numMeasurements);
        return;
    }
    planTraceDraws(trace, noise, active, retry);
    PlannedSampling sampling(trace, noise);
    interpretTrace(trace, frame, noise, sampling, active, flips);
    sampling.verifyConsumed(trace);
}

void
replayTraceGroup(const FrameTrace &trace,
                 quantum::GroupPauliFrames &frames,
                 BatchedNoiseModel *models, const std::uint64_t *masks,
                 std::size_t num_words, std::vector<std::uint64_t> *flips,
                 bool retry)
{
    qla_assert(trace.effects, "trace not finalized");
    // The group's rows must be packed (or over-provisioned) for this
    // batch: reset(num_words) is the batch prologue that guarantees it.
    qla_assert(num_words <= frames.stride());
    if (num_words == 1)
        replayGroupMajor<1>(trace, frames, models, masks, 1, flips, retry);
    else
        replayGroupMajor<0>(trace, frames, models, masks, num_words,
                            flips, retry);
}

} // namespace qla::arq
