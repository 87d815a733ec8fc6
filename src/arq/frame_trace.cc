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
 * One step of the replay, flattened to the granularity the effect
 * compiler reasons at: fused FrameOps expand into their gate / site /
 * measure parts in exactly the interpreter's order, ranges expand per
 * qubit. `a`/`b` are local (touched-qubit) indices.
 */
struct MicroOp
{
    enum class K : std::uint8_t { H, S, Cnot, Cz, Swap, Reset, Site, Meas };
    K k;
    std::uint16_t a = 0;
    std::uint16_t b = 0;
    /** Site/Meas: index into TraceEffects::sites. */
    std::uint32_t site = 0;
    /** Meas: measurement target id. */
    std::uint32_t meas = 0;
    bool measX = false;
};

/**
 * Compile the trace's linear-effect model (TraceEffects): a forward
 * pass flattens the op stream, numbers sampler sites in replay order
 * and assigns local indices to touched qubits; a backward influence
 * pass then computes, for each qubit's X and Z components, the set of
 * downstream targets (measurement flips and output-frame coordinates)
 * an injection at the current point toggles. Passing a site records
 * the influence of its injected components; reaching the top records
 * the influence of the input frame itself -- qubits the trace resets
 * before use drop out automatically.
 */
TraceEffects
compileTraceEffects(const FrameTrace &trace)
{
    TraceEffects fx;
    fx.classSiteIds.assign(trace.classSites.size(), {});

    std::vector<MicroOp> prog;
    prog.reserve(trace.ops.size() * 5);
    std::vector<std::int32_t> localOf;
    const auto local = [&](std::uint16_t q) {
        if (localOf.size() <= q)
            localOf.resize(q + std::size_t{1}, -1);
        if (localOf[q] < 0) {
            localOf[q] = static_cast<std::int32_t>(fx.qubitOf.size());
            fx.qubitOf.push_back(q);
        }
        return static_cast<std::uint16_t>(localOf[q]);
    };
    std::uint32_t nm = 0;
    const auto gate1 = [&](MicroOp::K k, std::uint16_t q) {
        prog.push_back({k, local(q), 0, 0, 0, false});
    };
    const auto gate2 = [&](MicroOp::K k, std::uint16_t a, std::uint16_t b) {
        prog.push_back({k, local(a), local(b), 0, 0, false});
    };
    const auto newSite = [&](std::uint8_t cls, std::uint8_t kind) {
        TraceEffects::Site s;
        s.cls = cls;
        s.kind = kind;
        const auto id = static_cast<std::uint32_t>(fx.sites.size());
        fx.sites.push_back(s);
        fx.classSiteIds[cls].push_back(id);
        return id;
    };
    const auto site1 = [&](std::uint8_t cls, std::uint16_t q) {
        const std::uint32_t id = newSite(cls, TraceEffects::kNoise1);
        prog.push_back({MicroOp::K::Site, local(q), 0, id, 0, false});
    };
    const auto site2 = [&](std::uint8_t cls, std::uint16_t a,
                           std::uint16_t b) {
        const std::uint32_t id = newSite(cls, TraceEffects::kNoise2);
        prog.push_back({MicroOp::K::Site, local(a), local(b), id, 0,
                        false});
    };
    const auto meas = [&](std::uint8_t cls, std::uint16_t q, bool mx) {
        const std::uint32_t id = newSite(cls, TraceEffects::kReadout);
        fx.sites[id].meas = static_cast<std::uint16_t>(nm);
        prog.push_back({MicroOp::K::Meas, local(q), 0, id, nm, mx});
        ++nm;
    };

    for (const FrameOp &op : trace.ops) {
        switch (op.kind) {
          case FrameOp::Kind::H:
            gate1(MicroOp::K::H, op.a);
            break;
          case FrameOp::Kind::NoisyH:
            gate1(MicroOp::K::H, op.a);
            site1(op.cls, op.a);
            break;
          case FrameOp::Kind::S:
            gate1(MicroOp::K::S, op.a);
            break;
          case FrameOp::Kind::Cnot:
            gate2(MicroOp::K::Cnot, op.a, op.b);
            break;
          case FrameOp::Kind::Cz:
            gate2(MicroOp::K::Cz, op.a, op.b);
            break;
          case FrameOp::Kind::Swap:
            gate2(MicroOp::K::Swap, op.a, op.b);
            break;
          case FrameOp::Kind::Reset:
            gate1(MicroOp::K::Reset, op.a);
            break;
          case FrameOp::Kind::Noise1:
            site1(op.cls, op.a);
            break;
          case FrameOp::Kind::Noise2:
            site2(op.cls, op.a, op.b);
            break;
          case FrameOp::Kind::NoisyCnotMT:
          case FrameOp::Kind::NoisyCnotMTMeasZ:
          case FrameOp::Kind::NoisyCnotMTMeasX:
            site1(op.cls, op.b);
            gate2(MicroOp::K::Cnot, op.a, op.b);
            site2(op.cls2, op.a, op.b);
            site1(op.cls, op.b);
            if (op.kind == FrameOp::Kind::NoisyCnotMTMeasZ)
                meas(op.cls3, op.b, false);
            else if (op.kind == FrameOp::Kind::NoisyCnotMTMeasX)
                meas(op.cls3, op.b, true);
            break;
          case FrameOp::Kind::NoisyCnotMC:
          case FrameOp::Kind::NoisyCnotMCMeasZ:
          case FrameOp::Kind::NoisyCnotMCMeasX:
            site1(op.cls, op.a);
            gate2(MicroOp::K::Cnot, op.a, op.b);
            site2(op.cls2, op.b, op.a);
            site1(op.cls, op.a);
            if (op.kind == FrameOp::Kind::NoisyCnotMCMeasZ)
                meas(op.cls3, op.a, false);
            else if (op.kind == FrameOp::Kind::NoisyCnotMCMeasX)
                meas(op.cls3, op.a, true);
            break;
          case FrameOp::Kind::ResetRange:
            for (std::uint32_t i = 0; i < op.b; ++i)
                gate1(MicroOp::K::Reset,
                      static_cast<std::uint16_t>(op.a + i));
            break;
          case FrameOp::Kind::Noise1Range:
            for (std::uint32_t i = 0; i < op.b; ++i)
                site1(op.cls, static_cast<std::uint16_t>(op.a + i));
            break;
          case FrameOp::Kind::MeasureZRange:
            for (std::uint32_t i = 0; i < op.b; ++i)
                meas(op.cls, static_cast<std::uint16_t>(op.a + i), false);
            break;
          case FrameOp::Kind::MeasureXRange:
            for (std::uint32_t i = 0; i < op.b; ++i)
                meas(op.cls, static_cast<std::uint16_t>(op.a + i), true);
            break;
          case FrameOp::Kind::MeasureZ:
            meas(op.cls, op.a, false);
            break;
          case FrameOp::Kind::MeasureX:
            meas(op.cls, op.a, true);
            break;
        }
    }
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
    for (auto it = prog.rbegin(); it != prog.rend(); ++it) {
        const MicroOp &mo = *it;
        std::uint64_t *xa = row(2 * std::size_t{mo.a});
        std::uint64_t *za = row(2 * std::size_t{mo.a} + 1);
        switch (mo.k) {
          case MicroOp::K::H:
            // X before H acts as Z after it, and vice versa.
            swapRow(xa, za);
            break;
          case MicroOp::K::S:
            // S X S^ = Y = X Z (phases are invisible to the frame).
            xorRow(xa, za);
            break;
          case MicroOp::K::Cnot:
            // X_a -> X_a X_b, Z_b -> Z_a Z_b.
            xorRow(xa, row(2 * std::size_t{mo.b}));
            xorRow(row(2 * std::size_t{mo.b} + 1), za);
            break;
          case MicroOp::K::Cz:
            // X_a -> X_a Z_b, X_b -> X_b Z_a.
            xorRow(xa, row(2 * std::size_t{mo.b} + 1));
            xorRow(row(2 * std::size_t{mo.b}), za);
            break;
          case MicroOp::K::Swap:
            swapRow(xa, row(2 * std::size_t{mo.b}));
            swapRow(za, row(2 * std::size_t{mo.b} + 1));
            break;
          case MicroOp::K::Reset:
            // Anything injected before a reset dies there.
            clearRow(xa);
            clearRow(za);
            break;
          case MicroOp::K::Meas:
            // The readout records the measured component and clears the
            // qubit's frame, so an injection before it reaches exactly
            // the one flip word (or nothing, for the other component).
            clearRow(xa);
            clearRow(za);
            setBit(mo.measX ? za : xa, mo.meas);
            break;
          case MicroOp::K::Site: {
            TraceEffects::Site &s = fx.sites[mo.site];
            s.xa = makeRec(xa);
            s.za = makeRec(za);
            if (s.kind == TraceEffects::kNoise2) {
                s.xb = makeRec(row(2 * std::size_t{mo.b}));
                s.zb = makeRec(row(2 * std::size_t{mo.b} + 1));
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
    std::uint64_t total_len = 0;
    for (const TraceEffects::Site &s : fx.sites)
        total_len += s.xa.len + s.za.len + s.xb.len + s.zb.len;
    fx.avgSiteCost = fx.sites.empty()
                         ? 1
                         : static_cast<std::uint32_t>(
                               total_len / fx.sites.size() + 1);
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

std::uint8_t
NoiseClassTable::newClass(double p)
{
    qla_assert(probs_.size() < 0xff, "noise class table overflow");
    probs_.push_back(p);
    return static_cast<std::uint8_t>(probs_.size() - 1);
}

void
FrameTraceBuilder::h(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::H, 0, 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::s(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::S, 0, 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::cnot(std::size_t control, std::size_t target)
{
    trace_.ops.push_back({FrameOp::Kind::Cnot, 0, 0, 0, q16(control), q16(target)});
}

void
FrameTraceBuilder::cz(std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Cz, 0, 0, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::swapGate(std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Swap, 0, 0, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::reset(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::Reset, 0, 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::noise1(double p, std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::Noise1, classes_.classOf(p), 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::noise2(double p, std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Noise2, classes_.classOf(p), 0, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::noisyH(std::size_t q, double p1)
{
    trace_.ops.push_back({FrameOp::Kind::NoisyH, classes_.classOf(p1), 0,
                          0, q16(q), 0});
}

void
FrameTraceBuilder::noisyCnot(std::size_t control, std::size_t target,
                             std::size_t moved, double p_move, double p2)
{
    qla_assert(moved == control || moved == target);
    const auto kind = moved == target ? FrameOp::Kind::NoisyCnotMT
                                      : FrameOp::Kind::NoisyCnotMC;
    trace_.ops.push_back({kind, classes_.classOf(p_move),
                          classes_.classOf(p2), 0, q16(control),
                          q16(target)});
}

void
FrameTraceBuilder::noisyCnotMeas(std::size_t control, std::size_t target,
                                 std::size_t moved, double p_move,
                                 double p2, bool measure_x,
                                 double readout_error)
{
    qla_assert(moved == control || moved == target);
    FrameOp::Kind kind;
    if (moved == target)
        kind = measure_x ? FrameOp::Kind::NoisyCnotMTMeasX
                         : FrameOp::Kind::NoisyCnotMTMeasZ;
    else
        kind = measure_x ? FrameOp::Kind::NoisyCnotMCMeasX
                         : FrameOp::Kind::NoisyCnotMCMeasZ;
    trace_.ops.push_back({kind, classes_.classOf(p_move),
                          classes_.classOf(p2),
                          classes_.classOf(readout_error), q16(control),
                          q16(target)});
    ++trace_.numMeasurements;
}

void
FrameTraceBuilder::noise1Range(std::size_t first, std::size_t count,
                               double p)
{
    qla_assert(count > 0);
    q16(first + count - 1);
    trace_.ops.push_back({FrameOp::Kind::Noise1Range, classes_.classOf(p),
                          0, 0, q16(first),
                          static_cast<std::uint16_t>(count)});
}

void
FrameTraceBuilder::measureRange(std::size_t first, std::size_t count,
                                bool measure_x, double readout_error)
{
    qla_assert(count > 0);
    q16(first + count - 1);
    trace_.ops.push_back({measure_x ? FrameOp::Kind::MeasureXRange
                                    : FrameOp::Kind::MeasureZRange,
                          classes_.classOf(readout_error), 0, 0, q16(first),
                          static_cast<std::uint16_t>(count)});
    trace_.numMeasurements += count;
}

void
FrameTraceBuilder::resetRange(std::size_t first, std::size_t count)
{
    qla_assert(count > 0);
    q16(first + count - 1);
    trace_.ops.push_back({FrameOp::Kind::ResetRange, 0, 0, 0, q16(first),
                          static_cast<std::uint16_t>(count)});
}

void
FrameTraceBuilder::measureZ(std::size_t q, double readout_error)
{
    trace_.ops.push_back({FrameOp::Kind::MeasureZ,
                          classes_.classOf(readout_error), 0, 0, q16(q),
                          0});
    ++trace_.numMeasurements;
}

void
FrameTraceBuilder::measureX(std::size_t q, double readout_error)
{
    trace_.ops.push_back({FrameOp::Kind::MeasureX,
                          classes_.classOf(readout_error), 0, 0, q16(q),
                          0});
    ++trace_.numMeasurements;
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
    // One entry per sampler call the replay switch makes, in class id
    // space; verifyTracePlans cross-checks these rules against the
    // actual replay, so the two cannot drift silently.
    const std::size_t num_classes = classes.probabilities().size();
    trace.classSites.assign(num_classes, 0);
    auto &sites = trace.classSites;
    for (const FrameOp &op : trace.ops) {
        switch (op.kind) {
          case FrameOp::Kind::Noise1:
          case FrameOp::Kind::Noise2:
          case FrameOp::Kind::NoisyH:
            sites[op.cls] += 1;
            break;
          case FrameOp::Kind::NoisyCnotMT:
          case FrameOp::Kind::NoisyCnotMC:
            sites[op.cls] += 2; // shuttle in + shuttle back
            sites[op.cls2] += 1;
            break;
          case FrameOp::Kind::NoisyCnotMTMeasZ:
          case FrameOp::Kind::NoisyCnotMTMeasX:
          case FrameOp::Kind::NoisyCnotMCMeasZ:
          case FrameOp::Kind::NoisyCnotMCMeasX:
            sites[op.cls] += 2;
            sites[op.cls2] += 1;
            sites[op.cls3] += 1; // readout flip
            break;
          case FrameOp::Kind::Noise1Range:
          case FrameOp::Kind::MeasureZRange:
          case FrameOp::Kind::MeasureXRange:
            sites[op.cls] += op.b;
            break;
          case FrameOp::Kind::MeasureZ:
          case FrameOp::Kind::MeasureX:
            sites[op.cls] += 1;
            break;
          default:
            break;
        }
    }

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
    : draws(classes.probabilities().begin(),
            classes.probabilities().end()),
      correction(correction_p)
{
    plans.resize(classes.probabilities().size());
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

/** Per-site fires popped from the pre-walked per-trace plans. */
struct PlannedSampling
{
    /** Scheduled-ordinal hit: pop the fired word. Outlined so the
     *  inlined miss path below stays a compare and an increment. */
    [[gnu::noinline]] static std::uint64_t
    pop(ClassDrawPlan &plan, std::uint32_t ord, std::uint64_t active)
    {
        if (plan.degenerate) {
            // Always-fires class: every ordinal is scheduled.
            plan.nextFireOrd = ord + 1;
            return plan.degenerate_fires & active;
        }
        // Fired lanes are a subset of active by construction (only
        // active lanes were walked).
        const std::uint64_t fired = plan.eventMask[plan.next];
        ++plan.next;
        plan.nextFireOrd = plan.next < plan.eventOrd.size()
                               ? plan.eventOrd[plan.next]
                               : ClassDrawPlan::kNoFire;
        return fired;
    }

    [[gnu::always_inline]] static inline std::uint64_t
    fire(BatchedNoiseModel &model, std::uint8_t cls, std::uint64_t active)
    {
        ClassDrawPlan &plan = model.plans[cls];
        const std::uint32_t ord = plan.ordinal++;
        if (plan.dense) {
            // Dense plan: every ordinal is scheduled; serve straight
            // from the walk scratch, zeroing it back for the next
            // planning pass. Kept on the inline path: far above
            // threshold every site of a dense class lands here.
            const std::uint64_t fired = plan.fires[ord];
            plan.fires[ord] = 0;
            return fired;
        }
        // Sparse plans make almost every site a miss, priced at one
        // compare against the next scheduled fire ordinal.
        if (ord != plan.nextFireOrd) [[likely]]
            return 0;
        return pop(plan, ord, active);
    }
};

/**
 * Drain the dense walk scratch into the plan's sparse event arrays,
 * zeroing it back to all-zero as it goes. Ordinals come out ascending
 * because the scratch is indexed by site ordinal.
 */
void
drainFiresToEvents(ClassDrawPlan &plan, std::uint32_t sites,
                   std::int64_t scatters)
{
    plan.eventOrd.clear();
    plan.eventMask.clear();
    std::uint64_t *fires = plan.fires.data();
    // Each scatter set exactly one lane bit, so the popcounts of the
    // touched entries sum to the scatter count: stop scanning as soon
    // as every scattered bit is accounted for.
    for (std::uint32_t i = 0; scatters > 0 && i < sites; ++i) {
        if (!fires[i])
            continue;
        scatters -= std::popcount(fires[i]);
        plan.eventOrd.push_back(i);
        plan.eventMask.push_back(fires[i]);
        fires[i] = 0;
    }
    plan.next = 0;
    plan.nextFireOrd
        = plan.eventOrd.empty() ? ClassDrawPlan::kNoFire : plan.eventOrd[0];
}

/**
 * Pick a freshly walked plan's representation from the walk's scatter
 * count: no fires collapses to a never-fires plan, rare fires re-pack
 * as sparse events (replay misses cost one compare), and frequent
 * fires -- the far-above-threshold regime -- keep the dense scratch,
 * which the replay then drains site by site. The threshold only trades
 * replay cost against drain cost; the fired words are identical.
 */
void
packWalkedPlan(ClassDrawPlan &plan, std::uint32_t sites,
               std::int64_t scatters)
{
    plan.scatters = static_cast<std::uint32_t>(scatters);
    if (scatters == 0) {
        plan.dense = false;
        plan.nextFireOrd = ClassDrawPlan::kNoFire;
        return;
    }
    if (scatters * 6 >= static_cast<std::int64_t>(sites)) {
        plan.dense = true;
        plan.nextFireOrd = 0;
        return;
    }
    plan.dense = false;
    drainFiresToEvents(plan, sites, scatters);
}

/**
 * Walk every active lane's clock over the whole trace, one walk per
 * non-degenerate class with sites, and leave the sorted fire schedules
 * in model.plans. This is the planned replay's core saving: a no-fire
 * (class, lane) pair costs one counter update for the entire trace
 * instead of one per site. Only the classes in the
 * trace's skeleton are touched: plans of absent classes are stale but
 * unreachable, because the replay switch never fires a class without
 * sites.
 */
void
planTraceDraws(const FrameTrace &trace, BatchedNoiseModel &model,
               std::uint64_t active)
{
    qla_assert(trace.classSites.size() == model.draws.size(),
               "trace not finalized against this class table");
    for (const TraceClassWalk &entry : trace.walkPlan) {
        ClassDrawPlan &plan = model.plans[entry.cls];
        plan.ordinal = 0;
        if (entry.degenerate) {
            // Degenerate probabilities consume no stream (like
            // Rng::bernoulli); replay still advances the ordinal.
            plan.degenerate = true;
            plan.dense = false;
            plan.degenerate_fires = entry.degenerateFires;
            plan.nextFireOrd
                = entry.degenerateFires ? 0 : ClassDrawPlan::kNoFire;
            continue;
        }
        plan.degenerate = false;
        if (plan.fires.size() < entry.sites)
            plan.fires.resize(entry.sites); // value-init to zero
        const std::int64_t scatters = model.draws[entry.cls].walkWord(
            active, entry.sites, model.lanes, plan.fires.data());
        packWalkedPlan(plan, entry.sites, scatters);
    }
}

/**
 * Every planned class must be exactly consumed by the replay it was
 * built for (classes outside the skeleton hold stale ordinals from
 * earlier traces and are never fired).
 */
void
verifyTracePlans(const FrameTrace &trace, const BatchedNoiseModel &model)
{
    for (const TraceClassWalk &entry : trace.walkPlan)
        qla_assert(model.plans[entry.cls].ordinal == entry.sites,
                   "replay visited ", model.plans[entry.cls].ordinal,
                   " sites of class ", entry.cls, ", trace declares ",
                   entry.sites);
}

/**
 * True when every plan the trace's walk just produced on this word is
 * sparse. The compiled replay then merges the per-class event lists and
 * skips unfired sites entirely; dense and always-fires plans take its
 * ordinal-scan loop instead, which still prices a miss at one compare.
 */
bool
plansAreSparse(const FrameTrace &trace, const BatchedNoiseModel &model)
{
    for (const TraceClassWalk &e : trace.walkPlan) {
        if (e.degenerate) {
            if (e.degenerateFires)
                return false;
            continue;
        }
        if (model.plans[e.cls].dense)
            return false;
    }
    return true;
}

/**
 * Cost model choosing this word's replay engine after planning: the
 * compiled effect replay prices each fired event at the trace's mean
 * effect-list length and each live input coordinate at its list length,
 * while the op interpreter prices every op at ~4 word operations (W
 * words share one pass, so a wider tile amortizes them) plus a per-site
 * fire() probe. Far above threshold the fired volume makes the
 * interpreter cheaper; sparse masks and below-threshold words make the
 * compiled replay cheaper by an order of magnitude. Either engine
 * consumes the same plans and draws, so the choice never changes
 * results -- only which loop produces them.
 */
bool
compiledIsCheaper(const FrameTrace &trace, const BatchedNoiseModel &model,
                  const std::uint64_t *x, const std::uint64_t *z,
                  std::size_t stride, std::uint64_t m, std::size_t tile_w)
{
    const TraceEffects &fx = *trace.effects;
    std::uint64_t events = 0;
    for (const TraceClassWalk &e : trace.walkPlan) {
        if (e.degenerate) {
            if (e.degenerateFires)
                events += e.sites;
            continue;
        }
        const ClassDrawPlan &plan = model.plans[e.cls];
        if (plan.nextFireOrd != ClassDrawPlan::kNoFire)
            events += plan.scatters;
    }
    std::uint64_t compiled = events * fx.avgSiteCost + fx.sites.size();
    const std::uint64_t interp
        = trace.ops.size() * 4 / tile_w + fx.sites.size();
    if (compiled >= interp)
        return false;
    for (const TraceEffects::Input &in : fx.inputs) {
        if (x[in.q * stride] & m)
            compiled += in.x.len;
        if (z[in.q * stride] & m)
            compiled += in.z.len;
        if (compiled >= interp)
            return false;
    }
    return true;
}

/**
 * Replay one word of @p trace through its compiled linear-effect model
 * instead of the op interpreter: accumulate, per target (measurement
 * flip or output-frame coordinate), the XOR of the input-frame words
 * and fired-site Pauli words whose effect lists name it. Cost scales
 * with the nonzero content (active input coordinates and fired events)
 * rather than the trace length, which is what makes narrow retry masks
 * and below-threshold words cheap. Draw-for-draw identical to the
 * interpreter: gap draws happened in planTraceDraws, and the fired
 * sites are visited in trace order, so drawPauli consumes each lane's
 * stream exactly as the tile would.
 *
 * When every plan came out sparse the fired events are produced by a
 * k-way merge of the per-class event lists, skipping unfired sites
 * entirely. Otherwise -- the far-above-threshold regime with dense or
 * always-fires plans -- a single pass over the site table reads each
 * site's fired word from its class plan directly (draining the dense
 * walk scratch back to zero as the fire() path would).
 */
void
replayCompiled(const FrameTrace &trace, std::uint64_t *x, std::uint64_t *z,
               std::size_t stride, BatchedNoiseModel &model,
               std::uint64_t m, std::vector<std::uint64_t> &flips)
{
    const TraceEffects &fx = *trace.effects;
    thread_local std::vector<std::uint64_t> acc_storage;
    if (acc_storage.size() < fx.numTargets)
        acc_storage.resize(fx.numTargets);
    std::uint64_t *acc = acc_storage.data();
    std::fill_n(acc, fx.numTargets, 0);
    const std::uint16_t *pool = fx.pool.data();
    const auto apply = [&](TraceEffects::Rec r, std::uint64_t w) {
        for (std::uint16_t i = 0; i < r.len; ++i)
            acc[pool[r.off + i]] ^= w;
    };
    for (const TraceEffects::Input &in : fx.inputs) {
        if (const std::uint64_t wx = x[in.q * stride] & m)
            apply(in.x, wx);
        if (const std::uint64_t wz = z[in.q * stride] & m)
            apply(in.z, wz);
    }
    const auto applyFired = [&](const TraceEffects::Site &site,
                                std::uint64_t fired) {
        if (site.kind == TraceEffects::kReadout) {
            acc[site.meas] ^= fired;
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
    };
    if (plansAreSparse(trace, model)) {
        // Fired events of all classes, merged back into trace order so
        // the drawPauli stream consumption matches the interpreter.
        struct Cur
        {
            const ClassDrawPlan *plan;
            const std::uint32_t *ids;
            std::uint32_t i, n;
        };
        std::array<Cur, 64> cur;
        std::size_t k = 0;
        for (const TraceClassWalk &e : trace.walkPlan) {
            if (e.degenerate)
                continue;
            const ClassDrawPlan &plan = model.plans[e.cls];
            // Pristine post-planning state: kNoFire here means no
            // events were drained for this replay (eventOrd may hold
            // stale ones).
            if (plan.nextFireOrd == ClassDrawPlan::kNoFire)
                continue;
            qla_assert(k < cur.size(), "trace samples too many classes");
            cur[k++] = {&plan, fx.classSiteIds[e.cls].data(), 0,
                        static_cast<std::uint32_t>(plan.eventOrd.size())};
        }
        while (k) {
            std::size_t best = 0;
            std::uint32_t bestSite
                = cur[0].ids[cur[0].plan->eventOrd[cur[0].i]];
            for (std::size_t j = 1; j < k; ++j) {
                const std::uint32_t s
                    = cur[j].ids[cur[j].plan->eventOrd[cur[j].i]];
                if (s < bestSite) {
                    best = j;
                    bestSite = s;
                }
            }
            applyFired(fx.sites[bestSite],
                       cur[best].plan->eventMask[cur[best].i]);
            if (++cur[best].i == cur[best].n)
                cur[best] = cur[--k];
        }
    } else {
        // Dense / always-fires plans: scan the site table in trace
        // order, reading each site's fired word straight from its
        // class plan. A sparse class's misses cost one compare against
        // its next scheduled ordinal; dense scratch words are zeroed
        // back as they are consumed, exactly like the fire() path.
        enum : std::uint8_t { kNever, kSparse, kDense, kAlways };
        struct ClsState
        {
            ClassDrawPlan *plan = nullptr;
            std::uint32_t ord = 0;
            std::uint32_t next = 0;
            std::uint32_t nextOrd = ClassDrawPlan::kNoFire;
            std::uint32_t n = 0;
            std::uint64_t always = 0;
            std::uint8_t mode = kNever;
        };
        thread_local std::vector<ClsState> state_storage;
        if (state_storage.size() < model.plans.size())
            state_storage.resize(model.plans.size());
        ClsState *state = state_storage.data();
        for (const TraceClassWalk &e : trace.walkPlan) {
            ClsState &st = state[e.cls];
            st = ClsState{};
            if (e.degenerate) {
                if (e.degenerateFires) {
                    st.mode = kAlways;
                    st.always = e.degenerateFires & m;
                }
                continue;
            }
            ClassDrawPlan &plan = model.plans[e.cls];
            if (plan.nextFireOrd == ClassDrawPlan::kNoFire)
                continue;
            st.plan = &plan;
            if (plan.dense) {
                st.mode = kDense;
            } else {
                st.mode = kSparse;
                st.nextOrd = plan.eventOrd[0];
                st.n = static_cast<std::uint32_t>(plan.eventOrd.size());
            }
        }
        const std::uint32_t numSites
            = static_cast<std::uint32_t>(fx.sites.size());
        for (std::uint32_t s = 0; s < numSites; ++s) {
            const TraceEffects::Site &site = fx.sites[s];
            ClsState &st = state[site.cls];
            const std::uint32_t ord = st.ord++;
            std::uint64_t fired = 0;
            switch (st.mode) {
              case kNever:
                continue;
              case kSparse:
                if (ord != st.nextOrd)
                    continue;
                fired = st.plan->eventMask[st.next];
                ++st.next;
                st.nextOrd = st.next < st.n ? st.plan->eventOrd[st.next]
                                            : ClassDrawPlan::kNoFire;
                break;
              case kDense:
                fired = st.plan->fires[ord];
                st.plan->fires[ord] = 0;
                break;
              case kAlways:
                fired = st.always;
                break;
            }
            if (fired)
                applyFired(site, fired);
        }
    }
    const std::size_t base = flips.size();
    flips.resize(base + fx.numMeas);
    std::copy_n(acc, fx.numMeas, flips.data() + base);
    const std::uint64_t keep = ~m;
    for (std::size_t l = 0; l < fx.qubitOf.size(); ++l) {
        std::uint64_t &xq = x[fx.qubitOf[l] * stride];
        std::uint64_t &zq = z[fx.qubitOf[l] * stride];
        xq = (xq & keep) | acc[fx.numMeas + 2 * l];
        zq = (zq & keep) | acc[fx.numMeas + 2 * l + 1];
    }
}

/**
 * Replay @p trace on a W-word SIMD plane: word i of the tile replays
 * under masks[i] with models[i], its frame planes at x/z[q * stride + i]
 * and its flip words appended to flips[i].
 *
 * The gate cases are W-length word loops over adjacent memory -- the
 * auto-vectorizable kernels this file exists for. The noise and readout
 * cases go through fire1/fire2/readout, which loop sub-words and skip
 * inactive ones, because sampler state is per word: each word's lanes
 * consume randomness in exactly the order a per-word replay would, so
 * results are bit-identical for every tile width.
 *
 * StaticStride != 0 folds the row stride into the addressing at
 * compile time; the single-word fast paths instantiate StaticStride
 * = 1, which turns every q * stride + i access into a plain q index.
 */
template <int W, int StaticStride = 0>
void
replayTraceTile(const FrameTrace &trace, std::uint64_t *x,
                std::uint64_t *z, std::size_t dyn_stride,
                BatchedNoiseModel *models, const std::uint64_t *masks,
                std::vector<std::uint64_t> *flips)
{
    const std::size_t stride
        = StaticStride ? std::size_t{StaticStride} : dyn_stride;
    std::uint64_t m[W];
    for (int i = 0; i < W; ++i)
        m[i] = masks[i];

    const auto fire1 = [&](std::uint8_t cls, std::size_t q) {
        for (int i = 0; i < W; ++i) {
            if (!m[i])
                continue;
            const std::uint64_t fired
                = PlannedSampling::fire(models[i], cls, m[i]);
            if (!fired)
                continue;
            const auto d = quantum::drawPauli1(fired, models[i].lanes);
            x[q * stride + i] ^= d.fx;
            z[q * stride + i] ^= d.fz;
        }
    };
    const auto fire2 = [&](std::uint8_t cls, std::size_t a,
                           std::size_t b) {
        for (int i = 0; i < W; ++i) {
            if (!m[i])
                continue;
            const std::uint64_t fired
                = PlannedSampling::fire(models[i], cls, m[i]);
            if (!fired)
                continue;
            const auto d = quantum::drawPauli2(fired, models[i].lanes);
            x[a * stride + i] ^= d.fxa;
            z[a * stride + i] ^= d.fza;
            x[b * stride + i] ^= d.fxb;
            z[b * stride + i] ^= d.fzb;
        }
    };
    // Inactive words still push a zero flip word so every word's flip
    // buffer stays index-aligned with the trace's measurement order.
    const auto readout = [&](std::size_t q, bool measure_x,
                             std::uint8_t cls) {
        for (int i = 0; i < W; ++i) {
            std::uint64_t word = 0;
            if (m[i]) {
                std::uint64_t &xq = x[q * stride + i];
                std::uint64_t &zq = z[q * stride + i];
                word = (measure_x ? zq : xq) & m[i];
                xq &= ~m[i];
                zq &= ~m[i];
                word ^= PlannedSampling::fire(models[i], cls, m[i]);
            }
            flips[i].push_back(word);
        }
    };

    for (const FrameOp &op : trace.ops) {
        switch (op.kind) {
          case FrameOp::Kind::H:
          case FrameOp::Kind::NoisyH:
            for (int i = 0; i < W; ++i) {
                std::uint64_t &xq = x[op.a * stride + i];
                std::uint64_t &zq = z[op.a * stride + i];
                const std::uint64_t d = (xq ^ zq) & m[i];
                xq ^= d;
                zq ^= d;
            }
            if (op.kind == FrameOp::Kind::NoisyH)
                fire1(op.cls, op.a);
            break;
          case FrameOp::Kind::S:
            for (int i = 0; i < W; ++i)
                z[op.a * stride + i] ^= x[op.a * stride + i] & m[i];
            break;
          case FrameOp::Kind::Cnot:
            for (int i = 0; i < W; ++i) {
                x[op.b * stride + i] ^= x[op.a * stride + i] & m[i];
                z[op.a * stride + i] ^= z[op.b * stride + i] & m[i];
            }
            break;
          case FrameOp::Kind::Cz:
            for (int i = 0; i < W; ++i) {
                const std::uint64_t xa = x[op.a * stride + i];
                z[op.a * stride + i] ^= x[op.b * stride + i] & m[i];
                z[op.b * stride + i] ^= xa & m[i];
            }
            break;
          case FrameOp::Kind::Swap:
            for (int i = 0; i < W; ++i) {
                std::uint64_t &xa = x[op.a * stride + i];
                std::uint64_t &xb = x[op.b * stride + i];
                std::uint64_t &za = z[op.a * stride + i];
                std::uint64_t &zb = z[op.b * stride + i];
                const std::uint64_t dx = (xa ^ xb) & m[i];
                const std::uint64_t dz = (za ^ zb) & m[i];
                xa ^= dx;
                xb ^= dx;
                za ^= dz;
                zb ^= dz;
            }
            break;
          case FrameOp::Kind::Reset:
            for (int i = 0; i < W; ++i) {
                x[op.a * stride + i] &= ~m[i];
                z[op.a * stride + i] &= ~m[i];
            }
            break;
          case FrameOp::Kind::Noise1:
            fire1(op.cls, op.a);
            break;
          case FrameOp::Kind::Noise2:
            fire2(op.cls, op.a, op.b);
            break;
          case FrameOp::Kind::NoisyCnotMT:
          case FrameOp::Kind::NoisyCnotMTMeasZ:
          case FrameOp::Kind::NoisyCnotMTMeasX:
            // Shuttle fault on the target, CNOT, two-qubit fault
            // (control, target), shuttle-back fault -- the scalar
            // transversal step's exact order.
            fire1(op.cls, op.b);
            for (int i = 0; i < W; ++i) {
                x[op.b * stride + i] ^= x[op.a * stride + i] & m[i];
                z[op.a * stride + i] ^= z[op.b * stride + i] & m[i];
            }
            fire2(op.cls2, op.a, op.b);
            fire1(op.cls, op.b);
            if (op.kind == FrameOp::Kind::NoisyCnotMTMeasZ)
                readout(op.b, false, op.cls3);
            else if (op.kind == FrameOp::Kind::NoisyCnotMTMeasX)
                readout(op.b, true, op.cls3);
            break;
          case FrameOp::Kind::NoisyCnotMC:
          case FrameOp::Kind::NoisyCnotMCMeasZ:
          case FrameOp::Kind::NoisyCnotMCMeasX:
            fire1(op.cls, op.a);
            for (int i = 0; i < W; ++i) {
                x[op.b * stride + i] ^= x[op.a * stride + i] & m[i];
                z[op.a * stride + i] ^= z[op.b * stride + i] & m[i];
            }
            fire2(op.cls2, op.b, op.a);
            fire1(op.cls, op.a);
            if (op.kind == FrameOp::Kind::NoisyCnotMCMeasZ)
                readout(op.a, false, op.cls3);
            else if (op.kind == FrameOp::Kind::NoisyCnotMCMeasX)
                readout(op.a, true, op.cls3);
            break;
          case FrameOp::Kind::ResetRange:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                for (int i = 0; i < W; ++i) {
                    x[q * stride + i] &= ~m[i];
                    z[q * stride + i] &= ~m[i];
                }
            break;
          case FrameOp::Kind::Noise1Range:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                fire1(op.cls, q);
            break;
          case FrameOp::Kind::MeasureZRange:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                readout(q, false, op.cls);
            break;
          case FrameOp::Kind::MeasureXRange:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                readout(q, true, op.cls);
            break;
          case FrameOp::Kind::MeasureZ:
            readout(op.a, false, op.cls);
            break;
          case FrameOp::Kind::MeasureX:
            readout(op.a, true, op.cls);
            break;
        }
    }
}

/**
 * Plan and replay one active word whose frame rows are packed (stride
 * 1): the replayTrace shape, and the whole batch of a one-word group.
 */
void
replayWord(const FrameTrace &trace, std::uint64_t *x, std::uint64_t *z,
           BatchedNoiseModel &model, std::uint64_t active,
           std::vector<std::uint64_t> &flips)
{
    planTraceDraws(trace, model, active);
    if (trace.effects
        && compiledIsCheaper(trace, model, x, z, 1, active, 1)) {
        replayCompiled(trace, x, z, 1, model, active, flips);
        return;
    }
    replayTraceTile<1, 1>(trace, x, z, 1, &model, &active, &flips);
    verifyTracePlans(trace, model);
}

} // namespace

void
replayTrace(const FrameTrace &trace, quantum::BatchedPauliFrame &frame,
            BatchedNoiseModel &noise, std::uint64_t active,
            std::vector<std::uint64_t> &flips)
{
    // An inactive word consumes no randomness and changes no frame bit;
    // it only appends its zero flip words.
    if (!active) {
        flips.resize(flips.size() + trace.numMeasurements);
        return;
    }
    flips.reserve(flips.size() + trace.numMeasurements);
    replayWord(trace, frame.xData(), frame.zData(), noise, active, flips);
}

void
replayTraceGroup(const FrameTrace &trace,
                 quantum::GroupPauliFrames &frames,
                 BatchedNoiseModel *models, const std::uint64_t *masks,
                 std::size_t num_words, std::vector<std::uint64_t> *flips)
{
    static_assert(kReplayTileWords == 4,
                  "the tile dispatch below instantiates 4-, 2- and 1-word "
                  "planes");
    // The group's rows must be packed (or over-provisioned) for this
    // batch: reset(num_words) is the batch prologue that guarantees it.
    qla_assert(num_words <= frames.stride());
    const std::size_t stride = frames.stride();
    std::uint64_t *x = frames.xData();
    std::uint64_t *z = frames.zData();

    for (std::size_t w = 0; w < num_words; ++w) {
        flips[w].clear();
        flips[w].reserve(trace.numMeasurements);
    }

    // Single-word fast path: a one-word group with packed rows is
    // exactly the replayTrace shape, so skip the tile-carving loop and
    // run the compile-time-stride-1 kernel directly -- this is the L2
    // failureRate probe's whole batch.
    if (num_words == 1 && stride == 1) {
        if (masks[0])
            replayWord(trace, x, z, models[0], masks[0], flips[0]);
        return;
    }

    std::size_t w0 = 0;
    while (w0 < num_words) {
        const std::size_t tile
            = std::min(kReplayTileWords, std::bit_floor(num_words - w0));
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < tile; ++i)
            any |= masks[w0 + i];
        if (!any) {
            w0 += tile;
            continue;
        }
        bool compiled = trace.effects != nullptr;
        for (std::size_t i = 0; i < tile; ++i)
            if (masks[w0 + i]) {
                planTraceDraws(trace, models[w0 + i], masks[w0 + i]);
                compiled = compiled
                           && compiledIsCheaper(trace, models[w0 + i],
                                                x + w0 + i, z + w0 + i,
                                                stride, masks[w0 + i],
                                                tile);
            }
        // When every word of the tile prices cheaper through the
        // compiled effect model, replay word by word through it;
        // inactive words still append their zero flip words to stay
        // index-aligned. Mixed tiles keep the interpreter for the whole
        // tile (the plans serve either consumer).
        if (compiled) {
            for (std::size_t i = 0; i < tile; ++i) {
                if (!masks[w0 + i]) {
                    flips[w0 + i].resize(flips[w0 + i].size()
                                         + trace.numMeasurements);
                    continue;
                }
                replayCompiled(trace, x + w0 + i, z + w0 + i, stride,
                               models[w0 + i], masks[w0 + i],
                               flips[w0 + i]);
            }
            w0 += tile;
            continue;
        }
        switch (tile) {
          case 4:
            replayTraceTile<4>(trace, x + w0, z + w0, stride, models + w0,
                               masks + w0, flips + w0);
            break;
          case 2:
            replayTraceTile<2>(trace, x + w0, z + w0, stride, models + w0,
                               masks + w0, flips + w0);
            break;
          default:
            replayTraceTile<1>(trace, x + w0, z + w0, stride, models + w0,
                               masks + w0, flips + w0);
            break;
        }
        for (std::size_t i = 0; i < tile; ++i)
            if (masks[w0 + i])
                verifyTracePlans(trace, models[w0 + i]);
        w0 += tile;
    }
}

} // namespace qla::arq
