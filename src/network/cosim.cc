#include "network/cosim.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/shot_scheduler.h"

namespace qla::network {

namespace {

/** SplitMix64 finalizer for mixing run and fault seeds. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One unsatisfied EPR demand of an active gate. */
struct PendingDemand
{
    std::size_t gate = 0;
    int relWindow = 0;    ///< Gate-relative window consuming the pairs.
    std::size_t slot = 0; ///< Demand index within that window.
    EprDemand demand;     ///< .pairs holds the *remaining* pairs.
    /** Island distance of the demand; endpoints are fixed at emission. */
    int distance = 0;
    int age = 0;
    /** Routing priority key, refreshed each window before sorting. */
    int urgency = 0;
    /** Below-threshold rejections so far (retry-budget consumption). */
    int attempts = 0;
    /** Absolute window before which the demand sits out (backoff). */
    std::uint64_t backoffUntil = 0;
};

/** A gate occupying its operands (and gadget ancilla tiles). */
struct ActiveGate
{
    std::size_t id = 0;
    /** False while pre-activated: dependencies are in their final
     *  prefetch windows, so EPR demands are already being routed ("EPR
     *  pairs are prefetched while the consuming qubits are still in
     *  error correction") but no computation windows commit yet. */
    bool started = false;
    int progress = 0;   ///< Windows committed so far.
    int emittedUpTo = 0; ///< Relative windows with demands issued.
    bool stalledEver = false;
    /** Successors were told this gate is in its final prefetch span. */
    bool nearDoneNotified = false;
    /** Had at least one demand abandoned (degraded execution). */
    bool degraded = false;
    /** Fallback penalty still to serve, in stall windows: charged when
     *  a demand of this gate is abandoned, worked off one window per
     *  advance before any progress can commit. */
    int penaltyWindows = 0;
    /** Operands classified against the memory hierarchy (done once,
     *  when the gate first emits demands). */
    bool cacheChecked = false;
    /** Code-conversion windows still to serve after a cache miss
     *  fetched an operand encoded below the compute level; worked off
     *  after delivery, before progress commits. */
    int conversionWindows = 0;
    /** Pending mesh demands per relative window. */
    std::vector<int> undeliveredFor;
    std::vector<EntityId> ancillas;
};

/**
 * The per-run engine: owns all mutable co-simulation state and runs the
 * window loop.
 */
class CoSimEngine
{
  public:
    CoSimEngine(const ProgramWorkload &program, const CoSimConfig &config,
                const MeshExtent &extent, const WindowProbeFn &probe)
        : program_(program), config_(config), probe_(probe),
          mesh_(extent.width, extent.height, config.bandwidth,
                slotsForWindow()),
          placement_(extent.width, extent.height,
                     program.config().tilesPerIslandX),
          deps_remaining_(program.gates().size())
    {
        // Spread the data qubits out so every neighborhood keeps free
        // tiles for gadget-ancilla blocks and drift (capped: scattering
        // them over a huge mesh would stretch data-data routes).
        const int stride = static_cast<int>(std::clamp<std::size_t>(
            placement_.totalTiles()
                / std::max<std::size_t>(1,
                                        program_.circuit().numQubits()),
            1,
            2 * static_cast<std::size_t>(
                    program.config().tilesPerIslandX)));
        // PR 8 memory hierarchy. With computeFraction >= 1 the region
        // map is uniform, the regioned placement defers to the uniform
        // one byte-for-byte, and every cache hook below is bypassed.
        hierarchy_on_ = config_.memory.enabled();
        regions_ = arch::RegionMap(extent.width, extent.height,
                                   program.config().tilesPerIslandX,
                                   config_.memory.computeFraction);
        placeProgramQubitsRegioned(placement_, program_.circuit(),
                                   regions_, config_.placement,
                                   Rng(config_.seed), stride);
        report_.computeTiles = regions_.computeTiles();
        report_.memoryTiles = regions_.memoryTiles();
        if (hierarchy_on_) {
            mem_params_ = arch::RegionCodeParams::memoryAtLevel(
                config_.memory.memoryCodeLevel);
            fetch_pairs_ = config_.memory.pairsPerFetch
                ? config_.memory.pairsPerFetch
                : mem_params_.teleportPairs;
            // Belady eviction needs each data qubit's next use: the
            // gate lists are already in increasing id order.
            uses_of_.resize(program_.circuit().numQubits());
            for (std::size_t i = 0; i < program_.gates().size(); ++i)
                for (const std::size_t q : program_.gates()[i].qubits)
                    uses_of_[q].push_back(i);
        }
        far_deps_.resize(program_.gates().size());
        for (std::size_t i = 0; i < program_.gates().size(); ++i) {
            deps_remaining_[i] = program_.gates()[i].dependencyCount;
            far_deps_[i] = deps_remaining_[i];
            if (deps_remaining_[i] == 0)
                ready_.push_back(i);
        }
        warmup_remaining_ = kPrefetchWindows;
        report_.perGate.resize(program_.gates().size());

        // PR 7 noisy-interconnect machinery. All of it is bypassed on
        // the clean path: zero fault rates and an ideal fidelity model
        // draw no randomness and leave every routing decision
        // bit-identical to the fault-free engine.
        if (config_.linkFaults.any()) {
            LinkFaultConfig faults = config_.linkFaults;
            faults.seed = mixSeed(faults.seed ^ mixSeed(config_.seed));
            mesh_.setLinkFaults(faults);
            loss_rate_ = faults.pairLossRate;
        }
        fidelity_on_ = config_.fidelity.enabled()
            || config_.linkFaults.burstRate > 0.0;
        noisy_ = fidelity_on_ || config_.linkFaults.any();
        if (fidelity_on_) {
            link_plan_ = purifiedLinkPlan(config_.fidelity);
            // Longest route the router can produce: dimension-ordered
            // distance plus a full detour excursion both ways.
            const int max_hops = extent.width + extent.height
                + 2 * (kDetourRadius + 1);
            path_fidelity_ = PathFidelityTable(
                link_plan_.linkFidelity, config_.fidelity.opError,
                max_hops);
        }
        // Transit-loss draws are consumed in the deterministic sorted
        // routing order, so one engine-owned stream suffices.
        loss_rng_ = Rng(mixSeed(config_.seed ^ 0x10551055c0c0c0c0ULL));
    }

    CoSimReport run()
    {
        report_.criticalPathWindows = program_.criticalPathWindows();
        if (program_.gates().empty()) {
            report_.completed = true;
            return report_;
        }
        do
            runWindow();
        while (closeWindow());
        report_.windows = mesh_.windowsElapsed()
            - report_.warmupWindows;
        report_.makespan = static_cast<double>(report_.windows)
            * config_.window;
        report_.utilization = mesh_.aggregateUtilization();
        report_.backoffReroutes = route_stats_.backoffReroutes;
        report_.averageRouteLength = routed_count_
            ? route_length_sum_ / static_cast<double>(routed_count_)
            : 0.0;
        return report_;
    }

  private:
    std::uint64_t slotsForWindow() const
    {
        const std::uint64_t slots = slotsPerChannel(config_.window);
        if (!config_.fidelity.enabled())
            return slots;
        // Purification traffic competes with program traffic: pumping a
        // pair to the level target consumes expectedElementaryPairs
        // channel transports, shrinking the purified-pair capacity.
        return purifiedSlotsPerChannel(slots,
                                       purifiedLinkPlan(config_.fidelity));
    }

    EntityId entityOf(const ActiveGate &g, const GateMember &m) const
    {
        if (m.isAncilla)
            return g.ancillas[m.index];
        return program_.gates()[g.id].qubits[m.index];
    }

    /** One window up to its close: at the boundary start, emit and
     *  route, then advance every started gate in id order. */
    void runWindow()
    {
        if (warmup_remaining_ > 0) {
            // Initialization overlap: the initially ready gates'
            // demands prefetch while the logical qubits are still
            // being encoded -- routing-only windows, no computation.
            preActivateReady();
        } else {
            startReadyGates();
            preActivateImminent();
        }
        emitDemands();
        routeWindow();
        if (warmup_remaining_ > 0)
            return;
        // Advancing never adds an active gate, and a gate that completes
        // leaves active_ from its own slot, so the index stays put.
        for (std::size_t i = 0; i < active_.size();)
            if (!active_[i].started || !advanceGate(active_[i]))
                ++i;
    }

    /** Warmup variant of startReadyGates: pre-activate the ready gates
     *  (demands flow, computation does not start) and keep them ready. */
    void preActivateReady()
    {
        for (const std::size_t id : ready_)
            if (!isActive(id))
                activate(id, false); // retried next window on failure
    }

    /** Insert gate @p id into active_ (computing when @p started, else
     *  pre-activated) once its gadget ancillas allocate.
     *  @return false when they do not fit (nothing changes). */
    bool activate(std::size_t id, bool started)
    {
        const LogicalGate &gate = program_.gates()[id];
        ActiveGate active;
        active.id = id;
        active.started = started;
        if (gate.ancillaCount > 0
            && !allocateAncillas(gate, active.ancillas))
            return false;
        active.undeliveredFor.resize(
            static_cast<std::size_t>(gate.durationWindows));
        active_.insert(lowerBoundById(id), std::move(active));
        return true;
    }

    /** Position of gate @p id in the id-sorted active_ vector (or the
     *  insertion point when absent). The single place that encodes the
     *  ordering invariant. */
    std::vector<ActiveGate>::iterator lowerBoundById(std::size_t id)
    {
        return std::lower_bound(
            active_.begin(), active_.end(), id,
            [](const ActiveGate &g, std::size_t v) { return g.id < v; });
    }

    bool isActive(std::size_t id)
    {
        const auto it = lowerBoundById(id);
        return it != active_.end() && it->id == id;
    }

    void startReadyGates()
    {
        std::vector<std::size_t> still_ready;
        for (const std::size_t id : ready_) {
            if (isActive(id)) {
                // Pre-activated while its dependencies finished: the
                // demands are in flight; computation starts now.
                ActiveGate &g = gateById(id);
                g.started = true;
                notifyIfNearDone(g);
                continue;
            }
            if (!activate(id, true)) {
                // The gate is runnable but the mesh has no room for
                // its gadget ancillas: a stall, charged to its own
                // ledger so undersized meshes are diagnosable.
                ++report_.allocationStallWindows;
                still_ready.push_back(id); // retry next window
                continue;
            }
            notifyIfNearDone(gateById(id));
        }
        ready_ = std::move(still_ready);
    }

    /** Gates whose every dependency is inside its final prefetch
     *  windows pre-activate: their EPR demands start routing before the
     *  gate itself can run. */
    void preActivateImminent()
    {
        std::vector<std::size_t> retry;
        std::sort(imminent_.begin(), imminent_.end());
        for (const std::size_t id : imminent_) {
            if (isActive(id) || deps_remaining_[id] == 0)
                continue; // started (or about to) through the ready path
            if (!activate(id, false))
                retry.push_back(id);
        }
        imminent_ = std::move(retry);
    }

    /** Called when @p g starts or commits a window: once its remaining
     *  windows fit inside the prefetch horizon, successors may begin
     *  prefetching their own pairs. */
    void notifyIfNearDone(ActiveGate &g)
    {
        if (g.nearDoneNotified)
            return;
        const int remaining =
            program_.gates()[g.id].durationWindows - g.progress;
        if (remaining > kPrefetchWindows)
            return;
        g.nearDoneNotified = true;
        for (const std::size_t s : program_.gates()[g.id].successors)
            if (--far_deps_[s] == 0 && deps_remaining_[s] > 0)
                imminent_.push_back(s);
    }

    /** Allocate the gadget's ancilla tiles next to its target operand;
     *  all-or-nothing. */
    bool allocateAncillas(const LogicalGate &gate,
                          std::vector<EntityId> &out)
    {
        // Anchor at the operand centroid: finish-phase interactions
        // couple every operand to the ancilla block, so the worst
        // operand distance is what stalls gates with far-apart operands.
        TileCoord anchor{0, 0};
        for (const std::size_t q : gate.qubits) {
            const TileCoord t = placement_.tileOf(q);
            anchor.x += t.x;
            anchor.y += t.y;
        }
        anchor.x /= static_cast<int>(gate.qubits.size());
        anchor.y /= static_cast<int>(gate.qubits.size());
        // Ancilla factories exist only in the compute region (the point
        // of the CQLA split), so gadget tiles must allocate there.
        for (int i = 0; i < gate.ancillaCount; ++i) {
            const auto tile = placement_.nearestFree(anchor, computeBand());
            if (!tile) {
                for (const EntityId e : out)
                    releaseAncilla(e);
                out.clear();
                return false;
            }
            const EntityId entity = acquireAncillaEntity();
            placement_.assign(entity, *tile);
            out.push_back(entity);
        }
        return true;
    }

    EntityId acquireAncillaEntity()
    {
        if (!free_ancilla_slots_.empty()) {
            std::pop_heap(free_ancilla_slots_.begin(),
                          free_ancilla_slots_.end(),
                          std::greater<>{});
            const std::size_t slot = free_ancilla_slots_.back();
            free_ancilla_slots_.pop_back();
            return program_.circuit().numQubits() + slot;
        }
        return program_.circuit().numQubits() + next_ancilla_slot_++;
    }

    void releaseAncilla(EntityId entity)
    {
        placement_.release(entity);
        const std::size_t slot = entity - program_.circuit().numQubits();
        free_ancilla_slots_.push_back(slot);
        std::push_heap(free_ancilla_slots_.begin(),
                       free_ancilla_slots_.end(), std::greater<>{});
    }

    void emitDemands()
    {
        for (ActiveGate &g : active_) {
            const int duration =
                program_.gates()[g.id].durationWindows;
            const int horizon = std::min(
                duration, g.progress + 1 + kPrefetchWindows);
            while (g.emittedUpTo < horizon) {
                const int rel = g.emittedUpTo++;
                // Cache classification (PR 8): the first emitted window
                // fetches missing operands before their islands are
                // read, so the gate's own demands target the
                // post-fetch placement.
                std::size_t slot =
                    rel == 0 ? serviceCacheMisses(g) : 0;
                for (const MemberInteraction &inter :
                     program_.interactionsForWindow(g.id, rel)) {
                    ++report_.interactions;
                    const IslandCoord src = placement_.islandOf(
                        entityOf(g, inter.mover));
                    const IslandCoord dst = placement_.islandOf(
                        entityOf(g, inter.target));
                    emitOne(g, rel, slot++, src, dst,
                            program_.config().pairsPerInteraction);
                    // Without drift the mover teleports straight back:
                    // round-trip traffic on the reverse links.
                    if (!config_.driftOptimization)
                        emitOne(g, rel, slot++, dst, src,
                                program_.config().pairsPerInteraction);
                }
            }
        }
    }

    void emitOne(ActiveGate &g, int rel, std::size_t slot,
                 const IslandCoord &src, const IslandCoord &dst,
                 std::uint64_t pairs)
    {
        report_.pairsRequested += pairs;
        if (src == dst) {
            report_.pairsLocal += pairs;
            return;
        }
        PendingDemand pd;
        pd.gate = g.id;
        pd.relWindow = rel;
        pd.slot = slot;
        pd.demand = EprDemand{src, dst, pairs, g.id};
        pd.distance = islandDistance(src, dst);
        pending_.push_back(pd);
        ++g.undeliveredFor[static_cast<std::size_t>(rel)];
    }

    bool inCompute(const TileCoord &t) const
    {
        return regions_.tileKind(t.x) == arch::RegionKind::Compute;
    }

    /** Tile columns of the compute region (the whole grid when the map
     *  is uniform) and of the memory region (the rest). */
    TileBand computeBand() const
    {
        return {0, regions_.computeIslandColumns()
                       * placement_.tilesPerIslandX()};
    }
    TileBand memoryBand() const { return {computeBand().xEnd}; }

    /** True when @p q is an operand of an active gate other than
     *  @p gate (its tile must not move under that gate). */
    bool pinnedByOther(EntityId q, std::size_t gate) const
    {
        for (const ActiveGate &g : active_) {
            if (g.id == gate)
                continue;
            const auto &qs = program_.gates()[g.id].qubits;
            if (std::find(qs.begin(), qs.end(), q) != qs.end())
                return true;
        }
        return false;
    }

    /**
     * The cache model (PR 8): classify every data-qubit operand of
     * @p g once, on its first demand emission. Compute-resident
     * operands are hits (a local window). A memory-resident operand is
     * a miss: teleport it to a free compute tile -- evicting the
     * compute-resident qubit with the farthest next use when the
     * region is full -- and gate the gate's first window on the fetch
     * (and write-back) EPR delivery, so misses ride the same
     * fidelity-priced router as program traffic and degrade under
     * faults. When no compute tile can be freed the miss executes in
     * place (graceful degradation, no relocation).
     * @return demand slots consumed in the gate's relative window 0.
     */
    std::size_t serviceCacheMisses(ActiveGate &g)
    {
        if (!hierarchy_on_ || g.cacheChecked)
            return 0;
        g.cacheChecked = true;
        std::size_t slot = 0;
        bool fetched_below_level = false;
        for (const std::size_t q : program_.gates()[g.id].qubits) {
            ++report_.operandTouches;
            if (inCompute(placement_.tileOf(q))) {
                ++report_.memHits;
                continue;
            }
            ++report_.memMisses;
            if (mem_params_.codeLevel < 2)
                fetched_below_level = true;
            fetchOperand(g, q, slot);
        }
        if (fetched_below_level)
            // Re-encode the fetched operands up to the compute level;
            // transversal conversions of one gate's operands proceed
            // in parallel, so the charge is per gate, not per miss.
            g.conversionWindows = std::max(
                g.conversionWindows, config_.memory.conversionWindows);
        return slot;
    }

    /** Serve one miss: relocate @p q into the compute region (evicting
     *  if needed) and emit the fetch demand into @p g's window 0. */
    void fetchOperand(ActiveGate &g, EntityId q, std::size_t &slot)
    {
        if (pinnedByOther(q, g.id)) {
            // Another active gate is computing on it where it stands
            // (it had an in-place miss of its own): don't move it.
            ++report_.memInPlaceMisses;
            return;
        }
        // Aim next to the gate's compute-resident operands; a gate
        // whose operands are all in memory fetches to the boundary
        // column nearest its row.
        TileCoord anchor{0, 0};
        int resident = 0;
        for (const std::size_t other : program_.gates()[g.id].qubits) {
            const TileCoord t = placement_.tileOf(other);
            if (other != q && inCompute(t)) {
                anchor.x += t.x;
                anchor.y += t.y;
                ++resident;
            }
        }
        if (resident > 0) {
            anchor.x /= resident;
            anchor.y /= resident;
        } else {
            anchor = TileCoord{computeBand().xEnd - 1,
                               placement_.tileOf(q).y};
        }
        auto tile = placement_.nearestFree(anchor, computeBand());
        if (!tile && evictColdest(g, slot))
            tile = placement_.nearestFree(anchor, computeBand());
        if (!tile) {
            ++report_.memInPlaceMisses;
            return;
        }
        const IslandCoord src = placement_.islandOf(q);
        placement_.moveTo(q, *tile);
        report_.fetchPairsRequested += fetch_pairs_;
        emitOne(g, 0, slot++, src, placement_.islandOf(q),
                fetch_pairs_);
    }

    /**
     * Evict the compute-resident data qubit with the farthest next use
     * (Belady; next use read off the precomputed per-qubit gate lists,
     * ties to the smallest qubit id) that no active gate is holding,
     * moving it to the nearest free memory tile and emitting the
     * write-back demand into @p g's window 0 -- the fetch cannot land
     * until the tile actually frees.
     * @return true when a victim was written back.
     */
    bool evictColdest(ActiveGate &g, std::size_t &slot)
    {
        const std::size_t n = program_.circuit().numQubits();
        std::vector<bool> pinned(n, false);
        for (const ActiveGate &a : active_)
            for (const std::size_t q : program_.gates()[a.id].qubits)
                pinned[q] = true;
        constexpr std::uint64_t kNever = ~std::uint64_t{0};
        EntityId victim = kNoEntity;
        std::uint64_t victim_next = 0;
        for (std::size_t q = 0; q < n; ++q) {
            if (pinned[q] || !placement_.isPlaced(q)
                || !inCompute(placement_.tileOf(q)))
                continue;
            const auto &uses = uses_of_[q];
            const auto it = std::upper_bound(uses.begin(), uses.end(),
                                             g.id);
            const std::uint64_t next =
                it == uses.end() ? kNever : *it;
            if (victim == kNoEntity || next > victim_next) {
                victim = q;
                victim_next = next;
            }
        }
        if (victim == kNoEntity)
            return false;
        const auto tile = placement_.nearestFree(
            placement_.tileOf(victim), memoryBand());
        if (!tile)
            return false; // memory full too: caller degrades in place
        const IslandCoord src = placement_.islandOf(victim);
        placement_.moveTo(victim, *tile);
        ++report_.memEvictions;
        report_.writebackPairsRequested += fetch_pairs_;
        emitOne(g, 0, slot++, src, placement_.islandOf(victim),
                fetch_pairs_);
        return true;
    }

    void routeWindow()
    {
        // Most urgent first: windows closest to consumption, then
        // oldest, then longest routes, then (gate, window, slot) to pin
        // the order fully. Urgency is precomputed once per window and
        // distance once at emission; the comparator must stay
        // lookup-free.
        for (PendingDemand &pd : pending_) {
            const ActiveGate &g = gateById(pd.gate);
            // Pre-active gates cannot consume this window; their
            // demands yield to every started gate's current window.
            pd.urgency = g.started ? pd.relWindow - g.progress
                                   : pd.relWindow + 1;
        }
        std::sort(pending_.begin(), pending_.end(),
                  [](const PendingDemand &a, const PendingDemand &b) {
                      if (a.urgency != b.urgency)
                          return a.urgency < b.urgency;
                      if (a.age != b.age)
                          return a.age > b.age;
                      if (a.distance != b.distance)
                          return a.distance > b.distance;
                      if (a.gate != b.gate)
                          return a.gate < b.gate;
                      if (a.relWindow != b.relWindow)
                          return a.relWindow < b.relWindow;
                      return a.slot < b.slot;
                  });
        const std::uint64_t now = mesh_.windowsElapsed();
        still_pending_.clear();
        for (PendingDemand &pd : pending_) {
            if (pd.backoffUntil > now) {
                // Sitting out a retry backoff: no routing attempt, the
                // channel breathes while the link (hopefully) recovers.
                ++report_.retryBackoffWindows;
                still_pending_.push_back(pd);
                continue;
            }
            grabs_.clear();
            const std::uint64_t moved = routePairs(
                mesh_, pd.demand, pd.demand.pairs, route_stats_,
                noisy_ ? &grabs_ : nullptr);
            std::uint64_t usable = moved;
            bool abandon = false;
            if (noisy_)
                usable = processDelivery(pd, grabs_, abandon);
            report_.pairsRoutedOnMesh += usable;
            pd.demand.pairs -= usable;
            if (pd.demand.pairs == 0) {
                route_length_sum_ += pd.distance;
                ++routed_count_;
                --gateById(pd.gate).undeliveredFor[
                    static_cast<std::size_t>(pd.relWindow)];
            } else if (abandon) {
                abandonDemand(pd);
            } else {
                still_pending_.push_back(pd);
            }
        }
        pending_.swap(still_pending_);
    }

    /**
     * Price one routed delivery under faults and finite fidelity:
     * subtract transit losses, reject bundles whose end-to-end fidelity
     * (swap-composed over the path, degraded per bursting link) falls
     * below the delivery threshold, and track the retry budget. Lost
     * and rejected pairs count as dropped plus a replacement request,
     * keeping the conservation ledger monotone.
     * @return pairs of the grab set that are actually consumable.
     */
    std::uint64_t processDelivery(PendingDemand &pd,
                                  const std::vector<PathGrab> &grabs,
                                  bool &abandon)
    {
        std::uint64_t usable = 0;
        bool rejected_any = false;
        for (const PathGrab &grab : grabs) {
            std::uint64_t survivors = grab.pairs;
            if (loss_rate_ > 0.0) {
                const std::uint64_t lost = sampleLostPairs(
                    loss_rng_, grab.pairs, loss_rate_, grab.hops);
                survivors -= lost;
                report_.pairsLostInTransit += lost;
                report_.pairsDropped += lost;
                report_.pairsRequested += lost; // replacement shipment
            }
            if (survivors == 0)
                continue;
            double fidelity = 1.0;
            if (fidelity_on_) {
                fidelity = path_fidelity_.atHops(grab.hops);
                if (grab.burstLinks > 0)
                    fidelity = PathFidelityTable::withBursts(
                        fidelity, grab.burstLinks,
                        config_.linkFaults.burstDepolarization);
            }
            if (fidelity < config_.fidelity.deliveryThreshold) {
                report_.pairsRejectedFidelity += survivors;
                report_.pairsDropped += survivors;
                report_.pairsRequested += survivors; // re-request
                rejected_any = true;
                continue;
            }
            usable += survivors;
            if (fidelity_on_) {
                report_.fidelityPairs += survivors;
                report_.deliveredFidelitySum +=
                    fidelity * static_cast<double>(survivors);
                report_.deliveredFidelityMin =
                    std::min(report_.deliveredFidelityMin, fidelity);
            }
        }
        abandon = false;
        if (rejected_any) {
            ++report_.retryAttempts;
            ++report_.perGate[pd.gate].retryAttempts;
            ++pd.attempts;
            if (pd.attempts > config_.fidelity.retryBudget) {
                abandon = true;
            } else {
                // Exponential backoff, capped at 8x the base.
                const int shift = std::min(pd.attempts - 1, 3);
                pd.backoffUntil = mesh_.windowsElapsed()
                    + (static_cast<std::uint64_t>(
                           std::max(1, config_.fidelity.backoffWindows))
                       << shift);
            }
        }
        return usable;
    }

    /** Retry budget exhausted: give up on the demand's remaining pairs
     *  and charge the gate the fallback penalty (served as stall
     *  windows before any further progress). */
    void abandonDemand(PendingDemand &pd)
    {
        const std::uint64_t remaining = pd.demand.pairs;
        report_.pairsAbandoned += remaining;
        ++report_.demandsAbandoned;
        report_.perGate[pd.gate].pairsAbandoned += remaining;
        ActiveGate &g = gateById(pd.gate);
        if (!g.degraded) {
            g.degraded = true;
            ++report_.gatesDegraded;
        }
        g.penaltyWindows += config_.fidelity.abandonPenaltyWindows;
        --g.undeliveredFor[static_cast<std::size_t>(pd.relWindow)];
    }

    ActiveGate &gateById(std::size_t id)
    {
        const auto it = lowerBoundById(id);
        qla_assert(it != active_.end() && it->id == id,
                   "active gate ", id, " not found");
        return *it;
    }

    /** Commit (or stall) the current window of started gate @p g.
     *  @return true when @p g completed and left active_. */
    bool advanceGate(ActiveGate &g)
    {
        const std::size_t id = g.id;
        if (g.penaltyWindows > 0) {
            // Abandonment fallback executing (ballistic re-shipment /
            // re-synthesis of the missing interaction): the gate burns
            // the penalty before any further window can commit.
            --g.penaltyWindows;
            ++report_.stallWindows;
            ++report_.fallbackPenaltyWindows;
            ++report_.perGate[id].stallWindows;
            ++report_.perGate[id].penaltyWindows;
            if (!g.stalledEver) {
                g.stalledEver = true;
                ++report_.gatesStalled;
            }
            return false;
        }
        if (g.undeliveredFor[static_cast<std::size_t>(g.progress)] > 0) {
            // Gated on delivery: this window did not commit.
            ++report_.stallWindows;
            ++report_.perGate[id].stallWindows;
            if (!g.stalledEver) {
                g.stalledEver = true;
                ++report_.gatesStalled;
            }
            return false;
        }
        if (g.conversionWindows > 0) {
            // Cache-miss code conversion (PR 8): the fetched operands
            // arrived (the delivery gate above passed) but are still
            // re-encoding up to the compute level.
            --g.conversionWindows;
            ++report_.stallWindows;
            ++report_.missConversionWindows;
            ++report_.perGate[id].stallWindows;
            if (!g.stalledEver) {
                g.stalledEver = true;
                ++report_.gatesStalled;
            }
            return false;
        }
        if (config_.driftOptimization) {
            for (const MemberInteraction &inter :
                 program_.interactionsForWindow(id, g.progress)) {
                const EntityId mover = entityOf(g, inter.mover);
                const EntityId target = entityOf(g, inter.target);
                // Drift must not cross the region boundary: a fetched
                // (compute) qubit stays cached, an in-place-miss
                // (memory) qubit stays in memory.
                if (placement_.driftToward(
                        mover, target,
                        inCompute(placement_.tileOf(mover))
                            ? computeBand()
                            : memoryBand()))
                    ++report_.driftMoves;
            }
        }
        ++g.progress;
        notifyIfNearDone(g);
        if (g.progress < program_.gates()[id].durationWindows)
            return false;
        // Complete: free the gadget tiles, unlock successors.
        for (const EntityId e : g.ancillas)
            releaseAncilla(e);
        for (const std::size_t s : program_.gates()[id].successors)
            if (--deps_remaining_[s] == 0)
                ready_.push_back(s);
        std::sort(ready_.begin(), ready_.end());
        active_.erase(lowerBoundById(id));
        ++report_.gates;
        return true;
    }

    /** Probe, advance the mesh clock and age the pending demands.
     *  @return true when another window follows. */
    bool closeWindow()
    {
        if (probe_) {
            WindowProbe probe;
            probe.window = mesh_.windowsElapsed();
            probe.pairsRequested = report_.pairsRequested;
            probe.pairsDelivered = report_.pairsDelivered();
            probe.pairsDropped = report_.pairsDropped;
            probe.pairsAbandoned = report_.pairsAbandoned;
            probe.retryAttempts = report_.retryAttempts;
            probe.stallWindows = report_.stallWindows;
            probe.operandTouches = report_.operandTouches;
            probe.memHits = report_.memHits;
            probe.memMisses = report_.memMisses;
            probe.memEvictions = report_.memEvictions;
            for (const PendingDemand &pd : pending_)
                probe.pairsPending += pd.demand.pairs;
            probe.placement = &placement_;
            probe.mesh = &mesh_;
            probe_(probe);
        }
        mesh_.advanceWindow();
        if (warmup_remaining_ > 0) {
            --warmup_remaining_;
            ++report_.warmupWindows;
        } else if (report_.gates == program_.gates().size()) {
            report_.completed = true;
            return false;
        }
        if (mesh_.windowsElapsed() >= config_.maxWindows)
            return false; // runaway guard: completed stays false
        for (PendingDemand &pd : pending_) {
            ++pd.age;
            report_.deferredPairWindows += pd.demand.pairs;
        }
        return true;
    }

    const ProgramWorkload &program_;
    const CoSimConfig &config_;
    const WindowProbeFn &probe_;
    IslandMesh mesh_;
    TilePlacement placement_;
    CoSimReport report_;
    RouteStats route_stats_;

    std::vector<int> deps_remaining_;
    /** Dependencies not yet inside their final prefetch windows. */
    std::vector<int> far_deps_;
    /** Gates eligible for pre-activation (every dependency near done). */
    std::vector<std::size_t> imminent_;
    std::vector<std::size_t> ready_;   // sorted gate ids
    std::vector<ActiveGate> active_;   // sorted by id
    std::vector<PendingDemand> pending_;
    /** routeWindow's carry-over buffer, swapped with pending_. */
    std::vector<PendingDemand> still_pending_;
    std::vector<std::size_t> free_ancilla_slots_; // min-heap
    std::size_t next_ancilla_slot_ = 0;
    int warmup_remaining_ = 0;
    double route_length_sum_ = 0.0;
    std::uint64_t routed_count_ = 0;

    // PR 7 noisy-delivery state (inert on the clean path).
    bool noisy_ = false;       ///< Any fault/fidelity machinery active.
    /** Grabs of the demand being routed (reused, cleared per demand). */
    std::vector<PathGrab> grabs_;
    bool fidelity_on_ = false; ///< Delivered pairs carry a fidelity.
    double loss_rate_ = 0.0;
    LinkPurificationPlan link_plan_;
    PathFidelityTable path_fidelity_;
    Rng loss_rng_{0};

    // PR 8 memory-hierarchy state (inert on the uniform mesh).
    bool hierarchy_on_ = false;
    arch::RegionMap regions_;
    arch::RegionCodeParams mem_params_;
    std::uint64_t fetch_pairs_ = 0;
    /** Per data qubit: gate ids touching it, increasing (Belady). */
    std::vector<std::vector<std::size_t>> uses_of_;
};

} // namespace

ProgramCoSimulator::ProgramCoSimulator(const ProgramWorkload &program,
                                       CoSimConfig config)
    : program_(program), config_(config)
{
    extent_ = (config_.meshWidth > 0 && config_.meshHeight > 0)
        ? MeshExtent{config_.meshWidth, config_.meshHeight}
        : meshForProgram(program_);
    qla_assert(extent_.width > 1 && extent_.height > 1,
               "mesh too small for co-simulation");
}

CoSimReport
ProgramCoSimulator::run(const WindowProbeFn &probe)
{
    CoSimEngine engine(program_, config_, extent_, probe);
    return engine.run();
}

std::vector<CoSimSweepPoint>
runCoSimSweep(const std::vector<ProgramWorkload> &workloads,
              const CoSimSweepConfig &config)
{
    std::vector<CoSimSweepPoint> points;
    for (std::size_t w = 0; w < workloads.size(); ++w)
      for (const int bandwidth : config.bandwidths)
        for (const double fault_rate : config.faultRates)
          for (const int level : config.purificationLevels)
            for (const double fidelity : config.linkFidelities)
              for (const double fraction : config.computeFractions)
                for (const int mem_level : config.memoryCodeLevels)
                  for (const std::uint64_t seed : config.seeds) {
                      CoSimSweepPoint point;
                      point.workload = w;
                      point.bandwidth = bandwidth;
                      point.faultRate = fault_rate;
                      point.purificationLevel = level;
                      point.linkFidelity = fidelity;
                      point.computeFraction = fraction;
                      point.memoryLevel = mem_level;
                      point.seed = seed;
                      points.push_back(point);
                  }
    if (points.empty())
        return points;
    sim::ShotScheduler scheduler(config.threads);
    scheduler.run(points.size(), [&](std::size_t job, int) {
        CoSimSweepPoint &point = points[job];
        CoSimConfig cosim = config.base;
        cosim.bandwidth = point.bandwidth;
        cosim.seed = point.seed;
        cosim.linkFaults = config.base.linkFaults.atRate(point.faultRate);
        cosim.fidelity.elementaryFidelity = point.linkFidelity;
        cosim.fidelity.purificationLevel = point.purificationLevel;
        cosim.memory.computeFraction = point.computeFraction;
        cosim.memory.memoryCodeLevel = point.memoryLevel;
        ProgramCoSimulator simulator(workloads[point.workload], cosim);
        point.report = simulator.run();
    });
    return points;
}

CoSimSweepStats
reduceCoSimSweep(const std::vector<CoSimSweepPoint> &points)
{
    CoSimSweepStats stats;
    for (const CoSimSweepPoint &point : points) {
        stats.makespanWindows.add(
            static_cast<double>(point.report.windows));
        stats.utilization.add(point.report.utilization);
        stats.stallWindows.add(
            static_cast<double>(point.report.stallWindows));
        stats.stalledRuns.add(!point.report.fullyOverlapped());
        stats.droppedPairs.add(
            static_cast<double>(point.report.pairsDropped));
        stats.abandonedPairs.add(
            static_cast<double>(point.report.pairsAbandoned));
        stats.retryAttempts.add(
            static_cast<double>(point.report.retryAttempts));
        stats.residualEprError.add(point.report.residualEprError());
        stats.degradedRuns.add(point.report.demandsAbandoned > 0);
        stats.cacheMisses.add(
            static_cast<double>(point.report.memMisses));
        stats.cacheMissRate.add(point.report.missRate());
        stats.cacheEvictions.add(
            static_cast<double>(point.report.memEvictions));
    }
    return stats;
}

} // namespace qla::network
