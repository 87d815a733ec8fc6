/**
 * @file
 * Fidelity-aware EPR delivery: the bridge between the teleport stack
 * (Werner pairs, nested pumping, swapping) and the co-simulated
 * interconnect (PR 7 noisy-interconnect co-design).
 *
 * The paper budgets channel bandwidth (Figure 9) assuming every
 * teleported pair arrives usable. This module prices the assumption:
 * each mesh link produces elementary Werner pairs of some fidelity,
 * pumps them to a purification-level target using the Section 4.2
 * nested-pumping planner (teleport/purification.h), and pays for the
 * pumping with *channel slots* -- a purified pair costs
 * SegmentPlan::expectedElementaryPairs elementary transports, so the
 * purified-pair capacity of a channel shrinks accordingly. Multi-hop
 * routes compose per-link pairs by entanglement swapping, and
 * depolarization bursts on crossed links degrade the delivered pair
 * further. The co-simulator gates gate windows on the resulting
 * end-to-end fidelity.
 */

#ifndef QLA_NETWORK_FIDELITY_H
#define QLA_NETWORK_FIDELITY_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "teleport/purification.h"
#include "teleport/werner.h"

namespace qla::network {

/** Fallback penalty charged to a gate per abandoned demand, in stall
 *  windows (the cost of falling back to ballistic shuttling /
 *  recompilation for the missing interaction). */
inline constexpr int kAbandonPenaltyWindows = 4;

/** Base backoff after a rejected delivery, in windows (doubles per
 *  retry, capped at 8x). */
inline constexpr int kBackoffWindows = 1;

/**
 * Fidelity model for EPR delivery in the co-simulator.
 *
 * Defaults reproduce the ideal interconnect exactly: elementary
 * fidelity 1.0, no pumping, no operation error, and no delivery
 * threshold leave every counter and routing decision bit-identical to
 * the fault-free engine.
 */
struct FidelityConfig
{
    /** Werner fidelity of one elementary (single-link) pair. */
    double elementaryFidelity = 1.0;
    /**
     * Purification level L: each link pumps its pairs toward the ladder
     * target 1 - (1 - F_elem) / 4^L (capped just under the pumping
     * ceiling). Level 0 ships raw elementary pairs at slot cost 1.
     */
    int purificationLevel = 0;
    /** Local-operation error charged per pump/swap step. */
    double opError = 0.0;
    /**
     * Minimum acceptable end-to-end delivered fidelity. Pairs arriving
     * below the threshold are rejected (counted as dropped) and the
     * demand retries with backoff. 0 disables gating.
     */
    double deliveryThreshold = 0.0;
    /** Rejection retries before a demand is abandoned (each after a
     *  kBackoffWindows-based backoff). */
    int retryBudget = 3;

    /** True when the model can alter behavior vs the ideal engine. */
    bool enabled() const
    {
        return elementaryFidelity < 1.0 || purificationLevel > 0
            || opError > 0.0 || deliveryThreshold > 0.0;
    }
};

/** Pumping ladder target for level @p level from elementary fidelity. */
double purificationTarget(double elementary_f, int level);

/**
 * Per-link production plan: what one purified pair costs and what
 * fidelity it reaches, derived from the nested-pumping planner.
 */
struct LinkPurificationPlan
{
    /** Post-pumping Werner fidelity of one link pair. */
    double linkFidelity = 1.0;
    /** Elementary channel transports consumed per delivered pair
     *  (the slot cost; >= 1). */
    double elementaryPairsPerPair = 1.0;
    /** Underlying pumping plan (empty/trivial at level 0). */
    teleport::SegmentPlan plan;
};

/**
 * Build the per-link plan for @p config. Level 0 (or a non-purifiable
 * elementary fidelity) ships raw pairs at cost 1; otherwise pumping is
 * planned to the ladder target, falling back to the best reachable
 * fidelity when the target sits above the operation-noise ceiling.
 */
LinkPurificationPlan purifiedLinkPlan(const FidelityConfig &config);

/** Purified-pair slots per channel after paying the pumping traffic:
 *  floor(elementary_slots / cost), clamped to >= 1. */
std::uint64_t purifiedSlotsPerChannel(std::uint64_t elementary_slots,
                                      const LinkPurificationPlan &plan);

/**
 * End-to-end fidelity of a route, precomputed per hop count.
 *
 * A route of h links swaps h link pairs end-to-end (h-1 swap steps,
 * each charged the local-operation error); bursting links crossed add
 * one depolarization each.
 */
class PathFidelityTable
{
  public:
    PathFidelityTable() = default;

    /** @param max_hops Longest route the router can produce. */
    PathFidelityTable(double link_fidelity, double op_error, int max_hops);

    /** Fidelity after @p hops links (clamped to the table). */
    double atHops(int hops) const;

    /** Degrade @p fidelity by @p burst_links depolarization bursts. */
    static double withBursts(double fidelity, int burst_links,
                             double burst_depolarization);

  private:
    std::vector<double> by_hops_; // [0] unused sentinel = link fidelity
};

/**
 * Pairs lost shipping @p pairs across @p hops links with per-hop loss
 * @p per_hop_loss: one Bernoulli per pair at the compound escape rate.
 * Draws nothing when the loss rate is zero.
 */
std::uint64_t sampleLostPairs(Rng &rng, std::uint64_t pairs,
                              double per_hop_loss, int hops);

} // namespace qla::network

#endif // QLA_NETWORK_FIDELITY_H
