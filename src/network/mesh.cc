#include "network/mesh.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace qla::network {

IslandMesh::IslandMesh(int width, int height, int bandwidth,
                       std::uint64_t slots_per_channel)
    : width_(width), height_(height), bandwidth_(bandwidth),
      slots_per_channel_(slots_per_channel),
      used_(static_cast<std::size_t>(width) * height * 4, 0)
{
    qla_assert(width > 0 && height > 0 && bandwidth > 0
                   && slots_per_channel > 0,
               "bad mesh parameters");
    // East and west links lie on rows of width_ bits, north and south
    // links on columns of height_ bits.
    std::size_t words = 0;
    for (int d = 0; d < 4; ++d) {
        const bool along_x = d < 2;
        line_words_[d] = (static_cast<std::size_t>(along_x ? width : height)
                          + 63) / 64;
        full_base_[d] = words;
        words += line_words_[d] * (along_x ? height : width);
    }
    full_.assign(words, 0);
}

int
islandDistance(const IslandCoord &a, const IslandCoord &b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

std::uint64_t
IslandMesh::linkCapacity() const
{
    return static_cast<std::uint64_t>(bandwidth_) * slots_per_channel_;
}

IslandCoord
IslandMesh::neighbor(const IslandCoord &c, Direction dir)
{
    switch (dir) {
      case Direction::East:
        return {c.x + 1, c.y};
      case Direction::West:
        return {c.x - 1, c.y};
      case Direction::North:
        return {c.x, c.y + 1};
      case Direction::South:
        return {c.x, c.y - 1};
    }
    return c;
}

std::size_t
IslandMesh::linkIndex(const IslandCoord &from, Direction dir) const
{
    qla_assert(inBounds(from), "link from out-of-bounds island");
    qla_assert(inBounds(neighbor(from, dir)), "link leaves the mesh");
    return (static_cast<std::size_t>(from.y) * width_ + from.x) * 4
        + static_cast<std::size_t>(dir);
}

void
IslandMesh::markFull(std::size_t link)
{
    const auto dir = static_cast<Direction>(link & 3);
    const std::size_t island = link >> 2;
    const int x = static_cast<int>(island % width_);
    const int y = static_cast<int>(island / width_);
    const bool along_x = dir == Direction::East || dir == Direction::West;
    const int bit = along_x ? x : y;
    full_[fullLine(dir, along_x ? y : x) + (bit >> 6)] |= std::uint64_t{1}
        << (bit & 63);
}

std::uint64_t
IslandMesh::capacityOf(std::size_t link) const
{
    if (faults_on_ && down_until_[link] > windows_)
        return 0;
    return linkCapacity();
}

std::uint64_t
IslandMesh::freeSlots(const IslandCoord &from, Direction dir) const
{
    const std::size_t link = linkIndex(from, dir);
    const std::uint64_t cap = capacityOf(link);
    const std::uint64_t used = used_[link];
    return used >= cap ? 0 : cap - used;
}

std::uint64_t
IslandMesh::usedSlots(const IslandCoord &from, Direction dir) const
{
    return used_[linkIndex(from, dir)];
}

std::ptrdiff_t
IslandMesh::legFirstLink(const Leg &leg) const
{
    // Computed here rather than by linkIndex: its two asserts per link
    // would cost more than the walk itself.
    const bool along_x = leg.dir == Direction::East
        || leg.dir == Direction::West;
    const std::ptrdiff_t island = along_x
        ? static_cast<std::ptrdiff_t>(leg.line) * width_ + leg.lo
        : static_cast<std::ptrdiff_t>(leg.lo) * width_ + leg.line;
    return island * 4 + static_cast<std::ptrdiff_t>(leg.dir);
}

std::uint64_t
IslandMesh::maxReservable(const MeshRoute &route) const
{
    // Most tries are refused, nearly always on their first leg, so each
    // leg is tested as soon as it is known.
    checkBounds(route);
    int x = route.from.x;
    int y = route.from.y;
    Leg legs[3];
    int n = 0;
    for (int i = 0; i < 3; ++i) {
        if (route.legs[i] == 0)
            continue;
        legs[n] = nextLeg(route.yFirst != (i == 1), route.legs[i], x, y);
        if (legFull(legs[n++]))
            return 0; // a full or down link: no shape through it fits
    }
    if (n == 0)
        return ~std::uint64_t{0};
    // Every link is up and below capacity: the tightest one is the most
    // used.
    std::uint64_t most_used = 0;
    for (int r = 0; r < n; ++r) {
        const std::ptrdiff_t stride = legStride(legs[r]);
        std::ptrdiff_t link = legFirstLink(legs[r]);
        for (int k = legs[r].lo; k < legs[r].hi; ++k, link += stride)
            most_used = std::max(most_used, used_[link]);
    }
    return linkCapacity() - most_used;
}

int
IslandMesh::reserve(const MeshRoute &route, std::uint64_t pairs)
{
    checkBounds(route);
    int x = route.from.x;
    int y = route.from.y;
    int bursts = 0;
    const std::uint64_t capacity = linkCapacity();
    for (int i = 0; i < 3; ++i) {
        if (route.legs[i] == 0)
            continue;
        const Leg leg = nextLeg(route.yFirst != (i == 1), route.legs[i], x, y);
        std::uint64_t *full = full_.data() + fullLine(leg.dir, leg.line);
        const std::ptrdiff_t stride = legStride(leg);
        std::ptrdiff_t link = legFirstLink(leg);
        for (int k = leg.lo; k < leg.hi; ++k, link += stride) {
            qla_assert(used_[link] + pairs <= capacityOf(link),
                       "reservation exceeds link capacity");
            used_[link] += pairs;
            bursts += faults_on_ && burst_[link] != 0;
            full[k >> 6] |= std::uint64_t{used_[link] >= capacity}
                << (k & 63);
        }
    }
    const std::uint64_t reserved = pairs
        * static_cast<std::uint64_t>(route.hops());
    window_reserved_ += reserved;
    total_reserved_ += reserved;
    return bursts;
}

void
IslandMesh::advanceWindow()
{
    std::fill(used_.begin(), used_.end(), 0);
    std::fill(full_.begin(), full_.end(), 0);
    window_reserved_ = 0;
    ++windows_;
    if (faults_on_)
        refreshFaults();
}

namespace {

/** SplitMix64 finalizer; decorrelates (seed, link, window) tuples before
 *  they seed the per-draw Rng (which runs SplitMix64 again). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
IslandMesh::setLinkFaults(const LinkFaultConfig &config)
{
    auto is_rate = [](double p) { return p >= 0.0 && p <= 1.0; };
    qla_assert(is_rate(config.pairLossRate) && is_rate(config.linkDownRate)
                   && is_rate(config.burstRate),
               "link-fault rates must lie in [0, 1]");
    qla_assert(config.linkDownWindows >= 1,
               "a down interval lasts at least one window, got ",
               config.linkDownWindows);
    faults_ = config;
    faults_on_ = config.any();
    // Rebuild the full-link index for the open window: the old fault
    // state's down links may no longer be down.
    std::fill(full_.begin(), full_.end(), 0);
    for (std::size_t link = 0; link < used_.size(); ++link)
        if (used_[link] >= linkCapacity())
            markFull(link);
    if (!faults_on_)
        return;
    const std::size_t slots = used_.size();
    down_until_.assign(slots, 0);
    burst_.assign(slots, 0);
    // List the geometrically real directed links once, each with the
    // window-independent half of its fault seed; fault draws and
    // counters only touch real links.
    fault_links_.clear();
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            const IslandCoord c{x, y};
            for (int d = 0; d < 4; ++d) {
                const auto dir = static_cast<Direction>(d);
                if (inBounds(neighbor(c, dir))) {
                    const std::size_t link = linkIndex(c, dir);
                    fault_links_.push_back({link, mix64(faults_.seed + link)});
                }
            }
        }
    }
    refreshFaults();
}

void
IslandMesh::refreshFaults()
{
    // One fresh Rng per (link, window): the fault realization is a pure
    // function of (seed, link index, window index) -- independent of
    // routing order and thread count. Draw order within a link's stream
    // is fixed (down first, then burst) so the processes stay decoupled.
    for (const FaultLink &fault_link : fault_links_) {
        const std::size_t link = fault_link.link;
        Rng rng(mix64(fault_link.seed + windows_));
        const bool was_down = down_until_[link] > windows_;
        const bool down_draw = rng.bernoulli(faults_.linkDownRate);
        const bool burst_draw = rng.bernoulli(faults_.burstRate);
        if (!was_down) {
            ++down_trials_;
            if (down_draw) {
                ++down_events_;
                down_until_ [link] = windows_
                    + static_cast<std::uint64_t>(faults_.linkDownWindows);
            }
        }
        if (down_until_[link] > windows_) {
            ++link_windows_down_;
            markFull(link);
        }
        ++burst_trials_;
        burst_[link] = burst_draw ? 1 : 0;
        if (burst_draw)
            ++burst_events_;
    }
}

bool
IslandMesh::linkDown(const IslandCoord &from, Direction dir) const
{
    if (!faults_on_)
        return false;
    return down_until_[linkIndex(from, dir)] > windows_;
}

bool
IslandMesh::linkBurst(const IslandCoord &from, Direction dir) const
{
    if (!faults_on_)
        return false;
    return burst_[linkIndex(from, dir)] != 0;
}

std::uint64_t
IslandMesh::totalLinks() const
{
    // Interior islands have 4 outgoing links; edges fewer. Count exactly.
    std::uint64_t links = 0;
    links += 2ULL * (width_ - 1) * height_; // east/west pairs
    links += 2ULL * width_ * (height_ - 1); // north/south pairs
    return links;
}

double
IslandMesh::aggregateUtilization() const
{
    if (windows_ == 0)
        return 0.0;
    const double capacity = static_cast<double>(totalLinks())
        * static_cast<double>(linkCapacity())
        * static_cast<double>(windows_);
    return static_cast<double>(total_reserved_) / capacity;
}

} // namespace qla::network
