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
}

int
islandDistance(const IslandCoord &a, const IslandCoord &b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

bool
IslandMesh::inBounds(const IslandCoord &c) const
{
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
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

int
IslandMesh::linkRuns(const MeshRoute &route, LinkRun (&runs)[3]) const
{
    // A straight leg between two in-bounds islands stays in bounds, so
    // only the start, the waypoints and the end need checking. The link
    // index is computed here rather than by linkIndex: its two asserts
    // per leg cost about a fifth of the purified co-sim's time.
    IslandCoord at = route.from;
    qla_assert(inBounds(at), "route starts outside the mesh");
    const std::ptrdiff_t row = 4 * static_cast<std::ptrdiff_t>(width_);
    int n = 0;
    for (int leg = 0; leg < 3; ++leg) {
        const int len = route.legs[leg];
        if (len == 0)
            continue;
        const bool along_y = route.yFirst != (leg == 1);
        const Direction dir = along_y
            ? (len > 0 ? Direction::North : Direction::South)
            : (len > 0 ? Direction::East : Direction::West);
        const std::ptrdiff_t step = along_y ? row : 4;
        runs[n++] = {(static_cast<std::ptrdiff_t>(at.y) * width_ + at.x) * 4
                         + static_cast<std::ptrdiff_t>(dir),
                     len > 0 ? step : -step, std::abs(len)};
        (along_y ? at.y : at.x) += len;
        qla_assert(inBounds(at), "route leaves the mesh");
    }
    return n;
}

std::uint64_t
IslandMesh::maxReservable(const MeshRoute &route) const
{
    LinkRun runs[3];
    const int n = linkRuns(route, runs);
    std::uint64_t free = ~std::uint64_t{0};
    for (int r = 0; r < n; ++r) {
        std::ptrdiff_t link = runs[r].first;
        for (int i = 0; i < runs[r].count; ++i, link += runs[r].stride) {
            const std::uint64_t cap = capacityOf(link);
            if (used_[link] >= cap)
                return 0; // a full link: no shape through it fits
            free = std::min(free, cap - used_[link]);
        }
    }
    return free;
}

int
IslandMesh::reserve(const MeshRoute &route, std::uint64_t pairs)
{
    LinkRun runs[3];
    const int n = linkRuns(route, runs);
    int bursts = 0;
    for (int r = 0; r < n; ++r) {
        std::ptrdiff_t link = runs[r].first;
        for (int i = 0; i < runs[r].count; ++i, link += runs[r].stride) {
            qla_assert(used_[link] + pairs <= capacityOf(link),
                       "reservation exceeds link capacity");
            used_[link] += pairs;
            bursts += faults_on_ && burst_[link] != 0;
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
    faults_ = config;
    faults_on_ = config.any();
    if (!faults_on_)
        return;
    const std::size_t slots = used_.size();
    down_until_.assign(slots, 0);
    burst_.assign(slots, 0);
    // Mark the geometrically valid directed-link slots once; fault draws
    // and counters only touch real links.
    link_valid_.assign(slots, 0);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            const IslandCoord c{x, y};
            for (int d = 0; d < 4; ++d) {
                const auto dir = static_cast<Direction>(d);
                if (inBounds(neighbor(c, dir)))
                    link_valid_[linkIndex(c, dir)] = 1;
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
    for (std::size_t link = 0; link < used_.size(); ++link) {
        if (!link_valid_[link])
            continue;
        Rng rng(mix64(mix64(faults_.seed + link) + windows_));
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
        if (down_until_[link] > windows_)
            ++link_windows_down_;
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
