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

std::size_t
IslandMesh::hopLink(const IslandCoord &a, const IslandCoord &b) const
{
    Direction dir;
    if (b.x == a.x + 1 && b.y == a.y)
        dir = Direction::East;
    else if (b.x == a.x - 1 && b.y == a.y)
        dir = Direction::West;
    else if (b.y == a.y + 1 && b.x == a.x)
        dir = Direction::North;
    else if (b.y == a.y - 1 && b.x == a.x)
        dir = Direction::South;
    else
        qla_panic("non-adjacent hop in island path");
    return linkIndex(a, dir);
}

bool
IslandMesh::reservePath(const std::vector<IslandCoord> &path,
                        std::uint64_t pairs)
{
    if (path.size() < 2)
        return true; // local delivery, no mesh links involved

    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const std::size_t link = hopLink(path[i], path[i + 1]);
        if (used_[link] + pairs > capacityOf(link))
            return false;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        used_[hopLink(path[i], path[i + 1])] += pairs;
        window_reserved_ += pairs;
        total_reserved_ += pairs;
    }
    return true;
}

std::uint64_t
IslandMesh::maxReservable(const std::vector<IslandCoord> &path) const
{
    if (path.size() < 2)
        return ~std::uint64_t{0};
    std::uint64_t free = ~std::uint64_t{0};
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const std::size_t link = hopLink(path[i], path[i + 1]);
        const std::uint64_t cap = capacityOf(link);
        const std::uint64_t f = used_[link] >= cap ? 0
                                                   : cap - used_[link];
        free = std::min(free, f);
    }
    return free;
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

int
IslandMesh::burstLinksOnPath(const std::vector<IslandCoord> &path) const
{
    if (!faults_on_ || faults_.burstRate <= 0.0 || path.size() < 2)
        return 0;
    int bursts = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        bursts += burst_[hopLink(path[i], path[i + 1])] != 0;
    return bursts;
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

Direction
stepToward(const IslandCoord &a, const IslandCoord &b, bool y_first)
{
    qla_assert(!(a == b), "no step needed");
    if (y_first) {
        if (b.y > a.y)
            return Direction::North;
        if (b.y < a.y)
            return Direction::South;
    }
    if (b.x > a.x)
        return Direction::East;
    if (b.x < a.x)
        return Direction::West;
    return b.y > a.y ? Direction::North : Direction::South;
}

} // namespace qla::network
