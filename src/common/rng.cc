#include "common/rng.h"

namespace qla {

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Lemire's multiply-shift with rejection for exact uniformity.
    std::uint64_t x = next64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = (0 - bound) % bound;
        while (low < threshold) {
            x = next64();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

Rng
Rng::split()
{
    return Rng(next64());
}

Rng
RngFamily::stream(std::uint64_t index) const
{
    // Mix (master, index) through the SplitMix64 finalizer; the Rng
    // constructor runs a further SplitMix64 pass over the result, so even
    // adjacent indices yield well-separated xoshiro states.
    std::uint64_t x = master_ + 0x9e3779b97f4a7c15ULL * (index + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return Rng(x);
}

} // namespace qla
