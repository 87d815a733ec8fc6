#include "host_speed.h"

#include <map>

namespace perfbench {

std::uint64_t
hostSpeedKernel()
{
    std::map<std::uint64_t, std::uint64_t> map;
    std::uint64_t state = 7, sum = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        map[state & 0xffff] += i;
        if (i % 3 == 0)
            map.erase(map.begin());
    }
    for (const auto &[key, value] : map)
        sum += key ^ value;
    return sum;
}

} // namespace perfbench
