#include "calibration.h"

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "spans.h"

namespace coebench {

namespace {

/** Keeps the kernel's result observable so it is not optimized away. */
volatile std::uint64_t gSink = 0;

} // namespace

double
referenceKernelSeconds()
{
    // Heap and ordered-map traffic, the two structures a discrete-event
    // simulator leans on, driven by a fixed xorshift stream.
    const std::int64_t t0 = nowNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::map<std::uint32_t, std::uint32_t> counts;
    std::uint64_t acc = 0;
    for (int i = 0; i < 12000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x);
        if (heap.size() > 4096) {
            acc += heap.top();
            heap.pop();
        }
        counts[static_cast<std::uint32_t>(x >> 40) & 0xFFF] += 1;
    }
    gSink = acc + counts.size();
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

} // namespace coebench
