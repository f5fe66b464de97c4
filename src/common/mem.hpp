// Process memory introspection for the bounded-memory contract checks:
// the heavy_traffic scenario and the CI smoke gate assert that streaming
// aggregation keeps peak RSS flat as request counts grow.
#pragma once

#include <cstdint>

namespace fairswap {

/// Peak resident set size of this process image so far, in bytes.
/// Monotone over the process lifetime (a high-water mark, not current
/// usage). Reads the kernel's VmHWM from /proc/self/status, which starts
/// afresh at exec; getrusage's ru_maxrss, the fallback where /proc is
/// absent, also carries the peak of whatever process exec'd this one.
/// Returns 0 where the platform reports nothing useful.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace fairswap
