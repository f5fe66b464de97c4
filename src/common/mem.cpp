#include "common/mem.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace fairswap {

namespace {

/// VmHWM from /proc/self/status in bytes, or 0 when unavailable.
std::uint64_t proc_high_water_mark() {
  constexpr std::string_view kKey = "VmHWM:";
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (!line.starts_with(kKey)) continue;
    std::istringstream fields(line.substr(kKey.size()));
    std::uint64_t kib = 0;
    return fields >> kib ? kib * 1024u : 0;
  }
  return 0;
}

}  // namespace

std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t hwm = proc_high_water_mark(); hwm > 0) return hwm;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux reports kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
}

}  // namespace fairswap
