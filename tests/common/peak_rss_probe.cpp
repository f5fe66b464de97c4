// Helper for mem_test.cpp. `peak_rss_probe` prints peak_rss_bytes() in
// bytes. `peak_rss_probe touch <MiB>` first touches that much memory,
// then execs itself to print from a fresh process image, which must not
// report the memory its launcher touched.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/mem.hpp"

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "touch") == 0) {
    const std::size_t bytes = std::strtoull(argv[2], nullptr, 10) << 20;
    const std::unique_ptr<char[]> ballast(new char[bytes]);
    volatile char* pages = ballast.get();
    for (std::size_t i = 0; i < bytes; i += 4096) pages[i] = 1;
    char self[] = "peak_rss_probe";
    char* const args[] = {self, nullptr};
    execv("/proc/self/exe", args);
    std::perror("execv");
    return 127;
  }
  std::printf("%llu\n",
              static_cast<unsigned long long>(fairswap::peak_rss_bytes()));
  return 0;
}
