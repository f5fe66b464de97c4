#include "common/mem.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace fairswap {
namespace {

constexpr std::uint64_t kMiB = 1024u * 1024u;

TEST(PeakRss, ExcludesTheMemoryOfTheProcessThatExecdIt) {
  // The probe touches 128 MiB, then execs itself; the fresh image must
  // report its own small peak. getrusage's ru_maxrss would carry the
  // launcher's 128 MiB across the exec.
  const std::string command =
      std::string("'") + FAIRSWAP_PEAK_RSS_PROBE + "' touch 128";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  unsigned long long peak = 0;
  const int fields = std::fscanf(pipe, "%llu", &peak);
  const int status = pclose(pipe);
  ASSERT_EQ(fields, 1);
  ASSERT_EQ(status, 0);
  EXPECT_GT(peak, 0u);
  EXPECT_LT(peak, 64 * kMiB) << "the exec'd probe reported " << peak / kMiB
                             << " MiB";
}

}  // namespace
}  // namespace fairswap
