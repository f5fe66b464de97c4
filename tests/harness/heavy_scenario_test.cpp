// The heavy_traffic scenario's flash-crowd self-check through the CLI
// path fairswap_run uses: the default window opens in every shard, and a
// window no shard reaches is a violation with a nonzero exit.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace fairswap::harness {
namespace {

int run_heavy(std::vector<std::string> args, std::string& out) {
  const std::string dir = testing::TempDir() + "fairswap_heavy";
  std::filesystem::create_directories(dir);
  args.insert(args.begin(), "prog");
  args.push_back("out=" + dir);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  std::ostringstream os;
  const int code = run_scenario("heavy_traffic", static_cast<int>(argv.size()),
                                argv.data(), os);
  out = os.str();
  return code;
}

TEST(HeavyTrafficScenario, DefaultFlashCrowdOpensInEveryShard) {
  std::string out;
  EXPECT_EQ(run_heavy({"requests=20000", "shards=2", "threads=1"}, out), 0)
      << out;
  EXPECT_NE(out.find("flash crowd opened (shards) | 2/2"), std::string::npos)
      << out;
}

TEST(HeavyTrafficScenario, WindowThatNeverOpensIsAViolation) {
  std::string out;
  EXPECT_EQ(run_heavy({"requests=20000", "shards=2", "threads=1",
                       "burst_start=100000"},
                      out),
            1)
      << out;
  EXPECT_NE(out.find("never opened in 2 of 2 shards"), std::string::npos)
      << out;
}

TEST(HeavyTrafficScenario, DisabledBurstIsNotChecked) {
  std::string out;
  EXPECT_EQ(run_heavy({"requests=20000", "shards=2", "threads=1",
                       "burst_start=100000", "burst_files=0"},
                      out),
            0)
      << out;
  EXPECT_EQ(out.find("flash crowd opened"), std::string::npos) << out;
}

}  // namespace
}  // namespace fairswap::harness
