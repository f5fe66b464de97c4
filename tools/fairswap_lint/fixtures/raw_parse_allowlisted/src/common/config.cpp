// Fixture: src/common/config.cpp holds the one scalar grammar — the same
// calls that fire elsewhere must pass here.
#include <cstdlib>
#include <string>

namespace fixture {

unsigned long long blessed_parse(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace fixture
