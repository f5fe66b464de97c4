// Fixture: every ad-hoc number parser must fire `raw-parse` — entry
// points read values through common/config's one strict grammar. A
// mention that is not a call (a comment, a name) does not fire: strtod.
#include <cstdio>
#include <cstdlib>
#include <string>

namespace fixture {

double parse_everything(const std::string& s, const char* c) {
  const unsigned long long wrapped = std::strtoull(c, nullptr, 10);
  const double d = std::stod(s);
  const int i = atoi(c);
  int scanned = 0;
  std::sscanf(c, "%d", &scanned);
  return static_cast<double>(wrapped) + d + i + scanned;
}

}  // namespace fixture
