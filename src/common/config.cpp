#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace fairswap {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

[[noreturn]] void reject(const std::string& key, const std::string& value,
                         const char* expected) {
  throw std::invalid_argument(key + ": '" + value + "' is not " + expected);
}

}  // namespace

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  // strtoull alone is too forgiving: it skips leading whitespace and
  // accepts a sign, wrapping "-1" around to 2^64 - 1.
  if (s.empty() || !is_digit(s[0])) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<std::int64_t> parse_i64(const std::string& s) {
  const std::size_t first = !s.empty() && s[0] == '-' ? 1 : 0;
  if (s.size() <= first || !is_digit(s[first])) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<double> parse_double(const std::string& s) {
  // The first-character rule keeps out whitespace, '+', "nan" and "inf";
  // the x rule keeps out strtod's hexadecimal floats.
  if (s.empty() || !(is_digit(s[0]) || s[0] == '-' || s[0] == '.') ||
      s.find_first_of("xX") != std::string::npos) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(const std::string& s) {
  std::string t = s;
  std::transform(t.begin(), t.end(), t.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (t == "1" || t == "true" || t == "yes" || t == "on") return true;
  if (t == "0" || t == "false" || t == "no" || t == "off") return false;
  return std::nullopt;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    // Accept --key=value as well as key=value.
    if (token.rfind("--", 0) == 0) token = token.substr(2);
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(token);
    } else {
      cfg.set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
    }
  }
  return cfg;
}

Config Config::from_text(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(line);
    } else {
      cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool Config::has(const std::string& key) const { return kv_.count(key) > 0; }

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Config::get_u64(const std::string& key, std::uint64_t dflt,
                              std::uint64_t min) const {
  const auto v = get(key);
  if (!v) return dflt;
  const auto parsed = parse_u64(*v);
  if (!parsed) reject(key, *v, "an unsigned integer");
  if (*parsed < min) {
    throw std::invalid_argument(key + ": must be at least " +
                                std::to_string(min));
  }
  return *parsed;
}

double Config::get_double(const std::string& key, double dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  const auto parsed = parse_double(*v);
  if (!parsed) reject(key, *v, "a finite number");
  return *parsed;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  const auto parsed = parse_bool(*v);
  if (!parsed) reject(key, *v, "a boolean (true/false/1/0/yes/no/on/off)");
  return *parsed;
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  if (v->empty()) throw std::invalid_argument(key + ": must not be empty");
  return *v;
}

void Config::require_known(const std::vector<std::string>& known) const {
  for (const auto& entry : kv_) {
    if (std::find(known.begin(), known.end(), entry.first) != known.end()) {
      continue;
    }
    std::string message = "unknown argument '" + entry.first + "' (accepted:";
    for (const std::string& key : known) {
      message += ' ';
      message += key;
    }
    throw std::invalid_argument(message + ")");
  }
}

}  // namespace fairswap
