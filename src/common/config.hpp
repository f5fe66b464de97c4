// Tiny key=value configuration parsing for examples and benches
// (e.g. "nodes=1000 k=4 files=10000 originators=0.2 seed=42"), and the
// one scalar grammar every entry point reads numbers and booleans with:
// the binding table, the Config reads below and the trace reader.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fairswap {

/// Strict scalar parsers. Each accepts the whole string or nothing; none
/// skips whitespace or accepts a '+' sign.
///
/// An unsigned decimal integer that must start with a digit, so "-1" and
/// " -1" are errors rather than 2^64 - 1, and that must fit 64 bits.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& s);

/// A signed decimal integer: an optional '-', then as parse_u64.
[[nodiscard]] std::optional<std::int64_t> parse_i64(const std::string& s);

/// A finite decimal number (a digit, '-' or '.' first). "nan", "inf" and
/// out-of-range values such as "1e999" are errors: NaN passes every range
/// check written as `x < lo || x > hi`.
[[nodiscard]] std::optional<double> parse_double(const std::string& s);

/// true/false/1/0/yes/no/on/off, case-insensitive.
[[nodiscard]] std::optional<bool> parse_bool(const std::string& s);

/// A flat string->string key/value store parsed from "key=value" tokens,
/// one per token (CLI args) or one per line (files; '#' starts a comment).
class Config {
 public:
  Config() = default;

  /// Parses argv-style tokens: every "k=v" token is stored; tokens without
  /// '=' are collected as positional arguments.
  static Config from_args(int argc, const char* const* argv);

  /// Parses newline-separated "k=v" text.
  static Config from_text(const std::string& text);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed reads. An absent key yields `dflt`; a present value that does
  /// not parse, or lies below `min`, throws std::invalid_argument in the
  /// binding table's form ("files: '-1' is not an unsigned integer"), so
  /// an entry point catches once and exits 2 before any run.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t dflt,
                                      std::uint64_t min = 0) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt) const;
  /// A present value must not be empty: `out=` would aim at "/".
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& dflt) const;

  /// Throws std::invalid_argument naming the first key that is not in
  /// `known`: a typo'd key must not silently run on the default.
  void require_known(const std::vector<std::string>& known) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return kv_;
  }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace fairswap
