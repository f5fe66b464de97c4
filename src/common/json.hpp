// Minimal JSON emission and parsing shared by every machine-readable
// artifact the repo writes (BENCH_scale.json's fairswap.bench_scale.v1,
// the harness JsonSink's fairswap.run.v1). One escaping/formatting
// implementation, so the schemas can't drift apart, plus a small strict
// parser so tests can read the artifacts back instead of string-matching.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace fairswap {

/// Streams one JSON document to an ostream. Objects and lists are opened
/// and closed explicitly; the writer tracks whether a comma is needed.
/// Strings are escaped per RFC 8259. Doubles print with 10 significant
/// digits (round-trip enough for the metrics we record).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out);

  /// Opens "key": { ... } (or an anonymous object when key == nullptr,
  /// e.g. as a list element or the document root).
  void open(const char* key = nullptr);
  void close();
  void open_list(const char* key = nullptr);
  void close_list();

  void field(const char* key, double v);
  void field(const char* key, bool v);
  // Template rather than a fixed-width overload: size_t, uint64_t and int
  // are distinct types across platforms, and a fixed set is ambiguous
  // somewhere (e.g. size_t on macOS matches neither uint64_t nor double
  // exactly).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void field(const char* key, T v) {
    item(key);
    *out_ << v;
  }
  void field(const char* key, const std::string& v);
  void field(const char* key, const char* v);

  /// Bare list elements (inside open_list .. close_list).
  void element(const std::string& v);
  void element(double v);

  /// RFC 8259 string escaping (quotes, backslash, control characters).
  [[nodiscard]] static std::string escape(const std::string& s);

 private:
  void item(const char* key);

  std::ostream* out_;
  bool fresh_{true};
};

/// A parsed JSON value — the read-back half used by tests to validate the
/// emitted schemas. Numbers are kept as doubles (sufficient for metric
/// checks; exact integers up to 2^53).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) > 0;
  }
  /// Object member access; returns a shared null value for missing keys or
  /// non-objects so chained lookups don't crash in tests.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
};

/// Deepest nesting of arrays and objects parse_json accepts. The parser
/// recurses once per level, so a bound keeps a hostile document from
/// exhausting the stack; the repo's own documents nest a handful deep.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Strict parse of one JSON document (trailing garbage is an error).
/// Returns nullopt-style failure via the bool; `error` (optional) receives
/// a message with the byte offset. Nesting deeper than kMaxJsonDepth is
/// an error.
[[nodiscard]] bool parse_json(const std::string& text, JsonValue& out,
                              std::string* error = nullptr);

}  // namespace fairswap
