#include "guard.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

namespace fairswap::guard {
namespace {

// --- minimal JSON reader ---------------------------------------------------
//
// Just enough of RFC 8259 to walk a fairswap.bench_scale.v1 document:
// objects, arrays, numbers, strings, true/false/null. Values the guard
// does not compare (strings, bools) are parsed and discarded. Kept
// hand-rolled so the tool stays dependency-free (see guard.hpp).

struct Parser {
  const std::string& text;
  std::size_t pos{0};
  std::size_t depth{0};  ///< arrays and objects currently open
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  [[nodiscard]] bool ok() const { return error.empty(); }

  void fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  std::string parse_string() {
    skip_ws();
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\' && pos < text.size()) {
        const char esc = text[pos++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            // Good enough for keys we compare (all ASCII): skip the four
            // hex digits and substitute a placeholder.
            pos = std::min(pos + 4, text.size());
            c = '?';
            break;
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    if (!consume('"')) fail("unterminated string");
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) {
      fail("expected number");
      return 0;
    }
    try {
      return std::stod(text.substr(start, pos - start));
    } catch (...) {
      fail("malformed number");
      return 0;
    }
  }

  bool consume_word(const char* word) {
    skip_ws();
    std::size_t j = pos;
    for (const char* w = word; *w != '\0'; ++w, ++j) {
      if (j >= text.size() || text[j] != *w) return false;
    }
    pos = j;
    return true;
  }
};

/// Flat numeric view of a document: "routing[k8].batched_over_greedy"
/// -> value. Array elements are keyed by their "k" field when present,
/// by index otherwise.
using FlatDoc = std::map<std::string, double>;

void parse_value(Parser& p, const std::string& prefix, FlatDoc& out);

void parse_object(Parser& p, const std::string& prefix, FlatDoc& out) {
  if (!p.consume('{')) {
    p.fail("expected '{'");
    return;
  }
  if (p.consume('}')) return;
  while (p.ok()) {
    const std::string key = p.parse_string();
    if (!p.consume(':')) {
      p.fail("expected ':'");
      return;
    }
    parse_value(p, prefix.empty() ? key : prefix + "." + key, out);
    if (p.consume('}')) return;
    if (!p.consume(',')) {
      p.fail("expected ',' or '}'");
      return;
    }
  }
}

void parse_array(Parser& p, const std::string& prefix, FlatDoc& out) {
  if (!p.consume('[')) {
    p.fail("expected '['");
    return;
  }
  if (p.consume(']')) return;
  std::size_t index = 0;
  while (p.ok()) {
    // Each element lands under a provisional index key; when the element
    // is an object with a "k" member, re-key by k so baselines survive
    // sweep-point insertions that shift indices.
    FlatDoc element;
    parse_value(p, "", element);
    std::string tag;
    const auto k_it = element.find("k");
    if (k_it != element.end()) {
      tag += 'k';
      tag += std::to_string(
          static_cast<std::uint64_t>(std::llround(k_it->second)));
    } else {
      tag = std::to_string(index);
    }
    for (auto& [key, value] : element) {
      std::string flat = prefix;
      flat += '[';
      flat += tag;
      flat += ']';
      if (!key.empty()) {
        flat += '.';
        flat += key;
      }
      out[std::move(flat)] = value;
    }
    ++index;
    if (p.consume(']')) return;
    if (!p.consume(',')) {
      p.fail("expected ',' or ']'");
      return;
    }
  }
}

void parse_value(Parser& p, const std::string& prefix, FlatDoc& out) {
  const char c = p.peek();
  if (c == '{' || c == '[') {
    // One recursion per level: bound it so a hostile document cannot
    // exhaust the stack.
    if (p.depth == kMaxDepth) {
      p.fail("nesting deeper than " + std::to_string(kMaxDepth));
      return;
    }
    ++p.depth;
    if (c == '{') {
      parse_object(p, prefix, out);
    } else {
      parse_array(p, prefix, out);
    }
    --p.depth;
  } else if (c == '"') {
    (void)p.parse_string();  // compared metrics are numeric only
  } else if (p.consume_word("true") || p.consume_word("false") ||
             p.consume_word("null")) {
    // discarded
  } else {
    out[prefix] = p.parse_number();
  }
}

std::optional<FlatDoc> parse_doc(const std::string& json, std::string& error,
                                 const char* which) {
  Parser p(json);
  FlatDoc doc;
  parse_value(p, "", doc);
  p.skip_ws();
  if (!p.ok()) {
    error = std::string(which) + ": " + p.error;
    return std::nullopt;
  }
  if (doc.empty()) {
    error = std::string(which) + ": no numeric fields found";
    return std::nullopt;
  }
  return doc;
}

/// The guarded hot-path costs: route walks, debits, the flow plane and
/// the demand layer. Each is a ratio of two loops that bench_scale times
/// back to back in one process, so a host that runs slower for seconds at
/// a time moves both sides alike; absolute ns rows drift with host speed
/// and stay ungated. Everything else in the document (speedups, memory,
/// correctness booleans) is covered by its own tests.
struct GuardedMetric {
  const char* section;
  const char* metric;
  /// True for an array of sweep points keyed by k ("routing[k8].metric"),
  /// false for a single object ("workload.metric").
  bool per_k;
};

constexpr GuardedMetric kGuarded[] = {
    // The compiled walks and the edge-arena ledger over their test oracles
    // (the greedy ForwardingRouter and the hash-map SwapNetwork), median
    // of the interleaved repetitions.
    {"routing", "compiled_over_greedy", true},
    {"routing", "batched_over_greedy", true},
    {"ledger", "edge_over_map", true},
    // Flow-level over counter-based wall time, same runs alternating.
    {"flow", "overhead", true},
    // Composed over plain ns per request.
    {"workload", "overhead", false},
};

/// Whether flat `key` names guarded metric `g`; for a per-k section also
/// returns the sweep point through `k`.
bool matches(const std::string& key, const GuardedMetric& g,
             std::optional<std::uint64_t>& k) {
  const std::string section = g.section;
  const std::string suffix = std::string(".") + g.metric;
  if (!g.per_k) return key == section + suffix;
  // Keys look like "routing[k8].batched_over_greedy".
  if (key.rfind(section + "[k", 0) != 0) return false;
  if (key.size() < suffix.size() ||
      key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::size_t digits = section.size() + 2;
  k = std::stoull(key.substr(digits, key.find(']') - digits));
  return true;
}

}  // namespace

GuardResult compare(const std::string& baseline_json,
                    const std::string& fresh_json, const Options& options) {
  GuardResult result;
  const auto baseline = parse_doc(baseline_json, result.error, "baseline");
  if (!baseline) return result;
  const auto fresh = parse_doc(fresh_json, result.error, "fresh");
  if (!fresh) return result;

  for (const auto& [key, base_value] : *baseline) {
    for (const GuardedMetric& g : kGuarded) {
      std::optional<std::uint64_t> k;
      if (!matches(key, g, k)) continue;
      const auto fresh_it = fresh->find(key);
      if (fresh_it == fresh->end()) continue;  // sweep point removed: skip
      ++result.compared;
      if (base_value <= 0) continue;  // degenerate baseline: nothing to gate
      const double ratio = fresh_it->second / base_value;
      if (ratio > 1.0 + options.tolerance) {
        result.drifts.push_back(
            {g.section, k, g.metric, base_value, fresh_it->second, ratio});
      }
    }
  }
  if (result.compared == 0) {
    result.error =
        "no comparable routing/ledger/flow/workload metrics between baseline "
        "and fresh documents (wrong schema?)";
  }
  return result;
}

std::string format(const Drift& d, const Options& options) {
  std::string where = d.section;
  if (d.k) where += " k=" + std::to_string(*d.k);
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %s: %.2f -> %.2f (%.2fx, limit %.2fx)",
                where.c_str(), d.metric.c_str(), d.baseline, d.fresh, d.ratio,
                1.0 + options.tolerance);
  return buf;
}

}  // namespace fairswap::guard
