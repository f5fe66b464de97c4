#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace fairswap::lint {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split_lines(const std::string& contents) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : contents) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

/// Blanks comments and string/char literals with spaces, preserving line
/// shape, so rules never match prose or literal contents. Include
/// directives keep their quoted path (they are matched by the layering
/// rule; the "literal" is not user prose).
std::vector<std::string> blank_noncode(const std::vector<std::string>& lines) {
  std::vector<std::string> out = lines;
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  for (std::string& line : out) {
    const bool is_include_directive = [&] {
      const std::string t = trim(line);
      return t.rfind("#include", 0) == 0 || t.rfind("# include", 0) == 0;
    }();
    for (std::size_t i = 0; i < line.size(); ++i) {
      switch (state) {
        case State::kCode: {
          const char c = line[i];
          const char next = i + 1 < line.size() ? line[i + 1] : '\0';
          if (c == '/' && next == '/') {
            // Line comment: blank to end of line.
            for (std::size_t j = i; j < line.size(); ++j) line[j] = ' ';
            i = line.size();
          } else if (c == '/' && next == '*') {
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
            state = State::kBlockComment;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || !is_ident_char(line[i - 1]))) {
            // Raw string literal: capture the delimiter.
            std::size_t j = i + 2;
            raw_delim.clear();
            while (j < line.size() && line[j] != '(') {
              raw_delim.push_back(line[j]);
              ++j;
            }
            for (std::size_t k = i; k < std::min(j + 1, line.size()); ++k) {
              line[k] = ' ';
            }
            i = j;
            state = State::kRawString;
          } else if (c == '"') {
            if (!is_include_directive) {
              line[i] = ' ';
              state = State::kString;
            }
          } else if (c == '\'') {
            // Distinguish char literal from digit separator (1'000).
            if (i > 0 &&
                std::isdigit(static_cast<unsigned char>(line[i - 1])) != 0 &&
                i + 1 < line.size() &&
                (std::isdigit(static_cast<unsigned char>(line[i + 1])) != 0)) {
              break;  // digit separator, keep
            }
            line[i] = ' ';
            state = State::kChar;
          }
          break;
        }
        case State::kBlockComment:
          if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kString:
          if (line[i] == '\\') {
            line[i] = ' ';
            if (i + 1 < line.size()) line[++i] = ' ';
          } else if (line[i] == '"') {
            line[i] = ' ';
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kChar:
          if (line[i] == '\\') {
            line[i] = ' ';
            if (i + 1 < line.size()) line[++i] = ' ';
          } else if (line[i] == '\'') {
            line[i] = ' ';
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kRawString: {
          const std::string close = ")" + raw_delim + "\"";
          if (line.compare(i, close.size(), close) == 0) {
            for (std::size_t k = i; k < i + close.size(); ++k) line[k] = ' ';
            i += close.size() - 1;
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        }
      }
    }
    // Line comments / strings / chars do not continue across lines.
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }
  return out;
}

/// Suppressions: line index (0-based) -> rules allowed there. A marker
/// suppresses its own line (trailing comment) and the first *code* line
/// after it — intervening comment/blank lines (the rest of the
/// justification prose) are skipped, so multi-line reasons work.
struct Suppressions {
  std::map<std::size_t, std::set<std::string>> by_line;

  [[nodiscard]] bool allows(std::size_t line_idx,
                            const std::string& rule) const {
    const auto it = by_line.find(line_idx);
    return it != by_line.end() && it->second.count(rule) != 0;
  }
};

constexpr std::string_view kMarker = "fairswap-lint: allow(";

Suppressions collect_suppressions(const SourceFile& file,
                                  std::vector<Violation>& out) {
  Suppressions sup;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    std::size_t pos = line.find(kMarker);
    while (pos != std::string::npos) {
      const std::size_t open = pos + kMarker.size();
      const std::size_t close = line.find(')', open);
      if (close == std::string::npos) {
        out.push_back({file.path, i + 1, "bad-suppression",
                       "unterminated allow(...) marker"});
        break;
      }
      const std::string rule = trim(line.substr(open, close - open));
      const std::size_t dashes = line.find("--", close);
      const bool has_reason =
          dashes != std::string::npos && !trim(line.substr(dashes + 2)).empty();
      if (rule.empty() || !has_reason) {
        out.push_back({file.path, i + 1, "bad-suppression",
                       "suppression needs a rule and a reason: "
                       "fairswap-lint: allow(<rule>) -- <reason>"});
      } else {
        sup.by_line[i].insert(rule);
        // Extend to the first code line below, skipping the rest of the
        // justification comment and blank lines.
        for (std::size_t j = i + 1; j < file.code.size(); ++j) {
          if (trim(file.code[j]).empty()) continue;
          sup.by_line[j].insert(rule);
          break;
        }
      }
      pos = line.find(kMarker, close);
    }
  }
  return sup;
}

bool rule_enabled(const Options& options, std::string_view rule) {
  if (options.rules.empty()) return true;
  return std::find(options.rules.begin(), options.rules.end(), rule) !=
         options.rules.end();
}

/// Finds word-boundary occurrences of `token` in `text` starting at
/// `from`; returns npos when absent.
std::size_t find_token(const std::string& text, std::string_view token,
                       std::size_t from = 0) {
  std::size_t pos = text.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos = text.find(token, pos + 1);
  }
  return std::string::npos;
}

/// True when the token ending at `end` is called: '(' follows, after
/// spaces.
bool called_at(const std::string& code, std::size_t end) {
  while (end < code.size() &&
         std::isspace(static_cast<unsigned char>(code[end])) != 0) {
    ++end;
  }
  return end < code.size() && code[end] == '(';
}

// ---------------------------------------------------------------------------
// Rule: pragma-once
// ---------------------------------------------------------------------------

void check_pragma_once(const SourceFile& file, const Suppressions& sup,
                       std::vector<Violation>& out) {
  if (file.path.size() < 4 ||
      file.path.compare(file.path.size() - 4, 4, ".hpp") != 0) {
    return;
  }
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string t = trim(file.code[i]);
    if (t.empty()) continue;
    if (t == "#pragma once") return;
    if (!sup.allows(i, "pragma-once")) {
      out.push_back({file.path, i + 1, "pragma-once",
                     "header must open with #pragma once before any code"});
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Rule: include-layering
// ---------------------------------------------------------------------------

/// The module DAG. A module may include itself, plus the listed modules.
/// Keep in sync with docs/ARCHITECTURE.md ("determinism rules" section
/// documents the enforcement; this table is the source of truth).
const std::map<std::string, std::set<std::string>>& layer_allowed() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"overlay", {"common"}},
      {"storage", {"common"}},
      {"accounting", {"common", "overlay"}},
      {"workload", {"common", "overlay"}},
      {"net", {"common", "overlay"}},
      {"incentives", {"accounting", "common", "overlay"}},
      {"core",
       {"accounting", "common", "incentives", "net", "overlay", "storage",
        "workload"}},
      {"agents", {"common", "core", "overlay"}},
      {"harness", {"agents", "common", "core"}},
  };
  return kAllowed;
}

/// Module of a repo path: "src/<mod>/..." -> <mod>; everything else
/// (bench, examples, tests, tools) is the unrestricted top layer.
std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return {};
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return {};
  return path.substr(4, slash - 4);
}

void check_include_layering(const SourceFile& file, const Suppressions& sup,
                            std::vector<Violation>& out) {
  const std::string mod = module_of(file.path);
  if (mod.empty()) return;
  const auto allowed_it = layer_allowed().find(mod);
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string t = trim(file.lines[i]);
    if (t.rfind("#include \"", 0) != 0) continue;
    const std::size_t open = t.find('"');
    const std::size_t close = t.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string inc = t.substr(open + 1, close - open - 1);
    const std::size_t slash = inc.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = inc.substr(0, slash);
    if (layer_allowed().count(target) == 0) continue;  // not a src module
    if (target == mod) continue;
    const bool ok = allowed_it != layer_allowed().end() &&
                    allowed_it->second.count(target) != 0;
    if (!ok && !sup.allows(i, "include-layering")) {
      out.push_back({file.path, i + 1, "include-layering",
                     "module '" + mod + "' may not include '" + inc +
                         "' (extend the DAG in tools/fairswap_lint/lint.cpp "
                         "deliberately if this layering is intended)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-random
// ---------------------------------------------------------------------------

void check_raw_random(const SourceFile& file, const Suppressions& sup,
                      std::vector<Violation>& out) {
  // The one blessed entropy/seed site: core::Rng and its SplitMix64.
  if (file.path.rfind("src/common/rng", 0) == 0) return;
  static constexpr std::array<std::string_view, 4> kTokens = {
      "random_device", "rand", "srand", "time"};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (const std::string_view token : kTokens) {
      std::size_t pos = find_token(code, token);
      while (pos != std::string::npos) {
        // rand/srand/time only count as calls. random_device is a type;
        // any mention counts.
        const bool is_hit =
            token == "random_device" || called_at(code, pos + token.size());
        if (is_hit && !sup.allows(i, "raw-random")) {
          // Sequential appends: GCC 12's -Wrestrict misfires on the
          // `const char* + std::string&&` chain this replaces.
          std::string message;
          message += '\'';
          message += token;
          message +=
              "' breaks replayable determinism; all randomness must "
              "flow from common/rng.hpp seeding";
          out.push_back(
              {file.path, i + 1, "raw-random", std::move(message)});
        }
        pos = find_token(code, token, pos + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-parse
// ---------------------------------------------------------------------------

void check_raw_parse(const SourceFile& file, const Suppressions& sup,
                     std::vector<Violation>& out) {
  // The one scalar grammar: common/config's parse_u64/parse_double/...
  if (file.path == "src/common/config.cpp") return;
  static constexpr std::array<std::string_view, 22> kTokens = {
      "strtol", "strtoll", "strtoul", "strtoull", "strtoimax", "strtoumax",
      "strtof", "strtod",  "strtold", "stoi",     "stol",      "stoll",
      "stoul",  "stoull",  "stof",    "stod",     "stold",     "atoi",
      "atol",   "atoll",   "atof",    "sscanf"};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (const std::string_view token : kTokens) {
      std::size_t pos = find_token(code, token);
      while (pos != std::string::npos) {
        if (called_at(code, pos + token.size()) &&
            !sup.allows(i, "raw-parse")) {
          std::string message;
          message += '\'';
          message += token;
          message +=
              "' is a second number grammar; parse through common/config "
              "(parse_u64, parse_i64, parse_double, parse_bool or the "
              "Config reads)";
          out.push_back({file.path, i + 1, "raw-parse", std::move(message)});
        }
        pos = find_token(code, token, pos + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

void check_wall_clock(const SourceFile& file, const Suppressions& sup,
                      std::vector<Violation>& out) {
  // Blessed wall-clock sites: the telemetry wall plane (wall_now_ns /
  // TELEM_SPAN live there), logging timestamps, and bench/ drivers whose
  // whole job is timing.
  static constexpr std::array<std::string_view, 3> kAllowedPrefixes = {
      "src/common/telemetry", "src/common/log", "bench/"};
  for (const std::string_view prefix : kAllowedPrefixes) {
    if (file.path.rfind(prefix, 0) == 0) return;
  }
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (find_token(file.code[i], "chrono") != std::string::npos &&
        !sup.allows(i, "wall-clock")) {
      out.push_back(
          {file.path, i + 1, "wall-clock",
           "std::chrono leaks wall time into the sim plane; take timings "
           "through telemetry::wall_now_ns / TELEM_SPAN "
           "(src/common/telemetry) so the planes stay separated"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-type
// ---------------------------------------------------------------------------

void check_float_type(const SourceFile& file, const Suppressions& sup,
                      std::vector<Violation>& out) {
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (find_token(file.code[i], "float") != std::string::npos &&
        !sup.allows(i, "float-type")) {
      out.push_back({file.path, i + 1, "float-type",
                     "use double or integer accumulation in canonical order; "
                     "float makes fold order visible in results"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: unordered-container / unordered-iteration
// ---------------------------------------------------------------------------

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "std::unordered_map", "std::unordered_set", "std::unordered_multimap",
    "std::unordered_multiset"};

/// Variable (or member) names declared with an unordered container type in
/// this file, found by matching the balanced <...> after the type name and
/// reading the following identifier.
std::set<std::string> unordered_decl_names(const SourceFile& file) {
  std::set<std::string> names;
  // Join the code view so declarations split across lines still parse.
  std::string joined;
  for (const std::string& line : file.code) {
    joined += line;
    joined += '\n';
  }
  for (const std::string_view type : kUnorderedTypes) {
    std::size_t pos = joined.find(type);
    while (pos != std::string::npos) {
      std::size_t j = pos + type.size();
      if (j < joined.size() && joined[j] == '<') {
        int depth = 0;
        while (j < joined.size()) {
          if (joined[j] == '<') ++depth;
          if (joined[j] == '>') {
            --depth;
            if (depth == 0) break;
          }
          ++j;
        }
        ++j;  // past the closing '>'
        while (j < joined.size() &&
               (std::isspace(static_cast<unsigned char>(joined[j])) != 0 ||
                joined[j] == '&' || joined[j] == '*')) {
          ++j;
        }
        std::string name;
        while (j < joined.size() && is_ident_char(joined[j])) {
          name.push_back(joined[j]);
          ++j;
        }
        if (!name.empty() && name != "const") names.insert(name);
      }
      pos = joined.find(type, pos + 1);
    }
  }
  return names;
}

void check_unordered_container(const SourceFile& file, const Suppressions& sup,
                               std::vector<Violation>& out) {
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    for (const std::string_view type : kUnorderedTypes) {
      if (file.code[i].find(type) != std::string::npos &&
          !sup.allows(i, "unordered-container")) {
        out.push_back(
            {file.path, i + 1, "unordered-container",
             std::string(type) +
                 " needs a justification: hash containers are lookup "
                 "structures, never enumeration sources (see "
                 "common/ordered.hpp)"});
        break;  // one violation per line is enough
      }
    }
  }
}

void check_unordered_iteration(const SourceFile& file,
                               const std::set<std::string>& names,
                               const Suppressions& sup,
                               std::vector<Violation>& out) {
  // common/ordered.hpp is the canonical-order helper: the blessed place
  // where an unordered visit happens (and is immediately sorted).
  if (file.path == "src/common/ordered.hpp") return;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (const std::string& name : names) {
      std::size_t pos = find_token(code, name);
      while (pos != std::string::npos) {
        bool is_iteration = false;
        // Range-for: `... : name)` — a ':' before the name (skipping
        // whitespace), i.e. the name is a range expression.
        std::size_t before = pos;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(code[before - 1])) !=
                   0) {
          --before;
        }
        if (before > 0 && code[before - 1] == ':' &&
            (before < 2 || code[before - 2] != ':')) {
          std::size_t after = pos + name.size();
          while (after < code.size() &&
                 std::isspace(static_cast<unsigned char>(code[after])) != 0) {
            ++after;
          }
          if (after < code.size() && code[after] == ')') is_iteration = true;
        }
        // Iterator walk: name.begin() / name.cbegin() / name.rbegin().
        const std::string_view rest(code.c_str() + pos + name.size());
        if (rest.rfind(".begin(", 0) == 0 || rest.rfind(".cbegin(", 0) == 0 ||
            rest.rfind(".rbegin(", 0) == 0) {
          is_iteration = true;
        }
        if (is_iteration && !sup.allows(i, "unordered-iteration")) {
          out.push_back(
              {file.path, i + 1, "unordered-iteration",
               "iteration over unordered container '" + name +
                   "' is hash-order-dependent; enumerate through "
                   "common/ordered.hpp or justify order-independence"});
        }
        pos = find_token(code, name, pos + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: naked-mutex
// ---------------------------------------------------------------------------

void check_naked_mutex(const SourceFile& file, const Suppressions& sup,
                       std::vector<Violation>& out) {
  // The capability wrappers (Mutex / MutexLock / CondVar) live here; this
  // is the one place raw primitives may appear.
  if (file.path == "src/common/thread_annotations.hpp") return;
  static constexpr std::array<std::string_view, 11> kTokens = {
      "std::mutex",
      "std::shared_mutex",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::recursive_timed_mutex",
      "std::shared_timed_mutex",
      "std::condition_variable",
      "std::condition_variable_any",
      "std::lock_guard",
      "std::unique_lock",
      "std::scoped_lock"};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    for (const std::string_view token : kTokens) {
      if (find_token(file.code[i], token) == std::string::npos) continue;
      if (!sup.allows(i, "naked-mutex")) {
        // Sequential appends: GCC 12's -Wrestrict misfires on the
        // `const char* + std::string&&` chain this replaces.
        std::string message;
        message += '\'';
        message += token;
        message +=
            "' bypasses -Wthread-safety; use the capability-annotated "
            "Mutex / MutexLock / CondVar wrappers from "
            "common/thread_annotations.hpp";
        out.push_back(
            {file.path, i + 1, "naked-mutex", std::move(message)});
      }
      break;  // one violation per line is enough
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: mutable-global
// ---------------------------------------------------------------------------

/// For every line: true when every enclosing scope at the line's start is
/// a namespace (file scope counts). Tracked by brace counting over the
/// code view; `namespace <name...> {` pushes a namespace scope, any other
/// `{` (class/struct/function/initializer) pushes an opaque one.
std::vector<bool> namespace_scope_lines(const SourceFile& file) {
  std::vector<bool> at_ns(file.code.size(), false);
  std::vector<bool> stack;  // true = namespace scope
  bool pending_namespace = false;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    bool all_ns = true;
    for (const bool s : stack) all_ns = all_ns && s;
    at_ns[i] = all_ns;
    const std::string& code = file.code[i];
    for (std::size_t j = 0; j < code.size(); ++j) {
      const char c = code[j];
      if (is_ident_char(c)) {
        std::size_t k = j;
        while (k < code.size() && is_ident_char(code[k])) ++k;
        if (std::string_view(code.data() + j, k - j) == "namespace") {
          pending_namespace = true;
        }
        j = k - 1;
        continue;
      }
      if (c == '{') {
        stack.push_back(pending_namespace);
        pending_namespace = false;
      } else if (c == '}') {
        if (!stack.empty()) stack.pop_back();
      } else if (c == ';' || c == '=') {
        // `using namespace x;` / namespace alias — no scope follows.
        pending_namespace = false;
      }
    }
  }
  return at_ns;
}

bool has_any_token(const std::string& code,
                   std::initializer_list<std::string_view> tokens) {
  for (const std::string_view t : tokens) {
    if (find_token(code, t) != std::string::npos) return true;
  }
  return false;
}

std::size_t count_identifiers(const std::string& code) {
  std::size_t n = 0;
  bool in_ident = false;
  for (const char c : code) {
    const bool ident = is_ident_char(c);
    if (ident && !in_ident) ++n;
    in_ident = ident;
  }
  return n;
}

/// Heuristic, deliberately conservative: flags `static` declarations that
/// are not const/constexpr (function-local statics, mutable class
/// statics) and namespace-scope variable declarations without a const
/// qualifier. Declaration-statement shape required (ends with ';', no
/// parentheses), so function declarations/definitions never match; a
/// paren-initialized global slips through — the tree-clean gate plus
/// review covers that residue.
void check_mutable_global(const SourceFile& file,
                          const std::vector<bool>& at_ns,
                          const Suppressions& sup,
                          std::vector<Violation>& out) {
  // True when line i begins a statement (the previous code line completed
  // one) — continuation lines of multi-line initializers are never the
  // declaration itself.
  bool starts_statement = true;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string t = trim(file.code[i]);
    if (t.empty()) continue;
    if (t.front() == '#') {
      starts_statement = true;  // preprocessor lines don't span statements
      continue;
    }
    const bool at_start = starts_statement;
    starts_statement = t.back() == ';' || t.back() == '{' || t.back() == '}' ||
                       t.back() == ':';
    if (t.back() != ';') continue;
    if (!at_start) continue;
    if (t.find('(') != std::string::npos ||
        t.find(')') != std::string::npos) {
      continue;
    }
    if (has_any_token(t, {"const", "constexpr", "constinit", "extern"})) {
      continue;
    }
    const bool is_static = find_token(t, "static") != std::string::npos;
    bool is_ns_decl = false;
    if (!is_static && at_ns[i]) {
      const char first = t.front();
      is_ns_decl =
          first != '#' && first != '}' && first != '{' &&
          !has_any_token(t, {"using", "typedef", "namespace", "class",
                             "struct", "enum", "union", "template", "friend",
                             "public", "private", "protected"}) &&
          count_identifiers(t) >= 2;
    }
    if (!is_static && !is_ns_decl) continue;
    if (!sup.allows(i, "mutable-global")) {
      out.push_back(
          {file.path, i + 1, "mutable-global",
           std::string(is_static ? "static-local" : "namespace-scope") +
               " mutable state survives across runs and breaks "
               "reset()-rerun determinism; keep state in objects owned by "
               "one run, or justify why this global is benign"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: shared-capture
// ---------------------------------------------------------------------------

/// The code view joined into one string, with a char -> line-index map so
/// multi-line call expressions can be scanned while violations still pin
/// exact lines.
struct JoinedCode {
  std::string text;
  std::vector<std::size_t> line_of;  ///< 0-based line per character
};

JoinedCode join_code(const SourceFile& file) {
  JoinedCode joined;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    joined.text += file.code[i];
    joined.text += '\n';
    joined.line_of.resize(joined.text.size(), i);
  }
  return joined;
}

/// Position of the matching closer for the opener at `open`, or npos.
std::size_t matching_close(const std::string& text, std::size_t open,
                           char open_c, char close_c) {
  int depth = 0;
  for (std::size_t j = open; j < text.size(); ++j) {
    if (text[j] == open_c) ++depth;
    if (text[j] == close_c) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return std::string::npos;
}

/// Names of variables bound to a by-reference-capturing lambda:
/// `NAME = [&...](...)` (auto or std::function alike).
std::set<std::string> ref_lambda_names(const std::string& text) {
  std::set<std::string> names;
  for (std::size_t eq = text.find('='); eq != std::string::npos;
       eq = text.find('=', eq + 1)) {
    // Plain assignment only: skip ==, !=, <=, >=, +=, ...
    if (eq + 1 < text.size() && text[eq + 1] == '=') {
      ++eq;
      continue;
    }
    if (eq > 0 && std::string_view("=!<>+-*/%&|^").find(text[eq - 1]) !=
                      std::string_view::npos) {
      continue;
    }
    std::size_t j = eq + 1;
    while (j < text.size() &&
           std::isspace(static_cast<unsigned char>(text[j])) != 0) {
      ++j;
    }
    if (j >= text.size() || text[j] != '[') continue;
    const std::size_t close = matching_close(text, j, '[', ']');
    if (close == std::string::npos) continue;
    if (text.substr(j, close - j).find('&') == std::string::npos) continue;
    // Read the bound name backwards from the '='.
    std::size_t e = eq;
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) {
      --e;
    }
    std::size_t b = e;
    while (b > 0 && is_ident_char(text[b - 1])) --b;
    if (b < e) names.insert(text.substr(b, e - b));
  }
  return names;
}

void check_shared_capture(const SourceFile& file, const Suppressions& sup,
                          std::vector<Violation>& out) {
  const JoinedCode joined = join_code(file);
  const std::set<std::string> lambda_names = ref_lambda_names(joined.text);
  const auto report = [&](std::size_t pos, const std::string& what) {
    const std::size_t line_idx = joined.line_of[pos];
    if (sup.allows(line_idx, "shared-capture")) return;
    out.push_back(
        {file.path, line_idx + 1, "shared-capture",
         what +
             "; state crossing into TaskPool workers must be a "
             "capability-annotated type, captured by value, or carry a "
             "reasoned allow (e.g. disjoint-slot writes)"});
  };

  std::size_t pos = find_token(joined.text, "parallel_for");
  while (pos != std::string::npos) {
    std::size_t open = pos + std::string_view("parallel_for").size();
    while (open < joined.text.size() &&
           std::isspace(static_cast<unsigned char>(joined.text[open])) != 0) {
      ++open;
    }
    if (open < joined.text.size() && joined.text[open] == '(') {
      const std::size_t close =
          matching_close(joined.text, open, '(', ')');
      if (close != std::string::npos) {
        const std::string args = joined.text.substr(open, close - open + 1);
        // Inline lambdas: '[' directly after '(' or ',' is a lambda
        // introducer (a subscript always follows an identifier or ')').
        for (std::size_t j = 1; j + 1 < args.size(); ++j) {
          if (args[j] != '[') continue;
          std::size_t prev = j;
          while (prev > 0 && std::isspace(static_cast<unsigned char>(
                                 args[prev - 1])) != 0) {
            --prev;
          }
          if (prev == 0 || (args[prev - 1] != '(' && args[prev - 1] != ','))
            continue;
          const std::size_t cap_close = matching_close(args, j, '[', ']');
          if (cap_close == std::string::npos) continue;
          if (args.substr(j, cap_close - j).find('&') != std::string::npos) {
            report(open + j,
                   "lambda handed to TaskPool::parallel_for captures by "
                   "reference");
          }
          j = cap_close;
        }
        // Named lambdas declared in this file with a by-ref capture.
        for (const std::string& name : lambda_names) {
          const std::size_t hit = find_token(args, name);
          if (hit != std::string::npos) {
            report(open + hit,
                   "'" + name +
                       "' (a by-reference-capturing lambda) is handed to "
                       "TaskPool::parallel_for");
          }
        }
      }
    }
    pos = find_token(joined.text, "parallel_for", pos + 1);
  }
}

/// Map from "suffix path" (e.g. "accounting/swap.hpp") to indices of files
/// whose path ends with it — used to resolve quoted includes.
std::map<std::string, std::size_t> build_path_index(
    const std::vector<SourceFile>& files) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < files.size(); ++i) {
    index[files[i].path] = i;
  }
  return index;
}

std::vector<std::string> quoted_includes(const SourceFile& file) {
  std::vector<std::string> incs;
  for (const std::string& line : file.lines) {
    const std::string t = trim(line);
    if (t.rfind("#include \"", 0) != 0) continue;
    const std::size_t open = t.find('"');
    const std::size_t close = t.find('"', open + 1);
    if (close != std::string::npos) {
      incs.push_back(t.substr(open + 1, close - open - 1));
    }
  }
  return incs;
}

}  // namespace

SourceFile parse_source(std::string path, const std::string& contents) {
  SourceFile file;
  file.path = std::move(path);
  std::replace(file.path.begin(), file.path.end(), '\\', '/');
  file.lines = split_lines(contents);
  file.code = blank_noncode(file.lines);
  return file;
}

std::vector<Violation> lint_files(const std::vector<SourceFile>& files,
                                  const Options& options) {
  std::vector<Violation> out;

  // Pass 1: per-file unordered declarations (for cross-file iteration
  // checks: members declared in a header, iterated in the .cpp).
  std::vector<std::set<std::string>> own_names(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    own_names[i] = unordered_decl_names(files[i]);
  }
  const auto path_index = build_path_index(files);

  for (std::size_t i = 0; i < files.size(); ++i) {
    const SourceFile& file = files[i];
    const Suppressions sup = collect_suppressions(file, out);

    if (rule_enabled(options, "pragma-once")) {
      check_pragma_once(file, sup, out);
    }
    if (rule_enabled(options, "include-layering")) {
      check_include_layering(file, sup, out);
    }
    if (rule_enabled(options, "raw-random")) {
      check_raw_random(file, sup, out);
    }
    if (rule_enabled(options, "raw-parse")) {
      check_raw_parse(file, sup, out);
    }
    if (rule_enabled(options, "wall-clock")) {
      check_wall_clock(file, sup, out);
    }
    if (rule_enabled(options, "float-type")) {
      check_float_type(file, sup, out);
    }
    if (rule_enabled(options, "unordered-container")) {
      check_unordered_container(file, sup, out);
    }
    if (rule_enabled(options, "unordered-iteration")) {
      // Names visible here: own declarations plus those of directly
      // included project files ("src/<inc>" or sibling of this file).
      std::set<std::string> names = own_names[i];
      for (const std::string& inc : quoted_includes(file)) {
        for (const std::string& candidate :
             {"src/" + inc,
              file.path.substr(0, file.path.rfind('/') + 1) + inc}) {
          const auto it = path_index.find(candidate);
          if (it != path_index.end()) {
            names.insert(own_names[it->second].begin(),
                         own_names[it->second].end());
          }
        }
      }
      check_unordered_iteration(file, names, sup, out);
    }
    if (rule_enabled(options, "naked-mutex")) {
      check_naked_mutex(file, sup, out);
    }
    if (rule_enabled(options, "mutable-global")) {
      check_mutable_global(file, namespace_scope_lines(file), sup, out);
    }
    if (rule_enabled(options, "shared-capture")) {
      check_shared_capture(file, sup, out);
    }
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::vector<Violation> lint_file(std::string path, const std::string& contents,
                                 const Options& options) {
  return lint_files({parse_source(std::move(path), contents)}, options);
}

std::vector<Violation> lint_tree(const std::filesystem::path& root,
                                 const Options& options) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const std::string_view dir : {"src", "bench", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      files.push_back(parse_source(rel, buffer.str()));
    }
  }
  // Deterministic file order in, deterministic violation order out.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return lint_files(files, options);
}

std::string format(const Violation& v) {
  std::ostringstream out;
  out << v.file << ":" << v.line << ": " << v.rule << ": " << v.message;
  return out.str();
}

namespace {

/// Minimal JSON string escaping (RFC 8259). Hand-rolled so the lint
/// library stays dependency-free — it must not link the simulator.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string format_json(const std::vector<Violation>& violations) {
  std::string out = "{\"schema\":\"fairswap.lint.v1\",\"count\":";
  out += std::to_string(violations.size());
  out += ",\"violations\":[";
  bool first = true;
  for (const Violation& v : violations) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":";
    append_json_string(out, v.rule);
    out += ",\"file\":";
    append_json_string(out, v.file);
    out += ",\"line\":";
    out += std::to_string(v.line);
    out += ",\"reason\":";
    append_json_string(out, v.message);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace fairswap::lint
