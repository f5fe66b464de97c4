// fairswap_lint — project-specific determinism & layering rules that
// generic tools (clang-tidy, compiler warnings) cannot express.
//
// Rules (see docs/STATIC_ANALYSIS.md for the rationale and the full
// suppression policy):
//
//   unordered-container   any std::unordered_{map,set,multimap,multiset}
//                         usage needs an inline justification: hash
//                         containers are lookup structures here, never
//                         enumeration sources.
//   unordered-iteration   range-for / .begin() over a variable declared as
//                         an unordered container. Enumeration must go
//                         through common/ordered.hpp (the one allowlisted
//                         file) or carry a justification (e.g. an
//                         order-independent integer sum).
//   raw-random            rand/srand/std::random_device/time() seeding —
//                         all randomness flows from common/rng.hpp
//                         (SplitMix64) so runs replay bit-identically.
//   raw-parse             strto*/sto*/ato*/sscanf calls outside
//                         src/common/config.cpp: every entry point reads
//                         numbers through its one strict grammar.
//   wall-clock            std::chrono outside src/common/telemetry*,
//                         src/common/log* and bench/. Wall time is the
//                         telemetry wall plane's business; sim code that
//                         reads a clock can leak nondeterminism into
//                         results (use telemetry::wall_now_ns/TELEM_SPAN).
//   float-type            `float` anywhere: metrics/fold paths accumulate
//                         in double or integers with canonical order;
//                         float's 24-bit mantissa makes fold order visible.
//   pragma-once           every header opens with #pragma once.
//   include-layering      quoted includes must respect the module DAG
//                         (core never includes harness/agents, common
//                         includes nothing, ...).
//   mutable-global        namespace-scope / static-local mutable state.
//                         Hidden globals survive across runs and break the
//                         reset()-rerun determinism contract; the few
//                         legitimate ones (log level, registries populated
//                         before main) carry reasoned allows.
//   naked-mutex           raw std::mutex / std::condition_variable /
//                         std::lock_guard & friends. All locking goes
//                         through the capability-annotated wrappers in
//                         common/thread_annotations.hpp (the one
//                         allowlisted file) so -Wthread-safety sees every
//                         acquisition.
//   shared-capture        a lambda handed to TaskPool::parallel_for that
//                         captures by reference — the door through which
//                         unsynchronized shared state reaches workers.
//                         Disjoint-slot writers carry a reasoned allow.
//
// Suppression: a comment containing
//     fairswap-lint: allow(<rule>) -- <reason>
// on the flagged line or the line directly above suppresses that rule
// there. The reason is mandatory; an empty reason is itself a violation
// (`bad-suppression`).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace fairswap::lint {

struct Violation {
  std::string file;  ///< repo-relative path, forward slashes
  std::size_t line;  ///< 1-based
  std::string rule;
  std::string message;

  friend bool operator==(const Violation&, const Violation&) = default;
};

struct Options {
  /// When non-empty, only these rules run (fixture tests isolate rules).
  /// `bad-suppression` findings are always reported.
  std::vector<std::string> rules;
};

/// Parsed form of one source file: the original lines plus a "code view"
/// with comments and string/char literals blanked out, so rule matching
/// never fires on prose or literals.
struct SourceFile {
  std::string path;  ///< repo-relative, forward slashes
  std::vector<std::string> lines;
  std::vector<std::string> code;  ///< same shape, comments/literals blanked
};

/// Splits contents into a SourceFile (comment/literal stripping included).
SourceFile parse_source(std::string path, const std::string& contents);

/// Lints a set of files as one unit. Cross-file context (which variables
/// are unordered containers, declared in headers and iterated in .cpp
/// files) is resolved across the set via quoted includes.
std::vector<Violation> lint_files(const std::vector<SourceFile>& files,
                                  const Options& options = {});

/// Convenience: single file, no cross-file context beyond itself.
std::vector<Violation> lint_file(std::string path, const std::string& contents,
                                 const Options& options = {});

/// Walks src/, bench/ and examples/ under `root`, linting every .cpp/.hpp.
/// Returns violations sorted by (file, line).
std::vector<Violation> lint_tree(const std::filesystem::path& root,
                                 const Options& options = {});

/// "file:line: rule: message" — the CLI output format.
std::string format(const Violation& v);

/// The full violation list as a JSON document (schema "fairswap.lint.v1"):
///   {"schema":"fairswap.lint.v1","count":N,
///    "violations":[{"rule":...,"file":...,"line":N,"reason":...},...]}
/// Stable field order, violations pre-sorted by (file, line, rule) as
/// lint_tree returns them. Used by --format=json for CI annotation tooling.
std::string format_json(const std::vector<Violation>& violations);

}  // namespace fairswap::lint
