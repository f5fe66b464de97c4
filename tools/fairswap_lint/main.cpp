// CLI for the fairswap determinism/layering lint.
//
//   fairswap_lint <repo-root> [--rule=<name>]... [--format=text|json]
//
// Scans src/, bench/ and examples/ under <repo-root> and prints one
// "file:line: rule: message" per violation (or a fairswap.lint.v1 JSON
// document with --format=json). Exit 0 when clean, 1 on any violation,
// 2 on usage errors — including a root that does not exist or is not a
// directory, so a typo'd path can never masquerade as a clean scan.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  fairswap::lint::Options options;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rule=", 0) == 0) {
      options.rules.push_back(arg.substr(7));
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: fairswap_lint <repo-root> [--rule=<name>]... "
             "[--format=text|json]\n"
             "rules: unordered-container unordered-iteration raw-random "
             "raw-parse\n"
             "       wall-clock float-type pragma-once include-layering\n"
             "       mutable-global naked-mutex shared-capture\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "fairswap_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.size() != 1) {
    std::cerr << "usage: fairswap_lint <repo-root> [--rule=<name>]... "
                 "[--format=text|json]\n";
    return 2;
  }

  std::error_code ec;
  if (!std::filesystem::is_directory(roots.front(), ec) || ec) {
    std::cerr << "fairswap_lint: cannot read root '" << roots.front()
              << "': " << (ec ? ec.message() : "not a directory") << "\n";
    return 2;
  }

  const auto violations = fairswap::lint::lint_tree(roots.front(), options);
  if (json) {
    std::cout << fairswap::lint::format_json(violations) << "\n";
  } else {
    for (const auto& v : violations) {
      std::cout << fairswap::lint::format(v) << "\n";
    }
    if (!violations.empty()) {
      std::cout << violations.size() << " violation"
                << (violations.size() == 1 ? "" : "s") << "\n";
    }
  }
  return violations.empty() ? 0 : 1;
}
