// The scenario registry: named, self-describing experiment entry points
// (fig4, table1, free_riders, variance, ...) runnable from one driver
// binary (`fairswap_run <name> key=value...`) or from thin per-scenario
// alias binaries. A scenario is a plain function over a ScenarioContext;
// the registry owns name -> function dispatch and the shared CLI
// conventions (files/seed/out/threads/verbose) every bench used to
// re-implement by hand.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"

namespace fairswap::harness {

/// Everything a scenario body needs: the parsed CLI arguments, the shared
/// settings already extracted from them, and the output stream (stdout in
/// the binaries, a capture buffer in the equivalence tests).
struct ScenarioContext {
  /// All key=value arguments; scenario-specific keys (e.g. variance's
  /// `seeds`) are read from here.
  Config args;
  std::size_t files{10'000};
  std::uint64_t seed{kDefaultSeed};
  std::string out_dir{"bench_out"};
  /// Worker threads for scenarios that fan out (0 = hardware concurrency).
  std::size_t threads{0};
  std::ostream* out{nullptr};

  [[nodiscard]] std::ostream& os() const { return *out; }
};

/// The arguments every scenario accepts; run_scenario reads them into the
/// ScenarioContext, so a scenario reserves them when it applies the rest
/// of its command line through the binding table.
inline const std::vector<std::string> kScenarioKeys = {"files", "seed", "out",
                                                       "threads", "verbose"};

/// A registered scenario. `default_files` seeds ScenarioContext::files
/// when the caller does not pass files= (the expensive paper-grid
/// scenarios default to 10k, the sweep-style ones lower). `extra_keys`
/// names the scenario-specific arguments beyond kScenarioKeys — anything
/// else on the command line is rejected, not silently ignored.
struct Scenario {
  std::string name;
  std::string description;
  std::size_t default_files{10'000};
  int (*run)(ScenarioContext&);
  std::vector<std::string> extra_keys;
};

/// Process-wide scenario table. Registration replaces an existing entry
/// with the same name; listing preserves registration order.
class ScenarioRegistry {
 public:
  [[nodiscard]] static ScenarioRegistry& instance();

  void add(Scenario scenario);
  [[nodiscard]] const Scenario* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Scenario>& list() const noexcept {
    return scenarios_;
  }

 private:
  std::vector<Scenario> scenarios_;
};

/// Registers the migrated paper scenarios (fig4, table1, free_riders,
/// variance) and the strategic-agents scenarios (equilibrium, invasion).
/// Idempotent; called by the driver and the alias binaries (explicit
/// registration instead of static initializers, which a static library
/// would drop).
void register_builtin_scenarios();

/// The agents half of register_builtin_scenarios (harness/
/// agent_scenarios.cpp).
void register_agent_scenarios();

/// The flow-level half of register_builtin_scenarios (harness/
/// flow_scenarios.cpp): flow_fct.
void register_flow_scenarios();

/// The heavy-traffic half of register_builtin_scenarios (harness/
/// heavy_scenarios.cpp): heavy_traffic.
void register_heavy_scenarios();

/// Parses argv into a ScenarioContext and runs the named scenario.
/// Returns the scenario's exit code, or prints `error: …` to `out` and
/// returns 2 on an unknown scenario, an unknown or malformed argument, or
/// any std::invalid_argument the scenario throws. Other exceptions (a
/// failed write, an arrival past the tick clock) propagate.
int run_scenario(const std::string& name, int argc, char** argv,
                 std::ostream& out);

/// printf-style formatting into a stream — keeps the migrated scenarios
/// byte-identical to the printf-based mains they replaced.
void print(std::ostream& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// The shared "\n=== title ===\n" section header.
void banner(std::ostream& out, const std::string& title);

}  // namespace fairswap::harness
