#include "harness/scenario.hpp"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/log.hpp"

namespace fairswap::harness {

ScenarioRegistry& ScenarioRegistry::instance() {
  // fairswap-lint: allow(mutable-global) -- the scenario registry is
  // populated once by static registrars before main() and read-only
  // afterwards; it holds code (run functions), never simulation state.
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  for (Scenario& existing : scenarios_) {
    if (existing.name == scenario.name) {
      existing = std::move(scenario);
      return;
    }
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

int run_scenario(const std::string& name, int argc, char** argv,
                 std::ostream& out) {
  register_builtin_scenarios();
  const Scenario* scenario = ScenarioRegistry::instance().find(name);
  if (!scenario) {
    out << "error: unknown scenario '" << name << "'. Registered scenarios:\n";
    for (const Scenario& s : ScenarioRegistry::instance().list()) {
      out << "  " << s.name << " - " << s.description << "\n";
    }
    return 2;
  }

  ScenarioContext ctx;
  ctx.args = Config::from_args(argc, argv);
  ctx.out = &out;
  try {
    std::vector<std::string> known = kScenarioKeys;
    known.insert(known.end(), scenario->extra_keys.begin(),
                 scenario->extra_keys.end());
    ctx.args.require_known(known);
    ctx.files = ctx.args.get_u64("files", scenario->default_files);
    ctx.seed = ctx.args.get_u64("seed", kDefaultSeed);
    ctx.out_dir = ctx.args.get_string("out", "bench_out");
    ctx.threads = ctx.args.get_u64("threads", 0);
    if (ctx.args.get_bool("verbose", false)) Log::set_level(LogLevel::kInfo);
    return scenario->run(ctx);
  } catch (const std::invalid_argument& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  }
}

void print(std::ostream& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (needed >= 0) {
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    out.write(buf.data(), needed);
  }
  va_end(args);
}

void banner(std::ostream& out, const std::string& title) {
  print(out, "\n=== %s ===\n", title.c_str());
}

}  // namespace fairswap::harness
