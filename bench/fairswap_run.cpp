// fairswap_run — the one experiment driver over the harness:
//
//   fairswap_run list                      # scenarios + bindable keys
//   fairswap_run <scenario> key=value...   # run a registered scenario
//   fairswap_run sweep k=4,20 originators=0.2,1.0 seeds=8 threads=4
//
// Scenario mode dispatches to the registry, which holds every paper
// table, figure and ablation. Sweep mode builds a declarative
// ExperimentPlan: every key goes through the parameter-binding table
// (unknown keys and malformed values are hard errors, not silent
// defaults), comma-separated values become sweep axes (expanded in
// alphabetical key order, last axis fastest), topology-equal runs share
// one built overlay per seed, and results stream as a text table plus
// fairswap.run.v1 JSON and CSV files.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/telemetry/span.hpp"
#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "harness/binding.hpp"
#include "harness/plan.hpp"
#include "harness/scenario.hpp"
#include "harness/sink.hpp"
#include "workload/trace.hpp"

namespace {

using namespace fairswap;

/// Keys the sweep command consumes itself; everything else must be a
/// bindable experiment parameter.
const std::vector<std::string> kSweepReserved = {
    "out",    "seeds",  "threads",    "json",
    "csv",    "config", "trace_spans", "verbose"};

void usage(std::ostream& out) {
  out << "usage:\n"
         "  fairswap_run list\n"
         "  fairswap_run <scenario> [files=N] [seed=N] [out=DIR] "
         "[key=value...]\n"
         "  fairswap_run sweep [key=value | key=v1,v2,...]... [seeds=N]\n"
         "               [threads=T] [out=DIR] [json=FILE] [csv=FILE]\n"
         "               [config=FILE]\n"
         "\n"
         "Sweep keys go through the parameter-binding table ('fairswap_run\n"
         "list' prints it); comma-separated values become sweep axes,\n"
         "expanded in alphabetical key order with the last axis varying\n"
         "fastest. config=FILE applies newline-separated key=value pairs\n"
         "to the base configuration first (single values only; '#' starts\n"
         "a comment), then command-line keys override. The default base is\n"
         "the paper's 1000-node grid cell (k=4, 100% originators, 10k\n"
         "files).\n"
         "\n"
         "trace_spans=FILE (any mode) captures wall-plane phase spans and\n"
         "writes Chrome trace-event JSON loadable in Perfetto or\n"
         "chrome://tracing (docs/OBSERVABILITY.md).\n";
}

void list(std::ostream& out) {
  harness::register_builtin_scenarios();
  out << "registered scenarios:\n";
  for (const auto& s : harness::ScenarioRegistry::instance().list()) {
    out << "  " << s.name << " - " << s.description << "\n";
  }
  out << "\nbindable parameters (scenario overrides and sweep axes):\n";
  for (const auto& b : harness::BindingTable::instance().bindings()) {
    out << "  " << b.key << " - " << b.description << "\n";
  }
}

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    if (comma == std::string::npos) {
      parts.push_back(value.substr(begin));
      break;
    }
    parts.push_back(value.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return parts;
}

/// Starts wall-plane span capture for a `trace_spans=FILE` request.
/// Returns false (with a diagnostic) when the build compiled telemetry
/// out — an empty trace would silently masquerade as "nothing ran".
bool begin_trace_capture(const std::string& path) {
  if constexpr (!telemetry::kEnabled) {
    std::cerr << "error: trace_spans=" << path
              << " needs a FAIRSWAP_TELEMETRY=ON build\n";
    return false;
  }
  telemetry::TraceRecorder::instance().enable();
  return true;
}

/// Writes the spans captured since begin_trace_capture as Chrome
/// trace-event JSON and stops capturing.
int export_trace_spans(const std::string& path) {
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  recorder.disable();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 1;
  }
  recorder.write_chrome_trace(out);
  std::cout << "wrote " << path << " (" << recorder.span_count()
            << " spans, Chrome trace-event JSON — open in Perfetto)\n";
  return 0;
}

int run_sweep(const Config& args) {
  harness::ExperimentPlan plan;
  // The paper's baseline cell; axes and single-value keys override it.
  plan.base = core::paper_config(4, 1.0, 10'000, kDefaultSeed);
  plan.base.label.clear();
  plan.title = "sweep";
  plan.seeds = args.get_u64("seeds", 1, /*min=*/1);
  plan.threads = args.get_u64("threads", 0);
  const std::string out_dir = args.get_string("out", "bench_out");
  const std::string json_path =
      args.get_string("json", out_dir + "/RUN_sweep.json");
  const std::string csv_path = args.get_string("csv", out_dir + "/sweep.csv");
  const std::string trace_path = args.get_string("trace_spans", "");
  const std::string config_path = args.get_string("config", "");
  if (args.get_bool("verbose", false)) Log::set_level(LogLevel::kInfo);

  const auto& table = harness::BindingTable::instance();

  // Base-config file first, then command-line overrides on top. The file
  // goes through the same binding table as everything else (apply_all:
  // unknown keys are errors), single values only.
  if (!config_path.empty()) {
    std::ifstream config_in(config_path);
    if (!config_in) {
      std::cerr << "error: cannot read config file " << config_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << config_in.rdbuf();
    const Config file_cfg = Config::from_text(text.str());
    const auto errors = table.apply_all(plan.base, file_cfg, kSweepReserved);
    if (!errors.empty()) {
      for (const std::string& err : errors) {
        std::cerr << "error: " << config_path << ": " << err << "\n";
      }
      return 2;
    }
  }

  for (const auto& [key, value] : args.entries()) {
    if (std::find(kSweepReserved.begin(), kSweepReserved.end(), key) !=
        kSweepReserved.end()) {
      continue;
    }
    if (value.find(',') != std::string::npos) {
      if (!table.find(key)) {
        std::cerr << "error: unknown parameter '" << key
                  << "' (see 'fairswap_run list')\n";
        return 2;
      }
      plan.axes.push_back({key, split_csv(value)});
    } else {
      const std::string err = table.apply(plan.base, key, value);
      if (!err.empty()) {
        std::cerr << "error: " << err << "\n";
        return 2;
      }
    }
  }

  // Validate the full expansion before touching the output files, so a
  // bad sweep cannot truncate a previous run's artifacts.
  {
    std::vector<harness::PlannedRun> runs;
    std::string error;
    if (!harness::expand(plan, runs, error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }

  // Same courtesy for a replayed trace: surface a missing, empty or
  // malformed file (with its line number) before anything is truncated.
  // preload_trace_text seeds core's snapshot cache, so the validated
  // text is exactly what the cells replay, read once. Range errors
  // against a swept topology can still only be caught per cell — the
  // catch around run_plan below turns those into exit 2 too.
  if (!plan.base.trace_in.empty()) {
    const std::string* trace_text = nullptr;
    try {
      trace_text = &core::preload_trace_text(plan.base.trace_in);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";  // message names the path
      return 2;
    }
    try {
      (void)workload::trace_from_csv(*trace_text);
    } catch (const std::exception& e) {
      std::cerr << "error: " << plan.base.trace_in << ": " << e.what()
                << "\n";
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  std::ofstream json_file(json_path);
  std::ofstream csv_file(csv_path);
  if (!json_file || !csv_file) {
    std::cerr << "error: cannot write " << (!json_file ? json_path : csv_path)
              << "\n";
    return 1;
  }

  harness::TableSink table_sink(std::cout);
  harness::JsonSink json_sink(json_file);
  harness::CsvSink csv_sink(csv_file);
  harness::MetricSink* sinks[] = {&table_sink, &json_sink, &csv_sink};

  if (!trace_path.empty() && !begin_trace_capture(trace_path)) return 2;

  std::string error;
  try {
    if (!harness::run_plan(plan, sinks, error, &std::cout)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    // A run threw mid-plan (e.g. a trace line out of range for a swept
    // topology): report instead of std::terminate, naming the trace like
    // the upfront paths do. The output files may hold a partial document.
    std::cerr << "error: "
              << (plan.base.trace_in.empty() ? std::string{}
                                             : plan.base.trace_in + ": ")
              << e.what() << "\n";
    return 2;
  }
  json_file << "\n";
  std::cout << "wrote " << csv_path << " and " << json_path
            << " (schema fairswap.run.v1)\n";
  if (!trace_path.empty()) {
    const int rc = export_trace_spans(trace_path);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const fairswap::Config args = fairswap::Config::from_args(argc, argv);
  if (args.positional().empty()) {
    usage(std::cerr);
    return 2;
  }
  const std::string& command = args.positional().front();
  if (command == "help" || command == "--help") {
    usage(std::cout);
    return 0;
  }
  if (command == "list") {
    list(std::cout);
    return 0;
  }
  if (command == "sweep") return run_sweep(args);
  // Scenario registries own their reserved-key tables, so the wall-plane
  // trace_spans= flag is peeled off here before the argv reaches them.
  const std::string trace_path = args.get_string("trace_spans", "");
  std::vector<char*> scenario_argv;
  scenario_argv.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) == 0) arg.remove_prefix(2);  // as Config reads it
    if (arg.rfind("trace_spans=", 0) == 0) continue;
    scenario_argv.push_back(argv[i]);
  }
  if (!trace_path.empty() && !begin_trace_capture(trace_path)) return 2;
  const int rc = fairswap::harness::run_scenario(
      command, static_cast<int>(scenario_argv.size()), scenario_argv.data(),
      std::cout);
  if (rc == 0 && !trace_path.empty()) {
    const int trace_rc = export_trace_spans(trace_path);
    if (trace_rc != 0) return trace_rc;
  }
  return rc;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
