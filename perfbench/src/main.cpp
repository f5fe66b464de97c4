// perfbench — one workload, one seed, one thread.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --probe
//
// Untraced (--trace 0): one untimed warm pass, then identical passes for
// S seconds, each timed in pieces; prints chunk_requests_per_s and
// setup_s from each piece's fastest valid time (metrics.hpp), and
// peak_rss_mb. Traced (--trace 1): the
// per-layer metrics of traced.hpp. The last stdout line is the result
// object of metrics.hpp. --probe runs only the host-speed probe, a fixed
// pointer chase that does not depend on the program.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/mem.hpp"
#include "common/rng.hpp"
#include "common/telemetry/span.hpp"
#include "metrics.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using fairswap::telemetry::wall_now_ns;
using perfbench::MetricValue;

constexpr int kUsageError = 2;
/// A run times at least this many passes, however long they take.
constexpr std::size_t kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  int trace{-1};
  std::string trace_out;
  bool probe{false};
};

bool parse_number(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--probe") {
      args.probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      if (!parse_number(value, n)) return false;
      args.seed = n;
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_number(value, n) || n == 0 || n > 3600) return false;
      args.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (!parse_number(value, n) || n > 1) return false;
      args.trace = static_cast<int>(n);
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return args.probe ||
         (!args.workload.empty() && have_seed && args.seconds > 0.0 &&
          args.trace >= 0);
}

/// Host-speed probe: a dependent walk over one fixed random cycle of
/// 2^21 slots (8 MiB, past the private caches). Same work on every run
/// and every commit; the fastest of five walks, in ns per load.
double probe_ns_per_load() {
  constexpr std::uint32_t kSlots = 1u << 21;
  constexpr std::uint32_t kLoads = 1u << 18;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  fairswap::Rng rng(0x9e3779b97f4a7c15ULL);
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    const auto j = static_cast<std::uint32_t>(rng.next_below(i));
    std::swap(next[i], next[j]);
  }
  double best = 0.0;
  std::uint32_t at = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = wall_now_ns();
    for (std::uint32_t n = 0; n < kLoads; ++n) at = next[at];
    const double ns =
        static_cast<double>(wall_now_ns() - t0) / static_cast<double>(kLoads);
    if (rep == 0 || ns < best) best = ns;
  }
  if (at == kSlots) std::printf("unreachable\n");  // keeps the walk live
  return best;
}

/// Peak resident set of this process image, in MiB. getrusage's
/// ru_maxrss, which peak_rss_bytes() reads, also carries the resident set
/// of the process that forked this one across exec; under a Python
/// launcher that is about 13.6 MiB, more than two workloads' own peak.
/// The kernel's VmHWM covers this image alone.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return static_cast<double>(fairswap::peak_rss_bytes()) / (1024.0 * 1024.0);
}

int untraced_main(const perfbench::WorkloadSpec& spec, double seconds) {
  const std::string_view name = perfbench::workload_name(spec.workload);
  const perfbench::PassOutcome warm = perfbench::run_pass(spec);
  std::string warm_failure = warm.failure;
  if (warm_failure.empty() &&
      spec.workload == perfbench::Workload::kFlowFct &&
      perfbench::counter_reference_digest(spec) != warm.accounting_digest) {
    warm_failure = "flow-level accounting differs from the counter-based run";
  }
  std::string failure = warm_failure;

  perfbench::RunAccumulator passes(warm.sample);
  const std::uint64_t start = wall_now_ns();
  double longest = 0.0;
  for (std::size_t n = 1;
       n <= kMinPasses ||
       perfbench::seconds_between(start, wall_now_ns()) + longest <= seconds;
       ++n) {
    const std::uint64_t t0 = wall_now_ns();
    const perfbench::PassOutcome pass = perfbench::run_pass(spec);
    longest = std::max(longest, perfbench::seconds_between(t0, wall_now_ns()));
    const bool valid = passes.add(pass.sample);
    std::printf("pass %zu: setup_s=%.6f run_s=%.6f chunk_requests=%" PRIu64
                " pieces=%zu fingerprint=0x%016" PRIx64 " %s\n",
                n, pass.sample.setup_s, pass.sample.run_s,
                pass.sample.chunk_requests, pass.sample.run_pieces_s.size(),
                pass.sample.fingerprint, valid ? "ok" : "FAILED");
    if (!valid && failure.empty()) {
      failure = pass.failure.empty()
                    ? "fingerprint or pieces differ from the warm pass"
                    : pass.failure;
    }
  }

  const perfbench::RunSummary summary = passes.summary();
  // The warm pass is checked like every other pass; it is just not timed.
  const std::size_t attempted = summary.attempted + 1;
  const std::size_t failed = summary.failed + (warm_failure.empty() ? 0 : 1);
  const double peak_rss_mb = peak_rss_mib();
  std::printf("fingerprint %.*s seed=%" PRIu64 " 0x%016" PRIx64 "\n",
              static_cast<int>(name.size()), name.data(),
              spec.cells.front().config.seed, warm.sample.fingerprint);
  std::printf("fastest whole pass: chunk_requests_per_s=%.1f\n",
              summary.fastest_pass_per_s);
  const bool correct = failed == 0;
  if (!correct) std::printf("error: %s\n", failure.c_str());
  const MetricValue values[] = {
      {"chunk_requests_per_s", summary.chunk_requests_per_s},
      {"setup_s", summary.setup_s},
      {"peak_rss_mb", peak_rss_mb},
  };
  std::printf("%s\n", perfbench::result_json(correct, attempted, failed,
                                             perfbench::end_to_end_metrics(),
                                             values)
                          .c_str());
  return correct ? 0 : 1;
}

int traced_main(const perfbench::WorkloadSpec& spec, double seconds,
               const std::string& trace_out) {
  const perfbench::TracedRun traced =
      perfbench::run_traced(spec, seconds, trace_out);
  const bool correct = traced.failure.empty() && traced.failed == 0;
  if (!correct) std::printf("error: %s\n", traced.failure.c_str());
  std::printf("%s\n", perfbench::result_json(correct, traced.attempted,
                                             traced.failed,
                                             perfbench::per_layer_metrics(),
                                             traced.metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

/// Keeps freed memory inside the process: no allocation is served by its
/// own mmap, and the heap top is never given back. Passes after the warm
/// pass then reuse the warm pass's pages instead of faulting in about
/// 22k fresh ones per paper_grid pass (7% of the run in the kernel).
/// Peak RSS is a high-water mark either way.
void keep_freed_memory() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
}

int main(int argc, char** argv) {
  keep_freed_memory();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --probe\n");
    return kUsageError;
  }
  if (args.probe) {
    std::printf("host_probe_ns_per_load=%.4f\n", probe_ns_per_load());
    return 0;
  }
  const auto workload = perfbench::parse_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s' (paper_grid, flow_fct, "
                 "heavy_traffic, equilibrium)\n", args.workload.c_str());
    return kUsageError;
  }
  try {
    const perfbench::WorkloadSpec spec =
        perfbench::make_spec(*workload, args.seed);
    return args.trace == 1 ? traced_main(spec, args.seconds, args.trace_out)
                           : untraced_main(spec, args.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
