// perfbench: the repo benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--trace-out FILE]
//
// Prints host facts, the result digest and every metric with its unit, then,
// as the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer metrics and writes the spans to --trace-out as Chrome Trace
// Event JSON.  Exit status: 0 on success, 1 when a correctness check failed,
// 2 when the command line or the build is refused.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "host.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

int refuse(const std::string& reason) {
  std::fprintf(stderr, "perfbench: refusing to run: %s\n", reason.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::RunOptions;
  const mcopt::util::Args args{argc, argv};
  const auto unknown = args.unknown_flags(
      {"workload", "seed", "seconds", "trace", "threads", "trace-out"});
  if (!unknown.empty()) return refuse("unknown flag --" + unknown.front());
  if (!args.positional().empty()) {
    return refuse("unexpected argument '" + args.positional().front() + "'");
  }
  if (const auto why = perfbench::build_refusal()) return refuse(*why);
  if (std::getenv("MCOPT_BENCH_SCALE") != nullptr) {
    return refuse("MCOPT_BENCH_SCALE is set; it changes every budget");
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  RunOptions options;
  try {
    options.workload = args.get("workload", "");
    const long long seed = args.get_int("seed", 1);
    options.seconds = args.get_double("seconds", 10.0);
    const long long trace = args.get_int("trace", 0);
    const long long threads =
        args.get_int("threads", nproc < 4 ? static_cast<long long>(nproc) : 4);
    if (seed < 0) return refuse("--seed must be >= 0");
    if (!(options.seconds > 0.0)) return refuse("--seconds must be > 0");
    if (trace != 0 && trace != 1) return refuse("--trace must be 0 or 1");
    if (threads < 1) return refuse("--threads must be >= 1");
    if (threads > static_cast<long long>(nproc)) {
      return refuse("--threads " + std::to_string(threads) +
                    " exceeds nproc " + std::to_string(nproc));
    }
    options.seed = static_cast<std::uint64_t>(seed);
    options.trace = trace == 1;
    options.threads = static_cast<unsigned>(threads);
    options.trace_out = args.get("trace-out", "");
  } catch (const std::invalid_argument& e) {
    return refuse(e.what());
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) return refuse("unknown --workload '" + options.workload + "'");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: %s\n",
              perfbench::collect_host_facts(options.threads).to_json().c_str());
  std::fflush(stdout);

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_benchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& note : outcome.notes) std::printf("%s\n", note.c_str());
  std::printf("result_digest: %s\n", outcome.digest.c_str());
  std::printf("fail_frac: %.6g (%llu failed of %llu operations)\n",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  if (outcome.failed > 0) {
    std::printf("first failure: %s\n", outcome.first_failure.c_str());
  }
  if (!options.trace) {
    outcome.metrics.push_back(
        {"pass_frac",
         static_cast<double>(outcome.attempted - outcome.failed) /
             static_cast<double>(outcome.attempted),
         "frac"});
  }
  std::string metrics;
  for (const auto& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   metric.name.c_str());
      return 1;
    }
    std::printf("  %-34s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    metrics += buf;
  }
  const bool correct = outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return correct ? 0 : 1;
}
