// The benchmark workloads and the run loop that measures them.
//
//   paper_tables    Table 4.1 then Table 4.2(c) through bench::tune_methods
//                   and bench::run_method_row: thousands of short chains,
//                   so the serial tuner and the per-row fork/join dominate.
//   figure2_long    Table 4.2(b): 13 rows under Figure 1 and Figure 2 at the
//                   3-minute budget; long chains, so the kernel and Figure
//                   2's descent dominate and grid overhead is negligible.
//   multistart_240  240-cell / 2400-net GOLA instances through
//                   core::parallel_multistart with a harness-owned Figure-1
//                   runner (annealing with calibrated Y1, and g = 1) and a
//                   metrics+profile recorder attached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
  std::string trace_out;  ///< Chrome Trace JSON path (traced runs only)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::string digest;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one benchmark run as described in the file comment.  Throws
/// std::invalid_argument on an unknown workload name.
[[nodiscard]] Outcome run_benchmark(const RunOptions& options);

}  // namespace perfbench
