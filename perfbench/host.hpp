// Host and build facts recorded with every benchmark result, and the
// refusal to measure a build that is not the optimised, unchecked program.
#pragma once

#include <optional>
#include <string>

namespace perfbench {

struct HostFacts {
  unsigned nproc = 0;
  long l1d_bytes = 0;  ///< 0 when the host does not report it
  long l2_bytes = 0;
  long l3_bytes = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  unsigned threads_used = 0;

  /// One-line JSON object.
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] HostFacts collect_host_facts(unsigned threads_used);

/// Why this build must not be measured, or nullopt when it may be: an
/// unoptimised build, invariant checks compiled in, or any sanitizer.
[[nodiscard]] std::optional<std::string> build_refusal();

}  // namespace perfbench
