// Hardware performance-counter telemetry via perf_event_open(2).
//
// A PerfCounterGroup opens one self-monitoring counter per requested
// PerfCounter (cycles, instructions, cache references/misses, branch
// misses, task-clock) on the calling thread and exposes cumulative scaled
// readings; the Recorder snapshots the group at profile-scope entry and
// exit, so every ProfileTree node accumulates the hardware cost of the
// code it brackets (ProfileNode::perf).  Derived gauges — IPC, cache-miss
// rate, cycles per budget tick — flow through MetricsRegistry flagged
// nondeterministic, exactly like wall_ns: measurement of the machine,
// never of the algorithm.
//
// Degradation is graceful and test-pinned.  perf_event_open is denied in
// most containers (perf_event_paranoid), absent on non-Linux, and often
// partial in VMs (software task-clock works, hardware events ENOENT).
// The group opens what it can; available() is false only when *nothing*
// opened, unavailable_reason() says why (errno name + the paranoid hint),
// all perf counts stay zero, and every driver/bench output that does not
// opt into wall-clock forms is byte-identical with or without counters.
//
// The syscall sits behind the PerfBackend seam so tests can force ENOSYS
// or feed deterministic counts without touching the kernel.  Counters are
// opened per-thread (no inherit): the parallel engine therefore only
// samples restarts executed on the thread that armed the group — see
// Recorder::for_restart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.hpp"

namespace mcopt::obs {

/// The fixed counter menu.  kTaskClock is a software event (always
/// available on Linux); the rest are hardware events that VMs may refuse.
enum class PerfCounter : std::uint8_t {
  kCycles,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchMisses,
  kTaskClock,
};

/// Spelled name used in reports and log lines.
[[nodiscard]] const char* perf_counter_name(PerfCounter which) noexcept;

/// Every counter in menu order — what a driver's --run-dir arms.
[[nodiscard]] std::vector<PerfCounter> all_perf_counters();

/// One cumulative counter reading with the multiplexing clock pair
/// (PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING): when the kernel rotated the
/// counter off the PMU, value is scaled by enabled/running.
struct PerfReading {
  std::uint64_t value = 0;
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
};

/// The syscall seam.  The production backend wraps perf_event_open /
/// read / close; tests substitute fakes (forced ENOSYS, scripted counts).
class PerfBackend {
 public:
  virtual ~PerfBackend() = default;
  /// Opens one self-monitoring counter for the calling thread.  Returns a
  /// file descriptor >= 0, or a negative errno on refusal.
  virtual int open_counter(PerfCounter which) = 0;
  /// Reads the cumulative count; false when the descriptor went bad.
  virtual bool read_counter(int fd, PerfReading* out) = 0;
  virtual void close_counter(int fd) = 0;
};

/// The perf_event_open-backed production backend (a stateless singleton).
/// On non-Linux builds every open returns -ENOSYS.
[[nodiscard]] PerfBackend& system_perf_backend() noexcept;

/// RAII bundle of opened counters for the constructing thread.
class PerfCounterGroup {
 public:
  /// Opens `counters` via `backend` (null = system_perf_backend()).
  /// Never throws on refusal: the group simply becomes unavailable.
  explicit PerfCounterGroup(const std::vector<PerfCounter>& counters,
                            PerfBackend* backend = nullptr);
  ~PerfCounterGroup();
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True when at least one counter opened.
  [[nodiscard]] bool available() const noexcept { return !fds_.empty(); }
  /// Why nothing opened (errno name + remediation hint); empty when
  /// available().
  [[nodiscard]] const std::string& unavailable_reason() const noexcept {
    return reason_;
  }
  /// The counters that actually opened, in menu order.
  [[nodiscard]] std::vector<PerfCounter> active_counters() const;

  /// Cumulative multiplex-scaled counts since construction.  Returns false
  /// (and leaves *out untouched) when unavailable or a read failed; the
  /// caller deltas two reads with perf_delta().
  [[nodiscard]] bool read(PerfCounts* out) const;

 private:
  struct OpenCounter {
    PerfCounter which;
    int fd;
  };
  PerfBackend* backend_;
  std::vector<OpenCounter> fds_;
  std::string reason_;
};

/// end - begin with saturating subtraction (a counter reset between reads
/// yields 0, never a wrapped huge delta).
[[nodiscard]] PerfCounts perf_delta(const PerfCounts& begin,
                                    const PerfCounts& end) noexcept;

/// Instructions per cycle; 0 when either count is missing.
[[nodiscard]] double perf_ipc(const PerfCounts& counts) noexcept;

/// cache_misses / cache_references; 0 when references are missing.
[[nodiscard]] double perf_cache_miss_rate(const PerfCounts& counts) noexcept;

}  // namespace mcopt::obs
