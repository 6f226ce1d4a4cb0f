#include "obs/perfcount.hpp"

#include <cerrno>
#include <cstring>

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define MCOPT_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define MCOPT_HAVE_PERF_EVENT 0
#endif

namespace mcopt::obs {

namespace {

/// Errno spelled for humans; the common perf refusals get their POSIX
/// names so tests and logs can match on them.
const char* errno_name(int err) {
  switch (err) {
    case EACCES: return "EACCES";
    case EPERM: return "EPERM";
    case ENOSYS: return "ENOSYS";
    case ENOENT: return "ENOENT";
    case ENODEV: return "ENODEV";
    case EOPNOTSUPP: return "EOPNOTSUPP";
    case EINVAL: return "EINVAL";
    case EMFILE: return "EMFILE";
    case EBUSY: return "EBUSY";
    default: return std::strerror(err);
  }
}

#if MCOPT_HAVE_PERF_EVENT

/// Self-monitoring, user-space-only counters: exclude_kernel/_hv is what
/// perf_event_paranoid=2 (the common container default) still permits.
class SyscallPerfBackend final : public PerfBackend {
 public:
  int open_counter(PerfCounter which) override {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    switch (which) {
      case PerfCounter::kCycles:
        attr.type = PERF_TYPE_HARDWARE;
        attr.config = PERF_COUNT_HW_CPU_CYCLES;
        break;
      case PerfCounter::kInstructions:
        attr.type = PERF_TYPE_HARDWARE;
        attr.config = PERF_COUNT_HW_INSTRUCTIONS;
        break;
      case PerfCounter::kCacheReferences:
        attr.type = PERF_TYPE_HARDWARE;
        attr.config = PERF_COUNT_HW_CACHE_REFERENCES;
        break;
      case PerfCounter::kCacheMisses:
        attr.type = PERF_TYPE_HARDWARE;
        attr.config = PERF_COUNT_HW_CACHE_MISSES;
        break;
      case PerfCounter::kBranchMisses:
        attr.type = PERF_TYPE_HARDWARE;
        attr.config = PERF_COUNT_HW_BRANCH_MISSES;
        break;
      case PerfCounter::kTaskClock:
        attr.type = PERF_TYPE_SOFTWARE;
        attr.config = PERF_COUNT_SW_TASK_CLOCK;
        break;
    }
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                            /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0UL);
    if (fd < 0) return errno > 0 ? -errno : -ENOSYS;
    return static_cast<int>(fd);
  }

  bool read_counter(int fd, PerfReading* out) override {
    std::uint64_t buf[3] = {0, 0, 0};
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n != static_cast<ssize_t>(sizeof buf)) return false;
    out->value = buf[0];
    out->time_enabled = buf[1];
    out->time_running = buf[2];
    return true;
  }

  void close_counter(int fd) override { ::close(fd); }
};

#else  // !MCOPT_HAVE_PERF_EVENT

/// Non-Linux stub: every open is ENOSYS, so the group degrades exactly
/// like a container that denies the syscall.
class SyscallPerfBackend final : public PerfBackend {
 public:
  int open_counter(PerfCounter /*which*/) override { return -ENOSYS; }
  bool read_counter(int /*fd*/, PerfReading* /*out*/) override {
    return false;
  }
  void close_counter(int /*fd*/) override {}
};

#endif  // MCOPT_HAVE_PERF_EVENT

/// Multiplex scaling: value * enabled / running.  A counter that never ran
/// contributes 0; one that ran the whole time passes through exactly.
std::uint64_t scaled_value(const PerfReading& r) {
  if (r.time_running == 0) return r.time_enabled == 0 ? r.value : 0;
  if (r.time_running >= r.time_enabled) return r.value;
  const double scale = static_cast<double>(r.time_enabled) /
                       static_cast<double>(r.time_running);
  return static_cast<std::uint64_t>(static_cast<double>(r.value) * scale);
}

void assign_count(PerfCounter which, std::uint64_t value, PerfCounts* out) {
  switch (which) {
    case PerfCounter::kCycles: out->cycles = value; break;
    case PerfCounter::kInstructions: out->instructions = value; break;
    case PerfCounter::kCacheReferences: out->cache_refs = value; break;
    case PerfCounter::kCacheMisses: out->cache_misses = value; break;
    case PerfCounter::kBranchMisses: out->branch_misses = value; break;
    case PerfCounter::kTaskClock: out->task_clock_ns = value; break;
  }
}

std::uint64_t saturating_sub(std::uint64_t end, std::uint64_t begin) {
  return end >= begin ? end - begin : 0;
}

}  // namespace

const char* perf_counter_name(PerfCounter which) noexcept {
  switch (which) {
    case PerfCounter::kCycles: return "cycles";
    case PerfCounter::kInstructions: return "instructions";
    case PerfCounter::kCacheReferences: return "cache-references";
    case PerfCounter::kCacheMisses: return "cache-misses";
    case PerfCounter::kBranchMisses: return "branch-misses";
    case PerfCounter::kTaskClock: return "task-clock";
  }
  return "cycles";
}

std::vector<PerfCounter> all_perf_counters() {
  return {PerfCounter::kCycles,          PerfCounter::kInstructions,
          PerfCounter::kCacheReferences, PerfCounter::kCacheMisses,
          PerfCounter::kBranchMisses,    PerfCounter::kTaskClock};
}

PerfBackend& system_perf_backend() noexcept {
  // Intentionally leaked: groups held in objects of static storage
  // duration (the bench drivers' globals) may destruct after a
  // function-local static backend would, and the backend is stateless,
  // so never running its destructor is the safe lifetime.
  static SyscallPerfBackend* backend = new SyscallPerfBackend;
  return *backend;
}

PerfCounterGroup::PerfCounterGroup(const std::vector<PerfCounter>& counters,
                                   PerfBackend* backend)
    : backend_(backend != nullptr ? backend : &system_perf_backend()) {
  int first_error = 0;
  for (const PerfCounter which : counters) {
    const int fd = backend_->open_counter(which);
    if (fd >= 0) {
      fds_.push_back(OpenCounter{which, fd});
    } else if (first_error == 0) {
      first_error = -fd;
    }
  }
  if (fds_.empty()) {
    reason_ = "perf_event_open failed: ";
    reason_ += errno_name(first_error == 0 ? ENOSYS : first_error);
    reason_ +=
        " (self-monitoring user-space counters need "
        "/proc/sys/kernel/perf_event_paranoid <= 2 and a kernel PMU)";
  }
}

PerfCounterGroup::~PerfCounterGroup() {
  for (const OpenCounter& counter : fds_) {
    backend_->close_counter(counter.fd);
  }
}

std::vector<PerfCounter> PerfCounterGroup::active_counters() const {
  std::vector<PerfCounter> out;
  out.reserve(fds_.size());
  for (const OpenCounter& counter : fds_) out.push_back(counter.which);
  return out;
}

bool PerfCounterGroup::read(PerfCounts* out) const {
  if (fds_.empty()) return false;
  PerfCounts counts;
  for (const OpenCounter& counter : fds_) {
    PerfReading reading;
    if (!backend_->read_counter(counter.fd, &reading)) return false;
    assign_count(counter.which, scaled_value(reading), &counts);
  }
  *out = counts;
  return true;
}

PerfCounts perf_delta(const PerfCounts& begin, const PerfCounts& end) noexcept {
  PerfCounts out;
  out.cycles = saturating_sub(end.cycles, begin.cycles);
  out.instructions = saturating_sub(end.instructions, begin.instructions);
  out.cache_refs = saturating_sub(end.cache_refs, begin.cache_refs);
  out.cache_misses = saturating_sub(end.cache_misses, begin.cache_misses);
  out.branch_misses = saturating_sub(end.branch_misses, begin.branch_misses);
  out.task_clock_ns = saturating_sub(end.task_clock_ns, begin.task_clock_ns);
  return out;
}

double perf_ipc(const PerfCounts& counts) noexcept {
  if (counts.cycles == 0 || counts.instructions == 0) return 0.0;
  return static_cast<double>(counts.instructions) /
         static_cast<double>(counts.cycles);
}

double perf_cache_miss_rate(const PerfCounts& counts) noexcept {
  if (counts.cache_refs == 0) return 0.0;
  return static_cast<double>(counts.cache_misses) /
         static_cast<double>(counts.cache_refs);
}

}  // namespace mcopt::obs
