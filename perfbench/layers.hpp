// Measurement plumbing of the repo benchmark: the span tracer, the timing
// wrapper over core::Problem, and the arithmetic that turns spans and
// resource-usage samples into per-layer metrics.
//
// Every span is recorded here, in the harness, around a call into a public
// function of the library or of the table-driver harness; nothing inside
// src/ is instrumented.  Spans stay in memory and are written once, at exit,
// as Chrome Trace Event JSON (the format tools/trace_timeline.py validates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gfunction.hpp"
#include "core/problem.hpp"
#include "util/sync.hpp"

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
std::uint64_t now_ns() noexcept;

/// Cost of one now_ns() call: the median gap between back-to-back reads.
/// A timed call [t0, t1] leaves about this much of its two clock reads
/// outside [t0, t1], in the caller's time.
double clock_read_ns();

/// User+system CPU seconds of the whole process (all threads) so far.
double process_cpu_seconds() noexcept;

/// CPU time the hypervisor has taken from this machine's vCPUs so far
/// (the steal column of /proc/stat, summed over CPUs), in seconds; 0 where
/// the kernel reports none.
double steal_seconds() noexcept;

/// Wall time net of hypervisor steal: `wall` scaled by cpu / (cpu + steal),
/// where `cpu` is the process's CPU time and `steal` the steal time over the
/// same interval.  A runnable vCPU loses the same share of its time to steal
/// whether one or all of them are busy, so this removes the stolen share.
double steal_adjusted(double wall, double cpu, double steal) noexcept;

/// Peak resident set size of the process in MiB.
double peak_rss_mb() noexcept;

/// One closed span.  `lane` is the trace thread lane (0 = the harness's
/// main thread, 1.. = parallel-engine workers of the current call).
struct Span {
  std::string name;
  std::uint32_t lane = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Counts and measurements taken at the span's boundary.
  std::vector<std::pair<std::string, double>> args;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
  /// Value of arg `key`, 0 when absent.
  [[nodiscard]] double arg(const std::string& key) const noexcept;
};

/// In-memory span log.  Off (the default) records nothing and costs one
/// branch per scope.  Thread-safe: worker threads of the parallel engine
/// record into the same tracer.
class Tracer {
 public:
  explicit Tracer(bool on = false) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const noexcept { return on_; }
  /// Turns recording on or off.  Call only while no other thread uses the
  /// tracer (between parallel calls).
  void set_enabled(bool on) noexcept { on_ = on; }

  /// Starts a new worker-lane assignment: the next distinct threads that
  /// close a span get lanes 1, 2, ... .  Call before each parallel call so
  /// each worker of that call owns one lane.
  void begin_pool();

  /// Records a span that started at `start_ns` and ends now, on the
  /// calling thread's lane.
  void record(std::string name, std::uint64_t start_ns,
              std::vector<std::pair<std::string, double>> args = {});

  /// Every span closed so far, in closing order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome Trace Event JSON of every span: "M" records naming the lanes,
  /// "X" records with ts/dur in microseconds.
  [[nodiscard]] std::string chrome_json(const std::string& process) const;

 private:
  /// Trace lane of the calling thread (0 for the thread that built the
  /// tracer).
  std::uint32_t lane();

  bool on_;
  const std::thread::id main_thread_ = std::this_thread::get_id();
  mutable mcopt::util::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::map<std::thread::id, std::uint32_t> pool_lanes_ GUARDED_BY(mu_);
  std::uint32_t max_lane_ GUARDED_BY(mu_) = 0;
};

/// RAII span: opened on construction, closed on destruction.  No-op when
/// the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a count or measurement to the span.
  void arg(std::string key, double value) {
    if (active_) args_.emplace_back(std::move(key), value);
  }

 private:
  Tracer& tracer_;
  const char* name_;
  bool active_ = false;
  std::uint64_t start_ = 0;
  std::vector<std::pair<std::string, double>> args_;
};

/// Time spent in, and calls made to, one Problem operation.
struct CallTally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Per-operation tallies of a TimedProblem.
struct ProblemTally {
  CallTally propose;
  CallTally accept;
  CallTally reject;
  CallTally snapshot;  ///< snapshot() and snapshot_into()

  /// Sum of the time every wrapped call took.
  [[nodiscard]] std::uint64_t total_ns() const noexcept;
  /// Number of wrapped calls.
  [[nodiscard]] std::uint64_t total_calls() const noexcept;
};

/// Non-owning timing wrapper over a core::Problem: forwards every call to
/// `inner` and times propose / accept / reject / snapshot.  Single-thread
/// use; the runner that drives it owns the tally.
class TimedProblem final : public mcopt::core::Problem {
 public:
  explicit TimedProblem(mcopt::core::Problem& inner) : inner_(inner) {}

  [[nodiscard]] double cost() const override { return inner_.cost(); }
  double propose(mcopt::util::Rng& rng) override;
  void accept() override;
  void reject() override;
  void descend(mcopt::util::WorkBudget& budget) override {
    inner_.descend(budget);
  }
  void randomize(mcopt::util::Rng& rng) override { inner_.randomize(rng); }
  [[nodiscard]] mcopt::core::Snapshot snapshot() const override;
  void snapshot_into(mcopt::core::Snapshot& out) const override;
  void restore(const mcopt::core::Snapshot& snap) override {
    inner_.restore(snap);
  }
  void check_invariants() const override { inner_.check_invariants(); }

  [[nodiscard]] const ProblemTally& tally() const noexcept { return tally_; }

 private:
  mcopt::core::Problem& inner_;
  mutable ProblemTally tally_;  // snapshot() is const on the interface
};

// --- metric arithmetic ---------------------------------------------------

/// The tail of a sample: the highest percentile that still has at least
/// `min_beyond` samples strictly beyond its rank.  With n samples sorted
/// ascending that is the value at 1-based rank n - min_beyond, i.e. the
/// 100 * (n - min_beyond) / n percentile.  Absent when n <= min_beyond.
struct Tail {
  double percentile = 0.0;  ///< e.g. 92.19 for n = 128
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> samples,
                                                  std::size_t min_beyond = 10);

/// Median (mean of the two middle values for even n); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// A time window [start, end) in now_ns() nanoseconds.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// CPU utilisation of `threads` workers over a wall interval: the
/// process-CPU delta divided by wall seconds times threads.
[[nodiscard]] double cpu_utilisation(double cpu_before, double cpu_after,
                                     double wall_s, unsigned threads);

/// Order-sensitive FNV-1a digest over exact result values (row totals,
/// best costs).  Doubles are hashed by bit pattern after normalising -0.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

// --- per-layer metrics from spans -------------------------------------------

/// Spans named `name` that lie wholly inside one of `windows`.
[[nodiscard]] std::vector<Span> spans_in(const std::vector<Span>& all,
                                         const std::string& name,
                                         const std::vector<Interval>& windows);
/// Summed duration of `spans` in milliseconds.
[[nodiscard]] double total_ms(const std::vector<Span>& spans);
/// Sum of arg `key` over `spans`.
[[nodiscard]] double sum_arg(const std::vector<Span>& spans,
                             const std::string& key);

/// Runner self time per tick over "core.figure1" spans: each span's
/// duration minus its wrapped Problem calls (arg wrapped_ns, disjoint
/// intervals inside it) and minus `clock_read_ns` per wrapped call (arg
/// wrapped_calls; the timing wrapper's clock reads that fall outside the
/// wrapped intervals), summed and divided by the summed arg ticks.  0 when
/// no ticks.
[[nodiscard]] double self_ns_per_tick(const std::vector<Span>& runs,
                                      double clock_read_ns);

using LayerMap = std::map<std::string, double>;

/// Driver-grid metrics (bench.tune.*, bench.grid.*) over `windows`, one
/// window per experiment pass: "bench.tune_methods" spans, and
/// "bench.run_method_row" spans carrying args cpu_s, ticks and figure2.
void grid_metrics(const std::vector<Span>& all,
                  const std::vector<Interval>& windows, unsigned threads,
                  LayerMap& out);

/// Kernel, runner, parallel-engine and exporter metrics (linarr.* per-call
/// and rate metrics, core.*, obs.*) over `windows`, one window per pass:
/// "core.figure1" runner spans carrying the TimedProblem tallies and
/// g_class, the "core.parallel_multistart" calls around them (args threads
/// and restarts), "core.sample_move_statistics" and "obs.export" (arg
/// bytes).  Adds the restart-tail line to `notes`.
void kernel_metrics(const std::vector<Span>& all,
                    const std::vector<Interval>& windows, double clock_read_ns,
                    std::vector<std::string>& notes, LayerMap& out);

}  // namespace perfbench
