// Shared harness for the table-reproduction benches.
//
// Time -> work calibration.  The paper ran on a VAX 11/780 and gave every
// method 6/9/12 seconds (Tables 4.1, 4.2(a), (c), (d)) or 3 minutes
// (Table 4.2(b)) per instance.  We replace wall-clock with deterministic
// tick budgets (one tick per proposal / descent evaluation).  The mapping
// 6 s ~= 600 ticks was calibrated empirically so the reproduction sits in
// the same regime as the paper's Table 4.1: the Goto construction ties the
// best Monte Carlo methods at the 6 s budget, every method is still
// climbing from 6 s to 12 s, and full convergence (where all g classes
// collapse to the same number) is several budgets away.  Table 4.2(b)'s
// 3 minutes maps to 30x the 6 s budget, by then deep in the converged
// regime — which is the paper's own observation there ("the performance of
// all 13 classes is about the same").  Set MCOPT_BENCH_SCALE to scale all
// budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "core/tuner.hpp"
#include "linarr/problem.hpp"
#include "netlist/netlist.hpp"
#include "obs/heartbeat.hpp"
#include "obs/recorder.hpp"
#include "util/table.hpp"

namespace mcopt::bench {

/// Master seed for every bench; printed in the headers so EXPERIMENTS.md
/// numbers are attributable.
inline constexpr std::uint64_t kSeed = 1985;

/// Tick equivalents of the paper's budgets (before MCOPT_BENCH_SCALE).
inline constexpr std::uint64_t kSixSec = 600;
inline constexpr std::uint64_t kNineSec = 900;
inline constexpr std::uint64_t kTwelveSec = 1'200;
inline constexpr std::uint64_t kThreeMin = 18'000;
/// Tuning budget per (candidate, instance): the paper used about a 5 s run.
inline constexpr std::uint64_t kTuneBudget = 500;
/// Training-set size for the tuning pass (the paper used all 30).
inline constexpr std::size_t kTuneInstances = 30;

/// MCOPT_BENCH_SCALE, a finite number >= 0.01; 1.0 when unset or empty.
/// Any other value (`abc`, `0.001`, `0,1`, `0.1x`) exits with status 2,
/// naming the variable and the value, instead of running at full scale.
double bench_scale();

/// Budget scaled by bench_scale(), minimum 1 tick.
std::uint64_t scaled(std::uint64_t budget);

/// The 6 / 9 / 12 s budgets of Tables 4.1, 4.2(a), (c) and (d), scaled.
std::vector<std::uint64_t> paper_budgets();

/// The 30-instance GOLA / NOLA test sets of §4.2.1 / §4.3.1.
std::vector<netlist::Netlist> gola_instances();
std::vector<netlist::Netlist> nola_instances();

/// Deterministic per-instance random starting arrangement — identical for
/// every method, as §4.2.1 prescribes.
linarr::Arrangement random_start(std::size_t instance, std::size_t n);

/// A configured Monte Carlo row of a table.
struct Method {
  std::string name;       ///< paper row label
  core::GClass cls;
  double scale = 1.0;     ///< tuned Y scale (Y1; k=6 schedules decay x0.9)
};

/// std::thread::hardware_concurrency(), or 1 when it is unknown.
unsigned hardware_threads();

/// Runs the §4.2.1 tuning pass for each class on GOLA training data with
/// the given start policy and returns the configured methods.  Scale-free
/// classes pass through untuned.  Each class's candidate x instance grid
/// runs on `num_threads` workers (core::tune_scale); the tuned scales are
/// bit-identical for any value, so the thread count changes only speed.
/// Table drivers pass their --threads value.  Must be >= 1.
std::vector<Method> tune_methods(
    const std::vector<core::GClass>& classes,
    const std::vector<netlist::Netlist>& instances, bool goto_start,
    double typical_cost, double typical_delta,
    unsigned num_threads = hardware_threads());

enum class StartKind { kRandom, kGoto };

/// One job of a run_grid() grid.  It hands `&recorder` (a restart-scoped
/// shard of the grid's recorder, off when observability is off) to every
/// runner it calls and folds each finished run in with record().
struct GridJob {
  std::size_t index = 0;     ///< position in the grid's declaration order
  std::uint64_t worker = 0;  ///< 0 = caller thread; pool workers are 1-based
  obs::Recorder recorder;
  obs::RunMetrics metrics;
  std::uint64_t invariant_checks = 0;

  void record(const core::RunResult& result);
};

/// The job grid every driver declares its experiment into: jobs
/// 0..num_jobs-1 on `num_threads` workers (0 runs as 1), claimed last
/// first, so declare the cheapest first.  A job writes to its own index of
/// caller storage and seeds from its index, so results are thread-count
/// invariant.  Then, in index order, shard events drain into `recorder`'s
/// sink (one run id per call), job metrics (restarts = 1 each) merge into
/// the driver totals and per-worker timeline lanes, and invariant checks
/// are counted.  The heartbeat ticks per job.  Returns the grid's merged
/// metrics.
obs::RunMetrics run_grid(std::size_t num_jobs, unsigned num_threads,
                         const obs::Recorder* recorder,
                         const std::function<void(GridJob&)>& job);

/// A Figure-1 chain of grid job `job` on instance `i`, drawing moves from
/// derive_seed(stream, i); folded into the job and returned.
core::RunResult figure1_chain(GridJob& job, core::Problem& problem,
                              const core::GFunction& g,
                              core::Figure1Options options,
                              std::uint64_t stream, std::size_t i);

struct TableRunConfig {
  std::vector<std::uint64_t> budgets;  ///< already scaled
  StartKind start = StartKind::kRandom;
  bool figure2 = false;
  linarr::MoveKind move_kind = linarr::MoveKind::kPairwiseInterchange;
  std::uint64_t move_seed = 7;  ///< stream id for the perturbation RNG
  unsigned num_threads = 1;                ///< run_grid() workers
  const obs::Recorder* recorder = nullptr;  ///< run_grid() recorder
};

/// Sums each consecutive run of `group` values, in index order: the
/// per-row totals of a grid whose jobs are declared row by row.
std::vector<double> group_sums(const std::vector<double>& values,
                               std::size_t group);

/// Total reduction (summed over instances) for one method at each budget —
/// one table row, one run_grid() call.  Follows the paper's protocol: same
/// instances, same starts, per-(instance, method) move streams.
std::vector<double> run_method_row(const Method& method,
                                   const std::vector<netlist::Netlist>& instances,
                                   const TableRunConfig& config);

/// The flags shared by every experiment driver.
struct DriverOptions {
  unsigned threads = 1;
  /// --run-dir DIR: where the run's artifacts go.  Empty = none are
  /// written and nothing is collected.
  std::string run_dir;
  /// --trace [N]: write DIR/trace.jsonl keeping every Nth
  /// proposal/accept/reject trio (bare flag = 1).  0 = off.
  std::uint64_t trace_sample = 0;
  double progress_interval = 0.0;  ///< --progress [SECS]; 0 = off
  /// --flight-recorder [CAP]: keep the last CAP events in the process-wide
  /// flight ring and dump them to DIR/flight.jsonl on abnormal exit.
  /// 0 = off.
  std::size_t flight_capacity = 0;
  bool quiet = false;
  bool verbose = false;
};

/// Side-effect-free parse of the shared driver flags.  Returns nullopt and
/// fills `*error` with a one-line message (flag name included) on any
/// unknown flag, conflicting pair, missing --run-dir, or non-positive
/// numeric value.
std::optional<DriverOptions> parse_driver_options(int argc,
                                                  const char* const* argv,
                                                  std::string* error);

/// Parses the flags shared by every experiment driver and returns the
/// worker thread count:
///   --threads N          worker threads (default 1, must be >= 1)
///   --run-dir DIR        created up front; the run writes
///                        DIR/<experiment>.csv, DIR/metrics.json (merged
///                        metrics with the stage-profile tree; every perf
///                        counter that opens is armed) and
///                        DIR/timeline.json (Chrome Trace Event JSON for
///                        Perfetto: one aggregate lane + one lane per
///                        worker, appended in job-index order)
///   --trace [N]          DIR/trace.jsonl, every Nth proposal/accept/reject
///                        trio (default 1; tools/trace_report.py)
///   --progress [SECS]    heartbeat lines, at most one per SECS (default 2)
///   --flight-recorder [CAP]  last-CAP-events flight ring (default 4096),
///                        dumped to DIR/flight.jsonl on crash/abort/SIGTERM
///   --quiet / --verbose  log level (errors only / debug)
/// --trace and --flight-recorder need --run-dir.  Applies MCOPT_LOG_LEVEL
/// first (explicit flags win), installs the recorder returned by
/// driver_recorder() and sets the obs::log level.  Exits with status 2 on
/// a bad command line or a run directory that cannot be created.
unsigned parse_driver_flags(int argc, const char* const* argv);

/// A numeric flag of a bench with its own flag set: --name is read into
/// *value, which holds the default and stays untouched when the flag is
/// absent.
struct IntFlag {
  const char* name;
  long long* value;
};
struct RealFlag {
  const char* name;
  double* value;
};

/// Parses the flags of a bench that takes its own numeric flags instead of
/// the driver set (the ladder), plus the shared --run-dir
/// DIR, which is created up front (status 2 if it cannot be) and receives
/// the bench's BENCH_*.json.  Integers must be >= 1, reals finite and > 0.
/// Exits with status 2 and a usage line on an unknown flag, a positional
/// argument, or a malformed value, naming the flag ("--budget expects an
/// integer >= 1 (got 'abc')").
void parse_bench_flags(int argc, const char* const* argv,
                       const std::vector<IntFlag>& ints,
                       const std::vector<RealFlag>& reals = {});

/// The process-wide recorder configured by parse_driver_flags(); off (and
/// free) without --run-dir.  Never null.
const obs::Recorder* driver_recorder();

/// Flushes DIR/trace.jsonl, writes DIR/metrics.json and DIR/timeline.json,
/// and logs a one-line telemetry summary.  Call once at the end of a
/// driver's main; no-op without --run-dir.  A file that cannot be written
/// exits the process with status 1.
void finish_driver_observability();

/// Sum of the starting densities over the instance set for the given start
/// policy (the paper quotes 2594 random / 4254 NOLA-random etc.).
long long total_start_density(const std::vector<netlist::Netlist>& instances,
                              StartKind start);

/// Total reduction achieved by the Goto heuristic itself versus the random
/// starts (the "Goto" row of Tables 4.1 / 4.2(c)).
long long goto_total_reduction(const std::vector<netlist::Netlist>& instances);

/// A published table's legible entries, by row label.
using PaperRows = std::map<std::string, std::vector<int>>;

/// `row`'s published entries joined by " / " ("474 / 505 / 519"), or
/// `missing` when the scan has none for it.
std::string paper_cell(const PaperRows& paper, const std::string& row,
                       const std::string& missing = "-");

/// Prints the standard bench preamble (experiment id, seed, scale).
void print_header(const std::string& title, const std::string& protocol);

/// Prints the invariant-check total in invariant-checking builds; no-op
/// otherwise.  Sanitized CI runs use this line to prove the deep checks
/// were live during the bench, not compiled out.
void print_invariant_summary();

/// With --run-dir DIR, mirrors the table to DIR/<experiment>.csv (header
/// row + data rows) so plots can be regenerated outside the repo.  No-op
/// otherwise; exits with status 1, naming the path, when the file cannot
/// be written.
void maybe_write_csv(const std::string& experiment, const util::Table& table);

/// Writes an already-serialized JSON document to DIR/<name>.json with
/// --run-dir DIR, else to <name>.json in the current directory.
/// Machine-readable bench output (BENCH_ladder.json) flows through
/// here so later changes can diff perf trajectories.  Exits with status 1,
/// naming the path, when the file cannot be written.
void write_json_report(const std::string& name, const std::string& payload);

}  // namespace mcopt::bench
