#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>

#include "util/args.hpp"
#include "util/csv.hpp"

#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/parallel.hpp"
#include "linarr/goto_heuristic.hpp"
#include "netlist/generator.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/perfcount.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace mcopt::bench {

double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MCOPT_BENCH_SCALE");
    if (env == nullptr || env[0] == '\0') return 1.0;
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (*end != '\0' || !std::isfinite(v) || v < 0.01) {
      obs::log(obs::LogLevel::kError,
               "error: MCOPT_BENCH_SCALE=%s: expected a finite number >= 0.01",
               env);
      std::exit(2);
    }
    return v;
  }();
  return scale;
}

std::uint64_t scaled(std::uint64_t budget) {
  const double v = static_cast<double>(budget) * bench_scale();
  return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

std::vector<std::uint64_t> paper_budgets() {
  return {scaled(kSixSec), scaled(kNineSec), scaled(kTwelveSec)};
}

std::vector<netlist::Netlist> gola_instances() {
  return netlist::gola_test_set(30, netlist::GolaParams{15, 150}, kSeed);
}

std::vector<netlist::Netlist> nola_instances() {
  return netlist::nola_test_set(30, netlist::NolaParams{15, 150, 2, 6},
                                kSeed);
}

linarr::Arrangement random_start(std::size_t instance, std::size_t n) {
  util::Rng rng{util::derive_seed(kSeed + 1, instance)};
  return linarr::Arrangement::random(n, rng);
}

unsigned hardware_threads() {
  return std::max(1U, std::thread::hardware_concurrency());
}

std::vector<Method> tune_methods(
    const std::vector<core::GClass>& classes,
    const std::vector<netlist::Netlist>& instances, bool goto_start,
    double typical_cost, double typical_delta, unsigned num_threads) {
  const std::size_t train_count =
      std::min<std::size_t>(kTuneInstances, instances.size());

  std::vector<Method> methods;
  methods.reserve(classes.size());
  for (const core::GClass cls : classes) {
    Method method;
    method.name = core::g_class_name(cls);
    method.cls = cls;
    if (core::g_class_uses_scale(cls)) {
      core::ProblemFactory factory =
          [&instances, goto_start](
              std::size_t i) -> std::unique_ptr<core::Problem> {
        const auto& nl = instances[i];
        auto start = goto_start ? linarr::goto_arrangement(nl)
                                : random_start(i, nl.num_cells());
        return std::make_unique<linarr::LinArrProblem>(nl, std::move(start));
      };
      core::TunerOptions options;
      options.budget = scaled(kTuneBudget);
      options.num_instances = train_count;
      options.seed = kSeed + 2;
      options.typical_cost = typical_cost;
      options.typical_delta = typical_delta;
      options.num_threads = num_threads;
      method.scale = core::tune_scale(cls, factory, options).best_scale;
    }
    methods.push_back(std::move(method));
  }
  return methods;
}

namespace {

std::uint64_t g_invariant_checks = 0;

// Every file a driver writes goes through here: a report that did not land
// fails the run (status 1, naming the path) instead of logging and
// exiting 0.
void write_or_exit(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  out << content;
  out.close();
  if (!out) {
    obs::log(obs::LogLevel::kError, "error: cannot write %s", path.c_str());
    std::exit(1);
  }
}

// Observability state installed by parse_driver_flags().  The recorder is
// off without --run-dir, so such a run pays one dead branch per event site
// and nothing else.
std::string g_run_dir;  // empty = no --run-dir
std::unique_ptr<obs::JsonlFileSink> g_trace_sink;
// Fans the event stream into both the trace file and the flight ring when
// --trace and --flight-recorder are both active.
std::unique_ptr<obs::TeeSink> g_flight_tee;
obs::Recorder g_recorder;
obs::Heartbeat g_heartbeat;
obs::RunMetrics g_metrics_totals;
// Every perf counter that opens; the recorder borrows the pointer, so the
// group must outlive every run (it lives for the process).
std::unique_ptr<obs::PerfCounterGroup> g_perf_group;
obs::TimelineBuilder g_timeline;
std::uint64_t g_run_counter = 0;

std::string run_path(const std::string& name) {
  return g_run_dir + "/" + name;
}

/// Creates `dir` and makes it the run directory, so a bad path costs a
/// status-2 error before any work runs instead of a failed write after it.
void open_run_dir(const std::string& program, const std::string& dir) {
  g_run_dir = dir;
  std::error_code dir_error;
  std::filesystem::create_directories(g_run_dir, dir_error);
  if (dir_error || !std::filesystem::is_directory(g_run_dir)) {
    obs::log(obs::LogLevel::kError, "%s: cannot create run directory %s%s%s",
             program.c_str(), g_run_dir.c_str(), dir_error ? ": " : "",
             dir_error.message().c_str());
    std::exit(2);
  }
}

/// Observables digest for the heartbeat's final row tick, e.g.
/// "eq 3/6 stages" — how many sampled stages reached equilibrium in at
/// least one run.  Empty when metrics are off or nothing was sampled.
std::string observables_note(const obs::RunMetrics& metrics) {
  if (!metrics.collected) return {};
  std::size_t active = 0;
  std::size_t equilibrated = 0;
  for (const auto& o : metrics.observables) {
    if (o.samples == 0) continue;
    ++active;
    if (o.equilibrated_runs > 0) ++equilibrated;
  }
  if (active == 0) return {};
  return "eq " + std::to_string(equilibrated) + "/" +
         std::to_string(active) + " stages";
}

// Numeric flags are validated by name so the error tells the user exactly
// which value to fix.  `*value` holds the default and is left alone when the
// flag is absent; a bare flag, a partial parse ("1x"), a value out of range
// or, for reals, a non-finite one fills `*error` and returns false.
std::string expects(const util::Args& args, const char* name,
                    const char* what) {
  return std::string{"--"} + name + " expects " + what + " (got '" +
         args.value(name).value_or("") + "')";
}

template <class T>
bool positive_flag(const util::Args& args, const char* name, T* value,
                   std::string* error) {
  if (!args.has(name)) return true;
  T parsed = 0;
  try {
    if constexpr (std::is_integral<T>::value) {
      parsed = args.get_int(name, 0);
    } else {
      parsed = args.get_double(name, 0.0);
    }
  } catch (const std::invalid_argument&) {
    // Unparseable: left out of range, rejected below.
  }
  if (!std::isfinite(static_cast<double>(parsed)) || parsed <= 0) {
    *error = expects(args, name,
                     std::is_integral<T>::value ? "an integer >= 1"
                                           : "a finite number > 0");
    return false;
  }
  *value = parsed;
  return true;
}

}  // namespace

void print_invariant_summary() {
  if constexpr (util::kInvariantsEnabled) {
    std::printf("\ninvariant checks executed: %llu\n",
                static_cast<unsigned long long>(g_invariant_checks));
  }
}

void GridJob::record(const core::RunResult& result) {
  metrics.merge(result.metrics);
  invariant_checks += result.invariants.executed;
}

obs::RunMetrics run_grid(std::size_t num_jobs, unsigned num_threads,
                         const obs::Recorder* recorder,
                         const std::function<void(GridJob&)>& job) {
  // One run id per grid; each job is a restart-scoped shard within it, so
  // (run, restart) identifies (grid, job) in the trace.
  const obs::Recorder root = recorder != nullptr
                                 ? recorder->with_run(g_run_counter++)
                                 : obs::Recorder{};
  std::vector<GridJob> jobs(num_jobs);
  std::vector<std::vector<obs::Event>> job_events(num_jobs);
  // Progress counter for the heartbeat only: jobs are reduced in index
  // order below, so this never touches determinism.
  std::atomic<std::size_t> jobs_done{0};  // mcopt-lint: allow(raw-atomic)

  // Claiming in reverse index order starts the jobs declared last — the
  // longest, by the declaration contract — first and keeps them off the
  // grid's tail.
  core::drain_indices(
      num_jobs, std::max(1U, num_threads),
      [&](std::size_t claim, std::uint64_t worker) {
        const std::size_t index = num_jobs - 1 - claim;
        GridJob& slot = jobs[index];
        obs::VectorSink shard;
        slot.index = index;
        slot.worker = worker;
        slot.recorder =
            root.for_restart(index, worker, root.tracing() ? &shard : nullptr);
        job(slot);
        if (slot.metrics.collected) slot.metrics.restarts = 1;
        job_events[index] = shard.take();
        // The final tick is emitted after the reduction below so it can
        // carry the grid's observables digest; in-flight ticks stay here.
        const std::size_t done = jobs_done.fetch_add(1) + 1;
        if (done < num_jobs) g_heartbeat.tick(done, num_jobs, std::nan(""));
      });

  obs::TraceSink* sink = root.sink();
  // Grid-local accumulator: merge() is associative (a tested invariant), so
  // folding jobs -> grid -> driver totals equals the direct fold, and the
  // grid aggregate feeds the heartbeat digest below.
  obs::RunMetrics grid_metrics;
  for (std::size_t index = 0; index < num_jobs; ++index) {
    const GridJob& done = jobs[index];
    g_invariant_checks += done.invariant_checks;
    // Job order is the single-thread execution order, so the drained trace
    // and merged metrics are thread-count invariant (worker stamps aside).
    if (sink != nullptr) {
      for (const obs::Event& event : job_events[index]) sink->write(event);
    }
    grid_metrics.merge(done.metrics);
    // Per-worker timeline lanes: each job's own profile tree lands on the
    // lane of the worker that ran it, appended in job-index order — the
    // same order the trace and metrics merges use.
    if (!g_run_dir.empty() && !done.metrics.profile.empty()) {
      const auto tid = static_cast<std::uint32_t>(done.worker);
      g_timeline.set_process_name(1, "workers");
      g_timeline.set_thread_name(
          1, tid, tid == 0 ? "caller thread" : "worker " + std::to_string(tid));
      g_timeline.add_tree(done.metrics.profile, 1, tid);
    }
  }
  g_metrics_totals.merge(grid_metrics);
  if (num_jobs > 0) {
    g_heartbeat.tick(num_jobs, num_jobs, std::nan(""),
                     observables_note(grid_metrics));
  }
  return grid_metrics;
}

core::RunResult figure1_chain(GridJob& job, core::Problem& problem,
                              const core::GFunction& g,
                              core::Figure1Options options,
                              std::uint64_t stream, std::size_t i) {
  util::Rng rng{util::derive_seed(stream, i)};
  job.recorder.restart_begin(problem.cost());
  options.recorder = &job.recorder;
  auto result = core::run_figure1(problem, g, options, rng);
  job.record(result);
  return result;
}

std::vector<double> group_sums(const std::vector<double>& values,
                               std::size_t group) {
  std::vector<double> sums(values.size() / group, 0.0);
  for (std::size_t j = 0; j < values.size(); ++j) sums[j / group] += values[j];
  return sums;
}

std::vector<double> run_method_row(
    const Method& method, const std::vector<netlist::Netlist>& instances,
    const TableRunConfig& config) {
  // Every (budget, instance) cell is a job with its own derived RNG stream.
  // Jobs are numbered budget-major and every driver lists its budgets in
  // ascending order, so the longest runs are claimed first.
  std::vector<double> reductions(config.budgets.size() * instances.size());
  run_grid(reductions.size(), config.num_threads, config.recorder,
           [&](GridJob& job) {
             const std::size_t b = job.index / instances.size();
             const std::size_t i = job.index % instances.size();
             const auto& nl = instances[i];
             auto start = config.start == StartKind::kGoto
                              ? linarr::goto_arrangement(nl)
                              : random_start(i, nl.num_cells());
             linarr::LinArrProblem problem{nl, std::move(start),
                                           config.move_kind};
             // Cohoon-Sahni needs the instance's net count.
             const auto g = core::make_g(
                 method.cls,
                 {.scale = method.scale, .num_nets = nl.num_nets()});
             util::Rng rng{util::derive_seed(config.move_seed, i)};
             job.recorder.restart_begin(problem.cost());
             const auto result =
                 config.figure2
                     ? core::run_figure2(problem, *g,
                                         {.budget = config.budgets[b],
                                          .recorder = &job.recorder},
                                         rng)
                     : core::run_figure1(problem, *g,
                                         {.budget = config.budgets[b],
                                          .recorder = &job.recorder},
                                         rng);
             reductions[job.index] = result.reduction();
             job.record(result);
           });
  return group_sums(reductions, instances.size());
}

std::optional<DriverOptions> parse_driver_options(int argc,
                                                  const char* const* argv,
                                                  std::string* error) {
  const util::Args args{argc, argv};
  const auto unknown = args.unknown_flags({"threads", "run-dir", "trace",
                                           "progress", "flight-recorder",
                                           "quiet", "verbose"});
  if (!unknown.empty()) {
    *error = "unknown flag --" + unknown.front();
    return std::nullopt;
  }
  if (!args.positional().empty()) {
    *error = "unexpected argument '" + args.positional().front() + "'";
    return std::nullopt;
  }
  if (args.has("quiet") && args.has("verbose")) {
    *error = "--quiet and --verbose conflict";
    return std::nullopt;
  }

  DriverOptions out;
  out.quiet = args.has("quiet");
  out.verbose = args.has("verbose");
  if (args.has("run-dir")) {
    out.run_dir = args.value("run-dir").value_or("");
    if (out.run_dir.empty()) {
      *error = "--run-dir expects a directory path";
      return std::nullopt;
    }
  }

  long long threads = 1;
  if (!positive_flag(args, "threads", &threads, error)) return std::nullopt;
  out.threads = static_cast<unsigned>(threads);

  // --trace, --progress and --flight-recorder may also be given bare,
  // which selects their default.
  if (args.has("trace")) {
    long long sample = 1;
    if (args.value("trace") &&
        !positive_flag(args, "trace", &sample, error)) {
      return std::nullopt;
    }
    out.trace_sample = static_cast<std::uint64_t>(sample);
  }
  if (args.has("progress")) {
    out.progress_interval = 2.0;
    if (args.value("progress") &&
        !positive_flag(args, "progress", &out.progress_interval, error)) {
      return std::nullopt;
    }
  }
  if (args.has("flight-recorder")) {
    auto cap = static_cast<long long>(obs::FlightRecorder::kDefaultCapacity);
    if (args.value("flight-recorder") &&
        !positive_flag(args, "flight-recorder", &cap, error)) {
      return std::nullopt;
    }
    out.flight_capacity = static_cast<std::size_t>(cap);
  }
  for (const char* name : {"trace", "flight-recorder"}) {
    if (args.has(name) && out.run_dir.empty()) {
      *error = std::string{"--"} + name + " requires --run-dir";
      return std::nullopt;
    }
  }
  return out;
}

unsigned parse_driver_flags(int argc, const char* const* argv) {
  // Environment default first; explicit --quiet/--verbose override it.
  obs::apply_env_log_level();
  const util::Args args{argc, argv};
  std::string error;
  const auto parsed = parse_driver_options(argc, argv, &error);
  if (!parsed) {
    obs::log(obs::LogLevel::kError, "%s: %s", args.program().c_str(),
             error.c_str());
    obs::log(obs::LogLevel::kError,
             "usage: %s [--threads N] [--run-dir DIR] [--trace [N]] "
             "[--progress [SECS]] [--flight-recorder [CAP]] "
             "[--quiet|--verbose]",
             args.program().c_str());
    std::exit(2);
  }
  if (parsed->quiet) obs::set_log_level(obs::LogLevel::kError);
  if (parsed->verbose) obs::set_log_level(obs::LogLevel::kDebug);
  if (parsed->threads > 1) {
    obs::log(obs::LogLevel::kInfo,
             "threads=%u (results are thread-count invariant)",
             parsed->threads);
  }
  if (parsed->progress_interval > 0.0) {
    g_heartbeat.enable("jobs", parsed->progress_interval);
  }
  if (parsed->run_dir.empty()) return parsed->threads;
  open_run_dir(args.program(), parsed->run_dir);
  if (parsed->trace_sample > 0) {
    try {
      g_trace_sink =
          std::make_unique<obs::JsonlFileSink>(run_path("trace.jsonl"));
    } catch (const std::invalid_argument& open_error) {
      obs::log(obs::LogLevel::kError, "%s: %s", args.program().c_str(),
               open_error.what());
      std::exit(2);
    }
  }
  // The flight ring rides the same event stream as --trace: alone it is
  // the recorder's sink, together they share a tee.  Handlers go in after
  // arming so a crash at any later point finds a ready ring.
  obs::TraceSink* event_sink = g_trace_sink.get();
  if (parsed->flight_capacity > 0) {
    auto& flight = obs::FlightRecorder::instance();
    flight.arm(parsed->flight_capacity, run_path("flight.jsonl"));
    flight.install_crash_handlers();
    if (event_sink != nullptr) {
      g_flight_tee =
          std::make_unique<obs::TeeSink>(event_sink, flight.sink());
      event_sink = g_flight_tee.get();
    } else {
      event_sink = flight.sink();
    }
  }
  // Metrics and the profile tree (which the timeline and the counter
  // attribution ride) are always collected in a run directory.
  g_recorder = obs::Recorder{event_sink, /*metrics=*/true,
                             std::max<std::uint64_t>(parsed->trace_sample, 1),
                             /*run=*/0, /*profile=*/true};
  g_perf_group =
      std::make_unique<obs::PerfCounterGroup>(obs::all_perf_counters());
  if (g_perf_group->available()) {
    g_recorder.set_perf_counters(g_perf_group.get());
    obs::log(obs::LogLevel::kInfo, "perf counters armed (%zu of %zu)",
             g_perf_group->active_counters().size(),
             obs::all_perf_counters().size());
  } else {
    // Graceful degradation: the run proceeds identically, the perf
    // gauges are simply never produced.
    obs::log(obs::LogLevel::kInfo, "perf counters unavailable: %s",
             g_perf_group->unavailable_reason().c_str());
  }
  return parsed->threads;
}

void parse_bench_flags(int argc, const char* const* argv,
                       const std::vector<IntFlag>& ints,
                       const std::vector<RealFlag>& reals) {
  const util::Args args{argc, argv};
  std::vector<std::string> known{"run-dir"};
  std::string usage = " [--run-dir DIR]";
  for (const IntFlag& flag : ints) {
    known.emplace_back(flag.name);
    usage += std::string{" [--"} + flag.name + " N]";
  }
  for (const RealFlag& flag : reals) {
    known.emplace_back(flag.name);
    usage += std::string{" [--"} + flag.name + " X]";
  }
  std::string error;
  const auto unknown = args.unknown_flags(known);
  const std::string run_dir = args.value("run-dir").value_or("");
  if (!unknown.empty()) {
    error = "unknown flag --" + unknown.front();
  } else if (!args.positional().empty()) {
    error = "unexpected argument '" + args.positional().front() + "'";
  } else if (args.has("run-dir") && run_dir.empty()) {
    error = "--run-dir expects a directory path";
  } else {
    bool ok = true;
    for (const IntFlag& flag : ints) {
      ok = ok && positive_flag(args, flag.name, flag.value, &error);
    }
    for (const RealFlag& flag : reals) {
      ok = ok && positive_flag(args, flag.name, flag.value, &error);
    }
  }
  if (error.empty()) {
    if (!run_dir.empty()) open_run_dir(args.program(), run_dir);
    return;
  }
  obs::log(obs::LogLevel::kError, "%s: %s", args.program().c_str(),
           error.c_str());
  obs::log(obs::LogLevel::kError, "usage: %s%s", args.program().c_str(),
           usage.c_str());
  std::exit(2);
}

const obs::Recorder* driver_recorder() { return &g_recorder; }

void finish_driver_observability() {
  if (g_run_dir.empty()) return;
  if (g_trace_sink != nullptr) {
    g_trace_sink->flush();
    obs::log(obs::LogLevel::kInfo, "trace: %llu events -> %s",
             static_cast<unsigned long long>(g_trace_sink->written()),
             run_path("trace.jsonl").c_str());
  }
  write_or_exit(run_path("metrics.json"), g_metrics_totals.to_json());
  obs::log(obs::LogLevel::kInfo, "%s", g_metrics_totals.summary().c_str());
  // The aggregate lane goes in last so it reflects every merged row;
  // worker lanes were appended by run_grid in job-index order.
  if (!g_metrics_totals.profile.empty()) {
    g_timeline.set_process_name(0, "mcopt aggregate profile");
    g_timeline.set_thread_name(0, 0, "all runs");
    g_timeline.add_tree(g_metrics_totals.profile, 0, 0);
  }
  write_or_exit(run_path("timeline.json"), g_timeline.to_json());
  obs::log(obs::LogLevel::kInfo,
           "run dir %s: metrics.json, timeline.json (%zu events; open in "
           "ui.perfetto.dev)",
           g_run_dir.c_str(), g_timeline.num_events());
  const obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  if (flight.armed()) {
    // A clean exit only reports the ring; the dump file is written by the
    // crash handlers alone, so its existence proves abnormal termination.
    const obs::RingBufferSink* ring = flight.ring();
    obs::log(obs::LogLevel::kInfo,
             "flight recorder: %zu buffered events (cap %zu, %llu dropped); "
             "dump on abnormal exit -> %s",
             ring->size(), ring->capacity(),
             static_cast<unsigned long long>(ring->dropped()),
             flight.dump_path().c_str());
    // CI hook proving the dump path end to end: abort here so the SIGABRT
    // handler writes the flight file before the process dies.
    if (std::getenv("MCOPT_FLIGHT_INDUCED_ABORT") != nullptr) {
      obs::log(obs::LogLevel::kError,
               "MCOPT_FLIGHT_INDUCED_ABORT set: aborting now");
      std::abort();
    }
  }
}

long long total_start_density(const std::vector<netlist::Netlist>& instances,
                              StartKind start) {
  long long total = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& nl = instances[i];
    const auto arr = start == StartKind::kGoto
                         ? linarr::goto_arrangement(nl)
                         : random_start(i, nl.num_cells());
    total += linarr::density_of(nl, arr);
  }
  return total;
}

long long goto_total_reduction(
    const std::vector<netlist::Netlist>& instances) {
  return total_start_density(instances, StartKind::kRandom) -
         total_start_density(instances, StartKind::kGoto);
}

std::string paper_cell(const PaperRows& paper, const std::string& row,
                       const std::string& missing) {
  const auto it = paper.find(row);
  if (it == paper.end()) return missing;
  std::string out;
  for (const int entry : it->second) {
    out += (out.empty() ? "" : " / ") + std::to_string(entry);
  }
  return out;
}

void print_header(const std::string& title, const std::string& protocol) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", protocol.c_str());
  std::printf("seed=%llu  tick calibration: 6 s ~= %llu ticks  scale=%.2f\n",
              static_cast<unsigned long long>(kSeed),
              static_cast<unsigned long long>(scaled(kSixSec)),
              bench_scale());
  std::printf("================================================================\n");
}

void maybe_write_csv(const std::string& experiment,
                     const util::Table& table) {
  if (g_run_dir.empty()) return;
  const std::string path = run_path(experiment + ".csv");
  std::ostringstream out;
  util::CsvWriter csv{out};
  csv.row(table.headers());
  for (const auto& row : table.data()) csv.row(row);
  write_or_exit(path, out.str());
  std::printf("(csv mirrored to %s)\n", path.c_str());
}

void write_json_report(const std::string& name, const std::string& payload) {
  const std::string path =
      g_run_dir.empty() ? name + ".json" : run_path(name + ".json");
  write_or_exit(path, payload);
  std::printf("(json report written to %s)\n", path.c_str());
}

}  // namespace mcopt::bench
