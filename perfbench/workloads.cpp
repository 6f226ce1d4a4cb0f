#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "core/calibration.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/parallel.hpp"
#include "core/tuner.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "linarr/goto_heuristic.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mcopt;
using Instances = std::vector<netlist::Netlist>;

/// Timed set-up passes after every rep; setup_s is the median of them all,
/// so it samples the whole run, as wall_s does.
constexpr std::size_t kSetupPasses = 3;
/// The paper's instance shape (§4.2.1 / §4.3.1) and test-set size.
constexpr std::size_t kPaperCells = 15;
constexpr std::size_t kPaperNets = 150;
constexpr std::size_t kPaperInstances = 30;
/// The driver's hand-picked tuning magnitudes for 15/150 instances.
constexpr double kPaperTypicalCost = 80.0;
constexpr double kPaperTypicalDelta = 2.0;
/// multistart_240: the scaling study's largest size (nets = 10 x cells).  A
/// restart slice of 50 proposals per cell gives each call enough restarts
/// to balance 4 workers, and each rep enough restarts for a tail.
constexpr std::size_t kBigCells = 240;
constexpr std::size_t kBigNets = 2'400;
constexpr std::size_t kBigInstances = 4;
constexpr std::uint64_t kBigPerStart = 50 * kBigCells;
constexpr std::uint64_t kBigRestarts = 24;
constexpr std::size_t kCalibrationSamples = 2'000;
/// Instances and restarts per call of the layer probes.
constexpr std::size_t kProbeInstances = 2;
constexpr std::uint64_t kProbeRestarts = 16;

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  /// One operation (a table row, a multistart call, a re-run) and whether
  /// every check on it held.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
};

struct Ctx {
  Tracer& tracer;
  Checks& checks;
  unsigned threads;
  std::uint64_t seed;
};

struct RepResult {
  Digest digest;
  double density_reduction = 0.0;
  std::uint64_t ticks = 0;
};

/// Dense per-chain working set of a LinArrProblem on `nl`: the DensityState
/// arrays sized by cells and nets, the arrangement, and the netlist's CSR
/// rows.  Computed from the container sizes, not measured.
double state_bytes(const netlist::Netlist& nl) {
  const double n = static_cast<double>(nl.num_cells());
  const double m = static_cast<double>(nl.num_nets());
  const double pins = static_cast<double>(nl.num_pins());
  constexpr double kSize = sizeof(std::size_t);
  constexpr double kInt = sizeof(int);
  constexpr double kId = sizeof(std::uint32_t);
  const double density = 2 * m * kSize          // net lo / hi
                         + (n - 1) * (2 * kInt + 1)  // cuts, deltas, marks
                         + 2 * (m + 1) * kInt    // cut histogram, removed_at
                         + m                     // touched marks
                         + n * (kId + kSize);    // order, position
  const double csr = (m + 1) * kSize + pins * kId + (n + 1) * kSize +
                     pins * kId;
  return density + csr;
}

/// Figure-1 runs that touch every instance before the first timed call.
/// Ten times the shortest table budget, so that a set-up pass lasts tens of
/// milliseconds or more: on a shared host, the few milliseconds a busy host
/// takes to wake an idle vCPU doubled the time of shorter passes.
constexpr std::uint64_t kWarmUpTicks = 10 * bench::kSixSec;

/// Runs the warm-up on every instance, spread over `threads` threads as the
/// timed reps spread their work.  On one thread, a pass measured the speed
/// of whichever vCPU it ran on, which on a shared host changes by 1.6x from
/// one moment to the next.
void warm_up(const Instances& instances, std::uint64_t ticks,
             unsigned threads) {
  const auto g = core::make_g(core::GClass::kGOne);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < instances.size(); i = next++) {
      linarr::LinArrProblem problem{
          instances[i], bench::random_start(i, instances[i].num_cells())};
      util::Rng rng{util::derive_seed(0, i)};
      core::Figure1Options options;
      options.budget = ticks;
      (void)core::run_figure1(problem, *g, options, rng);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
}

Instances generate_gola(Tracer& tracer, std::size_t count, std::size_t cells,
                        std::size_t nets, std::uint64_t seed) {
  ScopedSpan span{tracer, "netlist.generate"};
  return netlist::gola_test_set(count, netlist::GolaParams{cells, nets}, seed);
}

// --- the driver grid (bench layer) ---------------------------------------

std::uint64_t tune_ticks(const std::vector<core::GClass>& classes,
                         std::size_t instances) {
  std::uint64_t ticks = 0;
  for (const core::GClass cls : classes) {
    if (!core::g_class_uses_scale(cls)) continue;  // passed through untuned
    ticks += core::default_candidate_scales(cls, kPaperTypicalCost,
                                            kPaperTypicalDelta)
                 .size() *
             std::min(bench::kTuneInstances, instances) * bench::kTuneBudget;
  }
  return ticks;
}

std::vector<bench::Method> traced_tune(Ctx& ctx,
                                       const std::vector<core::GClass>& classes,
                                       const Instances& instances,
                                       double typical_cost,
                                       double typical_delta) {
  ScopedSpan span{ctx.tracer, "bench.tune_methods"};
  span.arg("classes", static_cast<double>(classes.size()));
  return bench::tune_methods(classes, instances, /*goto_start=*/false,
                             typical_cost, typical_delta);
}

/// Budgeted ticks of one row: every budget on every instance.
std::uint64_t row_ticks(const bench::TableRunConfig& config,
                        std::size_t instances) {
  std::uint64_t ticks = 0;
  for (const std::uint64_t b : config.budgets) ticks += b * instances;
  return ticks;
}

/// One table row through bench::run_method_row, spanned with its CPU time
/// and budgeted ticks.
std::vector<double> traced_row(Ctx& ctx, const bench::Method& method,
                               const Instances& instances,
                               const bench::TableRunConfig& config) {
  ScopedSpan span{ctx.tracer, "bench.run_method_row"};
  const double cpu_before = ctx.tracer.on() ? process_cpu_seconds() : 0.0;
  auto totals = bench::run_method_row(method, instances, config);
  if (ctx.tracer.on()) {
    span.arg("cpu_s", process_cpu_seconds() - cpu_before);
    span.arg("ticks",
             static_cast<double>(row_ticks(config, instances.size())));
    span.arg("figure2", config.figure2 ? 1.0 : 0.0);
    span.arg("threads", static_cast<double>(config.num_threads));
  }
  return totals;
}

long long traced_start_density(Ctx& ctx, const Instances& instances) {
  ScopedSpan span{ctx.tracer, "linarr.goto"};
  return bench::total_start_density(instances, bench::StartKind::kRandom);
}

long long traced_goto_reduction(Ctx& ctx, const Instances& instances) {
  ScopedSpan span{ctx.tracer, "linarr.goto"};
  return bench::goto_total_reduction(instances);
}

bool totals_in_range(const std::vector<double>& totals, long long start_sum) {
  return std::all_of(totals.begin(), totals.end(), [&](double t) {
    return t >= 0.0 && t <= static_cast<double>(start_sum);
  });
}

/// A row kept from the first rep for the untimed single-thread re-run.
struct KeptRow {
  std::string table;
  bench::Method method;
  const Instances* instances = nullptr;
  bench::TableRunConfig config;
  std::vector<double> totals;
};

/// Re-runs one row per table on one thread and requires identical totals.
void rerun_one_row_per_table(Ctx& ctx, const std::vector<KeptRow>& rows) {
  std::map<std::string, std::vector<const KeptRow*>> by_table;
  for (const KeptRow& row : rows) by_table[row.table].push_back(&row);
  for (const auto& [table, table_rows] : by_table) {
    const KeptRow& row = *table_rows[ctx.seed % table_rows.size()];
    bench::TableRunConfig config = row.config;
    config.num_threads = 1;
    const auto totals = bench::run_method_row(row.method, *row.instances,
                                              config);
    ctx.checks.op(totals == row.totals,
                  table + " row '" + row.method.name +
                      "' differs between 1 thread and " +
                      std::to_string(row.config.num_threads));
  }
}

/// Runs `methods` as rows of one table, checks each total against
/// [0, start_sum], and folds the totals into the rep result.
void run_table(Ctx& ctx, const std::string& table,
               const std::vector<bench::Method>& methods,
               const Instances& instances,
               const std::vector<bench::TableRunConfig>& configs,
               long long start_sum, RepResult& out,
               std::vector<KeptRow>* keep) {
  for (const bench::Method& method : methods) {
    for (const bench::TableRunConfig& config : configs) {
      const auto totals = traced_row(ctx, method, instances, config);
      ctx.checks.op(totals_in_range(totals, start_sum),
                    table + " row '" + method.name +
                        "' total outside [0, start-density sum]");
      for (const double t : totals) {
        out.digest.add(t);
        out.density_reduction += t;
      }
      out.ticks += row_ticks(config, instances.size());
      if (keep != nullptr) {
        keep->push_back({table, method, &instances, config, totals});
      }
    }
  }
}

bench::TableRunConfig grid_config(std::vector<std::uint64_t> budgets,
                                  std::uint64_t move_seed, bool figure2,
                                  unsigned threads) {
  bench::TableRunConfig config;
  config.budgets = std::move(budgets);
  config.move_seed = move_seed;
  config.figure2 = figure2;
  config.num_threads = threads;
  return config;
}

// --- the parallel multistart engine (core / linarr / obs layers) ----------

struct MultistartSpec {
  std::uint64_t per_start = kBigPerStart;
  std::uint64_t restarts = kBigRestarts;
};

bool is_permutation_of_cells(const core::Snapshot& state, std::size_t n) {
  if (state.size() != n) return false;
  std::vector<char> seen(n, 0);
  for (const std::uint32_t cell : state) {
    if (cell >= n || seen[cell] != 0) return false;
    seen[cell] = 1;
  }
  return true;
}

/// The multistart_240 procedure on `instances`: per instance, Goto and
/// start densities, move-statistics calibration, then one
/// parallel_multistart call per g class (six-temperature annealing with
/// Y1 from the calibration, and g = 1) with a metrics+profile recorder, and
/// a registry export of each result.
RepResult run_multistart(Ctx& ctx, const Instances& instances,
                         const MultistartSpec& spec) {
  RepResult out;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const netlist::Netlist& nl = instances[i];
    auto start = bench::random_start(i, nl.num_cells());
    long long goto_reduction = 0;
    {
      ScopedSpan span{ctx.tracer, "linarr.goto"};
      goto_reduction = linarr::density_of(nl, start) -
                       linarr::density_of(nl, linarr::goto_arrangement(nl));
    }
    out.digest.add(static_cast<double>(goto_reduction));

    linarr::LinArrProblem problem{nl, std::move(start)};
    core::MoveStatistics stats;
    {
      ScopedSpan span{ctx.tracer, "core.sample_move_statistics"};
      util::Rng rng{util::derive_seed(ctx.seed, 100 + i)};
      stats = core::sample_move_statistics(problem, kCalibrationSamples, rng);
    }
    core::GParams anneal_params;
    anneal_params.scale =
        stats.mean_uphill_delta > 0.0 ? stats.mean_uphill_delta : 1.0;
    const std::pair<core::GClass, std::unique_ptr<core::GFunction>> classes[] =
        {{core::GClass::kSixTempAnnealing,
          core::make_g(core::GClass::kSixTempAnnealing, anneal_params)},
         {core::GClass::kGOne, core::make_g(core::GClass::kGOne)}};

    for (std::size_t c = 0; c < std::size(classes); ++c) {
      const core::GFunction& g = *classes[c].second;
      const double g_class = static_cast<double>(classes[c].first);
      Tracer& tracer = ctx.tracer;
      // Starting density of each restart, by restart index (the recorder is
      // always on here, so it carries the index).  A speculative re-run
      // rewrites its slot with the same value.
      std::vector<double> initial_costs(spec.restarts, -1.0);
      const core::Runner runner = [&g, &tracer, &initial_costs, g_class](
                                      core::Problem& p, std::uint64_t budget,
                                      util::Rng& rng,
                                      const obs::Recorder& recorder) {
        core::Figure1Options options;
        options.budget = budget;
        options.recorder = &recorder;
        const auto keep_initial = [&](const core::RunResult& result) {
          if (recorder.restart_id() < initial_costs.size()) {
            initial_costs[recorder.restart_id()] = result.initial_cost;
          }
        };
        if (!tracer.on()) {
          core::RunResult result = core::run_figure1(p, g, options, rng);
          keep_initial(result);
          return result;
        }
        ScopedSpan span{tracer, "core.figure1"};
        TimedProblem timed{p};
        core::RunResult result = core::run_figure1(timed, g, options, rng);
        const ProblemTally& tally = timed.tally();
        span.arg("g_class", g_class);
        span.arg("ticks", static_cast<double>(result.ticks));
        span.arg("proposals", static_cast<double>(result.proposals));
        span.arg("accepts", static_cast<double>(result.accepts));
        span.arg("wrapped_ns", static_cast<double>(tally.total_ns()));
        span.arg("wrapped_calls", static_cast<double>(tally.total_calls()));
        span.arg("propose_ns", static_cast<double>(tally.propose.ns));
        span.arg("propose_calls", static_cast<double>(tally.propose.calls));
        span.arg("accept_ns", static_cast<double>(tally.accept.ns));
        span.arg("accept_calls", static_cast<double>(tally.accept.calls));
        span.arg("reject_ns", static_cast<double>(tally.reject.ns));
        span.arg("reject_calls", static_cast<double>(tally.reject.calls));
        span.arg("snapshot_ns", static_cast<double>(tally.snapshot.ns));
        span.arg("snapshot_calls", static_cast<double>(tally.snapshot.calls));
        keep_initial(result);
        return result;
      };

      const obs::Recorder recorder{nullptr, /*collect_metrics=*/true,
                                   /*trace_sample=*/1, /*run=*/0,
                                   /*collect_profile=*/true};
      core::ParallelMultistartOptions options;
      options.multistart.total_budget = spec.per_start * spec.restarts;
      options.multistart.budget_per_start = spec.per_start;
      options.multistart.recorder = &recorder;
      options.num_threads = ctx.threads;
      util::Rng rng{util::derive_seed(ctx.seed, 200 + 2 * i + c)};

      core::MultistartResult result;
      ctx.tracer.begin_pool();
      {
        ScopedSpan span{ctx.tracer, "core.parallel_multistart"};
        result = core::parallel_multistart(problem, runner, options, rng);
        span.arg("threads", static_cast<double>(ctx.threads));
        span.arg("restarts", static_cast<double>(result.restarts));
      }

      const core::RunResult& agg = result.aggregate;
      const std::string what = "multistart instance " + std::to_string(i) +
                               " class " + std::to_string(c) + ": ";
      bool ok = true;
      std::string why;
      if (!is_permutation_of_cells(agg.best_state, nl.num_cells())) {
        ok = false;
        why = "best_state is not a permutation";
      } else if (linarr::density_of(
                     nl, linarr::Arrangement::from_order(agg.best_state)) !=
                 agg.best_cost) {
        ok = false;
        why = "density_of(best_state) != best_cost";
      } else if (agg.ticks != options.multistart.total_budget) {
        ok = false;
        why = "aggregate ticks != total budget";
      } else if (result.restart_best_costs.empty() ||
                 *std::min_element(result.restart_best_costs.begin(),
                                   result.restart_best_costs.end()) !=
                     agg.best_cost) {
        ok = false;
        why = "min(restart_best_costs) != best_cost";
      } else if (result.restarts != spec.restarts ||
                 std::count(initial_costs.begin(), initial_costs.end(),
                            -1.0) != 0) {
        ok = false;
        why = "restart count differs from the budgeted count";
      }
      ctx.checks.op(ok, what + why);

      {
        ScopedSpan span{ctx.tracer, "obs.export"};
        obs::MetricsRegistry registry;
        registry.populate_from_run(agg.metrics);
        const std::string json = registry.to_json();
        const std::string prom = registry.to_prometheus();
        span.arg("bytes", static_cast<double>(json.size() + prom.size()));
      }

      out.digest.add(agg.best_cost);
      out.digest.add(static_cast<std::uint64_t>(result.restarts));
      out.digest.add(static_cast<std::uint64_t>(agg.accepts));
      for (const double best : result.restart_best_costs) {
        out.digest.add(best);
      }
      // Every restart is a run: sum its initial - best density.
      for (std::size_t r = 0; r < result.restart_best_costs.size() &&
                              r < initial_costs.size();
           ++r) {
        out.density_reduction +=
            initial_costs[r] - result.restart_best_costs[r];
      }
      out.ticks += agg.ticks;
    }
  }
  return out;
}

// --- workloads -----------------------------------------------------------

/// Which probe a workload runs in a traced run for the layers its own
/// experiment bypasses.
enum class Probe { kGrid, kKernel };

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and warms up; replaces earlier
  /// inputs.
  virtual void setup(Ctx& ctx) = 0;
  /// The whole experiment once.
  virtual RepResult rep(Ctx& ctx) = 0;
  /// Untimed checks after the timed reps.
  virtual void verify(Ctx& ctx) = 0;
  /// The instance the per-chain working set is computed for.
  [[nodiscard]] virtual const netlist::Netlist& typical_instance() const = 0;
  /// Runs `probe` on this workload's instances.
  virtual void probe(Ctx& ctx, Probe probe) = 0;

 protected:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
};

/// Probe of the grid layer on `instances`: a tuning pass for annealing,
/// then annealing and g = 1 rows under Figure 1 and Figure 2.
void grid_probe(Ctx& ctx, const Instances& instances, std::uint64_t budget,
                double typical_cost, double typical_delta) {
  auto methods = traced_tune(ctx, {core::GClass::kSixTempAnnealing},
                             instances, typical_cost, typical_delta);
  methods.push_back({core::g_class_name(core::GClass::kGOne),
                     core::GClass::kGOne, 1.0});
  RepResult ignored;
  const long long start_sum = traced_start_density(ctx, instances);
  run_table(ctx, "grid probe", methods, instances,
            {grid_config({budget}, 7, false, ctx.threads),
             grid_config({budget}, 7, true, ctx.threads)},
            start_sum, ignored, nullptr);
}

Instances first_instances(const Instances& all, std::size_t count) {
  return Instances(all.begin(),
                   all.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(count, all.size())));
}

class PaperTables final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    gola_ = generate_gola(ctx.tracer, kPaperInstances, kPaperCells,
                          kPaperNets, ctx.seed);
    {
      ScopedSpan span{ctx.tracer, "netlist.generate"};
      nola_ = netlist::nola_test_set(
          kPaperInstances, netlist::NolaParams{kPaperCells, kPaperNets, 2, 6},
          ctx.seed);
    }
    ScopedSpan span{ctx.tracer, "setup.warm_up"};
    warm_up(gola_, kWarmUpTicks, ctx.threads);
    warm_up(nola_, kWarmUpTicks, ctx.threads);
  }

  RepResult rep(Ctx& ctx) override {
    RepResult out;
    const bool keep = kept_.empty();
    const std::vector<std::uint64_t> budgets{bench::kSixSec, bench::kNineSec,
                                             bench::kTwelveSec};
    // Table 4.1: GOLA, all 20 classes plus Cohoon-Sahni, and the Goto row.
    {
      const long long start_sum = traced_start_density(ctx, gola_);
      auto classes = core::table41_classes();
      classes.push_back(core::GClass::kCohoonSahni);
      const auto methods = traced_tune(ctx, classes, gola_, kPaperTypicalCost,
                                       kPaperTypicalDelta);
      out.ticks += tune_ticks(classes, gola_.size());
      out.digest.add(static_cast<double>(traced_goto_reduction(ctx, gola_)));
      run_table(ctx, "table_4_1", methods, gola_,
                {grid_config(budgets, 7, false, ctx.threads)}, start_sum, out,
                keep ? &kept_ : nullptr);
    }
    // Table 4.2(c): NOLA rows with the GOLA temperatures (§4.3.1).
    {
      const long long start_sum = traced_start_density(ctx, nola_);
      const auto classes = core::table42_classes();
      const auto methods = traced_tune(ctx, classes, gola_, kPaperTypicalCost,
                                       kPaperTypicalDelta);
      out.ticks += tune_ticks(classes, gola_.size());
      out.digest.add(static_cast<double>(traced_goto_reduction(ctx, nola_)));
      run_table(ctx, "table_4_2c", methods, nola_,
                {grid_config(budgets, 17, false, ctx.threads)}, start_sum, out,
                keep ? &kept_ : nullptr);
    }
    return out;
  }

  void verify(Ctx& ctx) override { rerun_one_row_per_table(ctx, kept_); }

  [[nodiscard]] const netlist::Netlist& typical_instance() const override {
    return gola_.front();
  }

  void probe(Ctx& ctx, Probe probe) override {
    const Instances few = first_instances(gola_, kProbeInstances);
    if (probe == Probe::kGrid) {
      grid_probe(ctx, few, bench::kSixSec, kPaperTypicalCost,
                 kPaperTypicalDelta);
    } else {
      (void)run_multistart(ctx, few, {bench::kSixSec, kProbeRestarts});
    }
  }

 private:
  Instances gola_;
  Instances nola_;
  std::vector<KeptRow> kept_;
};

class Figure2Long final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    gola_ = generate_gola(ctx.tracer, kPaperInstances, kPaperCells,
                          kPaperNets, ctx.seed);
    ScopedSpan span{ctx.tracer, "setup.warm_up"};
    warm_up(gola_, kWarmUpTicks, ctx.threads);
  }

  RepResult rep(Ctx& ctx) override {
    RepResult out;
    const long long start_sum = traced_start_density(ctx, gola_);
    const auto classes = core::table42_classes();
    const auto methods = traced_tune(ctx, classes, gola_, kPaperTypicalCost,
                                     kPaperTypicalDelta);
    out.ticks += tune_ticks(classes, gola_.size());
    run_table(ctx, "table_4_2b", methods, gola_,
              {grid_config({bench::kThreeMin}, 13, false, ctx.threads),
               grid_config({bench::kThreeMin}, 13, true, ctx.threads)},
              start_sum, out, kept_.empty() ? &kept_ : nullptr);
    return out;
  }

  void verify(Ctx& ctx) override { rerun_one_row_per_table(ctx, kept_); }

  [[nodiscard]] const netlist::Netlist& typical_instance() const override {
    return gola_.front();
  }

  void probe(Ctx& ctx, Probe probe) override {
    const Instances few = first_instances(gola_, kProbeInstances);
    if (probe == Probe::kGrid) {
      grid_probe(ctx, few, bench::kThreeMin, kPaperTypicalCost,
                 kPaperTypicalDelta);
    } else {
      (void)run_multistart(ctx, few, {bench::kThreeMin, kProbeRestarts});
    }
  }

 private:
  Instances gola_;
  std::vector<KeptRow> kept_;
};

class Multistart240 final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    instances_ = generate_gola(ctx.tracer, kBigInstances, kBigCells, kBigNets,
                               ctx.seed);
    ScopedSpan span{ctx.tracer, "setup.warm_up"};
    warm_up(instances_, kWarmUpTicks, ctx.threads);
  }

  RepResult rep(Ctx& ctx) override {
    return run_multistart(ctx, instances_, MultistartSpec{});
  }

  void verify(Ctx& /*ctx*/) override {}  // every call is checked inline

  [[nodiscard]] const netlist::Netlist& typical_instance() const override {
    return instances_.front();
  }

  void probe(Ctx& ctx, Probe probe) override {
    if (probe == Probe::kGrid) {
      // Tuning magnitudes for this size come from the calibration walk, as
      // the scaling study derives them.
      linarr::LinArrProblem problem{
          instances_.front(),
          bench::random_start(0, instances_.front().num_cells())};
      util::Rng rng{util::derive_seed(ctx.seed, 99)};
      const auto stats =
          core::sample_move_statistics(problem, kCalibrationSamples, rng);
      grid_probe(ctx, instances_, kBigPerStart, stats.mean_cost,
                 stats.mean_uphill_delta);
    } else {
      (void)run_multistart(ctx, instances_, MultistartSpec{});
    }
  }

 private:
  Instances instances_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_tables") return std::make_unique<PaperTables>();
  if (name == "figure2_long") return std::make_unique<Figure2Long>();
  if (name == "multistart_240") return std::make_unique<Multistart240>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Every per-layer metric with its unit, and the probe that measures it when
/// the workload's own experiment does not reach it (none: always measured).
struct LayerMetric {
  const char* name;
  const char* unit;
  std::optional<Probe> probe;
};

constexpr std::optional<Probe> kOwn;
constexpr std::optional<Probe> kByGrid = Probe::kGrid;
constexpr std::optional<Probe> kByKernel = Probe::kKernel;

const LayerMetric kLayerMetrics[] = {
    {"netlist.gen_ms", "ms", kOwn},
    {"linarr.goto_ms", "ms", kOwn},
    {"linarr.propose_ns", "ns", kByKernel},
    {"linarr.accept_ns", "ns", kByKernel},
    {"linarr.reject_ns", "ns", kByKernel},
    {"linarr.snapshot_ns", "ns", kByKernel},
    {"linarr.proposals", "count", kByKernel},
    {"linarr.accepts", "count", kByKernel},
    {"linarr.accept_rate.anneal", "frac", kByKernel},
    {"linarr.accept_rate.g1", "frac", kByKernel},
    {"linarr.state_bytes", "bytes", kOwn},
    {"core.figure1.self_ns_per_tick", "ns", kByKernel},
    {"core.figure1.run_p50_ms", "ms", kByKernel},
    {"core.figure1.run_tail_ms", "ms", kByKernel},
    {"core.figure1.run_tail_pct", "pct", kByKernel},
    {"core.figure1.run_samples", "count", kByKernel},
    {"core.parallel.busy_frac", "frac", kByKernel},
    {"core.parallel.useful_frac", "frac", kByKernel},
    {"core.parallel.reduce_tail_ms", "ms", kByKernel},
    {"core.calibration.ms", "ms", kByKernel},
    {"bench.tune.wall_s", "s", kByGrid},
    {"bench.tune.share", "frac", kByGrid},
    {"bench.grid.row_p50_ms", "ms", kByGrid},
    {"bench.grid.row_max_ms", "ms", kByGrid},
    {"bench.grid.rows", "count", kByGrid},
    {"bench.grid.cpu_util", "frac", kByGrid},
    {"bench.grid.ticks_per_cpu_s.fig1", "1/s", kByGrid},
    {"bench.grid.ticks_per_cpu_s.fig2", "1/s", kByGrid},
    {"obs.export_ms", "ms", kByKernel},
    {"obs.export_bytes", "bytes", kByKernel},
    {"trace.overhead_frac", "frac", kOwn},
};

/// True when some metric that `probe` measures is still missing.
bool probe_needed(const LayerMap& map, Probe probe) {
  return std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                     [&](const LayerMetric& m) {
                       return m.probe == probe && map.count(m.name) == 0;
                     });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_tables", "figure2_long",
                                              "multistart_240"};
  return names;
}

Outcome run_benchmark(const RunOptions& options) {
  auto workload = make_workload(options.workload);
  Tracer tracer{options.trace};
  Checks checks;
  Ctx ctx{tracer, checks, options.threads, options.seed};
  Outcome outcome;

  // The first set-up is not timed: on a shared host, vCPUs that have been
  // idle can take so long to wake that its parallel warm-up runs on one
  // thread (3.5x the time of a pass after a rep on paper_tables).  Every
  // pass regenerates the same inputs from the seed, so all reps run on
  // identical instances.
  workload->setup(ctx);
  std::vector<double> setup_s;
  std::vector<Interval> setup_windows;
  const auto set_up = [&] {
    tracer.set_enabled(options.trace);
    for (std::size_t k = 0; k < kSetupPasses; ++k) {
      const double cpu0 = process_cpu_seconds();
      const double steal0 = steal_seconds();
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan span{tracer, "setup"};
        workload->setup(ctx);
      }
      setup_windows.push_back({t0, now_ns()});
      setup_s.push_back(steal_adjusted(
          static_cast<double>(setup_windows.back().end - t0) * 1e-9,
          process_cpu_seconds() - cpu0, steal_seconds() - steal0));
    }
  };

  // Timed reps, each followed by set-up passes, until the next rep would
  // overrun --seconds.  A traced run alternates untraced and traced reps so
  // it also measures the tracing overhead.  Rep and set-up walls are net of
  // hypervisor steal (steal_adjusted); the raw rep walls and the steal are
  // printed beside them.
  std::vector<double> raw_walls;
  std::vector<double> steals;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> traced_walls;
  std::vector<Interval> traced_windows;
  std::string first_digest;
  RepResult first;
  const std::uint64_t run_start = now_ns();
  for (std::size_t rep = 0;; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    const double cpu0 = process_cpu_seconds();
    const double steal0 = steal_seconds();
    const std::uint64_t t0 = now_ns();
    RepResult result;
    {
      ScopedSpan span{tracer, "rep"};
      result = workload->rep(ctx);
    }
    const std::uint64_t t1 = now_ns();
    const double cpu = process_cpu_seconds() - cpu0;
    const double steal = steal_seconds() - steal0;
    const double wall = static_cast<double>(t1 - t0) * 1e-9;
    const double net_wall = steal_adjusted(wall, cpu, steal);
    if (traced) {
      traced_walls.push_back(net_wall);
      traced_windows.push_back({t0, t1});
    } else {
      raw_walls.push_back(wall);
      steals.push_back(steal);
      walls.push_back(net_wall);
      cpus.push_back(cpu);
    }

    if (rep == 0) {
      first = result;
      first_digest = result.digest.hex();
    } else {
      checks.op(result.digest.hex() == first_digest,
                "rep " + std::to_string(rep) + " result_digest differs");
    }
    set_up();
    const double elapsed = static_cast<double>(now_ns() - run_start) * 1e-9;
    const bool enough = !options.trace || !traced_walls.empty();
    if (enough && elapsed + wall > options.seconds) break;
  }
  tracer.set_enabled(options.trace);
  workload->verify(ctx);
  outcome.digest = first_digest;

  const auto list = [](const char* label, const std::vector<double>& values) {
    std::string line = label;
    for (const double v : values) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.4f", v);
      line += buf;
    }
    return line;
  };
  outcome.notes.push_back(list("raw wall s per untraced rep:", raw_walls));
  outcome.notes.push_back(list("vCPU steal s per untraced rep:", steals));
  outcome.notes.push_back(list("wall_s (net of steal) per untraced rep:", walls));
  outcome.notes.push_back(list("setup_s (net of steal) per pass:", setup_s));
  if (!options.trace) {
    const double wall = median(walls);
    outcome.metrics = {
        {"wall_s", wall, "s"},
        {"ticks_per_s", static_cast<double>(first.ticks) / wall, "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"density_reduction", first.density_reduction, "density"},
    };
  } else {
    const double clock_ns = clock_read_ns();
    char clock_note[200];
    std::snprintf(clock_note, sizeof clock_note,
                  "clock read: %.1f ns per now_ns(); subtracted once per "
                  "wrapped call from core.figure1.self_ns_per_tick, included "
                  "in the linarr.*_ns per-call means",
                  clock_ns);
    outcome.notes.emplace_back(clock_note);
    LayerMap layers;
    const auto spans = tracer.spans();
    std::vector<double> gen_ms;
    for (const Interval& pass : setup_windows) {
      gen_ms.push_back(total_ms(spans_in(spans, "netlist.generate", {pass})));
    }
    layers["netlist.gen_ms"] = median(gen_ms);
    layers["linarr.goto_ms"] =
        total_ms(spans_in(spans, "linarr.goto", traced_windows)) /
        static_cast<double>(traced_windows.size());
    layers["linarr.state_bytes"] = state_bytes(workload->typical_instance());
    grid_metrics(spans, traced_windows, options.threads, layers);
    kernel_metrics(spans, traced_windows, clock_ns, outcome.notes, layers);
    layers["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1.0;
    // Layers this workload's experiment bypasses are measured by a probe on
    // its own instances, after the timed reps.
    for (const Probe probe : {Probe::kGrid, Probe::kKernel}) {
      if (!probe_needed(layers, probe)) continue;
      const std::uint64_t p0 = now_ns();
      {
        ScopedSpan span{tracer, probe == Probe::kGrid ? "probe.grid"
                                                      : "probe.kernel"};
        workload->probe(ctx, probe);
      }
      const std::vector<Interval> window{{p0, now_ns()}};
      LayerMap probed;
      std::vector<std::string> probe_notes;
      const auto all = tracer.spans();
      if (probe == Probe::kGrid) {
        grid_metrics(all, window, options.threads, probed);
      } else {
        kernel_metrics(all, window, clock_ns, probe_notes, probed);
      }
      std::string filled;
      for (const LayerMetric& m : kLayerMetrics) {
        if (m.probe != probe || layers.count(m.name) != 0 ||
            probed.count(m.name) == 0) {
          continue;
        }
        layers[m.name] = probed[m.name];
        filled += std::string{" "} + m.name;
      }
      for (const auto& note : probe_notes) {
        outcome.notes.push_back("(probe) " + note);
      }
      outcome.notes.push_back(std::string{"from the "} +
                              (probe == Probe::kGrid ? "grid" : "kernel") +
                              " probe:" + filled);
    }
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = layers.find(m.name);
      if (it == layers.end()) {
        throw std::logic_error(std::string{"per-layer metric not measured: "} +
                               m.name);
      }
      outcome.metrics.push_back({m.name, it->second, m.unit});
    }
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "reps: %zu untraced (median %.4f s), %zu traced (median "
                  "%.4f s)",
                  walls.size(), median(walls), traced_walls.size(),
                  median(traced_walls));
    outcome.notes.emplace_back(buf);
    std::snprintf(buf, sizeof buf,
                  "linarr.state_bytes = %.0f per chain (computed from the "
                  "container sizes, not measured); L2 = %ld bytes",
                  layers["linarr.state_bytes"],
                  collect_host_facts(options.threads).l2_bytes);
    outcome.notes.emplace_back(buf);
    if (!options.trace_out.empty()) {
      std::ofstream out{options.trace_out};
      out << tracer.chrome_json("perfbench " + options.workload);
      if (!out) {
        throw std::runtime_error("cannot write trace " + options.trace_out);
      }
      outcome.notes.push_back("trace: " +
                              std::to_string(tracer.spans().size()) +
                              " spans -> " + options.trace_out);
    }
  }
  outcome.attempted = checks.attempted;
  outcome.failed = checks.failed;
  outcome.first_failure = checks.first_failure;
  return outcome;
}

}  // namespace perfbench
