// The bench harness's job grids — the §4.2.1 tuning pass (tune_methods),
// a table row (run_method_row) and the run_grid engine under it — must give
// the same numbers, merged metrics and drained trace at any thread count:
// drivers print identical tables for every --threads value.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/gfunction.hpp"
#include "linarr/problem.hpp"
#include "netlist/netlist.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace mcopt::bench {
namespace {

std::vector<netlist::Netlist> training_set() {
  auto instances = gola_instances();
  instances.resize(6);
  return instances;
}

// What one traced grid run exposes, with the sanctioned nondeterminism
// zeroed: wall clocks, worker stamps, and run ids (one per grid call, so
// they number the calls, not the work).
struct Observed {
  std::vector<double> results;
  std::string metrics;
  std::string events;
};

Observed observe(std::vector<double> results, obs::RunMetrics metrics,
                 const std::vector<obs::Event>& events) {
  metrics.wall_seconds = 0.0;
  metrics.invariant_seconds = 0.0;
  for (auto& stage : metrics.stages) stage.wall_seconds = 0.0;
  Observed out{std::move(results), metrics.to_json(), {}};
  for (obs::Event event : events) {
    event.worker = 0;
    event.run = 0;
    obs::append_jsonl(event, out.events);
  }
  return out;
}

TEST(ParallelGridTest, TuneMethodsScalesMatchAcrossThreadCounts) {
  const auto instances = training_set();
  const std::vector<core::GClass> classes{core::GClass::kSixTempAnnealing,
                                          core::GClass::kGOne,
                                          core::GClass::kCubicDiff};
  const auto serial = tune_methods(classes, instances, /*goto_start=*/false,
                                   80.0, 2.0, /*num_threads=*/1);
  const auto parallel = tune_methods(classes, instances, /*goto_start=*/false,
                                     80.0, 2.0, /*num_threads=*/4);
  ASSERT_EQ(serial.size(), classes.size());
  ASSERT_EQ(parallel.size(), classes.size());
  for (std::size_t m = 0; m < classes.size(); ++m) {
    EXPECT_EQ(parallel[m].name, serial[m].name);
    EXPECT_EQ(parallel[m].scale, serial[m].scale) << serial[m].name;
  }
}

TEST(ParallelGridTest, RunMethodRowTotalsMatchAcrossThreadCounts) {
  const auto instances = training_set();
  const Method method{"Six Temperature Annealing",
                      core::GClass::kSixTempAnnealing, 1.5};
  // Each grid shape runs traced (every 4th proposal trio) with metrics on.
  using Grid = std::function<Observed(unsigned threads)>;
  std::vector<std::pair<const char*, Grid>> grids;
  for (const bool figure2 : {false, true}) {
    grids.emplace_back(figure2 ? "Figure 2 row" : "Figure 1 row",
                       [&, figure2](unsigned threads) {
                         obs::VectorSink sink;
                         const obs::Recorder recorder{&sink, true, 4};
                         TableRunConfig config;
                         config.budgets = {100, 250, 400};
                         config.figure2 = figure2;
                         config.num_threads = threads;
                         config.recorder = &recorder;
                         auto totals = run_method_row(method, instances, config);
                         return observe(std::move(totals), {}, sink.take());
                       });
  }
  // The partition_compare shape on run_grid directly: each job runs three
  // chains on one instance, each from its own derived stream.
  grids.emplace_back("three chains per job", [&](unsigned threads) {
    obs::VectorSink sink;
    const obs::Recorder recorder{&sink, true, 4};
    const auto g = core::make_g(core::GClass::kGOne);
    std::vector<double> reductions(2 * instances.size(), 0.0);
    auto metrics = run_grid(
        reductions.size(), threads, &recorder, [&](GridJob& job) {
          const std::size_t i = job.index % instances.size();
          const std::uint64_t budget = 150 * (1 + job.index / instances.size());
          for (std::uint64_t chain = 0; chain < 3; ++chain) {
            linarr::LinArrProblem problem{
                instances[i], random_start(i, instances[i].num_cells())};
            util::Rng rng{util::derive_seed(100 + chain, i)};
            job.recorder.restart_begin(problem.cost());
            core::RunResult result;
            if (chain == 0) {
              core::Figure1Options fig1;
              fig1.budget = budget;
              fig1.recorder = &job.recorder;
              result = core::run_figure1(problem, *g, fig1, rng);
            } else if (chain == 1) {
              core::Figure2Options fig2;
              fig2.budget = budget;
              fig2.recorder = &job.recorder;
              result = core::run_figure2(problem, *g, fig2, rng);
            } else {
              result = core::random_descent(problem, budget, rng, &job.recorder);
            }
            reductions[job.index] += result.reduction();
            job.record(result);
          }
        });
    EXPECT_EQ(metrics.restarts, reductions.size());
    return observe(std::move(reductions), std::move(metrics), sink.take());
  });

  for (const auto& [name, grid] : grids) {
    const Observed serial = grid(1);
    EXPECT_FALSE(serial.events.empty()) << name;
    for (const unsigned threads : {4U, 8U}) {
      const Observed parallel = grid(threads);
      EXPECT_EQ(parallel.results, serial.results) << name << " t" << threads;
      EXPECT_EQ(parallel.metrics, serial.metrics) << name << " t" << threads;
      EXPECT_EQ(parallel.events, serial.events) << name << " t" << threads;
    }
  }
}

}  // namespace
}  // namespace mcopt::bench
