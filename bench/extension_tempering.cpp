// Extension — replica exchange vs the paper's methods at equal work.
//
// The paper's question, asked forward in time: annealing's schedule
// machinery did not beat g = 1 in 1985; does replica exchange (parallel
// tempering), the schedule machinery's modern successor, fare better on
// the same workloads under the same equal-tick discipline?
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/schedule.hpp"
#include "core/tempering.hpp"
#include "linarr/problem.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  const unsigned threads = bench::parse_driver_flags(argc, argv);
  bench::print_header(
      "Extension — parallel tempering vs the paper's methods (GOLA)",
      "30 instances; equal tick budgets; tempering uses 4 replicas");

  const auto instances = bench::gola_instances();
  const auto methods =
      bench::tune_methods({core::GClass::kSixTempAnnealing,
                           core::GClass::kGOne, core::GClass::kCubicDiff,
                           core::GClass::kThresholdAccepting},
                          instances, /*goto_start=*/false, 80.0, 2.0,
                          threads);
  const double y1 = methods.front().scale;  // reuse the tuned hot end

  util::Table table;
  table.add_column("method", util::Table::Align::kLeft);
  table.add_column("6 sec");
  table.add_column("12 sec");
  table.add_column("24 sec");
  const std::vector<std::uint64_t> budgets{
      bench::scaled(bench::kSixSec), bench::scaled(bench::kTwelveSec),
      bench::scaled(2 * bench::kTwelveSec)};
  const bench::TableRunConfig config{.budgets = budgets,
                                     .move_seed = 47,
                                     .num_threads = threads,
                                     .recorder = bench::driver_recorder()};
  for (const auto& method : methods) {
    const auto totals = bench::run_method_row(method, instances, config);
    table.begin_row();
    table.cell(method.name);
    for (const double t : totals) table.cell(static_cast<long long>(t));
  }

  // One tempering job per (budget, instance), budget-major so the longest
  // runs are claimed first.
  std::vector<double> reductions(budgets.size() * instances.size(), 0.0);
  bench::run_grid(
      reductions.size(), threads, bench::driver_recorder(),
      [&](bench::GridJob& job) {
        const std::size_t i = job.index % instances.size();
        const auto& nl = instances[i];
        auto factory = [&](std::size_t replica) {
          // Replica 0 starts from the shared experiment start; the others
          // from derived random arrangements.
          util::Rng start_rng{util::derive_seed(bench::kSeed + 70,
                                                100 * i + replica)};
          auto start = replica == 0
                           ? bench::random_start(i, nl.num_cells())
                           : linarr::Arrangement::random(nl.num_cells(),
                                                         start_rng);
          return std::unique_ptr<core::Problem>(
              new linarr::LinArrProblem(nl, std::move(start)));
        };
        util::Rng rng{util::derive_seed(48, i)};
        const auto result = core::parallel_tempering(
            factory,
            {.temperatures = core::geometric_schedule(y1, 0.5, 4),
             .budget = budgets[job.index / instances.size()],
             .sweep = 25,
             .recorder = &job.recorder},
            rng);
        reductions[job.index] = result.aggregate.reduction();
        job.record(result.aggregate);
      });
  table.begin_row();
  table.cell("Parallel tempering (R=4)");
  for (const double t : bench::group_sums(reductions, instances.size())) {
    table.cell(static_cast<long long>(t));
  }
  table.print();
  bench::maybe_write_csv("extension_tempering", table);
  bench::finish_driver_observability();

  std::printf(
      "\nShape check: at equal work the verdict of 1985 extends.  Splitting\n"
      "the budget over R walkers costs tempering roughly a factor R in\n"
      "useful moves, and on these short-horizon workloads it never earns it\n"
      "back — the simplest acceptance rules win, exactly the paper's point\n"
      "about annealing's own machinery (§5).\n");
  return 0;
}
