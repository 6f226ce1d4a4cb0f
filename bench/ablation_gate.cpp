// Ablation B — the §3 uphill gate for g = 1 under Figure 1.
//
// "A straightforward implementation of [g = 1 with Figure 1] results in a
// random walk through the solution space.  To prevent this ... a
// perturbation that increases the energy is accepted only if a
// sufficiently long sequence of perturbations has failed to yield a
// configuration of lower energy" (threshold 18 in the paper).  This bench
// sweeps the threshold: 1 reduces to the random walk the paper warns
// about, very large thresholds reduce to pure descent, and the paper's 18
// sits in the productive middle.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "linarr/problem.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  const unsigned threads = bench::parse_driver_flags(argc, argv);
  bench::print_header(
      "Ablation B — g = 1 gate threshold under Figure 1 (§3)",
      "GOLA set; 12 s budget; thresholds 1 (random walk) .. 10^6 (descent)");

  const auto instances = bench::gola_instances();
  const auto g = core::make_g(core::GClass::kGOne);
  const std::vector<unsigned> thresholds{1, 2, 6, 18, 54, 162, 1'000'000};

  // One job per (threshold, instance); every run has the same budget.
  std::vector<double> reductions(thresholds.size() * instances.size(), 0.0);
  std::vector<double> uphill(reductions.size(), 0.0);
  bench::run_grid(
      reductions.size(), threads, bench::driver_recorder(),
      [&](bench::GridJob& job) {
        const std::size_t i = job.index % instances.size();
        const auto& nl = instances[i];
        linarr::LinArrProblem problem{nl,
                                      bench::random_start(i, nl.num_cells())};
        const auto result = bench::figure1_chain(
            job, problem, *g,
            {.budget = bench::scaled(bench::kTwelveSec),
             .gate_threshold = thresholds[job.index / instances.size()]},
            29, i);
        reductions[job.index] = result.reduction();
        uphill[job.index] = static_cast<double>(result.uphill_accepts);
      });
  const auto totals = bench::group_sums(reductions, instances.size());
  const auto uphill_totals = bench::group_sums(uphill, instances.size());

  util::Table table;
  table.add_column("gate threshold");
  table.add_column("total reduction");
  table.add_column("uphill accepts / instance");
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    table.begin_row();
    table.cell(static_cast<long long>(thresholds[t]));
    table.cell(static_cast<long long>(totals[t]));
    table.cell(uphill_totals[t] / static_cast<double>(instances.size()), 0);
  }
  table.print();
  bench::maybe_write_csv("ablation_gate", table);
  bench::finish_driver_observability();

  std::printf(
      "\nShape check: threshold 1 (the unguarded random walk) is the worst;\n"
      "the paper's 18 is near the plateau of good settings.\n");
  return 0;
}
