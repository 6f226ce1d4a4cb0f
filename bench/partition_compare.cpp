// §5 extension — the circuit-partition experiment of [NAHA84]/[KIRK83].
//
// Balanced bipartition of random graphs.  Methods: Kernighan-Lin (the
// "proven heuristic" §2 faults [KIRK83] for not comparing against),
// simulated annealing with the quoted Kirkpatrick schedule (Y1 = 10,
// x0.9, k = 6), the paper's recommended g = 1, and pure random descent.
// Monte Carlo methods get a budget equal to a multiple of KL's own
// pair-evaluation count so the comparison stays equal-work.
#include <array>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "netlist/generator.hpp"
#include "partition/kl.hpp"
#include "partition/problem.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  const unsigned threads = bench::parse_driver_flags(argc, argv);
  bench::print_header(
      "Circuit partition comparison (§5 / [NAHA84]; schedule from [KIRK83])",
      "10 random graphs per size; balanced bipartition; cut size; Monte "
      "Carlo budget = 4x KL's evaluation count");

  const std::vector<std::pair<std::size_t, std::size_t>> sizes{{40, 120},
                                                               {80, 240}};
  constexpr std::size_t kInstances = 10;
  enum { kStart, kKl, kSa, kGOne, kDescent, kKlTicks, kColumns };
  // One job per (size, instance), size-ascending so the larger graphs are
  // claimed first; each job runs every method from one generator stream.
  std::vector<std::array<double, kColumns>> cuts(sizes.size() * kInstances);
  bench::run_grid(
      cuts.size(), threads, bench::driver_recorder(),
      [&](bench::GridJob& job) {
        const auto [n, m] = sizes[job.index / kInstances];
        util::Rng gen{util::derive_seed(bench::kSeed + 50,
                                        1000 * n + job.index % kInstances)};
        const auto nl = netlist::random_graph(n, m, gen);
        util::Rng start_rng = gen.split();
        const auto start = partition::PartitionState::random(nl, start_rng);
        const auto kl = partition::kernighan_lin(nl, start.sides());
        const std::uint64_t budget = bench::scaled(4 * kl.evaluations);
        auto& out = cuts[job.index];
        out[kStart] = start.cut();
        out[kKl] = kl.cut;
        out[kKlTicks] = static_cast<double>(kl.evaluations);
        const auto g = core::make_g(core::GClass::kGOne);
        // Each Monte Carlo method starts from `start` on the next split of
        // the generator stream.
        for (const int method : {kSa, kGOne, kDescent}) {
          partition::PartitionProblem problem{
              partition::PartitionState{nl, start.sides()}};
          util::Rng rng = gen.split();
          job.recorder.restart_begin(problem.cost());
          core::RunResult result;
          if (method == kSa) {  // an empty schedule: Kirkpatrick's
            result = core::simulated_annealing(
                problem,
                {.budget = budget, .schedule = {}, .recorder = &job.recorder},
                rng);
          } else if (method == kGOne) {
            result = core::run_figure1(
                problem, *g, {.budget = budget, .recorder = &job.recorder},
                rng);
          } else {
            result = core::random_descent(problem, budget, rng, &job.recorder);
          }
          out[method] = result.best_cost;
          job.record(result);
        }
      });

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::array<util::Summary, kColumns> cut;
    int kl_beats_sa = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const auto& out = cuts[s * kInstances + i];
      for (std::size_t c = 0; c < kColumns; ++c) cut[c].add(out[c]);
      kl_beats_sa += out[kKl] < out[kSa];
    }

    std::printf("\n-- n = %zu cells, m = %zu nets --\n", sizes[s].first,
                sizes[s].second);
    util::Table table;
    table.add_column("method", util::Table::Align::kLeft);
    for (const char* column : {"mean cut", "min", "max", "mean ticks"}) {
      table.add_column(column);
    }
    const double kl_ticks = cut[kKlTicks].mean();
    const std::pair<const char*, int> rows[] = {
        {"random start", kStart},
        {"Kernighan-Lin", kKl},
        {"SA (Y1=10, x0.9, k=6)", kSa},
        {"g = 1 (Figure 1)", kGOne},
        {"random descent", kDescent}};
    for (const auto& [name, c] : rows) {
      table.begin_row();
      table.cell(name);
      table.cell(cut[c].mean(), 1);
      table.cell(static_cast<long long>(cut[c].min()));
      table.cell(static_cast<long long>(cut[c].max()));
      table.cell(static_cast<long long>(
          c == kStart ? 0.0 : c == kKl ? kl_ticks : 4 * kl_ticks));
    }
    table.print();
    std::printf("KL beats SA on %d/10 instances at 4x KL's work\n",
                kl_beats_sa);
  }
  std::printf(
      "\nShape check: the proven deterministic heuristic is at least\n"
      "competitive with annealing at comparable work — the paper's core\n"
      "methodological point (§2).\n");
  bench::finish_driver_observability();
  return 0;
}
