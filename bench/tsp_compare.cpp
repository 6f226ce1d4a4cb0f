// §2 extension — the Golden-Skiscim-style TSP comparison ([GOLD84], and the
// authors' own TSP runs in [NAHA84]).
//
// Claims reproduced in shape:
//   * restarted 2-opt at equal time beats simulated annealing on most
//     instances (paper: 9 of 10);
//   * a strong constructive heuristic (Stewart's CCAO stood in for by
//     convex-hull + cheapest-insertion + Or-opt) reaches its quality with a
//     tiny fraction of SA's work (paper: SA needed 20-60x the time for
//     worse results).
//
// Equal-work accounting: every tour-move evaluation is one tick, for SA
// proposals, 2-opt descents, insertion-position scans and Or-opt scans
// alike.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/annealer.hpp"
#include "core/schedule.hpp"
#include "obs/event.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "tsp/construct.hpp"
#include "tsp/local_search.hpp"
#include "tsp/problem.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// Keeps the tick of the first new best at or below `target` (0 = never
/// reached) and passes every event on to `next` when set: an annealing
/// run's ticks-to-target, read from the chain's own new-best events.
struct TargetWatch final : obs::TraceSink {
  TargetWatch(obs::TraceSink* next_sink, double target_cost)
      : next(next_sink), target(target_cost) {}
  void write(const obs::Event& event) override {
    if (next != nullptr) next->write(event);
    if (hit == 0 && event.kind == obs::EventKind::kNewBest &&
        event.best <= target) {
      hit = event.tick;
    }
  }
  obs::TraceSink* next;
  double target;
  std::uint64_t hit = 0;
};

/// Figure-1 annealing from a random tour over 25 uniform temperatures up to
/// `ceiling`, inside `job`.  Returns the best length and the ticks it took
/// to reach `target` (0 = never).
std::pair<double, std::uint64_t> anneal(bench::GridJob& job,
                                        const tsp::TspInstance& inst,
                                        double ceiling, std::uint64_t budget,
                                        double target, util::Rng& rng) {
  tsp::TspProblem problem{inst, tsp::random_order(inst.size(), rng)};
  TargetWatch watch{job.recorder.sink(), target};
  const obs::Recorder& parent = job.recorder;
  // Without a trace the watch still needs the new-best events: the job's
  // configuration on the watch alone, with a sampling stride that keeps
  // the proposal trios out of it.
  obs::Recorder rec =
      (parent.tracing()
           ? parent
           : obs::Recorder{&watch, parent.collecting_metrics(),
                           /*trace_sample=*/~std::uint64_t{0},
                           parent.run_id(), parent.profiling()})
          .for_restart(job.index, job.worker, &watch);
  rec.restart_begin(problem.cost());
  const auto result = core::simulated_annealing(
      problem,
      {.budget = budget,
       .schedule = core::uniform_schedule(ceiling, 25),
       .recorder = &rec},
      rng);
  job.record(result);
  return {result.best_cost, watch.hit};
}

/// Hull + cheapest insertion + Or-opt, with its evaluation count charged
/// like Monte Carlo ticks (the insertion is the O(n^2) cached variant, and
/// the Or-opt polish gets a couple of sweeps' worth of budget — CCAO's
/// improvement pass was similarly bounded).
std::pair<double, std::uint64_t> stewart_standin(
    const tsp::TspInstance& inst) {
  const std::size_t n = inst.size();
  auto built = tsp::hull_cheapest_insertion_counted(inst);
  util::WorkBudget polish{static_cast<std::uint64_t>(3 * n) * n};
  tsp::or_opt_descent(inst, built.order, polish);
  return {tsp::tour_length(inst, built.order),
          built.evaluations + polish.spent()};
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = bench::parse_driver_flags(argc, argv);
  bench::print_header(
      "TSP comparison (paper §2 / [GOLD84] / [NAHA84])",
      "10 random Euclidean instances per size; equal tick budgets; SA uses "
      "25 uniformly spaced temperatures per [GOLD84]");

  const std::vector<std::size_t> sizes{50, 100};
  constexpr std::size_t kInstances = 10;
  auto budget_of = [](std::size_t n) {
    return bench::scaled(n == 50 ? 300'000 : 600'000);
  };
  // Per-instance columns; a ratio is the paper's 20-60x measure: SA work
  // to reach the constructive heuristic's length, as a multiple of the
  // heuristic's own work (the budget when never reached).
  enum { kSa, kHot, kTwoOpt, kStewart, kStewartTicks, kSaRatio, kHotRatio,
         kColumns };
  // One job per (size, instance), size-ascending so the larger instances
  // are claimed first; each job runs every method on its own instance.
  std::vector<std::array<double, kColumns>> outcomes(sizes.size() *
                                                     kInstances);
  bench::run_grid(
      outcomes.size(), threads, bench::driver_recorder(),
      [&](bench::GridJob& job) {
        const std::size_t n = sizes[job.index / kInstances];
        const std::uint64_t budget = budget_of(n);
        util::Rng gen{util::derive_seed(bench::kSeed + 40,
                                        100 * n + job.index % kInstances)};
        const auto inst = tsp::TspInstance::random_euclidean(n, gen, 1000.0);
        auto& out = outcomes[job.index];
        const auto [stewart_length, stewart_cost] = stewart_standin(inst);
        out[kStewart] = stewart_length;
        out[kStewartTicks] = static_cast<double>(stewart_cost);
        auto run_sa = [&](double ceiling, std::size_t best, std::size_t ratio) {
          util::Rng rng = gen.split();
          const auto [length, ticks] =
              anneal(job, inst, ceiling, budget, stewart_length, rng);
          out[best] = length;
          out[ratio] = static_cast<double>(ticks == 0 ? budget : ticks) /
                       static_cast<double>(stewart_cost);
        };
        // Tuned: ceiling matched to typical uphill deltas (~edge length).
        run_sa(250.0, kSa, kSaRatio);
        // Hot start: the era's standard advice (begin accepting nearly
        // every uphill move), closer to how [GOLD84] configured annealing.
        run_sa(2500.0, kHot, kHotRatio);
        util::Rng topt_rng = gen.split();
        out[kTwoOpt] =
            tsp::restarted_two_opt(inst, budget, topt_rng).best_length;
      });

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::size_t n = sizes[s];
    const std::uint64_t budget = budget_of(n);
    std::printf("\n-- n = %zu, budget = %llu ticks per method --\n", n,
                static_cast<unsigned long long>(budget));
    std::array<util::Summary, kColumns> mean;
    int twoopt_beats_sa = 0;
    int twoopt_beats_hot = 0;
    int stewart_beats_sa = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const auto& out = outcomes[s * kInstances + i];
      for (std::size_t c = 0; c < kColumns; ++c) mean[c].add(out[c]);
      twoopt_beats_sa += out[kTwoOpt] < out[kSa];
      twoopt_beats_hot += out[kTwoOpt] < out[kHot];
      stewart_beats_sa += out[kStewart] < out[kSa];
    }
    util::Table table;
    table.add_column("method", util::Table::Align::kLeft);
    table.add_column("mean tour length");
    table.add_column("vs best (%)");
    table.add_column("mean ticks");
    const double best_mean = std::min({mean[kSa].mean(), mean[kTwoOpt].mean(),
                                       mean[kStewart].mean(),
                                       mean[kHot].mean()});
    const std::pair<const char*, std::size_t> rows[] = {
        {"SA, 25 uniform temps, tuned tau", kSa},
        {"SA, 25 uniform temps, hot tau", kHot},
        {"restarted 2-opt [LIN73]", kTwoOpt},
        {"hull+insertion+Or-opt [STEW77]*", kStewart}};
    for (const auto& [name, c] : rows) {
      table.begin_row();
      table.cell(name);
      table.cell(mean[c].mean(), 1);
      table.cell(100.0 * (mean[c].mean() - best_mean) / best_mean, 2);
      table.cell(static_cast<long long>(c == kStewart
                                            ? mean[kStewartTicks].mean()
                                            : static_cast<double>(budget)));
    }
    table.print();

    std::printf(
        "restarted 2-opt beats tuned SA on %d/10, hot-start SA on %d/10 "
        "(paper: 9/10)\n"
        "constructive heuristic beats tuned SA on %d/10 instances\n"
        "work to reach constructive quality: tuned SA %.0fx, hot SA %.0fx "
        "the heuristic's work (paper: 20-60x)\n",
        twoopt_beats_sa, twoopt_beats_hot, stewart_beats_sa,
        mean[kSaRatio].mean(), mean[kHotRatio].mean());
  }
  std::printf("\n* stand-in for Stewart's CCAO; see DESIGN.md\n");
  bench::finish_driver_observability();
  return 0;
}
