#include "core/multistart.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::core {

void fold_restart(MultistartResult& out, RunResult run, obs::Recorder& rec) {
  ++out.restarts;
  out.restart_best_costs.push_back(run.best_cost);
  RunResult& aggregate = out.aggregate;
  if (out.restarts == 1) {
    const util::InvariantStats checks = aggregate.invariants;
    aggregate = std::move(run);
    aggregate.invariants += checks;
    // Aggregate-level confirmation of the incumbent after each restart
    // folds (restart 0 always sets it).
    rec.new_best(0, aggregate.ticks, aggregate.best_cost);
    return;
  }
  aggregate.final_cost = run.final_cost;
  aggregate.proposals += run.proposals;
  aggregate.accepts += run.accepts;
  aggregate.uphill_accepts += run.uphill_accepts;
  aggregate.descent_steps += run.descent_steps;
  aggregate.ticks += run.ticks;
  aggregate.temperatures_visited += run.temperatures_visited;
  aggregate.invariants += run.invariants;
  aggregate.metrics.merge(run.metrics);
  if (run.best_cost < aggregate.best_cost) {
    aggregate.best_cost = run.best_cost;
    aggregate.best_state = std::move(run.best_state);
    rec.new_best(0, run.ticks, aggregate.best_cost);
  }
}

MultistartResult multistart(Problem& problem, const Runner& runner,
                            const MultistartOptions& options,
                            util::Rng& rng) {
  if (!runner) throw std::invalid_argument("multistart: null runner");
  if (options.budget_per_start == 0) {
    throw std::invalid_argument("multistart: budget_per_start must be >= 1");
  }
  if (options.budget_per_start > options.total_budget) {
    throw std::invalid_argument(
        "multistart: budget_per_start exceeds total_budget");
  }

  // One master draw, then a SplitMix-derived stream per restart: restart i
  // sees Rng::split(master, i) no matter what earlier restarts consumed.
  // This is what lets parallel_multistart() reproduce this loop bit-for-bit
  // from worker threads (core/parallel.hpp); the caller's rng advances by
  // exactly one output either way.
  const std::uint64_t master = rng.next();

  const obs::Recorder root =
      options.recorder != nullptr ? *options.recorder : obs::Recorder{};

  MultistartResult out;
  std::uint64_t spent = 0;
  std::uint64_t index = 0;
  while (spent < options.total_budget) {
    const std::uint64_t slice =
        std::min(options.budget_per_start, options.total_budget - spent);
    util::Rng start_rng = util::Rng::split(master, index);
    if (index > 0 || options.randomize_first) problem.randomize(start_rng);

    // Restart-scoped recorder, writing straight to the caller's sink (the
    // sequential loop IS index order); worker 0 = the calling thread.
    obs::Recorder restart_rec = root.for_restart(index, 0, nullptr);
    if (restart_rec.on()) restart_rec.restart_begin(problem.cost());

    RunResult run = runner(problem, slice, start_rng, restart_rec);
    // Charge what the run actually consumed (an early-terminating runner
    // leaves budget for more restarts); the max(., 1) floor guarantees
    // progress against a runner that reports zero ticks.
    spent += std::max<std::uint64_t>(run.ticks, 1);
    ++index;

    // Deep-verify the problem state between restarts; the per-run interval
    // checks inside the runner are summed into the aggregate by the fold.
    if constexpr (util::kInvariantsEnabled) {
      problem.check_invariants();
      ++out.aggregate.invariants.executed;
    }
    fold_restart(out, std::move(run), restart_rec);
  }
  if (out.aggregate.metrics.collected) {
    out.aggregate.metrics.restarts = out.restarts;
    if (!out.aggregate.metrics.profile.empty()) {
      // Same root name as parallel_multistart(), so the exported tree is
      // byte-identical across engines and thread counts.
      out.aggregate.metrics.profile.nest_under("multistart", out.restarts,
                                               out.aggregate.ticks);
    }
  }
  return out;
}

}  // namespace mcopt::core
