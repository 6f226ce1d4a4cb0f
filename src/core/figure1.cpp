#include "core/figure1.hpp"

#include <stdexcept>

#include "core/chain.hpp"

namespace mcopt::core {

RunResult run_figure1(Problem& problem, const GFunction& g,
                      const Figure1Options& options, util::Rng& rng) {
  if (options.gate_threshold == 0) {
    throw std::invalid_argument("figure1: gate_threshold must be >= 1");
  }
  const unsigned k = g.num_temperatures();
  Chain chain{problem, options.recorder, options.budget, "figure1", &g};
  util::WorkBudget& budget = chain.budget();
  obs::Recorder& rec = chain.recorder();

  unsigned temp = 0;
  std::uint64_t reject_counter = 0;  // Step 4's `counter`
  std::uint64_t accept_counter = 0;  // the [KIRK83] equilibrium counter
  unsigned gate_counter = 0;         // the §3 gate for g == 1 levels
  double h_i = chain.result().initial_cost;

  auto advance_temperature = [&](obs::StageReason reason) -> bool {
    // Returns false when the schedule is exhausted (temp == k in the paper).
    if (temp + 1 >= k) return false;
    ++temp;
    ++chain.result().temperatures_visited;
    reject_counter = 0;
    accept_counter = 0;
    rec.stage_begin(temp, budget.spent(), h_i, chain.best(), reason);
    return true;
  };

  bool schedule_exhausted = false;
  while (!budget.exhausted() && !schedule_exhausted && k > 0) {
    // Budget-slice criterion: level `temp` owns ticks up to slice_end.
    while (budget.spent() >= budget.slice_end(k, temp)) {
      if (!advance_temperature(obs::StageReason::kSlice)) {
        schedule_exhausted = true;  // unreachable with slices, kept for
        break;                      // safety against future criteria
      }
    }
    if (schedule_exhausted) break;

    // Periodic deep verification (no pending perturbation at this point).
    if (chain.invariant_check_due(options.invariant_check_interval)) {
      chain.check_invariants(problem);
    }

    const Move move = chain.propose(problem, rng, temp, h_i);
    bool take = false;
    if (move.delta < 0.0) {
      // Step 3: strict improvement.
      take = true;
      gate_counter = 0;
    } else if (options.equilibrium_rejects > 0 &&
               reject_counter >= options.equilibrium_rejects) {
      // Step 4: the counter ran out; this level is done.
      chain.reject(problem, temp, move);
      if (!advance_temperature(obs::StageReason::kPatience)) break;
      continue;
    } else if (g.always_accepts(temp)) {
      take = ++gate_counter >= options.gate_threshold;
      if (take) gate_counter = 1;  // the paper resets to 1, not 0
    } else {
      take = rng.next_double() < g.probability(temp, h_i, move.cost);
    }

    if (!take) {
      ++reject_counter;
      chain.reject(problem, temp, move);
      continue;
    }
    if (reject_counter > 0) rec.patience_reset();
    reject_counter = 0;
    chain.commit(problem, temp, move);
    h_i = move.cost;
    // [KIRK83] equilibrium: enough acceptances at this level.
    ++accept_counter;
    if (options.equilibrium_accepts > 0 &&
        accept_counter >= options.equilibrium_accepts &&
        !advance_temperature(obs::StageReason::kEquilibrium)) {
      schedule_exhausted = true;
    }
  }
  return chain.finish(problem.cost());
}

}  // namespace mcopt::core
