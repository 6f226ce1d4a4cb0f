#include "core/figure2.hpp"

#include "core/chain.hpp"

namespace mcopt::core {

RunResult run_figure2(Problem& problem, const GFunction& g,
                      const Figure2Options& options, util::Rng& rng) {
  const unsigned k = g.num_temperatures();
  Chain chain{problem, options.recorder, options.budget, "figure2", &g};
  util::WorkBudget& budget = chain.budget();
  obs::Recorder& rec = chain.recorder();

  unsigned temp = 0;
  std::uint64_t kick_counter = 0;

  auto advance_temperature = [&](obs::StageReason reason) -> bool {
    if (temp + 1 >= k) return false;
    ++temp;
    ++chain.result().temperatures_visited;
    kick_counter = 0;
    rec.stage_begin(temp, budget.spent(), problem.cost(), chain.best(),
                    reason);
    return true;
  };

  bool done = false;
  while (!done && !budget.exhausted() && k > 0) {
    // Step 2: descend to a local optimum (charges the budget internally).
    const std::uint64_t before = budget.spent();
    {
      obs::ProfileScope descent_scope{rec, "descent"};
      problem.descend(budget);
      descent_scope.add_ticks(budget.spent() - before);
    }
    const std::uint64_t descended = budget.spent() - before;
    chain.result().descent_steps += descended;
    rec.descent_ticks(temp, descended);
    const double h_i = problem.cost();

    // Periodic deep verification (descend() leaves nothing pending).
    if (chain.invariant_check_due(options.invariant_check_interval)) {
      chain.check_invariants(problem);
    }

    // Step 3.
    chain.improve(problem, temp, h_i);

    // Steps 4-5: kick until one is taken (then descend again) or the level
    // sequence / budget runs out.
    bool kicked = false;
    obs::ProfileScope kick_scope{rec, "kick"};
    while (!kicked && !budget.exhausted()) {
      while (budget.spent() >= budget.slice_end(k, temp) ||
             (options.equilibrium_kicks > 0 &&
              kick_counter >= options.equilibrium_kicks)) {
        const bool patience = options.equilibrium_kicks > 0 &&
                              kick_counter >= options.equilibrium_kicks;
        if (!advance_temperature(patience ? obs::StageReason::kPatience
                                          : obs::StageReason::kSlice)) {
          done = true;
          break;
        }
      }
      if (done) break;

      ++kick_counter;
      const Move move = chain.propose(problem, rng, temp, h_i);
      kick_scope.add_ticks(1);
      kicked = rng.next_double() < g.probability(temp, h_i, move.cost);
      if (kicked) {
        chain.commit(problem, temp, move);  // back to Step 2
      } else {
        chain.reject(problem, temp, move);
      }
    }
  }
  return chain.finish(problem.cost());
}

}  // namespace mcopt::core
