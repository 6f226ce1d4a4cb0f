#include "core/annealer.hpp"

#include <utility>

#include "core/chain.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/schedule.hpp"

namespace mcopt::core {

RunResult simulated_annealing(Problem& problem, const AnnealOptions& options,
                              util::Rng& rng) {
  auto ys = options.schedule.empty() ? kirkpatrick_schedule()
                                     : validated_schedule(options.schedule);
  const auto g = make_annealing_g(std::move(ys));
  Figure1Options fig1;
  fig1.budget = options.budget;
  fig1.equilibrium_rejects = options.equilibrium_rejects;
  fig1.recorder = options.recorder;
  return run_figure1(problem, *g, fig1, rng);
}

RunResult random_descent(Problem& problem, std::uint64_t budget,
                         util::Rng& rng, const obs::Recorder* recorder) {
  Chain chain{problem, recorder, budget, "random_descent", nullptr};
  double h_i = chain.result().initial_cost;
  while (!chain.budget().exhausted()) {
    const Move move = chain.propose(problem, rng, 0, h_i);
    if (move.delta < 0.0) {
      chain.commit(problem, 0, move);
      h_i = move.cost;
    } else {
      chain.reject(problem, 0, move);
    }
  }
  return chain.finish(problem.cost());
}

}  // namespace mcopt::core
