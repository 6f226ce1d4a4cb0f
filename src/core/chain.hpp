// The perturb-and-test chain every Monte Carlo runner drives.
//
// The paper's methods differ only in *when* an uphill move is offered and
// how g decides it: Figure 1's gate and patience counters, Figure 2's
// descend-then-kick loop, random descent's strict improvement, tempering's
// per-replica Metropolis test.  How a move is drawn, charged, committed or
// discarded, credited to the run and checked against the best-so-far is
// the same for all of them, and lives here once:
//
//   propose -> budget.charge() -> ++proposals -> rec.proposal
//   commit  -> accept() -> ++accepts (++uphill_accepts when delta > 0)
//              -> rec.accept -> best-so-far check (snapshot + rec.new_best)
//   reject  -> reject() -> rec.reject
//
// A Chain also owns the run's bookkeeping: the RunResult, the recorder
// bound to its metrics, the tick budget and the root profile scope.  The
// problem is passed per call, so tempering's replicas share one Chain.
// Everything is inline: Figure 1's loop is the library's hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/gfunction.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "obs/event.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "util/budget.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

/// A drawn perturbation awaiting its decision.
struct Move {
  double cost;   ///< h(j)
  double delta;  ///< h(j) - h(i)
};

class Chain {
 public:
  /// Opens a single-walker run from `start`'s current solution: one level
  /// per temperature of `g` (one level when `g` is null), each level's Y_t
  /// declared for the observables layer, and level 0 begun.  `scope`
  /// names the root profile scope.
  Chain(const Problem& start, const obs::Recorder* recorder,
        std::uint64_t budget, const char* scope, const GFunction* g)
      : Chain(start, recorder, budget, scope,
              g != nullptr ? g->num_temperatures() : 1U,
              /*stage_walls=*/true) {
    const unsigned levels = g != nullptr ? g->num_temperatures() : 1U;
    for (unsigned t = 0; g != nullptr && t < levels; ++t) {
      rec_.stage_temperature(t, g->temperature(t));
    }
    if (levels > 0) {
      result_.temperatures_visited = 1;
      rec_.stage_begin(0, 0, result_.initial_cost, result_.best_cost,
                       obs::StageReason::kStart);
    }
  }

  /// Opens a run with `levels` stages and none begun; the caller declares
  /// and begins them.  `stage_walls = false` skips per-stage wall time, for
  /// runners whose levels interleave (tempering).
  Chain(const Problem& start, const obs::Recorder* recorder,
        std::uint64_t budget, const char* scope, std::size_t levels,
        bool stage_walls)
      // By-value copy: gives this run a private sampling counter, so the
      // trace is a pure function of the seed regardless of which thread
      // runs it.  The recorder consumes no randomness.
      : rec_(recorder != nullptr ? *recorder : obs::Recorder{}),
        budget_{budget},
        root_{bind(start, levels, stage_walls), scope} {}

  // root_ points at rec_, and rec_ at result_.metrics.
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  [[nodiscard]] RunResult& result() noexcept { return result_; }
  [[nodiscard]] obs::Recorder& recorder() noexcept { return rec_; }
  [[nodiscard]] util::WorkBudget& budget() noexcept { return budget_; }
  [[nodiscard]] double best() const noexcept { return result_.best_cost; }

  /// Draws a perturbation of `problem`, whose current cost is `current`,
  /// charges one tick and records the proposal at `stage`.  Exactly one of
  /// commit()/reject() must follow.
  [[nodiscard]] Move propose(Problem& problem, util::Rng& rng,
                             std::uint32_t stage, double current) {
    const double cost = problem.propose(rng);
    budget_.charge();
    ++result_.proposals;
    const Move move{cost, cost - current};
    rec_.proposal(stage, budget_.spent(), cost, result_.best_cost,
                  move.delta);
    return move;
  }

  /// Makes the pending move current and credits it to the run.
  void commit(Problem& problem, std::uint32_t stage, const Move& move) {
    problem.accept();
    ++result_.accepts;
    if (move.delta > 0.0) ++result_.uphill_accepts;
    rec_.accept(stage, budget_.spent(), move.cost, result_.best_cost,
                move.delta);
    improve(problem, stage, move.cost);
  }

  /// Discards the pending move.
  void reject(Problem& problem, std::uint32_t stage, const Move& move) {
    problem.reject();
    rec_.reject(stage, budget_.spent(), move.cost, result_.best_cost);
  }

  /// Best-so-far check: when `cost`, the cost of `problem`'s current
  /// solution, beats the best, that solution becomes the best state.
  void improve(const Problem& problem, std::uint32_t stage, double cost) {
    if (cost < result_.best_cost) {
      result_.best_cost = cost;
      problem.snapshot_into(result_.best_state);
      rec_.new_best(stage, budget_.spent(), cost);
    }
  }

  /// True when a periodic deep verification is due: at the first call, then
  /// once `interval` ticks have passed since the last due call.  Always
  /// false with `interval` 0 or without MCOPT_CHECK_INVARIANTS.
  [[nodiscard]] bool invariant_check_due(std::uint64_t interval) {
    if constexpr (util::kInvariantsEnabled) {
      if (interval != 0 && budget_.spent() >= next_check_) {
        next_check_ = budget_.spent() + interval;
        return true;
      }
    }
    return false;
  }

  /// One timed, counted Problem::check_invariants() (nothing may be
  /// pending).
  void check_invariants(const Problem& problem) {
    if (rec_.collecting_metrics()) {
      util::Stopwatch watch;
      problem.check_invariants();
      rec_.invariant_check(watch.seconds());
    } else {
      problem.check_invariants();
    }
    ++result_.invariants.executed;
  }

  /// Closes the run: records `final_cost` and the ticks spent, ends the
  /// recorder's run and hands the result over.  Call once, last.
  [[nodiscard]] RunResult finish(double final_cost) {
    result_.final_cost = final_cost;
    result_.ticks = budget_.spent();
    root_.add_ticks(result_.ticks);
    rec_.end_run();
    return std::move(result_);
  }

 private:
  /// Run prologue ahead of the root scope: initial and best cost, best
  /// snapshot, and the recorder bound to this run's metrics.
  obs::Recorder& bind(const Problem& start, std::size_t levels,
                      bool stage_walls) {
    result_.initial_cost = start.cost();
    result_.best_cost = result_.initial_cost;
    start.snapshot_into(result_.best_state);
    rec_.begin_run(&result_.metrics, levels, stage_walls);
    return rec_;
  }

  RunResult result_;
  obs::Recorder rec_;
  util::WorkBudget budget_;
  obs::ProfileScope root_;
  std::uint64_t next_check_ = 0;
};

}  // namespace mcopt::core
