// Rebuild-oracle fuzz for the speculative evaluation path.
//
// For each substrate (linear arrangement with both move kinds and the
// total-span objective, balanced partitioning, TSP with both move kinds) a
// problem is driven through random propose/accept/reject/descend/randomize
// sequences.  Every proposal is checked against one generic,
// Problem-level oracle: before propose(), clone the problem and copy the
// RNG; propose and accept on the clone; rebuild a fresh problem from the
// clone's snapshot() via restore(), which recounts everything from
// scratch.  The fresh cost must equal the h_j that propose() returned, the
// clone's incremental state must agree with a full recompute, and the
// original must end up equal to the clone after accept() and unchanged
// after reject().
//
// The rebuild is what makes the oracle bite in every build:
// check_invariants() compiles to nothing without MCOPT_CHECK_INVARIANTS.
// The suite also runs under ASan/UBSan in CI, so any journal bookkeeping
// error that scribbles outside the reserved scratch surfaces here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/problem.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "partition/problem.hpp"
#include "tsp/problem.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace mcopt {
namespace {

/// What the oracle needs to know about one substrate.
struct Substrate {
  /// Relative tolerance between an incremental cost and its rebuild: 0
  /// (exact) for the integer-cost substrates, rounding slack for TSP.
  double rel_tol = 0.0;
  /// Asserts the problem's incremental state matches a full recompute.
  std::function<void(const core::Problem&)> verify;
  /// Local-optimality check after an unexhausted descend(), or empty.
  std::function<bool(core::Problem&)> is_local_optimum;
};

/// A fresh problem rebuilt from `p`'s snapshot: restore() recounts every
/// incrementally-maintained quantity from scratch.
std::unique_ptr<core::Problem> rebuild(const core::Problem& p) {
  auto fresh = p.clone();
  fresh->restore(p.snapshot());
  return fresh;
}

void expect_cost_eq(double rebuilt, double incremental, double rel_tol,
                    int step) {
  if (rel_tol == 0.0) {
    ASSERT_EQ(rebuilt, incremental) << "step " << step;
  } else {
    ASSERT_LE(std::abs(rebuilt - incremental),
              rel_tol * std::max(1.0, std::abs(rebuilt)))
        << "step " << step;
  }
}

void run_rebuild_oracle_fuzz(core::Problem& p, const Substrate& sub,
                             std::uint64_t seed, int steps) {
  util::Rng rng{seed};
  util::Rng script{seed ^ 0x9e3779b97f4a7c15ULL};
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = script.next() % 16;
    if (op < 12) {
      const core::Snapshot before = p.snapshot();
      const double h_i = p.cost();
      auto trial = p.clone();
      util::Rng trial_rng = rng;
      const double h_j = p.propose(rng);
      ASSERT_EQ(trial->propose(trial_rng), h_j) << "step " << step;
      trial->accept();
      ASSERT_EQ(trial->cost(), h_j) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(sub.verify(*trial)) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(
          expect_cost_eq(rebuild(*trial)->cost(), h_j, sub.rel_tol, step));

      if (h_j < h_i || script.next_double() < 0.25) {
        p.accept();
        ASSERT_EQ(p.snapshot(), trial->snapshot()) << "step " << step;
        ASSERT_EQ(p.cost(), trial->cost()) << "step " << step;
      } else {
        p.reject();
        ASSERT_EQ(p.snapshot(), before) << "step " << step;
        ASSERT_EQ(p.cost(), h_i) << "step " << step;
      }
    } else if (op < 14) {
      constexpr std::uint64_t kBudget = 150;
      util::WorkBudget budget{kBudget};
      p.descend(budget);
      ASSERT_LE(budget.spent(), kBudget) << "step " << step;
      if (sub.is_local_optimum && !budget.exhausted()) {
        ASSERT_TRUE(sub.is_local_optimum(p)) << "step " << step;
      }
    } else if (op == 14) {
      p.randomize(rng);
    }
    // Every operation leaves a state whose rebuild agrees with it.
    ASSERT_NO_FATAL_FAILURE(sub.verify(p)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(
        expect_cost_eq(rebuild(p)->cost(), p.cost(), sub.rel_tol, step));
  }
}

void verify_linarr(const core::Problem& p) {
  ASSERT_TRUE(dynamic_cast<const linarr::LinArrProblem&>(p).state().verify());
}

bool linarr_is_local_optimum(core::Problem& p) {
  return dynamic_cast<linarr::LinArrProblem&>(p).is_local_optimum();
}

void verify_partition(const core::Problem& p) {
  const auto& problem = dynamic_cast<const partition::PartitionProblem&>(p);
  ASSERT_TRUE(problem.state().verify());
}

void verify_tsp(const core::Problem& p) {
  const auto& tour = dynamic_cast<const tsp::TspProblem&>(p);
  ASSERT_TRUE(tsp::is_valid_order(tour.order(), tour.instance().size()));
}

Substrate linarr_substrate() {
  return {0.0, verify_linarr, linarr_is_local_optimum};
}
Substrate partition_substrate() { return {0.0, verify_partition, {}}; }
Substrate tsp_substrate() { return {1e-9, verify_tsp, {}}; }

class SpeculativeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SpeculativeFuzzTest, LinArrPairwiseInterchange) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 101 + 7};
  const auto nl = netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(12, gen),
                                linarr::MoveKind::kPairwiseInterchange};
  run_rebuild_oracle_fuzz(problem, linarr_substrate(), seed, 600);
}

TEST_P(SpeculativeFuzzTest, LinArrSingleExchange) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 131 + 3};
  const auto nl = netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(12, gen),
                                linarr::MoveKind::kSingleExchange};
  run_rebuild_oracle_fuzz(problem, linarr_substrate(), seed, 600);
}

TEST_P(SpeculativeFuzzTest, LinArrTotalSpanObjective) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 151 + 9};
  const auto nl = netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(12, gen),
                                linarr::MoveKind::kPairwiseInterchange,
                                linarr::Objective::kTotalSpan};
  run_rebuild_oracle_fuzz(problem, linarr_substrate(), seed, 600);
}

// 60 cells: wide move windows and long net spans, at fewer steps.
TEST_P(SpeculativeFuzzTest, LinArrPairwiseInterchangeAt60) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 113 + 11};
  const auto nl = netlist::random_gola(netlist::GolaParams{60, 600}, gen);
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(60, gen),
                                linarr::MoveKind::kPairwiseInterchange};
  run_rebuild_oracle_fuzz(problem, linarr_substrate(), seed, 150);
}

TEST_P(SpeculativeFuzzTest, LinArrSingleExchangeAt60) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 137 + 17};
  const auto nl = netlist::random_gola(netlist::GolaParams{60, 600}, gen);
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(60, gen),
                                linarr::MoveKind::kSingleExchange};
  run_rebuild_oracle_fuzz(problem, linarr_substrate(), seed, 150);
}

TEST_P(SpeculativeFuzzTest, Partition) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 171 + 5};
  const auto nl = netlist::random_graph(16, 48, gen);
  partition::PartitionProblem problem{
      partition::PartitionState::random(nl, gen)};
  run_rebuild_oracle_fuzz(problem, partition_substrate(), seed, 600);
}

TEST_P(SpeculativeFuzzTest, TspTwoOpt) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 191 + 1};
  const auto instance = tsp::TspInstance::random_euclidean(16, gen);
  tsp::TspProblem problem{instance, tsp::identity_order(16),
                          tsp::TspMoveKind::kTwoOpt};
  run_rebuild_oracle_fuzz(problem, tsp_substrate(), seed, 600);
}

TEST_P(SpeculativeFuzzTest, TspOrOpt) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 211 + 13};
  const auto instance = tsp::TspInstance::random_euclidean(16, gen);
  tsp::TspProblem problem{instance, tsp::identity_order(16),
                          tsp::TspMoveKind::kOrOpt};
  run_rebuild_oracle_fuzz(problem, tsp_substrate(), seed, 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeculativeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mcopt
