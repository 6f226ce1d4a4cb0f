#include "core/tuner.hpp"

#include <algorithm>
#include <cstddef>
#include <gtest/gtest.h>
#include <vector>

#include <memory>
#include <stdexcept>

#include "core/figure1.hpp"
#include "linarr/arrangement.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "support/toy_problem.hpp"
#include "util/rng.hpp"

namespace mcopt::core {
namespace {

using mcopt::testing::ToyProblem;

ProblemFactory toy_factory() {
  return [](std::size_t index) -> std::unique_ptr<Problem> {
    // A family of rugged landscapes varying with the instance index; the
    // start position is deterministic in the index (§4.2.1: every candidate
    // sees the same initial solution).
    std::vector<double> landscape(24);
    for (std::size_t i = 0; i < landscape.size(); ++i) {
      landscape[i] = static_cast<double>((i * (7 + index) + 3) % 13);
    }
    return std::make_unique<ToyProblem>(landscape, index % landscape.size());
  };
}

/// A 4-instance GOLA training set with per-instance random starts, as the
/// table benches build it.
ProblemFactory gola_factory(const std::vector<netlist::Netlist>& instances) {
  return [&instances](std::size_t index) -> std::unique_ptr<Problem> {
    const netlist::Netlist& nl = instances[index];
    util::Rng rng{util::derive_seed(11, index)};
    return std::make_unique<linarr::LinArrProblem>(
        nl, linarr::Arrangement::random(nl.num_cells(), rng));
  };
}

TEST(DefaultScalesTest, ScaleFreeClassesGetTrivialGrid) {
  EXPECT_EQ(default_candidate_scales(GClass::kGOne, 60, 2),
            std::vector<double>{1.0});
  EXPECT_EQ(default_candidate_scales(GClass::kTwoLevel, 60, 2),
            std::vector<double>{1.0});
}

TEST(DefaultScalesTest, GridsSweepIncreasingAcceptance) {
  // The grid is defined by target acceptance probabilities 0.02 .. 0.8, so
  // along the grid the realized acceptance at the typical (cost, delta)
  // must strictly increase for every class.  (The raw scales themselves are
  // decreasing for the exponential-of-h classes — Y is in the denominator.)
  for (const GClass cls : table41_classes()) {
    if (!g_class_uses_scale(cls)) continue;
    const auto grid = default_candidate_scales(cls, 60.0, 2.0);
    ASSERT_EQ(grid.size(), 6u) << g_class_name(cls);
    double prev_p = -1.0;
    for (const double s : grid) {
      ASSERT_GT(s, 0.0) << g_class_name(cls);
      const auto g = make_g(cls, {.scale = s});
      const double p = g->probability(0, 60.0, 62.0);
      EXPECT_GT(p, prev_p) << g_class_name(cls) << " scale " << s;
      prev_p = p;
    }
  }
}

TEST(DefaultScalesTest, GridsHitTargetProbabilities) {
  // The Metropolis grid entry for target p must satisfy
  // exp(-delta/Y) == p at the typical delta.
  const auto grid = default_candidate_scales(GClass::kMetropolis, 60.0, 2.0);
  const double targets[] = {0.02, 0.05, 0.1, 0.2, 0.4, 0.8};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto g = make_g(GClass::kMetropolis, {.scale = grid[i]});
    EXPECT_NEAR(g->probability(0, 10.0, 12.0), targets[i], 1e-9);
  }
}

TEST(DefaultScalesTest, DiffGridsHitTargets) {
  const auto grid = default_candidate_scales(GClass::kCubicDiff, 60.0, 2.0);
  const double targets[] = {0.02, 0.05, 0.1, 0.2, 0.4, 0.8};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto g = make_g(GClass::kCubicDiff, {.scale = grid[i]});
    EXPECT_NEAR(g->probability(0, 10.0, 12.0), targets[i], 1e-9);
  }
}

TEST(DefaultScalesTest, DegenerateStatisticsFallBackToOne) {
  const auto grid = default_candidate_scales(GClass::kLinear, 0.0, 0.0);
  for (const double s : grid) EXPECT_GT(s, 0.0);
}

TEST(TuneScaleTest, RejectsBadInputs) {
  TunerOptions options;
  EXPECT_THROW((void)tune_scale(GClass::kMetropolis, nullptr, options),
               std::invalid_argument);
  options.num_instances = 0;
  EXPECT_THROW((void)tune_scale(GClass::kMetropolis, toy_factory(), options),
               std::invalid_argument);
}

TEST(TuneScaleTest, EvaluatesEveryCandidate) {
  TunerOptions options;
  options.candidates = {0.5, 1.0, 2.0};
  options.budget = 200;
  options.num_instances = 4;
  const TuneResult result =
      tune_scale(GClass::kMetropolis, toy_factory(), options);
  ASSERT_EQ(result.scores.size(), 3u);
  EXPECT_DOUBLE_EQ(result.scores[0].first, 0.5);
  EXPECT_DOUBLE_EQ(result.scores[2].first, 2.0);
}

TEST(TuneScaleTest, BestIsArgmaxOfScores) {
  TunerOptions options;
  options.candidates = {0.01, 0.5, 5.0};
  options.budget = 300;
  options.num_instances = 6;
  const TuneResult result =
      tune_scale(GClass::kSixTempAnnealing, toy_factory(), options);
  double max_score = result.scores.front().second;
  for (const auto& [scale, score] : result.scores) {
    max_score = std::max(max_score, score);
  }
  EXPECT_DOUBLE_EQ(result.best_total_reduction, max_score);
  bool found = false;
  for (const auto& [scale, score] : result.scores) {
    if (scale == result.best_scale) {
      EXPECT_DOUBLE_EQ(score, result.best_total_reduction);
      found = true;
      break;  // first-best wins ties
    }
  }
  EXPECT_TRUE(found);
}

TEST(TuneScaleTest, ScaleFreeClassYieldsSingleTrivialCandidate) {
  TunerOptions options;
  options.budget = 200;
  options.num_instances = 3;
  const TuneResult result = tune_scale(GClass::kGOne, toy_factory(), options);
  ASSERT_EQ(result.scores.size(), 1u);
  EXPECT_DOUBLE_EQ(result.best_scale, 1.0);
  EXPECT_GE(result.best_total_reduction, 0.0);
}

TEST(TuneScaleTest, DeterministicGivenSeed) {
  TunerOptions options;
  options.budget = 250;
  options.num_instances = 5;
  options.seed = 77;
  const TuneResult a =
      tune_scale(GClass::kQuadraticDiff, toy_factory(), options);
  const TuneResult b =
      tune_scale(GClass::kQuadraticDiff, toy_factory(), options);
  EXPECT_EQ(a.best_scale, b.best_scale);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(TuneScaleTest, ReductionsAreNonNegative) {
  TunerOptions options;
  options.budget = 400;
  options.num_instances = 8;
  for (const GClass cls :
       {GClass::kMetropolis, GClass::kLinear, GClass::kExponentialDiff}) {
    const TuneResult result = tune_scale(cls, toy_factory(), options);
    for (const auto& [scale, score] : result.scores) {
      EXPECT_GE(score, 0.0) << g_class_name(cls) << " scale " << scale;
    }
  }
}

// --- the parallel candidate x instance grid -------------------------------

TEST(ParallelTuneTest, RejectsZeroThreads) {
  TunerOptions options;
  options.num_instances = 2;
  options.num_threads = 0;
  EXPECT_THROW((void)tune_scale(GClass::kMetropolis, toy_factory(), options),
               std::invalid_argument);
}

TEST(ParallelTuneTest, ScoresBitIdenticalAcrossThreadCountsOnToy) {
  TunerOptions options;
  options.budget = 300;
  options.num_instances = 7;
  for (const GClass cls : {GClass::kMetropolis, GClass::kSixTempAnnealing,
                           GClass::kCubicDiff, GClass::kGOne}) {
    options.num_threads = 1;
    const TuneResult serial = tune_scale(cls, toy_factory(), options);
    for (const unsigned threads : {2u, 8u}) {
      options.num_threads = threads;
      const TuneResult parallel = tune_scale(cls, toy_factory(), options);
      EXPECT_EQ(parallel.scores, serial.scores)  // == on every double
          << g_class_name(cls) << " at " << threads << " threads";
      EXPECT_EQ(parallel.best_scale, serial.best_scale);
      EXPECT_EQ(parallel.best_total_reduction, serial.best_total_reduction);
    }
  }
}

TEST(ParallelTuneTest, ScoresBitIdenticalAcrossThreadCountsOnGola) {
  const auto instances =
      netlist::gola_test_set(4, netlist::GolaParams{15, 150}, 1985);
  TunerOptions options;
  options.budget = 400;
  options.num_instances = instances.size();
  options.typical_cost = 80.0;
  for (const GClass cls : {GClass::kSixTempAnnealing, GClass::kExponential}) {
    options.num_threads = 1;
    const TuneResult serial = tune_scale(cls, gola_factory(instances), options);
    ASSERT_EQ(serial.scores.size(), 6u);
    for (const unsigned threads : {2u, 8u}) {
      options.num_threads = threads;
      const TuneResult parallel =
          tune_scale(cls, gola_factory(instances), options);
      EXPECT_EQ(parallel.scores, serial.scores)
          << g_class_name(cls) << " at " << threads << " threads";
      EXPECT_EQ(parallel.best_scale, serial.best_scale);
    }
  }
}

TEST(ParallelTuneTest, MatchesTheSerialCandidateLoop) {
  // The pre-grid definition of a score: per candidate, the Figure 1
  // reductions summed in instance order with the instance's common
  // random-number stream.
  const auto instances =
      netlist::gola_test_set(4, netlist::GolaParams{15, 150}, 1985);
  TunerOptions options;
  options.candidates = {0.5, 2.0, 8.0};
  options.budget = 300;
  options.num_instances = instances.size();
  options.seed = 5;
  options.num_threads = 4;
  const TuneResult result = tune_scale(
      GClass::kSixTempAnnealing, gola_factory(instances), options);
  ASSERT_EQ(result.scores.size(), options.candidates.size());
  for (std::size_t c = 0; c < options.candidates.size(); ++c) {
    const auto g = make_g(GClass::kSixTempAnnealing,
                          {.scale = options.candidates[c], .ratio = 0.9});
    double total = 0.0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      auto problem = gola_factory(instances)(i);
      util::Rng rng{util::derive_seed(options.seed, i)};
      Figure1Options fig1;
      fig1.budget = options.budget;
      total += run_figure1(*problem, *g, fig1, rng).reduction();
    }
    EXPECT_EQ(result.scores[c].second, total) << "candidate " << c;
  }
}

TEST(ParallelTuneTest, FactoryFailurePropagatesFromWorkers) {
  TunerOptions options;
  options.budget = 100;
  options.num_instances = 6;
  options.num_threads = 4;
  const ProblemFactory failing =
      [](std::size_t index) -> std::unique_ptr<Problem> {
    if (index == 3) throw std::runtime_error("bad training instance");
    return toy_factory()(index);
  };
  EXPECT_THROW((void)tune_scale(GClass::kMetropolis, failing, options),
               std::runtime_error);
}

}  // namespace
}  // namespace mcopt::core
