// The temperature-determination pass of §4.2.1.
//
// "Since it is impractical to determine the best Y_i s for each combination
// of instance characteristics, strategy type, g function class, and amount
// of time spent at each temperature, we attempt to find the best Y_i s for
// each g using a randomly generated set of instances and the strategy of
// Figure 1."
//
// The tuner grid-searches a single scale parameter per g class (Y1 for k=1
// classes; the whole schedule is scale * ratio^t for k=6 classes), scoring
// each candidate by the total cost reduction over a training set, exactly
// the metric the paper's tables report.  Candidate grids are derived from
// the problem's typical cost magnitude and typical uphill step so the same
// tuner serves linear arrangement, TSP and partitioning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/gfunction.hpp"
#include "core/problem.hpp"

namespace mcopt::core {

/// Produces a fresh problem for training instance `index`, already holding
/// the experiment's initial solution ("Each g class used the same initial
/// arrangement", §4.2.1 — the factory must be deterministic in `index`).
/// tune_scale() calls it concurrently from its worker threads, so it must
/// only read shared state.
using ProblemFactory =
    std::function<std::unique_ptr<Problem>(std::size_t index)>;

struct TunerOptions {
  /// Candidate scales; leave empty to use default_candidate_scales().
  std::vector<double> candidates;
  /// Training budget per instance per candidate, in ticks.
  std::uint64_t budget = 30'000;
  std::size_t num_instances = 30;
  std::uint64_t seed = 1985;
  /// Schedule decay for k=6 classes.
  double ratio = 0.9;
  /// Statistics the default grids are derived from: a typical cost h and a
  /// typical uphill move size.  Only used when `candidates` is empty.
  double typical_cost = 60.0;
  double typical_delta = 2.0;
  /// Worker threads for the candidate x instance job grid.  Must be >= 1;
  /// the result is independent of this value.
  unsigned num_threads = 1;
};

struct TuneResult {
  double best_scale = 1.0;
  double best_total_reduction = 0.0;
  /// (scale, total reduction) for every candidate evaluated, in grid order.
  std::vector<std::pair<double, double>> scores;
};

/// Grid of scales making g's typical acceptance probability sweep
/// {0.02, 0.05, 0.1, 0.2, 0.4, 0.8} at the given cost magnitudes.  For
/// classes without a scale the grid is {1.0}.
[[nodiscard]] std::vector<double> default_candidate_scales(
    GClass cls, double typical_cost, double typical_delta);

/// Runs the §4.2.1 grid search for `cls` with the Figure 1 strategy.
/// For scale-free classes (g = 1, two-level) this evaluates the single
/// trivial candidate so the returned score is still meaningful.
///
/// Every (candidate, instance) run is an independent job on
/// `options.num_threads` workers (core::drain_indices).  Instance i draws
/// its moves from derive_seed(options.seed, i) under every candidate
/// (common random numbers), and the per-job reductions are summed in
/// (candidate, instance) order, so the scores and the first-best
/// tie-break are bit-identical for any thread count.
/// Throws std::invalid_argument on an empty factory, zero instances or
/// zero num_threads.
[[nodiscard]] TuneResult tune_scale(GClass cls, const ProblemFactory& factory,
                                    const TunerOptions& options);

}  // namespace mcopt::core
