#include "core/tuner.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "core/figure1.hpp"
#include "core/parallel.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

namespace {

constexpr double kEMinusOne = 1.718281828459045;
constexpr double kTargets[] = {0.02, 0.05, 0.1, 0.2, 0.4, 0.8};

}  // namespace

std::vector<double> default_candidate_scales(GClass cls, double typical_cost,
                                             double typical_delta) {
  if (!g_class_uses_scale(cls)) return {1.0};
  const double h = typical_cost > 0.0 ? typical_cost : 1.0;
  const double d = typical_delta > 0.0 ? typical_delta : 1.0;

  std::vector<double> out;
  out.reserve(std::size(kTargets));
  for (const double p : kTargets) {
    double scale = 1.0;
    switch (cls) {
      case GClass::kMetropolis:
      case GClass::kSixTempAnnealing:
        // exp(-d/Y) = p  =>  Y = d / ln(1/p)
        scale = d / std::log(1.0 / p);
        break;
      case GClass::kLinear:
      case GClass::kSixLinear:
        scale = p / h;
        break;
      case GClass::kQuadratic:
      case GClass::kSixQuadratic:
        scale = p / (h * h);
        break;
      case GClass::kCubic:
      case GClass::kSixCubic:
        scale = p / (h * h * h);
        break;
      case GClass::kExponential:
      case GClass::kSixExponential:
        // (e^(h/Y)-1)/(e-1) = p  =>  Y = h / ln(1 + p(e-1))
        scale = h / std::log(1.0 + p * kEMinusOne);
        break;
      case GClass::kLinearDiff:
      case GClass::kSixLinearDiff:
        scale = p * d;
        break;
      case GClass::kQuadraticDiff:
      case GClass::kSixQuadraticDiff:
        scale = p * d * d;
        break;
      case GClass::kCubicDiff:
      case GClass::kSixCubicDiff:
        scale = p * d * d * d;
        break;
      case GClass::kExponentialDiff:
      case GClass::kSixExponentialDiff:
        scale = d * std::log(1.0 + p * kEMinusOne);
        break;
      case GClass::kThresholdAccepting:
        // Y is a delta threshold; sweep it across the typical-delta scale
        // so the target fraction of uphill moves clears it.
        scale = 2.0 * p * d;
        break;
      case GClass::kGOne:
      case GClass::kTwoLevel:
      case GClass::kCohoonSahni:
        scale = 1.0;  // unreachable: filtered above
        break;
    }
    out.push_back(scale);
  }
  return out;
}

TuneResult tune_scale(GClass cls, const ProblemFactory& factory,
                      const TunerOptions& options) {
  if (!factory) throw std::invalid_argument("tune_scale: null factory");
  if (options.num_instances == 0) {
    throw std::invalid_argument("tune_scale: need at least one instance");
  }
  if (options.num_threads == 0) {
    throw std::invalid_argument("tune_scale: num_threads must be >= 1");
  }

  const std::vector<double> candidates =
      !options.candidates.empty()
          ? options.candidates
          : default_candidate_scales(cls, options.typical_cost,
                                     options.typical_delta);
  std::vector<std::unique_ptr<GFunction>> gs;
  gs.reserve(candidates.size());
  for (const double scale : candidates) {
    GParams params;
    params.scale = scale;
    params.ratio = options.ratio;
    gs.push_back(make_g(cls, params));
  }

  // Job j scores candidate j / n on instance j % n into its own slot.
  const std::size_t n = options.num_instances;
  std::vector<double> reductions(candidates.size() * n, 0.0);
  drain_indices(reductions.size(), options.num_threads,
                [&](std::size_t job, std::uint64_t /*worker*/) {
                  const std::size_t i = job % n;
                  auto problem = factory(i);
                  // Common random numbers across candidates: the move
                  // stream depends on the instance only, so candidates are
                  // compared like-for-like.
                  util::Rng rng{util::derive_seed(options.seed, i)};
                  Figure1Options fig1;
                  fig1.budget = options.budget;
                  reductions[job] =
                      run_figure1(*problem, *gs[job / n], fig1, rng)
                          .reduction();
                });

  TuneResult result;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    double total_reduction = 0.0;
    for (std::size_t i = 0; i < n; ++i) total_reduction += reductions[c * n + i];
    result.scores.emplace_back(candidates[c], total_reduction);
    if (c == 0 || total_reduction > result.best_total_reduction) {
      result.best_scale = candidates[c];
      result.best_total_reduction = total_reduction;
    }
  }
  return result;
}

}  // namespace mcopt::core
