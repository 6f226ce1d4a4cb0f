#include "core/tempering.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "core/chain.hpp"
#include "core/schedule.hpp"
#include "util/budget.hpp"

namespace mcopt::core {

TemperingResult parallel_tempering(
    const std::function<std::unique_ptr<Problem>(std::size_t)>& make_replica,
    const TemperingOptions& options, util::Rng& rng) {
  if (!make_replica) {
    throw std::invalid_argument("parallel_tempering: null replica factory");
  }
  if (options.sweep == 0) {
    throw std::invalid_argument("parallel_tempering: sweep must be >= 1");
  }
  const std::vector<double> ys = validated_schedule(options.temperatures);
  const std::size_t num_replicas = ys.size();

  std::vector<std::unique_ptr<Problem>> replicas(num_replicas);
  std::vector<double> h(num_replicas);
  for (std::size_t r = 0; r < num_replicas; ++r) {
    replicas[r] = make_replica(r);
    if (!replicas[r]) {
      throw std::invalid_argument("parallel_tempering: factory returned null");
    }
    h[r] = replicas[r]->cost();
  }

  const auto best_replica = static_cast<std::size_t>(
      std::min_element(h.begin(), h.end()) - h.begin());
  // Replicas interleave on one thread, so events carry the replica index in
  // `stage` and per-stage wall time stays unsplit (see TemperingOptions).
  Chain chain{*replicas[best_replica], options.recorder, options.budget,
              "tempering", num_replicas, /*stage_walls=*/false};
  chain.result().temperatures_visited = static_cast<unsigned>(num_replicas);
  obs::Recorder& rec = chain.recorder();
  for (std::size_t r = 0; r < num_replicas; ++r) {
    // Each replica IS a temperature level; declare Y_r for specific heat.
    rec.stage_temperature(static_cast<std::uint32_t>(r), ys[r]);
    rec.stage_begin(static_cast<std::uint32_t>(r), 0, h[r], chain.best(),
                    obs::StageReason::kStart);
  }

  util::WorkBudget& budget = chain.budget();
  TemperingResult out;
  std::uint64_t cycles = 0;
  while (!budget.exhausted()) {
    // One proposal per replica, hottest to coldest.
    {
      obs::ProfileScope sweep_scope{rec, "sweep"};
      for (std::size_t r = 0; r < num_replicas && !budget.exhausted(); ++r) {
        const auto stage = static_cast<std::uint32_t>(r);
        const Move move = chain.propose(*replicas[r], rng, stage, h[r]);
        sweep_scope.add_ticks(1);
        if (move.delta <= 0.0 ||
            rng.next_double() < std::exp(-move.delta / ys[r])) {
          chain.commit(*replicas[r], stage, move);
          h[r] = move.cost;
        } else {
          chain.reject(*replicas[r], stage, move);
        }
      }
    }

    if (++cycles % options.sweep != 0) continue;

    // Periodic deep verification of every replica (between proposals, so
    // nothing is pending and no randomness is consumed).
    if (chain.invariant_check_due(options.invariant_check_interval)) {
      for (const auto& replica : replicas) chain.check_invariants(*replica);
    }

    // Swap phase: adjacent pairs, alternating parity per phase so every
    // boundary is exercised.
    obs::ProfileScope swap_scope{rec, "swap"};
    const std::size_t start = (cycles / options.sweep) % 2;
    for (std::size_t r = start; r + 1 < num_replicas; r += 2) {
      ++out.swap_attempts;
      const double exponent =
          (h[r] - h[r + 1]) * (1.0 / ys[r + 1] - 1.0 / ys[r]);
      if (exponent >= 0.0 || rng.next_double() < std::exp(exponent)) {
        const Snapshot cold = replicas[r + 1]->snapshot();
        replicas[r + 1]->restore(replicas[r]->snapshot());
        replicas[r]->restore(cold);
        std::swap(h[r], h[r + 1]);
        ++out.swap_accepts;
      }
    }
  }

  out.aggregate = chain.finish(*std::min_element(h.begin(), h.end()));
  return out;
}

}  // namespace mcopt::core
