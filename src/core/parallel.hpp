// Parallel multistart: the restarts of core::multistart() executed across a
// fixed-size worker pool, bit-identical to the sequential loop.
//
// Restarts are embarrassingly parallel — each one randomizes, runs, and only
// its RunResult matters — so they are the natural unit for scaling the
// paper's equal-time protocol to multicore hardware.  Determinism is the
// hard constraint: every reproduced table is pinned to a seed, so the
// parallel engine must return *exactly* what the sequential loop returns,
// for any thread count and any OS scheduling.  Three mechanisms deliver
// that:
//
//   1. Stream-per-restart RNG.  multistart() derives one master value from
//      the caller's rng and gives restart i the stream
//      util::Rng::split(master, i) (a SplitMix-style derivation).  A
//      restart's randomness is a pure function of its index.
//   2. Clone-per-worker problems.  Each worker owns a deep copy obtained
//      from Problem::clone(); no mutable state is shared between threads.
//   3. Index-ordered reduction.  Workers speculate on restart indices from
//      a shared counter, but the caller folds the per-start RunResults into
//      the aggregate strictly in index order, replaying the sequential
//      loop's bookkeeping (best tie-breaks, counter sums, final_cost,
//      invariant stats, tick accounting) operation for operation.
//
// The one sequential dependence is the budget: how many restarts fit, and
// the size of the final remainder slice, depend on the ticks earlier
// restarts consumed.  Runners almost always consume their full slice, so
// workers speculate full-slice runs; the reducer detects the rare restart
// whose sequential slice differs (the remainder, or after a runner
// over/under-spends) and re-runs exactly that index with the correct slice
// — speculation is a throughput optimization, never a semantics change.
//
// All cross-thread state lives in one util::Mutex-guarded speculation
// queue (util/sync.hpp) whose fields carry GUARDED_BY annotations; the
// `thread-safety` CMake preset makes any unlocked access a compile error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/multistart.hpp"
#include "core/problem.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

struct ParallelMultistartOptions {
  /// Budgets and restart policy, interpreted exactly as multistart() does.
  MultistartOptions multistart;
  /// Worker threads to spawn.  Must be >= 1; the result is independent of
  /// this value.  Oversubscribing the hardware is allowed (useful for
  /// determinism tests); it costs throughput, not correctness.
  unsigned num_threads = 1;
};

/// Runs the restarts of multistart() on `options.num_threads` workers and
/// returns a MultistartResult bit-identical to sequential multistart()
/// with the same problem state, runner, budgets, and rng state.  On return
/// `problem` holds the final solution of the last restart and the caller's
/// rng has advanced by exactly one output — both as in the sequential loop.
///
/// Requirements beyond multistart(): Problem::clone() must return a real
/// deep copy (non-null), and the runner must be safe to call concurrently
/// on distinct Problem instances (i.e. it touches nothing shared; the
/// library runners qualify).  Throws std::invalid_argument on a null
/// runner, zero budget_per_start, budget_per_start > total_budget, zero
/// num_threads, or a problem whose clone() returns nullptr.
[[nodiscard]] MultistartResult parallel_multistart(
    Problem& problem, const Runner& runner,
    const ParallelMultistartOptions& options, util::Rng& rng);

/// One job of a flat grid: `index` in [0, num_jobs), `worker` the id of the
/// thread running it (0 = the calling thread, pool workers are 1-based).
using IndexJob = std::function<void(std::size_t index, std::uint64_t worker)>;

/// The fork/join pool behind every flat job grid (the §4.2.1 tuning pass,
/// the bench table rows): calls `job` exactly once per index in
/// [0, num_jobs) and returns after the last call.  Workers claim indices
/// in ascending order from one shared counter.  Which worker runs an index
/// is scheduling, never semantics: jobs write per-index slots that the caller
/// reduces in index order afterwards, which keeps every result
/// bit-identical for any thread count.
///
/// With one thread or at most one job every call runs on the calling
/// thread with worker 0; otherwise min(num_threads, num_jobs) workers are
/// spawned with ids 1..n.  `job` is called concurrently and must only touch
/// per-index or read-only state.  If calls throw, no further indices are
/// handed out and, once every worker has joined, the exception of the
/// lowest failing index is rethrown.  Throws std::invalid_argument on
/// zero num_threads or an empty `job`.
void drain_indices(std::size_t num_jobs, unsigned num_threads,
                   const IndexJob& job);

}  // namespace mcopt::core
