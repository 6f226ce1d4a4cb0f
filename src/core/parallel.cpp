#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/invariant.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::core {

namespace {

/// Everything one restart produces: the run itself plus the final solution,
/// so the reducer can leave the caller's problem in the sequential loop's
/// end state, plus the restart's buffered trace events (drained into the
/// caller's sink in index order).
struct StartResult {
  RunResult run;
  Snapshot final_state;
  std::vector<obs::Event> events;
};

/// Executes restart `index` with `slice` ticks on `problem` — one iteration
/// of the sequential multistart() loop, including the between-restart deep
/// verification.  Deterministic given (index, slice, start state); the
/// recorder adds only the (worker, steal) stamps, which are excluded from
/// the determinism contract (obs/event.hpp).
StartResult run_start(Problem& problem, const Runner& runner,
                      const Snapshot& initial_state, bool randomize,
                      std::uint64_t master, std::uint64_t index,
                      std::uint64_t slice, const obs::Recorder& root,
                      std::uint64_t worker, bool steal) {
  util::Rng rng = util::Rng::split(master, index);
  if (randomize) {
    problem.randomize(rng);
  } else {
    problem.restore(initial_state);
  }
  StartResult out;
  // Buffer this restart's events privately; each shard has exactly one
  // writer (this thread), so no sink is ever shared across threads.
  obs::VectorSink shard;
  obs::Recorder rec =
      root.for_restart(index, worker, root.tracing() ? &shard : nullptr);
  if (rec.on()) {
    if (steal) rec.worker_steal();
    rec.restart_begin(problem.cost());
  }
  out.run = runner(problem, slice, rng, rec);
  // Scheduler observation, not simulation state: like the `worker` stamp on
  // events, worker_steals is excluded from the determinism contract.
  if (steal && out.run.metrics.collected) out.run.metrics.worker_steals = 1;
  if constexpr (util::kInvariantsEnabled) {
    problem.check_invariants();
  }
  problem.snapshot_into(out.final_state);
  out.events = shard.take();
  return out;
}

/// Shared speculation state.  Workers claim restart indices below `limit`
/// (and within `window` of the reducer) and deliver full-slice results;
/// the reducing thread consumes them in index order.  Every field is
/// guarded by `mu`; the thread-safety build rejects any unlocked touch.
/// The mutex, each condvar, and the guarded data sit on their own cache
/// lines so a worker spinning through wait/notify on one primitive never
/// bounces the line holding another.
struct SpeculationQueue {
  alignas(64) util::Mutex mu;
  alignas(64) util::CondVar work_cv;   // workers: more indices / shutdown
  alignas(64) util::CondVar ready_cv;  // reducer: a result arrived
  alignas(64) std::map<std::uint64_t, StartResult> ready GUARDED_BY(mu);
  std::uint64_t next_index GUARDED_BY(mu) = 0;  // next claimable index
  std::uint64_t consumed GUARDED_BY(mu) = 0;    // next index to fold
  std::uint64_t limit GUARDED_BY(mu) = 0;       // < limit: full-slice starts
  std::uint64_t window GUARDED_BY(mu) = 0;      // claim < consumed + window
  std::uint64_t peak_ready GUARDED_BY(mu) = 0;  // high-water mark of `ready`
  bool shutdown GUARDED_BY(mu) = false;

  /// Is there an index a worker may claim right now?
  [[nodiscard]] bool claimable_locked() const REQUIRES(mu) {
    return next_index < limit && next_index < consumed + window;
  }
};

/// Per-worker slot, one cache line each: a worker's hot bookkeeping never
/// false-shares with a neighbouring worker's.  `starts` is written only by
/// the owning worker while it runs and read only after join().
struct alignas(64) WorkerSlot {
  Problem* problem = nullptr;
  std::uint64_t id = 0;      // 1-based (0 = the calling/reducing thread)
  std::uint64_t starts = 0;  // restarts this worker completed
};

}  // namespace

MultistartResult parallel_multistart(Problem& problem, const Runner& runner,
                                     const ParallelMultistartOptions& options,
                                     util::Rng& rng) {
  const MultistartOptions& opts = options.multistart;
  if (!runner) throw std::invalid_argument("parallel_multistart: null runner");
  if (opts.budget_per_start == 0) {
    throw std::invalid_argument(
        "parallel_multistart: budget_per_start must be >= 1");
  }
  if (opts.budget_per_start > opts.total_budget) {
    throw std::invalid_argument(
        "parallel_multistart: budget_per_start exceeds total_budget");
  }
  if (options.num_threads == 0) {
    throw std::invalid_argument("parallel_multistart: num_threads must be >= 1");
  }

  // Clone in the calling thread, before any worker exists, so clone() never
  // races with a mutating run.
  std::vector<std::unique_ptr<Problem>> clones;
  clones.reserve(options.num_threads);
  for (unsigned t = 0; t < options.num_threads; ++t) {
    auto clone = problem.clone();
    if (!clone) {
      throw std::invalid_argument(
          "parallel_multistart: Problem::clone() returned nullptr");
    }
    clones.push_back(std::move(clone));
  }

  const std::uint64_t master = rng.next();  // same single draw as multistart()
  const Snapshot initial_state = problem.snapshot();
  const std::uint64_t per_start = opts.budget_per_start;
  const std::uint64_t total = opts.total_budget;
  const obs::Recorder root =
      opts.recorder != nullptr ? *opts.recorder : obs::Recorder{};

  SpeculationQueue queue;
  {
    // No worker exists yet, but the guarded fields are only writable with
    // the capability held — the analysis does not model "before spawn".
    util::MutexLock lock{queue.mu};
    queue.limit = total / per_start;
    queue.window = 4ULL * options.num_threads + 4;
  }

  std::vector<WorkerSlot> slots(options.num_threads);
  for (unsigned t = 0; t < options.num_threads; ++t) {
    slots[t].problem = clones[t].get();
    slots[t].id = static_cast<std::uint64_t>(t) + 1;
  }

  auto worker = [&](WorkerSlot& slot) {
    while (true) {
      std::uint64_t index;
      {
        util::MutexLock lock{queue.mu};
        while (!queue.shutdown && !queue.claimable_locked()) {
          queue.work_cv.wait(queue.mu);
        }
        if (queue.shutdown) return;
        index = queue.next_index++;
      }
      StartResult result =
          run_start(*slot.problem, runner, initial_state,
                    index > 0 || opts.randomize_first, master, index,
                    per_start, root, slot.id, /*steal=*/true);
      ++slot.starts;
      {
        util::MutexLock lock{queue.mu};
        queue.ready.emplace(index, std::move(result));
        if (queue.ready.size() > queue.peak_ready) {
          queue.peak_ready = queue.ready.size();
        }
      }
      queue.ready_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(options.num_threads);
  for (unsigned t = 0; t < options.num_threads; ++t) {
    pool.emplace_back(worker, std::ref(slots[t]));
  }

  // Index-ordered reduction: the exact bookkeeping of the sequential loop.
  // Ready results are drained in batches — one critical section pulls every
  // consecutive speculative result the workers have delivered, and the
  // folds themselves run lock-free on the local batch — so reducer/worker
  // lock traffic is O(batches), not O(restarts).
  MultistartResult out;
  Snapshot last_final_state = initial_state;
  std::uint64_t spent = 0;
  std::uint64_t index = 0;
  std::vector<std::pair<std::uint64_t, StartResult>> batch;
  std::size_t batch_cursor = 0;
  while (spent < total) {
    const std::uint64_t slice = std::min(per_start, total - spent);
    StartResult start;
    if (slice == per_start) {
      if (batch_cursor < batch.size() && batch[batch_cursor].first == index) {
        start = std::move(batch[batch_cursor].second);
        ++batch_cursor;
      } else {
        // Every full-slice index is below queue.limit (the limit is
        // re-derived from `spent` after each batch), so a worker claims it
        // eventually: wait for it, then drain every consecutive ready
        // result in the same critical section.
        batch.clear();
        batch_cursor = 0;
        util::MutexLock lock{queue.mu};
        while (queue.ready.count(index) == 0) queue.ready_cv.wait(queue.mu);
        auto it = queue.ready.find(index);
        std::uint64_t expect = index;
        while (it != queue.ready.end() && it->first == expect) {
          batch.emplace_back(expect, std::move(it->second));
          it = queue.ready.erase(it);
          ++expect;
        }
        start = std::move(batch.front().second);
        batch_cursor = 1;
      }
    } else {
      // The remainder slice: the full-slice speculation (if any) used the
      // wrong budget, so run this index here with the sequentially-correct
      // slice.  Streams are index-keyed, so this reproduces exactly what
      // the sequential loop would have done.  Any batched results are
      // stale too: once the budget enters the remainder, every later slice
      // is a (shrinking) remainder as well.
      batch.clear();
      batch_cursor = 0;
      start = run_start(problem, runner, initial_state,
                        index > 0 || opts.randomize_first, master, index,
                        slice, root, /*worker=*/0, /*steal=*/false);
    }

    // Drain the restart's shard into the caller's sink — only here, on the
    // reducing thread, strictly in index order, so the stream matches the
    // sequential loop event for event (worker stamps aside).
    if (obs::TraceSink* sink = root.sink()) {
      for (const obs::Event& event : start.events) sink->write(event);
    }
    obs::Recorder fold_rec = root.for_restart(index, 0, nullptr);

    spent += std::max<std::uint64_t>(start.run.ticks, 1);
    if constexpr (util::kInvariantsEnabled) {
      ++out.aggregate.invariants.executed;
    }
    fold_restart(out, std::move(start.run), fold_rec);
    last_final_state = std::move(start.final_state);
    ++index;

    // Underspending restarts extend the horizon of guaranteed full-slice
    // starts; let the workers speculate into it.  Published once per
    // drained batch (the mid-batch values are never observable to a
    // claim that matters: the window only throttles speculation depth).
    if (batch_cursor >= batch.size()) {
      {
        util::MutexLock lock{queue.mu};
        queue.consumed = index;
        const std::uint64_t guaranteed =
            index + (total > spent ? (total - spent) / per_start : 0);
        queue.limit = std::max(queue.limit, guaranteed);
      }
      queue.work_cv.notify_all();
    }
  }

  {
    util::MutexLock lock{queue.mu};
    queue.shutdown = true;
  }
  queue.work_cv.notify_all();
  for (auto& thread : pool) thread.join();
  std::uint64_t peak_ready = 0;
  {
    // All workers are joined; the lock is for the analysis' benefit (and
    // the acquire ordering it implies costs nothing here).
    util::MutexLock lock{queue.mu};
    peak_ready = queue.peak_ready;
  }
  if (out.aggregate.metrics.collected) {
    out.aggregate.metrics.restarts = out.restarts;
    if (peak_ready > out.aggregate.metrics.queue_peak) {
      out.aggregate.metrics.queue_peak = peak_ready;
    }
    if (!out.aggregate.metrics.profile.empty()) {
      // Same root name as the sequential multistart(), so the deterministic
      // tree export is byte-identical across engines and thread counts.
      out.aggregate.metrics.profile.nest_under("multistart", out.restarts,
                                               out.aggregate.ticks);
    }
  }

  // Leave the caller's problem where the sequential loop would have: at the
  // last restart's final solution.
  problem.restore(last_final_state);
  return out;
}

void drain_indices(std::size_t num_jobs, unsigned num_threads,
                   const IndexJob& job) {
  if (num_threads == 0) {
    throw std::invalid_argument("drain_indices: num_threads must be >= 1");
  }
  if (!job) throw std::invalid_argument("drain_indices: empty job");
  if (num_threads == 1 || num_jobs <= 1) {
    for (std::size_t index = 0; index < num_jobs; ++index) job(index, 0);
    return;
  }

  // A worker's failure, written only by that worker and read after the
  // join.
  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  const std::size_t spawn = std::min<std::size_t>(num_threads, num_jobs);
  std::vector<Failure> failures(spawn);
  // Lock-free claim counter and stop flag: they only schedule indices;
  // every result lands in a caller-owned per-index slot.
  std::atomic<std::size_t> next{0};  // mcopt-lint: allow(raw-atomic) -- claim counter
  std::atomic<bool> stop{false};  // mcopt-lint: allow(raw-atomic) -- stop flag
  auto drain = [&](std::uint64_t worker) {
    for (std::size_t index = next.fetch_add(1);
         index < num_jobs && !stop.load(); index = next.fetch_add(1)) {
      try {
        job(index, worker);
      } catch (...) {
        failures[worker - 1] = {index, std::current_exception()};
        stop.store(true);
        return;
      }
    }
  };
  {
    // jthreads join on scope exit, also when a later spawn throws.
    std::vector<std::jthread> pool;
    pool.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t) {
      pool.emplace_back(drain, static_cast<std::uint64_t>(t) + 1);
    }
  }
  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first->error) std::rethrow_exception(first->error);
}

}  // namespace mcopt::core
