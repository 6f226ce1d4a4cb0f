// Proposal hot-loop throughput of the speculative evaluation path.
//
// propose() scores a move into per-move scratch without committing;
// accept() commits it in O(touched nets) and reject() only clears the
// scratch.  This driver prices that step on two workloads:
//
//  1. A stripped Metropolis kernel with a *fixed* uphill-accept
//     probability, swept from always-reject to always-accept, so
//     throughput is measured as a function of acceptance rate.  The
//     kernel owns its acceptance draws and streams them from
//     Rng::next_block in 256-word blocks; pair draws stay inside
//     propose().
//  2. The hand-stripped Figure 1 loop (bench/figure1_stripped.hpp) — the
//     committed baseline the observability benches time.
//
// Every rep of a workload must reproduce the first rep exactly (final
// cost, accept count, final arrangement), and an 8-thread parallel
// multistart over clones must match the 1-thread run, or the driver
// fails.
//
// Results land in BENCH_hotloop.json via bench::write_json_report and are
// gated against the committed baseline by tools/bench_compare.py: the
// throughput fields ride its perf band, and each config's accepts and
// final cost plus Figure 1's best cost and accepts are exact fields, so
// the baseline pins the trajectories from one commit to the next.  Derived
// hardware-counter fields (IPC, cache-miss rate, cycles per proposal) are
// written only when the counters they are computed from opened.
//
// Flags: --proposals N    proposals per timed run (default 400'000)
//        --reps N         timed repetitions per config, best-of (default 3)
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "core/problem.hpp"
#include "figure1_stripped.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/log.hpp"
#include "obs/perfcount.hpp"
#include "obs/profiler.hpp"
#include "util/args.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// What one kernel run produces; every rep must reproduce it exactly.
struct KernelResult {
  double final_cost = 0.0;
  std::uint64_t accepts = 0;
  core::Snapshot final_state;

  [[nodiscard]] bool operator==(const KernelResult& o) const {
    return final_cost == o.final_cost && accepts == o.accepts &&
           final_state == o.final_state;
  }
};

/// Fixed-acceptance Metropolis kernel: downhill moves always accepted,
/// uphill/flat moves accepted with probability `p_uphill` drawn from a
/// dedicated stream via next_block (bit-identical to per-call next(), but
/// the generator state stays in registers for 256 draws at a time).
KernelResult run_kernel(core::Problem& problem, std::uint64_t proposals,
                        double p_uphill, util::Rng& move_rng,
                        util::Rng& accept_rng) {
  constexpr std::size_t kBlock = 256;
  std::uint64_t block[kBlock];
  std::size_t cursor = kBlock;
  KernelResult out;
  double h_i = problem.cost();
  for (std::uint64_t t = 0; t < proposals; ++t) {
    const double h_j = problem.propose(move_rng);
    bool take = h_j < h_i;
    if (!take) {
      if (cursor == kBlock) {
        accept_rng.next_block(block, kBlock);
        cursor = 0;
      }
      const double u =
          static_cast<double>(block[cursor++] >> 11) * 0x1.0p-53;
      take = u < p_uphill;
    }
    if (take) {
      problem.accept();
      h_i = h_j;
      ++out.accepts;
    } else {
      problem.reject();
    }
  }
  out.final_cost = problem.cost();
  problem.snapshot_into(out.final_state);
  return out;
}

struct Instance {
  const char* label;
  std::size_t cells;
  netlist::Netlist nl;
};

/// One acceptance-swept row, timed best-of-reps.
struct KernelRow {
  std::string name;
  KernelResult result;
  double proposals_per_sec = 0.0;
  /// Hardware counts of the fastest rep (zero when counters are
  /// unavailable).
  obs::PerfCounts perf;
};

/// Counter deltas around one timed region; zeros when unavailable.
class ScopedPerfSample {
 public:
  explicit ScopedPerfSample(const obs::PerfCounterGroup& group)
      : group_(group), live_(group.read(&begin_)) {}
  [[nodiscard]] obs::PerfCounts finish() const {
    obs::PerfCounts end;
    if (!live_ || !group_.read(&end)) return obs::PerfCounts{};
    return obs::perf_delta(begin_, end);
  }

 private:
  const obs::PerfCounterGroup& group_;
  obs::PerfCounts begin_;
  bool live_;
};

/// The informational derived-counter JSON fields bench_compare.py never
/// gates, each as `<sep>"<prefix><name>": value`.  A field is written only
/// when every counter it is computed from opened, so a PMU-less host
/// commits no zeros that would read as measurements.
std::string perf_fields(const char* prefix, const obs::PerfCounts& counts,
                        std::uint64_t proposals,
                        const std::vector<obs::PerfCounter>& active,
                        const char* sep) {
  auto opened = [&active](obs::PerfCounter which) {
    return std::find(active.begin(), active.end(), which) != active.end();
  };
  std::string out;
  char buf[128];
  const bool cycles = opened(obs::PerfCounter::kCycles);
  if (cycles && opened(obs::PerfCounter::kInstructions)) {
    std::snprintf(buf, sizeof buf, "%s\"%sipc\": %.4f", sep, prefix,
                  obs::perf_ipc(counts));
    out += buf;
  }
  if (opened(obs::PerfCounter::kCacheReferences) &&
      opened(obs::PerfCounter::kCacheMisses)) {
    std::snprintf(buf, sizeof buf, "%s\"%scache_miss_rate\": %.4f", sep,
                  prefix, obs::perf_cache_miss_rate(counts));
    out += buf;
  }
  if (cycles && proposals > 0) {
    std::snprintf(buf, sizeof buf, "%s\"%scycles_per_proposal\": %.1f", sep,
                  prefix,
                  static_cast<double>(counts.cycles) /
                      static_cast<double>(proposals));
    out += buf;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args{argc, argv};
  const auto unknown = args.unknown_flags({"proposals", "reps"});
  if (!unknown.empty() || !args.positional().empty()) {
    obs::log(obs::LogLevel::kError, "usage: %s [--proposals N] [--reps N]",
             args.program().c_str());
    return 2;
  }
  const long long proposals_flag = args.get_int("proposals", 400'000);
  const long long reps_flag = args.get_int("reps", 3);
  if (proposals_flag < 1 || reps_flag < 1) {
    obs::log(obs::LogLevel::kError, "%s: flags must be positive",
             args.program().c_str());
    return 2;
  }
  const auto proposals = static_cast<std::uint64_t>(proposals_flag);
  const auto reps = static_cast<std::size_t>(reps_flag);

  bench::print_header(
      "Proposal hot-loop throughput (speculative evaluation)",
      "fixed-acceptance Metropolis kernel + stripped Figure 1; best-of-reps; "
      "every rep and the t1/t8 multistart must agree exactly");

  util::Rng gen_small{util::derive_seed(bench::kSeed, 15)};
  util::Rng gen_large{util::derive_seed(bench::kSeed, 60)};
  std::vector<Instance> instances;
  instances.push_back(
      {"15/150", 15,
       netlist::random_gola(netlist::GolaParams{15, 150}, gen_small)});
  instances.push_back(
      {"60/600", 60,
       netlist::random_gola(netlist::GolaParams{60, 600}, gen_large)});

  auto make_problem = [&](const Instance& inst) {
    util::Rng start_rng{util::derive_seed(bench::kSeed + 3, inst.cells)};
    return linarr::LinArrProblem{
        inst.nl, linarr::Arrangement::random(inst.cells, start_rng)};
  };

  // Hardware counters for the timed regions, where the platform allows
  // self-monitoring; only the derived fields whose inputs opened are
  // written.
  const obs::PerfCounterGroup perf{obs::all_perf_counters()};
  const std::vector<obs::PerfCounter> active = perf.active_counters();
  if (!perf.available()) {
    obs::log(obs::LogLevel::kInfo, "perf counters unavailable: %s",
             perf.unavailable_reason().c_str());
  }

  bool trajectory_identical = true;
  const std::vector<double> sweep{0.0, 0.05, 0.5, 1.0};
  std::vector<KernelRow> rows;
  for (const Instance& inst : instances) {
    for (const double p_uphill : sweep) {
      KernelRow row;
      char name_buf[64];
      std::snprintf(name_buf, sizeof name_buf, "kernel %s p_up=%.2f",
                    inst.label, p_uphill);
      row.name = name_buf;

      double best = 1e300;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        auto problem = make_problem(inst);
        util::Rng move_rng = util::Rng::split(bench::kSeed + 9, inst.cells);
        util::Rng accept_rng = util::Rng::split(bench::kSeed + 11, inst.cells);
        const ScopedPerfSample sample{perf};
        util::Stopwatch watch;
        const KernelResult result =
            run_kernel(problem, proposals, p_uphill, move_rng, accept_rng);
        const double seconds = watch.seconds();
        const obs::PerfCounts counts = sample.finish();
        if (rep == 0) {
          row.result = result;
        } else if (!(result == row.result)) {
          obs::log(obs::LogLevel::kError,
                   "FATAL: '%s' diverged between reps (determinism "
                   "violation)",
                   row.name.c_str());
          trajectory_identical = false;
        }
        if (seconds < best) row.perf = counts;
        best = std::min(best, seconds);
      }
      row.proposals_per_sec = static_cast<double>(proposals) / best;
      rows.push_back(row);
    }
  }

  // Stripped Figure 1: the committed baseline loop.
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);
  core::Figure1Options fig_options;
  fig_options.budget = proposals;
  core::RunResult fig_result;
  double fig_best = 1e300;
  obs::PerfCounts fig_perf;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto problem = make_problem(instances[0]);
    util::Rng rng{bench::kSeed + 9};
    const ScopedPerfSample sample{perf};
    util::Stopwatch watch;
    const core::RunResult result =
        bench::run_figure1_stripped(problem, *g, fig_options, rng);
    const double seconds = watch.seconds();
    const obs::PerfCounts counts = sample.finish();
    if (rep == 0) {
      fig_result = result;
    } else if (!bench::stripped_results_match(fig_result, result)) {
      obs::log(obs::LogLevel::kError,
               "FATAL: stripped Figure 1 diverged between reps "
               "(determinism violation)");
      trajectory_identical = false;
    }
    if (seconds < fig_best) fig_perf = counts;
    fig_best = std::min(fig_best, seconds);
  }
  const double fig_acceptance = static_cast<double>(fig_result.accepts) /
                                static_cast<double>(fig_result.proposals);
  const double fig_proposals_per_sec =
      static_cast<double>(fig_result.proposals) / fig_best;

  // Parallel determinism: clones across 8 workers must match the 1-thread
  // run exactly.
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  const std::uint64_t ms_budget = std::min<std::uint64_t>(proposals, 200'000);
  auto run_multistart = [&](unsigned threads) {
    auto problem = make_problem(instances[0]);
    core::ParallelMultistartOptions options;
    options.multistart.total_budget = ms_budget;
    options.multistart.budget_per_start =
        ms_budget / 50 == 0 ? 1 : ms_budget / 50;
    options.num_threads = threads;
    util::Rng rng{bench::kSeed + 21};
    return core::parallel_multistart(problem, runner, options, rng);
  };
  const auto t1 = run_multistart(1);
  const auto t8 = run_multistart(8);
  const bool parallel_identical =
      t1.restarts == t8.restarts &&
      t1.restart_best_costs == t8.restart_best_costs &&
      t1.aggregate.best_cost == t8.aggregate.best_cost &&
      t1.aggregate.final_cost == t8.aggregate.final_cost &&
      t1.aggregate.best_state == t8.aggregate.best_state &&
      t1.aggregate.proposals == t8.aggregate.proposals &&
      t1.aggregate.accepts == t8.aggregate.accepts;
  if (!parallel_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: parallel multistart diverged between 1 and 8 threads "
             "(determinism violation)");
  }

  util::Table table;
  table.add_column("config", util::Table::Align::kLeft);
  table.add_column("accept rate");
  table.add_column("accepts");
  table.add_column("final cost");
  table.add_column("prop/s");
  for (const KernelRow& row : rows) {
    table.begin_row();
    table.cell(row.name);
    table.cell(static_cast<double>(row.result.accepts) /
                   static_cast<double>(proposals),
               4);
    table.cell(static_cast<unsigned long long>(row.result.accepts));
    table.cell(row.result.final_cost, 0);
    table.cell(row.proposals_per_sec, 0);
  }
  table.begin_row();
  table.cell("figure1 stripped 15/150");
  table.cell(fig_acceptance, 4);
  table.cell(static_cast<unsigned long long>(fig_result.accepts));
  table.cell(fig_result.final_cost, 0);
  table.cell(fig_proposals_per_sec, 0);
  table.print();

  std::string counter_names;
  for (const obs::PerfCounter which : active) {
    if (!counter_names.empty()) counter_names += ',';
    counter_names += obs::perf_counter_name(which);
  }
  std::string json = "{\n  \"bench\": \"hotloop\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += "  \"proposals\": " + std::to_string(proposals) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(bench::hardware_threads()) + ",\n";
  // Host facts, informational: which counters opened, or why none did.
  json += "  \"perf_active_counters\": \"" + counter_names + "\",\n";
  json += "  \"perf_unavailable_reason\": \"" + perf.unavailable_reason() +
          "\",\n";
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "  \"figure1_acceptance_rate\": %.4f,\n"
                "  \"figure1_proposals_per_sec\": %.1f,\n"
                "  \"figure1_best_cost\": %.17g,\n"
                "  \"figure1_accepts\": %llu",
                fig_acceptance, fig_proposals_per_sec, fig_result.best_cost,
                static_cast<unsigned long long>(fig_result.accepts));
  json += buf;
  json += perf_fields("figure1_", fig_perf, fig_result.proposals, active,
                      ",\n  ");
  json += ",\n";
  json += std::string{"  \"trajectory_identical\": "} +
          (trajectory_identical ? "true" : "false") + ",\n";
  json += std::string{"  \"parallel_identical\": "} +
          (parallel_identical ? "true" : "false") + ",\n";
  json += "  \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"acceptance_rate\": %.4f, "
                  "\"accepts\": %llu, \"final_cost\": %.17g, "
                  "\"proposals_per_sec\": %.1f",
                  row.name.c_str(),
                  static_cast<double>(row.result.accepts) /
                      static_cast<double>(proposals),
                  static_cast<unsigned long long>(row.result.accepts),
                  row.result.final_cost, row.proposals_per_sec);
    json += buf;
    json += perf_fields("", row.perf, proposals, active, ", ");
    json += std::string{"}"} + (i + 1 < rows.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  bench::write_json_report("BENCH_hotloop", json);

  const bool identical = trajectory_identical && parallel_identical;
  std::printf(
      "\nFigure 1 stripped: %.0f proposals/s at %.1f%% acceptance.\n"
      "Rep/thread determinism: %s.\n",
      fig_proposals_per_sec, 100.0 * fig_acceptance,
      identical ? "bit-identical" : "MISMATCH");
  return identical ? 0 : 1;
}
