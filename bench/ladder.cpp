// The Figure-1 ladder: what one perturb-and-test step costs, layer by layer.
//
// The paper's equal-budget comparison counts ticks, so the price of a tick
// is measured here, in one place.  Every row builds its problem from a
// factory, so one timing loop prices every substrate.  The GOLA netlists
// are derive_seed(kSeed, cells) with a fixed random start
// (derive_seed(kSeed + 3, cells)).  Rows, from the bare step up:
//
//  1. a fixed-acceptance Metropolis kernel: downhill moves are always
//     taken, the others with probability p_up in {0, 0.05, 0.5, 1}, so the
//     step is priced as a function of acceptance rate — on 15/150, 60/600
//     and 240/2400 netlists (240 cells is the size scaling_study and
//     perfbench's multistart_240 spend their time on).  At p_up = 0 it also
//     prices 240/2400 under single exchange (insert vs swap), and the first
//     instance and start of partition_compare (40 nodes / 120 edges) and of
//     tsp_compare (100 cities).  The kernel streams its acceptance draws
//     from Rng::next_block in 256-word blocks; pair draws stay inside
//     propose();
//  2. the hand-stripped Figure 1 loop (bench/figure1_stripped.hpp) on
//     15/150: six-temperature annealing, move rng seeded kSeed + 9;
//  3. core::run_figure1 with the recorder off;
//  4. metrics;
//  5. metrics + profiler;
//  6. ring trace 64k + metrics;
//  7. JSONL trace 1/64 + metrics;
//  8. Figure 1 multistart on 60/600 (100 restarts), sequential
//     (core::multistart) and on 4 threads (core::parallel_multistart).
//
// Rows 3-7 report their overhead against row 2, and the 4-thread
// multistart its speedup over the sequential one, as the median over reps
// of the per-rep time ratio: adjacent runs share machine conditions, so
// drift cancels out of the ratio, and the median shrugs off one noisy rep
// of either side.  Rep 0 is an untimed warmup of every row (first-touch
// allocation, i-cache, frequency ramp); the timed reps then interleave
// across rows so drift lands on all rows alike.
//
// Checks; each failure names itself and makes the run exit 1:
//  - every rep of a row reproduces its rep 0 (costs, counts, final state);
//  - every Figure 1 tier's RunResult matches the stripped loop's, and the
//    4-thread multistart's aggregate the sequential one's;
//  - an untraced 1-thread multistart (the sequential engine) and a traced,
//    metrics- and profile-collecting 8-thread parallel multistart on
//    15/150 agree in restarts, per-restart best costs and the aggregate,
//    and their deterministic registry JSON, Prometheus text and wall-free
//    profile exports are byte-identical once the traced run's own
//    trace-event count is set aside;
//  - the off-path overhead (row 3) stays below --gate-pct.
//
// Results land in BENCH_ladder.json, gated against the committed baseline
// by tools/bench_compare.py: accepts, final costs, Figure 1's best cost and
// the trace-event count are exact fields that pin the trajectories;
// seconds, proposals/s, overheads and the speedup ride its perf band.
// Derived hardware-counter fields (IPC, cache-miss rate, cycles per
// proposal) are written only when the counters they are computed from
// opened, and never for the 4-thread row, whose workers the calling
// thread's counters do not see.
//
// Flags: --budget T    ticks per timed run (default 400'000)
//        --reps N      timed repetitions per row (default 5)
//        --gate-pct P  largest allowed off-path overhead in percent
//                      (default 1.0, the recorder's <1% contract; resolving
//                      it takes a quiet machine, and a longer --budget such
//                      as 2'000'000 narrows the noise; CI passes 10 as a
//                      smoke check)
//        --run-dir DIR write DIR/BENCH_ladder.json instead of
//                      ./BENCH_ladder.json
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
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
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "partition/problem.hpp"
#include "tsp/instance.hpp"
#include "tsp/problem.hpp"
#include "tsp/tour.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// Fixed-acceptance Metropolis kernel: downhill moves always accepted,
/// uphill/flat moves accepted with probability `p_uphill` drawn from a
/// dedicated stream via next_block (bit-identical to per-call next(), but
/// the generator state stays in registers for 256 draws at a time).
core::RunResult run_kernel(core::Problem& problem, std::uint64_t proposals,
                           double p_uphill, util::Rng& move_rng,
                           util::Rng& accept_rng) {
  constexpr std::size_t kBlock = 256;
  std::uint64_t block[kBlock];
  std::size_t cursor = kBlock;
  core::RunResult out;
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
  out.proposals = proposals;
  out.final_cost = problem.cost();
  return out;
}

/// Builds a row's problem in its start state, outside the timed region.
using Factory = std::function<std::unique_ptr<core::Problem>()>;

/// `nl` from its fixed random start.
Factory gola_start(const netlist::Netlist& nl,
                   linarr::MoveKind kind =
                       linarr::MoveKind::kPairwiseInterchange) {
  return [&nl, kind] {
    util::Rng start_rng{util::derive_seed(bench::kSeed + 3, nl.num_cells())};
    return std::make_unique<linarr::LinArrProblem>(
        nl, linarr::Arrangement::random(nl.num_cells(), start_rng), kind);
  };
}

constexpr std::size_t kNoBase = ~std::size_t{0};

/// One ladder row.  `run` drives one fresh problem from `make` and returns
/// its result, leaving the problem in its final state.
struct Row {
  std::string name;
  Factory make;
  std::function<core::RunResult(core::Problem&)> run;
  /// The row whose result this one must reproduce and is priced against
  /// (rows 2-7: the stripped loop; the 4-thread multistart: the sequential
  /// one), reported as overhead_pct, or as speedup when `speedup` is set.
  std::size_t base = kNoBase;
  bool speedup = false;

  // Filled by the timing loop.
  core::RunResult result{};       ///< rep 0's, which every rep must reproduce
  core::Snapshot final_state{};   ///< rep 0's
  std::vector<double> seconds{};  ///< one per timed rep
  obs::PerfCounts perf{};         ///< counter deltas of the fastest rep
};

/// Kernel row `kernel <label> p_up=<p_uphill>`: move and acceptance streams
/// split off by `stream`.
Row kernel_row(const std::string& label, double p_uphill, std::uint64_t stream,
               Factory make, std::uint64_t budget) {
  char name[80];
  std::snprintf(name, sizeof name, "kernel %s p_up=%.2f", label.c_str(),
                p_uphill);
  auto run = [p_uphill, stream, budget](core::Problem& p) {
    util::Rng move_rng = util::Rng::split(bench::kSeed + 9, stream);
    util::Rng accept_rng = util::Rng::split(bench::kSeed + 11, stream);
    return run_kernel(p, budget, p_uphill, move_rng, accept_rng);
  };
  return {name, std::move(make), run};
}

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
/// gates, each as `, "<name>": value`.  A field is written only when every
/// counter it is computed from opened, so a PMU-less host commits no zeros
/// that would read as measurements.
std::string perf_fields(const obs::PerfCounts& counts, std::uint64_t proposals,
                        const std::vector<obs::PerfCounter>& active) {
  auto opened = [&active](obs::PerfCounter which) {
    return std::find(active.begin(), active.end(), which) != active.end();
  };
  std::string out;
  char buf[96];
  const bool cycles = opened(obs::PerfCounter::kCycles);
  if (cycles && opened(obs::PerfCounter::kInstructions)) {
    std::snprintf(buf, sizeof buf, ", \"ipc\": %.4f", obs::perf_ipc(counts));
    out += buf;
  }
  if (opened(obs::PerfCounter::kCacheReferences) &&
      opened(obs::PerfCounter::kCacheMisses)) {
    std::snprintf(buf, sizeof buf, ", \"cache_miss_rate\": %.4f",
                  obs::perf_cache_miss_rate(counts));
    out += buf;
  }
  if (cycles && proposals > 0) {
    std::snprintf(buf, sizeof buf, ", \"cycles_per_proposal\": %.1f",
                  static_cast<double>(counts.cycles) /
                      static_cast<double>(proposals));
    out += buf;
  }
  return out;
}

/// Median over reps of the per-rep time ratio `num` / `den`.
double median_ratio(const Row& num, const Row& den) {
  std::vector<double> ratios;
  for (std::size_t rep = 0; rep < num.seconds.size(); ++rep) {
    if (den.seconds[rep] > 0.0) {
      ratios.push_back(num.seconds[rep] / den.seconds[rep]);
    }
  }
  return util::median(ratios);
}

/// The deterministic exports compared across thread counts.
struct Exports {
  std::string registry_json;
  std::string prometheus;
  std::string profile_json;
  bool operator==(const Exports&) const = default;
};

Exports exports_of(const obs::RunMetrics& metrics) {
  obs::MetricsRegistry registry;
  registry.populate_from_run(metrics);
  return {registry.to_json(/*deterministic_only=*/true),
          registry.to_prometheus(/*deterministic_only=*/true),
          metrics.profile.to_json(/*include_wall=*/false)};
}

const char* json_bool(bool value) { return value ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  long long budget_flag = 400'000;
  long long reps_flag = 5;
  double gate_pct = 1.0;
  bench::parse_bench_flags(argc, argv,
                           {{"budget", &budget_flag}, {"reps", &reps_flag}},
                           {{"gate-pct", &gate_pct}});
  const auto budget = static_cast<std::uint64_t>(budget_flag);
  const auto reps = static_cast<std::size_t>(reps_flag);

  char gate_buf[32];
  std::snprintf(gate_buf, sizeof gate_buf, "%.2f", gate_pct);
  bench::print_header(
      "Figure-1 ladder — the cost of one step, kernel to recorder tiers",
      "GOLA 15/150 (kernel also 60/600, 240/2400, partition, TSP; "
      "multistart 60/600); warmup + interleaved reps; overhead and speedup "
      "= paired medians; off-path gate <" +
          std::string{gate_buf} + "%");

  util::Rng gen_small{util::derive_seed(bench::kSeed, 15)};
  util::Rng gen_large{util::derive_seed(bench::kSeed, 60)};
  util::Rng gen_xlarge{util::derive_seed(bench::kSeed, 240)};
  const auto small =
      netlist::random_gola(netlist::GolaParams{15, 150}, gen_small);
  const auto large =
      netlist::random_gola(netlist::GolaParams{60, 600}, gen_large);
  const auto xlarge =
      netlist::random_gola(netlist::GolaParams{240, 2400}, gen_xlarge);
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);

  // The recorder tiers; the sinks and recorders outlive every run.
  obs::RingBufferSink ring{65536};
  std::ostringstream jsonl_out;
  obs::JsonlFileSink jsonl{jsonl_out};
  const obs::Recorder metrics{nullptr, /*collect_metrics=*/true};
  const obs::Recorder profiled{nullptr, /*collect_metrics=*/true,
                               /*trace_sample=*/1, /*run=*/0,
                               /*collect_profile=*/true};
  const obs::Recorder ring_traced{&ring, /*collect_metrics=*/true};
  const obs::Recorder jsonl_sampled{&jsonl, /*collect_metrics=*/true,
                                    /*trace_sample=*/64};

  // The first instance and start of partition_compare and of
  // tsp_compare (its tuned annealing's tour).
  util::Rng gen_graph{util::derive_seed(bench::kSeed + 50, 1000 * 40)};
  const auto graph = netlist::random_graph(40, 120, gen_graph);
  util::Rng graph_start_rng = gen_graph.split();
  const auto sides =
      partition::PartitionState::random(graph, graph_start_rng).sides();
  util::Rng gen_cities{util::derive_seed(bench::kSeed + 40, 100 * 100)};
  const auto cities = tsp::TspInstance::random_euclidean(100, gen_cities);
  util::Rng tour_rng = gen_cities.split();
  const tsp::Order tour = tsp::random_order(cities.size(), tour_rng);

  std::vector<Row> rows;
  for (const netlist::Netlist* nl : {&small, &large, &xlarge}) {
    const std::string size =
        std::to_string(nl->num_cells()) + "/" + std::to_string(nl->num_nets());
    for (const double p_uphill : {0.0, 0.05, 0.5, 1.0}) {
      rows.push_back(kernel_row(size, p_uphill, nl->num_cells(),
                                gola_start(*nl), budget));
    }
  }
  // A single exchange shifts every cell in its window, so its step costs
  // some 20 swaps here: a sixteenth of the budget keeps the row's time near
  // its neighbours'.
  rows.push_back(
      kernel_row("240/2400 single-exchange", 0.0, xlarge.num_cells(),
                 gola_start(xlarge, linarr::MoveKind::kSingleExchange),
                 std::max<std::uint64_t>(1, budget / 16)));
  rows.push_back(kernel_row(
      "partition 40/120", 0.0, graph.num_cells(),
      [&graph, &sides] {
        return std::make_unique<partition::PartitionProblem>(
            partition::PartitionState{graph, sides});
      },
      budget));
  rows.push_back(kernel_row(
      "tsp 100", 0.0, cities.size(),
      [&cities, &tour] {
        return std::make_unique<tsp::TspProblem>(cities, tour);
      },
      budget));
  // Rows 2-7 share the budget and the move stream; only the loop and the
  // recorder differ.
  struct Tier {
    const char* name;
    const obs::Recorder* recorder;
    bool stripped = false;
  };
  const std::vector<Tier> tiers{
      {"figure1 stripped", nullptr, /*stripped=*/true},
      {"figure1 off", nullptr},
      {"figure1 metrics", &metrics},
      {"figure1 metrics + profiler", &profiled},
      {"figure1 ring 64k + metrics", &ring_traced},
      {"figure1 jsonl 1/64 + metrics", &jsonl_sampled},
  };
  const std::size_t stripped = rows.size();
  for (const Tier& tier : tiers) {
    auto run = [&g, budget, tier](core::Problem& p) {
      core::Figure1Options options;
      options.budget = budget;
      options.recorder = tier.recorder;
      util::Rng rng{bench::kSeed + 9};
      return tier.stripped ? bench::run_figure1_stripped(p, *g, options, rng)
                           : core::run_figure1(p, *g, options, rng);
    };
    rows.push_back({tier.name, gola_start(small), run, stripped});
  }
  // Row 8: the same multistart on one thread and on four.
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  core::MultistartOptions ms;
  ms.total_budget = budget;
  ms.budget_per_start = std::max<std::uint64_t>(1, budget / 100);
  const std::size_t sequential = rows.size();
  for (const unsigned threads : {1U, 4U}) {
    auto run = [&runner, ms, threads](core::Problem& p) {
      util::Rng rng{bench::kSeed + 4};
      if (threads == 1) return core::multistart(p, runner, ms, rng).aggregate;
      return core::parallel_multistart(p, runner, {ms, threads}, rng).aggregate;
    };
    rows.push_back({"multistart 60/600 t" + std::to_string(threads),
                    gola_start(large), run,
                    threads == 1 ? kNoBase : sequential, threads > 1});
  }

  // Hardware counters for the timed regions, where the platform allows
  // self-monitoring.
  const obs::PerfCounterGroup perf{obs::all_perf_counters()};
  const std::vector<obs::PerfCounter> active = perf.active_counters();
  if (!perf.available()) {
    obs::log(obs::LogLevel::kInfo, "perf counters unavailable: %s",
             perf.unavailable_reason().c_str());
  }

  bool trajectory_identical = true;
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    for (Row& row : rows) {
      const auto problem = row.make();
      const ScopedPerfSample sample{perf};
      util::Stopwatch watch;
      core::RunResult result = row.run(*problem);
      const double seconds = watch.seconds();
      const obs::PerfCounts counts = sample.finish();
      core::Snapshot state = problem->snapshot();
      if (rep == 0) {  // the untimed warmup is the reference
        row.result = std::move(result);
        row.final_state = std::move(state);
        continue;
      }
      if (!bench::stripped_results_match(row.result, result) ||
          !(state == row.final_state)) {
        obs::log(obs::LogLevel::kError,
                 "FATAL: '%s' diverged between reps (determinism violation)",
                 row.name.c_str());
        trajectory_identical = false;
      }
      if (row.seconds.empty() ||
          seconds < *std::min_element(row.seconds.begin(),
                                      row.seconds.end())) {
        row.perf = counts;
      }
      row.seconds.push_back(seconds);
    }
  }
  for (const Row& row : rows) {
    if (row.base != kNoBase &&
        !bench::stripped_results_match(rows[row.base].result, row.result)) {
      obs::log(obs::LogLevel::kError,
               "FATAL: '%s' changed the optimization results of '%s' "
               "(determinism violation)",
               row.name.c_str(), rows[row.base].name.c_str());
      trajectory_identical = false;
    }
  }
  // Row 3, the recorder-off loop, directly follows the stripped one.
  const double off_overhead =
      100.0 * (median_ratio(rows[stripped + 1], rows[stripped]) - 1.0);
  const bool gate_ok = off_overhead < gate_pct;

  // Untraced 1-thread sequential multistart vs traced, metrics- and
  // profile-collecting 8-thread parallel multistart.
  const std::uint64_t ms_budget = std::min<std::uint64_t>(budget, 200'000);
  core::MultistartOptions seq_options;
  seq_options.total_budget = ms_budget;
  seq_options.budget_per_start = std::max<std::uint64_t>(1, ms_budget / 50);
  seq_options.recorder = &profiled;
  const auto seq_problem = gola_start(small)();
  util::Rng seq_rng{bench::kSeed + 21};
  const auto t1 = core::multistart(*seq_problem, runner, seq_options, seq_rng);

  obs::VectorSink events;
  const obs::Recorder traced{&events, /*collect_metrics=*/true,
                             /*trace_sample=*/16, /*run=*/0,
                             /*collect_profile=*/true};
  core::ParallelMultistartOptions par_options;
  par_options.multistart = seq_options;
  par_options.multistart.recorder = &traced;
  par_options.num_threads = 8;
  const auto par_problem = gola_start(small)();
  util::Rng par_rng{bench::kSeed + 21};
  const auto t8 =
      core::parallel_multistart(*par_problem, runner, par_options, par_rng);

  const bool parallel_identical =
      t1.restarts == t8.restarts &&
      t1.restart_best_costs == t8.restart_best_costs &&
      bench::stripped_results_match(t1.aggregate, t8.aggregate);
  if (!parallel_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: traced 8-thread multistart results differ from the "
             "untraced 1-thread run (determinism violation)");
  }
  // Tracing may change one metric only: its own event count.
  obs::RunMetrics t8_metrics = t8.aggregate.metrics;
  t8_metrics.trace_events = t1.aggregate.metrics.trace_events;
  const bool exports_identical =
      exports_of(t1.aggregate.metrics) == exports_of(t8_metrics);
  if (!exports_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: 8-thread registry/profile exports differ from 1-thread "
             "(determinism violation)");
  }

  util::Table table;
  table.add_column("row", util::Table::Align::kLeft);
  table.add_column("accept rate");
  table.add_column("accepts");
  table.add_column("final cost");
  table.add_column("best s");
  table.add_column("prop/s");
  table.add_column("overhead %");
  table.add_column("speedup");
  std::string rows_json;
  for (const Row& row : rows) {
    const double best =
        *std::min_element(row.seconds.begin(), row.seconds.end());
    const auto proposals = static_cast<double>(row.result.proposals);
    const double rate = static_cast<double>(row.result.accepts) / proposals;
    const double per_sec = best > 0.0 ? proposals / best : 0.0;
    table.begin_row();
    table.cell(row.name);
    table.cell(rate, 4);
    table.cell(static_cast<unsigned long long>(row.result.accepts));
    table.cell(row.result.final_cost, 0);
    table.cell(best, 4);
    table.cell(per_sec, 0);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"name\": \"%s\", \"acceptance_rate\": %.4f, "
                  "\"accepts\": %llu, \"final_cost\": %.17g, "
                  "\"seconds\": %.6f, \"proposals_per_sec\": %.1f",
                  rows_json.empty() ? "" : ",\n", row.name.c_str(), rate,
                  static_cast<unsigned long long>(row.result.accepts),
                  row.result.final_cost, best, per_sec);
    rows_json += buf;
    if (row.base == kNoBase) {
      table.cell("");
      table.cell("");
    } else if (row.speedup) {
      const double speedup = median_ratio(rows[row.base], row);
      table.cell("");
      table.cell(speedup, 2);
      std::snprintf(buf, sizeof buf, ", \"speedup\": %.3f", speedup);
      rows_json += buf;
    } else {
      const double overhead =
          100.0 * (median_ratio(row, rows[row.base]) - 1.0);
      table.cell(overhead, 2);
      table.cell("");
      std::snprintf(buf, sizeof buf, ", \"overhead_pct\": %.3f", overhead);
      rows_json += buf;
    }
    if (!row.speedup) {
      rows_json += perf_fields(row.perf, row.result.proposals, active);
    }
    rows_json += "}";
  }
  table.print();

  std::string counter_names;
  for (const obs::PerfCounter which : active) {
    if (!counter_names.empty()) counter_names += ',';
    counter_names += obs::perf_counter_name(which);
  }
  // Host facts, informational: which counters opened, or why none did.
  std::string json = "{\n  \"bench\": \"ladder\",\n";
  json += "  \"perf_active_counters\": \"" + counter_names + "\",\n";
  json += "  \"perf_unavailable_reason\": \"" + perf.unavailable_reason() +
          "\",\n";
  const core::RunResult& fig = rows[stripped].result;
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "  \"seed\": %llu,\n  \"budget\": %llu,\n  \"reps\": %zu,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"gate_pct\": %.3f,\n  \"off_overhead_pct\": %.3f,\n"
      "  \"gate_ok\": %s,\n  \"figure1_best_cost\": %.17g,\n"
      "  \"figure1_accepts\": %llu,\n  \"trajectory_identical\": %s,\n"
      "  \"parallel_identical\": %s,\n"
      "  \"registry_snapshots_identical\": %s,\n"
      "  \"traced_parallel_bit_identical\": %s,\n"
      "  \"trace_events_in_parallel_check\": %zu,\n  \"rows\": [\n",
      static_cast<unsigned long long>(bench::kSeed),
      static_cast<unsigned long long>(budget), reps,
      bench::hardware_threads(), gate_pct, off_overhead,
      json_bool(gate_ok), fig.best_cost,
      static_cast<unsigned long long>(fig.accepts),
      json_bool(trajectory_identical), json_bool(parallel_identical),
      json_bool(exports_identical),
      json_bool(parallel_identical && exports_identical),
      events.events().size());
  bench::write_json_report("BENCH_ladder",
                           json + buf + rows_json + "\n  ]\n}\n");

  std::printf(
      "\nOff-path overhead: %.2f%% (gate: <%.2f%%) — %s.\n"
      "Reps, recorder tiers vs the stripped loop, t4 vs t1 multistart: %s.\n"
      "Traced 8-thread vs untraced 1-thread multistart: results %s, "
      "exports %s (%zu events captured).\n",
      off_overhead, gate_pct, gate_ok ? "PASS" : "FAIL",
      trajectory_identical ? "bit-identical" : "MISMATCH",
      parallel_identical ? "bit-identical" : "MISMATCH",
      exports_identical ? "byte-identical" : "MISMATCH",
      events.events().size());
  const bool ok = gate_ok && trajectory_identical && parallel_identical &&
                  exports_identical;
  return ok ? 0 : 1;
}
