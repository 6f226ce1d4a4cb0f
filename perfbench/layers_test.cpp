// Tests for the benchmark harness's own metric arithmetic: the tail rule,
// runner self time, CPU utilisation, the grid and kernel metrics computed
// from spans, the steal adjustment, the result digest (including its
// stability across thread counts), and the span and call-timing plumbing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/parallel.hpp"
#include "layers.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"

namespace perfbench {
namespace {

using namespace mcopt;

TEST(TailPercentile, KeepsTenSamplesBeyondTheReportedRank) {
  std::vector<double> samples;
  for (int i = 128; i >= 1; --i) samples.push_back(i);  // unsorted input
  const auto tail = tail_percentile(samples);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->samples, 128u);
  EXPECT_DOUBLE_EQ(tail->value, 118.0);
  EXPECT_DOUBLE_EQ(tail->percentile, 100.0 * 118.0 / 128.0);
  std::size_t beyond = 0;
  for (const double s : samples) beyond += s > tail->value;
  EXPECT_EQ(beyond, 10u);
}

TEST(TailPercentile, AbsentWithTenOrFewerSamples) {
  EXPECT_FALSE(tail_percentile(std::vector<double>(10, 1.0)).has_value());
  const auto tail = tail_percentile({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->value, 1.0);
  EXPECT_EQ(tail->samples, 11u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

Span make_span(std::string name, std::uint64_t start, std::uint64_t end,
               std::vector<std::pair<std::string, double>> args = {}) {
  Span span;
  span.name = std::move(name);
  span.start_ns = start;
  span.end_ns = end;
  span.args = std::move(args);
  return span;
}

TEST(SelfTime, IsRunnerSpanMinusWrappedCallsAndTheirClockReads) {
  // 1000 ns span, 600 ns inside 40 wrapped calls, 2.5 ns per clock read,
  // 20 ticks: (1000 - 600 - 40 * 2.5) / 20 = 15.
  const std::vector<Span> one{make_span(
      "core.figure1", 5000, 6000,
      {{"ticks", 20}, {"wrapped_ns", 600}, {"wrapped_calls", 40}})};
  EXPECT_DOUBLE_EQ(self_ns_per_tick(one, 2.5), 15.0);
  EXPECT_DOUBLE_EQ(self_ns_per_tick(one, 0.0), 20.0);
  // Two runs pool their self time and ticks before dividing.
  std::vector<Span> two = one;
  two.push_back(make_span("core.figure1", 0, 500,
                          {{"ticks", 30}, {"wrapped_ns", 100},
                           {"wrapped_calls", 60}}));
  EXPECT_DOUBLE_EQ(self_ns_per_tick(two, 2.5), (300.0 + 250.0) / 50.0);
  EXPECT_DOUBLE_EQ(self_ns_per_tick({}, 2.5), 0.0);
}

TEST(ClockRead, IsPositive) { EXPECT_GT(clock_read_ns(), 0.0); }

TEST(GridMetrics, TuneShareRowsCpuUtilAndTickRates) {
  // Two passes of 1 s each: a 0.4 s tuning pass, a Figure-1 row and a
  // Figure-2 row.  A row outside both windows is ignored.
  constexpr std::uint64_t kS = 1'000'000'000;
  const std::vector<Interval> windows{{0, kS}, {kS, 2 * kS}};
  const auto row = [](std::uint64_t a, std::uint64_t b, double cpu_s,
                      double ticks, bool figure2) {
    return make_span("bench.run_method_row", a, b,
                     {{"cpu_s", cpu_s},
                      {"ticks", ticks},
                      {"figure2", figure2 ? 1.0 : 0.0}});
  };
  const std::vector<Span> spans{
      make_span("bench.tune_methods", 0, 4 * kS / 10),
      row(4 * kS / 10, 6 * kS / 10, 0.6, 1000, false),
      row(6 * kS / 10, kS, 1.2, 3000, true),
      make_span("bench.tune_methods", kS, 14 * kS / 10),
      row(14 * kS / 10, 16 * kS / 10, 0.8, 1000, false),
      row(16 * kS / 10, 2 * kS, 1.4, 3000, true),
      row(3 * kS, 4 * kS, 9.0, 9000, false)};
  LayerMap out;
  grid_metrics(spans, windows, 4, out);
  EXPECT_DOUBLE_EQ(out.at("bench.tune.wall_s"), 0.4);
  EXPECT_DOUBLE_EQ(out.at("bench.tune.share"), 0.4);
  EXPECT_DOUBLE_EQ(out.at("bench.grid.row_p50_ms"), 300.0);
  EXPECT_DOUBLE_EQ(out.at("bench.grid.row_max_ms"), 400.0);
  EXPECT_DOUBLE_EQ(out.at("bench.grid.rows"), 2.0);
  // cpu_util: 4.0 CPU s over 1.2 s of row wall on 4 threads.
  EXPECT_DOUBLE_EQ(out.at("bench.grid.cpu_util"), 4.0 / (1.2 * 4));
  EXPECT_DOUBLE_EQ(out.at("bench.grid.ticks_per_cpu_s.fig1"), 2000.0 / 1.4);
  EXPECT_DOUBLE_EQ(out.at("bench.grid.ticks_per_cpu_s.fig2"), 6000.0 / 2.6);
}

TEST(KernelMetrics, PerCallMeansBusyUsefulAndReduceTail) {
  // One parallel call on 2 threads over [1000, 11000): 3 restarts, run as
  // 4 runner calls (one speculative re-run).  The last runner returns at
  // 10000, so the reduction tail is 1000 ns.
  const auto run = [](std::uint64_t a, std::uint64_t b, core::GClass cls,
                      double proposals, double accepts) {
    const double rejects = proposals - accepts;
    return make_span("core.figure1", a, b,
                     {{"g_class", static_cast<double>(cls)},
                      {"ticks", proposals},
                      {"proposals", proposals},
                      {"accepts", accepts},
                      {"wrapped_ns", 5 * proposals},
                      {"wrapped_calls", 2 * proposals + 1},
                      {"propose_ns", 3 * proposals},
                      {"propose_calls", proposals},
                      {"accept_ns", 2 * accepts},
                      {"accept_calls", accepts},
                      {"reject_ns", 2 * rejects},
                      {"reject_calls", rejects},
                      {"snapshot_ns", 40},
                      {"snapshot_calls", 1}});
  };
  const auto anneal = core::GClass::kSixTempAnnealing;
  const auto g_one = core::GClass::kGOne;
  const std::vector<Span> spans{
      run(1000, 5000, anneal, 100, 70),
      run(1000, 9000, g_one, 200, 20),
      run(5000, 8000, anneal, 100, 80),
      run(9000, 10000, g_one, 100, 10),
      make_span("core.parallel_multistart", 1000, 11000,
                {{"threads", 2}, {"restarts", 3}}),
      make_span("core.sample_move_statistics", 200, 800),
      make_span("obs.export", 11000, 11500, {{"bytes", 4096}})};
  LayerMap out;
  std::vector<std::string> notes;
  kernel_metrics(spans, {{0, 20000}}, 0.5, notes, out);
  EXPECT_DOUBLE_EQ(out.at("linarr.propose_ns"), 3.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.accept_ns"), 2.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.reject_ns"), 2.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.snapshot_ns"), 40.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.proposals"), 500.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.accepts"), 180.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.accept_rate.anneal"), 150.0 / 200.0);
  EXPECT_DOUBLE_EQ(out.at("linarr.accept_rate.g1"), 30.0 / 300.0);
  EXPECT_DOUBLE_EQ(out.at("core.figure1.self_ns_per_tick"),
                   self_ns_per_tick({spans.begin(), spans.begin() + 4}, 0.5));
  EXPECT_DOUBLE_EQ(out.at("core.figure1.run_p50_ms"), 0.0035);
  EXPECT_DOUBLE_EQ(out.at("core.figure1.run_samples"), 4.0);
  EXPECT_EQ(out.count("core.figure1.run_tail_ms"), 0u);  // under 11 samples
  // Runner spans 4000 + 8000 + 3000 + 1000 ns of 10000 ns x 2 threads.
  EXPECT_DOUBLE_EQ(out.at("core.parallel.busy_frac"), 16000.0 / 20000.0);
  EXPECT_DOUBLE_EQ(out.at("core.parallel.useful_frac"), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(out.at("core.parallel.reduce_tail_ms"), 0.001);
  EXPECT_DOUBLE_EQ(out.at("core.calibration.ms"), 0.0006);
  EXPECT_DOUBLE_EQ(out.at("obs.export_ms"), 0.0005);
  EXPECT_DOUBLE_EQ(out.at("obs.export_bytes"), 4096.0);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("fewer than 11 samples (4)"), std::string::npos);
}

TEST(CpuUtilisation, IsCpuDeltaOverWallTimesThreads) {
  EXPECT_DOUBLE_EQ(cpu_utilisation(1.0, 5.0, 2.0, 4), 0.5);
  EXPECT_DOUBLE_EQ(cpu_utilisation(0.0, 8.0, 2.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(cpu_utilisation(0.0, 1.0, 0.0, 4), 0.0);
}

TEST(CpuUtilisation, ProcessCpuSecondsCountsWorkerThreads) {
  const double before = process_cpu_seconds();
  std::thread worker([] {
    const std::uint64_t until = now_ns() + 30'000'000;  // 30 ms busy
    volatile std::uint64_t sink = 0;
    while (now_ns() < until) sink = sink + 1;
  });
  worker.join();
  EXPECT_GT(process_cpu_seconds(), before);
}

TEST(StealAdjusted, RemovesTheStolenShareOfRunnableTime) {
  // One busy vCPU for 10 s of wall, 2 s of it stolen: 8 s of CPU.
  EXPECT_DOUBLE_EQ(steal_adjusted(10.0, 8.0, 2.0), 8.0);
  // Four busy vCPUs for 10 s, 1 s stolen from each: 36 s of CPU, 4 s steal.
  EXPECT_DOUBLE_EQ(steal_adjusted(10.0, 36.0, 4.0), 9.0);
  // No steal reported, or no CPU measured: the wall is unchanged.
  EXPECT_DOUBLE_EQ(steal_adjusted(10.0, 8.0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(steal_adjusted(10.0, 0.0, 2.0), 10.0);
  EXPECT_GE(steal_seconds(), 0.0);
}

TEST(Digest, IsOrderSensitiveAndNormalisesNegativeZero) {
  Digest a;
  a.add(1.0);
  a.add(2.0);
  Digest b;
  b.add(2.0);
  b.add(1.0);
  EXPECT_NE(a.hex(), b.hex());
  Digest zero;
  zero.add(0.0);
  Digest negative_zero;
  negative_zero.add(-0.0);
  EXPECT_EQ(zero.hex(), negative_zero.hex());
  EXPECT_EQ(zero.hex().size(), 16u);
}

Digest grid_digest(unsigned threads) {
  const auto instances =
      netlist::gola_test_set(4, netlist::GolaParams{15, 150}, 11);
  bench::TableRunConfig config;
  config.budgets = {200, 400};
  config.num_threads = threads;
  Digest digest;
  for (const core::GClass cls :
       {core::GClass::kGOne, core::GClass::kSixTempAnnealing}) {
    const bench::Method method{core::g_class_name(cls), cls, 2.0};
    for (const double t : bench::run_method_row(method, instances, config)) {
      digest.add(t);
    }
  }
  return digest;
}

Digest multistart_digest(unsigned threads) {
  util::Rng gen{5};
  const auto nl = netlist::random_gola(netlist::GolaParams{30, 300}, gen);
  linarr::LinArrProblem problem{nl, bench::random_start(0, 30)};
  const auto g = core::make_g(core::GClass::kGOne);
  const core::Runner runner = [&g](core::Problem& p, std::uint64_t budget,
                                   util::Rng& rng, const obs::Recorder&) {
    core::Figure1Options options;
    options.budget = budget;
    TimedProblem timed{p};  // the traced runner's wrapper changes nothing
    return core::run_figure1(timed, *g, options, rng);
  };
  core::ParallelMultistartOptions options;
  options.multistart.total_budget = 12 * 500;
  options.multistart.budget_per_start = 500;
  options.num_threads = threads;
  util::Rng rng{9};
  const auto result = core::parallel_multistart(problem, runner, options, rng);
  Digest digest;
  digest.add(result.aggregate.best_cost);
  for (const double best : result.restart_best_costs) digest.add(best);
  return digest;
}

TEST(Digest, StableAcrossThreadCounts) {
  EXPECT_EQ(grid_digest(1).hex(), grid_digest(4).hex());
  EXPECT_EQ(multistart_digest(1).hex(), multistart_digest(4).hex());
}

TEST(TimedProblem, ForwardsAndCountsEveryCall) {
  util::Rng gen{3};
  const auto nl = netlist::random_gola(netlist::GolaParams{15, 150}, gen);
  linarr::LinArrProblem plain{nl, bench::random_start(0, 15)};
  linarr::LinArrProblem inner{nl, bench::random_start(0, 15)};
  TimedProblem timed{inner};
  const auto g = core::make_g(core::GClass::kGOne);
  core::Figure1Options options;
  options.budget = 300;
  util::Rng rng_a{1};
  util::Rng rng_b{1};
  const auto expected = core::run_figure1(plain, *g, options, rng_a);
  const auto got = core::run_figure1(timed, *g, options, rng_b);
  EXPECT_EQ(got.best_cost, expected.best_cost);
  EXPECT_EQ(got.best_state, expected.best_state);
  const ProblemTally& tally = timed.tally();
  EXPECT_EQ(tally.propose.calls, got.proposals);
  EXPECT_EQ(tally.accept.calls, got.accepts);
  EXPECT_EQ(tally.accept.calls + tally.reject.calls, got.proposals);
  EXPECT_GE(tally.total_ns(), tally.propose.ns);
  EXPECT_EQ(tally.total_calls(), tally.propose.calls + tally.accept.calls +
                                     tally.reject.calls +
                                     tally.snapshot.calls);
}

TEST(Tracer, NestsSpansAndExportsChromeJson) {
  Tracer tracer{true};
  {
    ScopedSpan outer{tracer, "outer"};
    ScopedSpan inner{tracer, "inner"};
    inner.arg("ticks", 7);
  }
  std::thread([&] {
    tracer.begin_pool();
    ScopedSpan worker{tracer, "worker"};
  }).join();
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_DOUBLE_EQ(spans[0].arg("ticks"), 7.0);
  EXPECT_EQ(spans[2].lane, 1u);
  const std::string json = tracer.chrome_json("test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos);

  Tracer off;
  { ScopedSpan span{off, "ignored"}; }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
