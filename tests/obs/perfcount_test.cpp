// PerfCounterGroup against scripted backends: multiplex scaling, fd
// bookkeeping, and the forced-unavailable degradation path the drivers
// rely on when perf_event_open is denied.
#include "obs/perfcount.hpp"

#include <cerrno>
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace mcopt::obs {
namespace {

/// Refuses every counter, as a container with perf_event_paranoid > 2 or
/// a seccomp filter does.
class EnosysBackend final : public PerfBackend {
 public:
  int open_counter(PerfCounter /*which*/) override {
    ++open_calls;
    return -ENOSYS;
  }
  bool read_counter(int /*fd*/, PerfReading* /*out*/) override {
    return false;
  }
  void close_counter(int /*fd*/) override { ++close_calls; }

  int open_calls = 0;
  int close_calls = 0;
};

/// Hands out scripted readings keyed by fd and records lifecycle calls.
class ScriptedBackend final : public PerfBackend {
 public:
  int open_counter(PerfCounter which) override {
    const int fd = next_fd++;
    opened[fd] = which;
    return fd;
  }
  bool read_counter(int fd, PerfReading* out) override {
    *out = readings[fd];
    return true;
  }
  void close_counter(int fd) override { closed.push_back(fd); }

  int next_fd = 100;
  std::map<int, PerfCounter> opened;
  std::map<int, PerfReading> readings;
  std::vector<int> closed;
};

TEST(PerfCounterGroupTest, AllRefusedReportsUnavailableWithReason) {
  EnosysBackend backend;
  PerfCounterGroup group{all_perf_counters(), &backend};
  EXPECT_FALSE(group.available());
  EXPECT_EQ(backend.open_calls, 6);
  EXPECT_TRUE(group.active_counters().empty());
  EXPECT_NE(group.unavailable_reason().find("ENOSYS"), std::string::npos);
  EXPECT_NE(group.unavailable_reason().find("perf_event_paranoid"),
            std::string::npos);
  PerfCounts counts;
  EXPECT_FALSE(group.read(&counts));
}

TEST(PerfCounterGroupTest, ClosesEveryOpenedFdOnDestruction) {
  ScriptedBackend backend;
  {
    PerfCounterGroup group{all_perf_counters(), &backend};
    EXPECT_TRUE(group.available());
    EXPECT_EQ(group.active_counters().size(), 6u);
    EXPECT_TRUE(backend.closed.empty());
  }
  EXPECT_EQ(backend.closed.size(), 6u);
}

TEST(PerfCounterGroupTest, ReadMapsCountersAndAppliesMultiplexScaling) {
  ScriptedBackend backend;
  PerfCounterGroup group{
      {PerfCounter::kCycles, PerfCounter::kInstructions,
       PerfCounter::kTaskClock},
      &backend};
  ASSERT_TRUE(group.available());
  // cycles ran half the enabled time: value is scaled x2.  instructions
  // ran the whole time: passes through.  The fake leaves task-clock's
  // clock pair zero: raw value passes through (fake-friendly contract).
  int fd = 100;
  backend.readings[fd++] = PerfReading{1000, 200, 100};
  backend.readings[fd++] = PerfReading{4000, 200, 200};
  backend.readings[fd++] = PerfReading{777, 0, 0};
  PerfCounts counts;
  ASSERT_TRUE(group.read(&counts));
  EXPECT_EQ(counts.cycles, 2000u);
  EXPECT_EQ(counts.instructions, 4000u);
  EXPECT_EQ(counts.task_clock_ns, 777u);
  EXPECT_EQ(counts.cache_refs, 0u);  // never requested
  EXPECT_TRUE(counts.any());
}

TEST(PerfCounterGroupTest, PartialAvailabilityKeepsTheCountersThatOpened) {
  // The container VM case: hardware events refused, task-clock opens.
  class SoftwareOnlyBackend final : public PerfBackend {
   public:
    int open_counter(PerfCounter which) override {
      return which == PerfCounter::kTaskClock ? 42 : -EPERM;
    }
    bool read_counter(int /*fd*/, PerfReading* out) override {
      *out = PerfReading{5000, 0, 0};
      return true;
    }
    void close_counter(int /*fd*/) override {}
  };
  SoftwareOnlyBackend backend;
  PerfCounterGroup group{all_perf_counters(), &backend};
  ASSERT_TRUE(group.available());
  ASSERT_EQ(group.active_counters().size(), 1u);
  EXPECT_EQ(group.active_counters().front(), PerfCounter::kTaskClock);
  PerfCounts counts;
  ASSERT_TRUE(group.read(&counts));
  EXPECT_EQ(counts.task_clock_ns, 5000u);
  EXPECT_EQ(counts.cycles, 0u);
}

TEST(PerfDeltaTest, SaturatesInsteadOfWrapping) {
  PerfCounts begin;
  begin.cycles = 100;
  begin.task_clock_ns = 50;
  PerfCounts end;
  end.cycles = 40;  // counter reset between reads
  end.task_clock_ns = 80;
  const PerfCounts delta = perf_delta(begin, end);
  EXPECT_EQ(delta.cycles, 0u);
  EXPECT_EQ(delta.task_clock_ns, 30u);
}

TEST(PerfDerivedTest, RatesGuardAgainstZeroDenominators) {
  PerfCounts counts;
  EXPECT_EQ(perf_ipc(counts), 0.0);
  EXPECT_EQ(perf_cache_miss_rate(counts), 0.0);
  counts.cycles = 1000;
  counts.instructions = 2500;
  counts.cache_refs = 200;
  counts.cache_misses = 30;
  EXPECT_DOUBLE_EQ(perf_ipc(counts), 2.5);
  EXPECT_DOUBLE_EQ(perf_cache_miss_rate(counts), 0.15);
}

RunMetrics profiled_run(Recorder& rec) {
  RunMetrics metrics;
  rec.begin_run(&metrics, 1);
  {
    ProfileScope run{rec, "run"};
    run.add_ticks(7);
    ProfileScope sweep{rec, "sweep"};
    sweep.add_ticks(5);
  }
  rec.end_run();
  return metrics;
}

// The graceful-degradation contract the drivers rely on: with every
// counter refused, armed-but-unavailable sampling must leave all exports
// byte-identical to a recorder that never heard of perf counters.
TEST(PerfDegradationTest, RefusedCountersLeaveExportsByteIdentical) {
  Recorder plain{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
                 /*run=*/0, /*collect_profile=*/true};
  const RunMetrics baseline = profiled_run(plain);

  EnosysBackend backend;
  PerfCounterGroup group{all_perf_counters(), &backend};
  ASSERT_FALSE(group.available());
  Recorder armed{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
                 /*run=*/0, /*collect_profile=*/true};
  armed.set_perf_counters(&group);
  const RunMetrics degraded = profiled_run(armed);

  // Profile JSON: identical in both forms (no "perf" objects appear).
  EXPECT_EQ(baseline.profile.to_json(/*include_wall=*/false),
            degraded.profile.to_json(/*include_wall=*/false));
  const std::string wall = degraded.profile.to_json(/*include_wall=*/true);
  EXPECT_EQ(wall.find("\"perf\""), std::string::npos);

  // Registry exports: no mcopt_perf_* family materializes, so the
  // Prometheus text and JSON match a counter-free run except for the
  // nondeterministic wall-clock values, which the deterministic_only
  // filter removes.
  MetricsRegistry with_perf;
  with_perf.populate_from_run(degraded);
  const std::string prom = with_perf.to_prometheus();
  EXPECT_EQ(prom.find("mcopt_perf_"), std::string::npos);
  MetricsRegistry without_perf;
  without_perf.populate_from_run(baseline);
  EXPECT_EQ(without_perf.to_prometheus(/*deterministic_only=*/true),
            with_perf.to_prometheus(/*deterministic_only=*/true));
  EXPECT_EQ(without_perf.to_json(/*deterministic_only=*/true),
            with_perf.to_json(/*deterministic_only=*/true));
}

// With counters that do fire, the perf families appear as
// nondeterministic metrics: present in the full exposition, absent from
// the deterministic_only form the bit-identity tests compare.
TEST(PerfDegradationTest, FiringCountersStayOutOfDeterministicExports) {
  ScriptedBackend backend;
  PerfCounterGroup group{
      {PerfCounter::kCycles, PerfCounter::kInstructions}, &backend};
  // Monotonic script: 0 at the first read, 1000/4000 afterwards.
  backend.readings[100] = PerfReading{0, 0, 0};
  backend.readings[101] = PerfReading{0, 0, 0};
  Recorder rec{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
               /*run=*/0, /*collect_profile=*/true};
  rec.set_perf_counters(&group);
  RunMetrics metrics;
  rec.begin_run(&metrics, 1);
  {
    ProfileScope run{rec, "run"};
    run.add_ticks(7);
    backend.readings[100] = PerfReading{1000, 0, 0};
    backend.readings[101] = PerfReading{4000, 0, 0};
  }
  rec.end_run();

  ASSERT_EQ(metrics.profile.nodes.size(), 1u);
  EXPECT_EQ(metrics.profile.nodes[0].perf.cycles, 1000u);
  EXPECT_EQ(metrics.profile.nodes[0].perf.instructions, 4000u);
  const std::string wall = metrics.profile.to_json(/*include_wall=*/true);
  EXPECT_NE(wall.find("\"perf\": {\"cycles\": 1000"), std::string::npos);
  EXPECT_EQ(metrics.profile.to_json(/*include_wall=*/false).find("perf"),
            std::string::npos);

  MetricsRegistry registry;
  registry.populate_from_run(metrics);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("mcopt_perf_cycles_total{scope=\"run\"} 1000"),
            std::string::npos);
  EXPECT_NE(prom.find("mcopt_perf_ipc{scope=\"run\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("mcopt_perf_cycles_per_tick{scope=\"run\"}"),
            std::string::npos);
  EXPECT_EQ(registry.to_prometheus(/*deterministic_only=*/true)
                .find("mcopt_perf_"),
            std::string::npos);
}

TEST(PerfCounterGroupTest, SystemBackendEitherWorksOrExplainsItself) {
  // Environment-dependent: the real backend may or may not open counters
  // here.  Both outcomes must be well-formed.
  PerfCounterGroup group{all_perf_counters()};
  if (group.available()) {
    PerfCounts a;
    PerfCounts b;
    ASSERT_TRUE(group.read(&a));
    // Burn a little user-space work so cumulative counts advance.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 200000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
    ASSERT_TRUE(group.read(&b));
    const PerfCounts delta = perf_delta(a, b);
    EXPECT_TRUE(delta.any());
  } else {
    EXPECT_NE(group.unavailable_reason().find("perf_event_open failed"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mcopt::obs
