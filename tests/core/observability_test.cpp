// Observability must be a pure observer: attaching a Recorder to any runner
// cannot change a single bit of its results, and what it records must agree
// with the counters the runners already report.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>

#include <vector>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/gfunction.hpp"
#include "core/tempering.hpp"
#include "obs/event.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/observables.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/invariant.hpp"
#include "support/spy_g.hpp"
#include "support/toy_problem.hpp"

namespace mcopt::core {
namespace {

using mcopt::testing::SpyG;
using mcopt::testing::ToyProblem;

// A rugged landscape: local minima at 2 and 9, global minimum at 6.
const std::vector<double> kLandscape{7, 5, 2, 6, 4, 3, 0, 4, 2, 1, 6, 8};

void expect_same_results(const RunResult& a, const RunResult& b) {
  EXPECT_DOUBLE_EQ(a.initial_cost, b.initial_cost);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  EXPECT_DOUBLE_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.accepts, b.accepts);
  EXPECT_EQ(a.uphill_accepts, b.uphill_accepts);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.temperatures_visited, b.temperatures_visited);
  EXPECT_EQ(a.best_state, b.best_state);
}

// Trace/metric sanity shared by the staged runners at sample = 1: every
// proposal appears with its outcome, the stream opens with the run's first
// stage, and the best-so-far track never worsens.
void expect_coherent_trace(const std::vector<obs::Event>& events,
                           const RunResult& traced) {
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, obs::EventKind::kStageBegin);
  EXPECT_EQ(events.front().reason, obs::StageReason::kStart);

  std::uint64_t proposals = 0;
  std::uint64_t outcomes = 0;
  double last_best = events.front().best;
  for (const obs::Event& event : events) {
    switch (event.kind) {
      case obs::EventKind::kProposal:
        ++proposals;
        break;
      case obs::EventKind::kAccept:
      case obs::EventKind::kReject:
        ++outcomes;
        break;
      case obs::EventKind::kNewBest:
        EXPECT_LE(event.best, last_best) << "best-so-far must not worsen";
        last_best = event.best;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(proposals, traced.proposals);
  EXPECT_EQ(outcomes, traced.proposals)
      << "every proposal must resolve to accept or reject";
  EXPECT_DOUBLE_EQ(last_best, traced.best_cost);
}

void expect_metrics_match(const obs::RunMetrics& metrics,
                          const RunResult& traced) {
  ASSERT_TRUE(metrics.collected);
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t uphill = 0;
  for (const obs::StageMetrics& s : metrics.stages) {
    proposals += s.proposals;
    accepts += s.accepts;
    uphill += s.uphill_accepts;
  }
  EXPECT_EQ(proposals, traced.proposals);
  EXPECT_EQ(accepts, traced.accepts);
  EXPECT_EQ(uphill, traced.uphill_accepts);
}

// FNV-1a over every deterministic field of a run and its trace.  The
// constants below were recorded once; a runner change that moves a single
// cost, counter, best state or event fails them, so refactors of the chain
// must reproduce the old runs exactly.  Wall-clock fields are left out.
class Digest {
 public:
  Digest& operator<<(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((v >> (8 * byte)) & 0xffU)) * 1099511628211ULL;
    }
    return *this;
  }
  Digest& operator<<(double v) {
    return *this << std::bit_cast<std::uint64_t>(v);
  }
  Digest& operator<<(obs::WideInt v) {
    const auto bits = static_cast<unsigned __int128>(v);
    return *this << static_cast<std::uint64_t>(bits)
                 << static_cast<std::uint64_t>(bits >> 64);
  }
  Digest& operator<<(const obs::LogHistogram& h) {
    *this << h.count() << h.sum();
    for (std::size_t i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
      *this << h.bucket(i);
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t digest(const RunResult& r,
                     const std::vector<obs::Event>& events) {
  Digest d;
  d << r.initial_cost << r.final_cost << r.best_cost
    << std::uint64_t{r.best_state.size()};
  for (const std::uint32_t v : r.best_state) d << std::uint64_t{v};
  d << r.proposals << r.accepts << r.uphill_accepts << r.descent_steps
    << r.ticks << std::uint64_t{r.temperatures_visited}
    << r.invariants.executed;
  const obs::RunMetrics& m = r.metrics;
  d << std::uint64_t{m.collected} << m.restarts << m.new_bests
    << m.patience_resets << m.trace_events << m.invariant_checks
    << m.uphill_delta_proposed << m.uphill_delta_accepted
    << std::uint64_t{m.stages.size()};
  for (const obs::StageMetrics& s : m.stages) {
    d << s.proposals << s.accepts << s.uphill_accepts << s.rejects
      << s.downhill_proposals << s.sideways_proposals << s.uphill_proposals
      << s.new_bests << s.patience_fires << s.ticks;
  }
  d << std::uint64_t{m.observables.size()};
  for (const obs::StageObservables& o : m.observables) {
    d << o.samples << static_cast<std::uint64_t>(o.sum) << o.sum_sq
      << o.windows << o.equilibrated_runs << o.first_equilibrated_sample
      << o.temperature;
    for (std::size_t lag = 0; lag < obs::StageObservables::kMaxLag; ++lag) {
      d << o.lag_cross[lag] << o.lag_pairs[lag];
    }
  }
  d << std::uint64_t{events.size()};
  for (const obs::Event& e : events) {
    d << static_cast<std::uint64_t>(e.kind)
      << static_cast<std::uint64_t>(e.reason) << std::uint64_t{e.stage}
      << e.tick << e.cost << e.best;
  }
  return d.value();
}

// Pins are per build flavour: invariant-checking builds also count checks.
constexpr std::uint64_t pin(std::uint64_t plain, std::uint64_t checked) {
  return util::kInvariantsEnabled ? checked : plain;
}

TEST(ObservabilityTest, Figure1TracedRunIsBitIdentical) {
  SpyG g{6, 0.35};
  Figure1Options plain;
  plain.budget = 4'000;
  plain.equilibrium_rejects = 40;

  ToyProblem p1{kLandscape, 0};
  util::Rng r1{99};
  const RunResult untraced = run_figure1(p1, g, plain, r1);

  obs::VectorSink sink;
  const obs::Recorder recorder{&sink};
  Figure1Options traced_options = plain;
  traced_options.recorder = &recorder;
  ToyProblem p2{kLandscape, 0};
  util::Rng r2{99};
  const RunResult traced = run_figure1(p2, g, traced_options, r2);

  expect_same_results(untraced, traced);
  expect_coherent_trace(sink.events(), traced);
  expect_metrics_match(traced.metrics, traced);
  EXPECT_FALSE(untraced.metrics.collected);
  EXPECT_EQ(digest(traced, sink.events()),
            pin(13040375600989869229ULL, 12166454198821347597ULL));

  // The paper's g classes take the paths SpyG cannot: the §3 gate with
  // patience transitions (g = 1) and a thermal schedule whose levels also
  // end on [KIRK83] equilibrium accepts.
  auto pinned = [](const GFunction& run_g, Figure1Options run_options) {
    obs::VectorSink run_sink;
    const obs::Recorder run_recorder{&run_sink};
    run_options.recorder = &run_recorder;
    ToyProblem p{kLandscape, 0};
    util::Rng r{99};
    const RunResult run = run_figure1(p, run_g, run_options, r);
    return digest(run, run_sink.events());
  };
  Figure1Options gated = plain;
  gated.gate_threshold = 3;
  EXPECT_EQ(pinned(*make_g(GClass::kGOne), gated),
            pin(12714515163460794361ULL, 17209743037874383737ULL));
  Figure1Options thermal = plain;
  thermal.equilibrium_accepts = 300;
  EXPECT_EQ(pinned(*make_annealing_g({4.0, 2.0, 1.0}), thermal),
            pin(4407305873572482953ULL, 5191167875465034249ULL));
}

TEST(ObservabilityTest, Figure1StageBeginsCoverEverySchedule) {
  SpyG g{6, 0.5};
  obs::VectorSink sink;
  const obs::Recorder recorder{&sink};
  Figure1Options options;
  options.budget = 6'000;
  options.recorder = &recorder;
  ToyProblem problem{kLandscape, 0};
  util::Rng rng{5};
  const RunResult result = run_figure1(problem, g, options, rng);

  std::uint64_t stage_begins = 0;
  for (const obs::Event& event : sink.events()) {
    if (event.kind == obs::EventKind::kStageBegin) ++stage_begins;
  }
  EXPECT_EQ(stage_begins, result.temperatures_visited);
}

TEST(ObservabilityTest, Figure2TracedRunIsBitIdentical) {
  SpyG g{4, 0.6};
  Figure2Options plain;
  plain.budget = 4'000;

  ToyProblem p1{kLandscape, 0};
  util::Rng r1{31};
  const RunResult untraced = run_figure2(p1, g, plain, r1);

  obs::VectorSink sink;
  const obs::Recorder recorder{&sink};
  Figure2Options traced_options = plain;
  traced_options.recorder = &recorder;
  ToyProblem p2{kLandscape, 0};
  util::Rng r2{31};
  const RunResult traced = run_figure2(p2, g, traced_options, r2);

  expect_same_results(untraced, traced);
  expect_coherent_trace(sink.events(), traced);
  expect_metrics_match(traced.metrics, traced);
  // Figure 2 charges descent ticks on top of proposal ticks; the metrics
  // must account for the whole budget.
  std::uint64_t ticks = 0;
  for (const obs::StageMetrics& s : traced.metrics.stages) ticks += s.ticks;
  EXPECT_EQ(ticks, traced.ticks);
  EXPECT_EQ(digest(traced, sink.events()),
            pin(11499617309228047052ULL, 15709936551319033312ULL));
}

TEST(ObservabilityTest, RandomDescentTracedRunIsBitIdentical) {
  ToyProblem p1{kLandscape, 0};
  util::Rng r1{11};
  const RunResult untraced = random_descent(p1, 500, r1);

  obs::VectorSink sink;
  const obs::Recorder recorder{&sink};
  ToyProblem p2{kLandscape, 0};
  util::Rng r2{11};
  const RunResult traced = random_descent(p2, 500, r2, &recorder);

  expect_same_results(untraced, traced);
  expect_coherent_trace(sink.events(), traced);
  expect_metrics_match(traced.metrics, traced);
  EXPECT_EQ(digest(traced, sink.events()),
            pin(7999358015527193939ULL, 7999358015527193939ULL));
}

TEST(ObservabilityTest, TemperingTracedRunIsBitIdentical) {
  auto factory = [](std::size_t replica) {
    return std::unique_ptr<Problem>(
        new ToyProblem{kLandscape, replica % kLandscape.size()});
  };
  TemperingOptions plain;
  plain.temperatures = {4.0, 2.0, 1.0};
  plain.budget = 3'000;
  plain.sweep = 20;

  util::Rng r1{77};
  const TemperingResult untraced = parallel_tempering(factory, plain, r1);

  obs::VectorSink sink;
  const obs::Recorder recorder{&sink};
  TemperingOptions traced_options = plain;
  traced_options.recorder = &recorder;
  util::Rng r2{77};
  const TemperingResult traced =
      parallel_tempering(factory, traced_options, r2);

  expect_same_results(untraced.aggregate, traced.aggregate);
  EXPECT_EQ(untraced.swap_attempts, traced.swap_attempts);
  EXPECT_EQ(untraced.swap_accepts, traced.swap_accepts);
  expect_metrics_match(traced.aggregate.metrics, traced.aggregate);

  // Events carry the replica index in `stage`; every replica must appear.
  ASSERT_FALSE(sink.events().empty());
  std::vector<bool> seen(plain.temperatures.size(), false);
  for (const obs::Event& event : sink.events()) {
    ASSERT_LT(event.stage, seen.size());
    seen[event.stage] = true;
  }
  for (std::size_t r = 0; r < seen.size(); ++r) {
    EXPECT_TRUE(seen[r]) << "replica " << r << " emitted no events";
  }
  Digest d;
  d << digest(traced.aggregate, sink.events()) << traced.swap_attempts
    << traced.swap_accepts;
  EXPECT_EQ(d.value(), pin(15111808177895484689ULL, 7052990456081152811ULL));
}

TEST(ObservabilityTest, SampledTraceStillPreservesResults) {
  SpyG g{6, 0.35};
  Figure1Options plain;
  plain.budget = 4'000;

  ToyProblem p1{kLandscape, 0};
  util::Rng r1{99};
  const RunResult untraced = run_figure1(p1, g, plain, r1);

  obs::VectorSink sink;
  const obs::Recorder recorder{&sink, true, /*trace_sample=*/17};
  Figure1Options traced_options = plain;
  traced_options.recorder = &recorder;
  ToyProblem p2{kLandscape, 0};
  util::Rng r2{99};
  const RunResult traced = run_figure1(p2, g, traced_options, r2);

  expect_same_results(untraced, traced);
  // Sampling thins the trio stream but metrics still count everything.
  expect_metrics_match(traced.metrics, traced);
  std::uint64_t proposals = 0;
  for (const obs::Event& event : sink.events()) {
    if (event.kind == obs::EventKind::kProposal) ++proposals;
  }
  EXPECT_LT(proposals, traced.proposals);
  EXPECT_GT(proposals, 0u);
}

TEST(ObservabilityTest, ResultToStringMentionsMetricsWhenCollected) {
  SpyG g{2, 0.5};
  obs::VectorSink sink;
  const obs::Recorder recorder{&sink};
  Figure1Options options;
  options.budget = 100;
  options.recorder = &recorder;
  ToyProblem problem{kLandscape, 0};
  util::Rng rng{1};
  const RunResult result = run_figure1(problem, g, options, rng);
  EXPECT_NE(to_string(result).find("metrics:"), std::string::npos);
}

}  // namespace
}  // namespace mcopt::core
