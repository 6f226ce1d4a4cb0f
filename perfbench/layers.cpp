#include "layers.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

namespace {

double timeval_seconds(const timeval& tv) noexcept {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string escape_json(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - epoch)
                     .count();
  return d < 0 ? 0 : static_cast<std::uint64_t>(d);
}

double clock_read_ns() {
  constexpr int kPairs = 10'001;
  std::vector<double> gaps;
  gaps.reserve(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    gaps.push_back(static_cast<double>(b - a));
  }
  return median(std::move(gaps));
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

double steal_seconds() noexcept {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0.0;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  const int fields = std::fscanf(
      stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user, &nice,
      &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(stat);
  const long ticks_per_s = sysconf(_SC_CLK_TCK);
  if (fields != 8 || ticks_per_s <= 0) return 0.0;
  return static_cast<double>(steal) / static_cast<double>(ticks_per_s);
}

double steal_adjusted(double wall, double cpu, double steal) noexcept {
  if (cpu <= 0.0 || steal <= 0.0) return wall;
  return wall * cpu / (cpu + steal);
}

double peak_rss_mb() noexcept {
  // VmHWM is this image's high-water mark.  getrusage's ru_maxrss is not:
  // Linux carries it across exec, so it would report the launching
  // process's peak when that was larger.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Tracer ----------------------------------------------------------------

void Tracer::begin_pool() {
  if (!on_) return;
  mcopt::util::MutexLock lock{mu_};
  pool_lanes_.clear();
}

std::uint32_t Tracer::lane() {
  const auto self = std::this_thread::get_id();
  if (self == main_thread_) return 0;
  mcopt::util::MutexLock lock{mu_};
  const auto it = pool_lanes_.find(self);
  if (it != pool_lanes_.end()) return it->second;
  const auto lane = static_cast<std::uint32_t>(pool_lanes_.size() + 1);
  pool_lanes_.emplace(self, lane);
  max_lane_ = std::max(max_lane_, lane);
  return lane;
}

double Span::arg(const std::string& key) const noexcept {
  for (const auto& [arg_key, value] : args) {
    if (arg_key == key) return value;
  }
  return 0.0;
}

void Tracer::record(std::string name, std::uint64_t start_ns,
                    std::vector<std::pair<std::string, double>> args) {
  Span span;
  span.end_ns = now_ns();
  span.start_ns = start_ns;
  span.name = std::move(name);
  span.args = std::move(args);
  span.lane = lane();
  mcopt::util::MutexLock lock{mu_};
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  mcopt::util::MutexLock lock{mu_};
  return spans_;
}

std::string Tracer::chrome_json(const std::string& process) const {
  mcopt::util::MutexLock lock{mu_};
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
                "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                escape_json(process).c_str());
  out += buf;
  for (std::uint32_t lane = 0; lane <= max_lane_; ++lane) {
    const std::string lane_name =
        lane == 0 ? std::string{"harness"} : "worker " + std::to_string(lane);
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                  "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                  lane, lane_name.c_str());
    out += buf;
  }
  for (const Span& span : spans_) {
    // Integer nanoseconds printed as microseconds with three decimals are
    // exact, so spans that nest in time nest in the file too.
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"pid\": 0, \"tid\": %u, \"ts\": %llu.%03llu, "
                  "\"dur\": %llu.%03llu, \"args\": ",
                  escape_json(span.name).c_str(), span.lane,
                  static_cast<unsigned long long>(span.start_ns / 1000),
                  static_cast<unsigned long long>(span.start_ns % 1000),
                  static_cast<unsigned long long>(span.duration_ns() / 1000),
                  static_cast<unsigned long long>(span.duration_ns() % 1000));
    out += buf;
    out += "{";
    const char* separator = "";
    for (const auto& [key, value] : span.args) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", separator,
                    escape_json(key).c_str(), value);
      out += buf;
      separator = ", ";
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (!tracer_.on()) return;
  active_ = true;
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (active_) tracer_.record(name_, start_, std::move(args_));
}

// --- TimedProblem ------------------------------------------------------------

std::uint64_t ProblemTally::total_ns() const noexcept {
  return propose.ns + accept.ns + reject.ns + snapshot.ns;
}

std::uint64_t ProblemTally::total_calls() const noexcept {
  return propose.calls + accept.calls + reject.calls + snapshot.calls;
}

double TimedProblem::propose(mcopt::util::Rng& rng) {
  const std::uint64_t t0 = now_ns();
  const double cost = inner_.propose(rng);
  tally_.propose.ns += now_ns() - t0;
  ++tally_.propose.calls;
  return cost;
}

void TimedProblem::accept() {
  const std::uint64_t t0 = now_ns();
  inner_.accept();
  tally_.accept.ns += now_ns() - t0;
  ++tally_.accept.calls;
}

void TimedProblem::reject() {
  const std::uint64_t t0 = now_ns();
  inner_.reject();
  tally_.reject.ns += now_ns() - t0;
  ++tally_.reject.calls;
}

mcopt::core::Snapshot TimedProblem::snapshot() const {
  const std::uint64_t t0 = now_ns();
  auto snap = inner_.snapshot();
  tally_.snapshot.ns += now_ns() - t0;
  ++tally_.snapshot.calls;
  return snap;
}

void TimedProblem::snapshot_into(mcopt::core::Snapshot& out) const {
  const std::uint64_t t0 = now_ns();
  inner_.snapshot_into(out);
  tally_.snapshot.ns += now_ns() - t0;
  ++tally_.snapshot.calls;
}

// --- arithmetic ----------------------------------------------------------------

std::optional<Tail> tail_percentile(std::vector<double> samples,
                                    std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  Tail tail;
  tail.samples = n;
  tail.value = samples[n - min_beyond - 1];
  tail.percentile = 100.0 * static_cast<double>(n - min_beyond) /
                    static_cast<double>(n);
  return tail;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double cpu_utilisation(double cpu_before, double cpu_after, double wall_s,
                       unsigned threads) {
  if (wall_s <= 0.0 || threads == 0) return 0.0;
  return (cpu_after - cpu_before) / (wall_s * static_cast<double>(threads));
}

void Digest::add(std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) noexcept {
  const double normalised = value == 0.0 ? 0.0 : value;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &normalised, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

// --- per-layer metrics from spans ---------------------------------------------

namespace {

bool inside(const Span& span, const std::vector<Interval>& windows) {
  return std::any_of(windows.begin(), windows.end(), [&](const Interval& w) {
    return span.start_ns >= w.start && span.end_ns <= w.end;
  });
}

}  // namespace

std::vector<Span> spans_in(const std::vector<Span>& all,
                           const std::string& name,
                           const std::vector<Interval>& windows) {
  std::vector<Span> out;
  for (const Span& span : all) {
    if (span.name == name && inside(span, windows)) out.push_back(span);
  }
  return out;
}

double total_ms(const std::vector<Span>& spans) {
  double ns = 0.0;
  for (const Span& span : spans) ns += static_cast<double>(span.duration_ns());
  return ns * 1e-6;
}

double sum_arg(const std::vector<Span>& spans, const std::string& key) {
  double total = 0.0;
  for (const Span& span : spans) total += span.arg(key);
  return total;
}

double self_ns_per_tick(const std::vector<Span>& runs, double clock_read_ns) {
  double self_ns = 0.0;
  double ticks = 0.0;
  for (const Span& run : runs) {
    self_ns += static_cast<double>(run.duration_ns()) - run.arg("wrapped_ns") -
               run.arg("wrapped_calls") * clock_read_ns;
    ticks += run.arg("ticks");
  }
  return ticks > 0.0 ? self_ns / ticks : 0.0;
}

void grid_metrics(const std::vector<Span>& all,
                  const std::vector<Interval>& windows, unsigned threads,
                  LayerMap& out) {
  const double passes = static_cast<double>(windows.size());
  double window_ms = 0.0;
  for (const Interval& w : windows) {
    window_ms += static_cast<double>(w.end - w.start) * 1e-6;
  }
  const auto tune = spans_in(all, "bench.tune_methods", windows);
  if (!tune.empty()) {
    out["bench.tune.wall_s"] = total_ms(tune) * 1e-3 / passes;
    out["bench.tune.share"] = total_ms(tune) / window_ms;
  }
  const auto rows = spans_in(all, "bench.run_method_row", windows);
  if (rows.empty()) return;
  std::vector<double> row_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double fig_ticks[2] = {0.0, 0.0};
  double fig_cpu[2] = {0.0, 0.0};
  for (const Span& row : rows) {
    const double ms = static_cast<double>(row.duration_ns()) * 1e-6;
    row_ms.push_back(ms);
    wall_s += ms * 1e-3;
    cpu_s += row.arg("cpu_s");
    const int fig = row.arg("figure2") != 0.0 ? 1 : 0;
    fig_ticks[fig] += row.arg("ticks");
    fig_cpu[fig] += row.arg("cpu_s");
  }
  out["bench.grid.row_p50_ms"] = median(row_ms);
  out["bench.grid.row_max_ms"] = *std::max_element(row_ms.begin(),
                                                   row_ms.end());
  out["bench.grid.rows"] = static_cast<double>(rows.size()) / passes;
  out["bench.grid.cpu_util"] = cpu_utilisation(0.0, cpu_s, wall_s, threads);
  if (fig_cpu[0] > 0.0) {
    out["bench.grid.ticks_per_cpu_s.fig1"] = fig_ticks[0] / fig_cpu[0];
  }
  if (fig_cpu[1] > 0.0) {
    out["bench.grid.ticks_per_cpu_s.fig2"] = fig_ticks[1] / fig_cpu[1];
  }
}

void kernel_metrics(const std::vector<Span>& all,
                    const std::vector<Interval>& windows, double clock_read_ns,
                    std::vector<std::string>& notes, LayerMap& out) {
  const double passes = static_cast<double>(windows.size());
  const auto runs = spans_in(all, "core.figure1", windows);
  const auto calls = spans_in(all, "core.parallel_multistart", windows);
  if (runs.empty() || calls.empty()) return;

  const auto mean = [&](const char* ns, const char* count) {
    const double n = sum_arg(runs, count);
    return n > 0.0 ? sum_arg(runs, ns) / n : 0.0;
  };
  out["linarr.propose_ns"] = mean("propose_ns", "propose_calls");
  out["linarr.accept_ns"] = mean("accept_ns", "accept_calls");
  out["linarr.reject_ns"] = mean("reject_ns", "reject_calls");
  out["linarr.snapshot_ns"] = mean("snapshot_ns", "snapshot_calls");
  out["linarr.proposals"] = sum_arg(runs, "proposals") / passes;
  out["linarr.accepts"] = sum_arg(runs, "accepts") / passes;
  for (const auto& [cls, key] :
       {std::pair{mcopt::core::GClass::kSixTempAnnealing,
                  "linarr.accept_rate.anneal"},
        std::pair{mcopt::core::GClass::kGOne, "linarr.accept_rate.g1"}}) {
    double proposals = 0.0;
    double accepts = 0.0;
    for (const Span& run : runs) {
      if (run.arg("g_class") != static_cast<double>(cls)) continue;
      proposals += run.arg("proposals");
      accepts += run.arg("accepts");
    }
    if (proposals > 0.0) out[key] = accepts / proposals;
  }

  out["core.figure1.self_ns_per_tick"] = self_ns_per_tick(runs, clock_read_ns);
  std::vector<double> run_ms;
  for (const Span& run : runs) {
    run_ms.push_back(static_cast<double>(run.duration_ns()) * 1e-6);
  }
  out["core.figure1.run_p50_ms"] = median(run_ms);
  out["core.figure1.run_samples"] = static_cast<double>(run_ms.size());
  if (const auto tail = tail_percentile(run_ms)) {
    out["core.figure1.run_tail_ms"] = tail->value;
    out["core.figure1.run_tail_pct"] = tail->percentile;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "core.figure1 restart tail: p%.2f = %.3f ms over %zu "
                  "samples (>= 10 beyond)",
                  tail->percentile, tail->value, tail->samples);
    notes.emplace_back(buf);
  } else {
    notes.push_back("core.figure1 restart tail: fewer than 11 samples (" +
                    std::to_string(run_ms.size()) + ")");
  }

  double busy = 0.0;
  double capacity = 0.0;
  double restarts = 0.0;
  double runner_calls = 0.0;
  std::vector<double> reduce_ms;
  for (const Span& call : calls) {
    std::uint64_t last_return = call.start_ns;
    for (const Span& run : runs) {
      if (run.start_ns < call.start_ns || run.end_ns > call.end_ns) continue;
      busy += static_cast<double>(run.duration_ns());
      runner_calls += 1.0;
      last_return = std::max(last_return, run.end_ns);
    }
    capacity += static_cast<double>(call.duration_ns()) * call.arg("threads");
    restarts += call.arg("restarts");
    reduce_ms.push_back(static_cast<double>(call.end_ns - last_return) * 1e-6);
  }
  out["core.parallel.busy_frac"] = capacity > 0.0 ? busy / capacity : 0.0;
  out["core.parallel.useful_frac"] =
      runner_calls > 0.0 ? restarts / runner_calls : 0.0;
  out["core.parallel.reduce_tail_ms"] = median(reduce_ms);
  out["core.calibration.ms"] =
      total_ms(spans_in(all, "core.sample_move_statistics", windows)) /
      passes;
  const auto exports = spans_in(all, "obs.export", windows);
  out["obs.export_ms"] = total_ms(exports) / passes;
  out["obs.export_bytes"] = sum_arg(exports, "bytes") / passes;
}

}  // namespace perfbench
