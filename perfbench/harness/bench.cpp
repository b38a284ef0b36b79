#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench/bench_common.hpp"
#include "telemetry/keys.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using namespace mebl;

int threads_n() {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(nproc, std::clamp(nproc / 2, 2, 4));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

exec::ThreadPool& Pools::get(int threads) {
  std::unique_ptr<exec::ThreadPool>& pool = pools_[threads];
  if (!pool) pool = std::make_unique<exec::ThreadPool>(threads);
  return *pool;
}

Repetitions repeat_pairs(const Options& options,
                         const std::function<double(int)>& route_all,
                         const std::function<void()>& between) {
  constexpr int kMinPairs = 2;
  constexpr double kHardStopSeconds = 120.0;
  const int n = threads_n();
  Repetitions reps;
  const double begin = now_s();
  for (std::uint64_t pair = 0;; ++pair) {
    const double start = now_s();
    if (between) between();
    const bool single_first = (pair + options.seed) % 2 == 0;
    for (const bool single : {single_first, !single_first})
      (single ? reps.one : reps.many).push_back(route_all(single ? 1 : n));
    const double now = now_s();
    if (static_cast<int>(reps.one.size()) >= kMinPairs &&
        now - begin + (now - start) > options.seconds)
      break;
    if (now - begin >= kHardStopSeconds) break;
  }
  return reps;
}

TracedRun traced_repetitions(const Options& options,
                             const std::function<double(int, Keep)>& route_all) {
  using telemetry::Tracer;
  Tracer::set_capacity(std::size_t{1} << 21);
  TracedRun run;
  std::vector<double> untraced{route_all(1, Keep::kNone)};
  Tracer::clear();
  Tracer::enable();
  std::vector<double> traced{route_all(1, Keep::kOne)};
  run.events_1t = Tracer::events();
  route_all(threads_n(), Keep::kMany);
  Tracer::disable();
  run.trace_path = write_trace(options, options.workload + "-seed" +
                                            std::to_string(options.seed) +
                                            ".trace.json");
  Tracer::clear();
  const double begin = now_s();
  while (now_s() - begin < options.seconds * 0.5) {
    untraced.push_back(route_all(1, Keep::kNone));
    Tracer::enable();
    traced.push_back(route_all(1, Keep::kNone));
    Tracer::disable();
    Tracer::clear();
  }
  run.overhead_frac = median(traced) / median(untraced) - 1.0;
  run.pairs = traced.size();
  return run;
}

void add_trace_summary(Result& result, const std::string& trace_path,
                       const SpanTable& spans, std::size_t rows) {
  result.detail("trace written to " +
                (trace_path.empty() ? "(failed)" : trace_path));
  for (const std::string& line : spans.lines(rows)) result.detail(line);
  if (const std::int64_t dropped =
          telemetry::counter(telemetry::keys::kTraceDroppedSpans).value())
    result.note("tracer dropped " + std::to_string(dropped) + " spans");
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string listing(const std::vector<double>& values) {
  std::string out;
  char buffer[32];
  for (const double value : values) {
    std::snprintf(buffer, sizeof buffer, "%s%.4g", out.empty() ? "" : " ",
                  value);
    out += buffer;
  }
  return out;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Tail tail_of(const std::vector<double>& values, std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n <= min_beyond) return {50.0, median(values), n / 2};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank = n - min_beyond;  // 1-based nearest rank
  return {100.0 * static_cast<double>(rank) / static_cast<double>(n),
          sorted[rank - 1], min_beyond};
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ------------------------------------------------------------------ result

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, Metric{value, unit, false}});
}

void Result::add_count(const std::string& name, std::int64_t value,
                       const std::string& unit) {
  metrics.push_back({name, Metric{static_cast<double>(value), unit, true}});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(const Metric& metric) {
  char buffer[64];
  if (metric.integral)
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(std::llround(metric.value)));
  else
    std::snprintf(buffer, sizeof buffer, "%.17g", metric.value);
  return buffer;
}

}  // namespace

std::string host_block(const Options& options,
                       const std::vector<std::string>& designs,
                       const std::string& budgets_json) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads_n\": " << threads_n()
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"git_sha\": " << json_string(options.git_sha)
      << ", \"source_digest\": " << json_string(options.source_digest)
      << ", \"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"designs\": [";
  for (std::size_t i = 0; i < designs.size(); ++i)
    out << (i ? ", " : "") << json_string(designs[i]);
  out << "], \"budgets\": " << budgets_json << "}";
  return out.str();
}

void print_result(const Options& options, const std::string& host,
                  const Result& result) {
  std::cout << "perfbench host " << host << "\n";
  for (const std::string& line : result.details)
    std::cout << "perfbench " << line << "\n";
  for (const auto& [name, metric] : result.metrics)
    std::cout << "perfbench metric " << options.workload << "/" << name
              << " = " << json_number(metric) << " " << metric.unit << "\n";
  std::cout << "perfbench operations attempted=" << result.attempted
            << " failed=" << result.failed << "\n";
  for (const std::string& line : result.notes)
    std::cout << "perfbench note: " << line << "\n";
  for (const std::string& line : result.problems)
    std::cout << "perfbench CHECK FAILED: " << line << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::int64_t>(result.attempted, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, metric] = result.metrics[i];
    json << (i ? ", " : "") << json_string(name) << ": {\"value\": "
         << json_number(metric) << ", \"unit\": " << json_string(metric.unit)
         << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// ------------------------------------------------------------------ inputs

DesignInput make_design(const std::string& spec_name, Scale scale) {
  const bench_suite::BenchmarkSpec* spec = bench_suite::find_spec(spec_name);
  if (spec == nullptr) throw std::runtime_error("unknown spec " + spec_name);
  const bench_suite::GeneratorConfig config =
      scale == Scale::kFull ? bench_suite::GeneratorConfig::full_scale()
                            : bench_common::config_for(*spec);
  bench_suite::GeneratedCircuit circuit =
      bench_suite::generate_circuit(*spec, config, bench_common::kSeed);
  std::ostringstream text;
  netlist::write_design(text, netlist::Design{circuit.grid,
                                              std::move(circuit.netlist)});
  return {spec->name, text.str()};
}

netlist::Design parse_design(const std::string& text) {
  std::istringstream in(text);
  std::optional<netlist::Design> design = netlist::read_design(in);
  if (!design) throw std::runtime_error("read_design rejected the input");
  return std::move(*design);
}

// ------------------------------------------------------- benchmark spans

const char* intern(const std::string& name) {
  static std::mutex mutex;
  static std::deque<std::string> names;
  std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& known : names)
    if (known == name) return known.c_str();
  return names.emplace_back(name).c_str();
}

void record_bench_span(const std::string& name, std::uint64_t start_ns) {
  if (!telemetry::Tracer::enabled()) return;
  telemetry::Tracer::record_span(intern(name), start_ns,
                                 telemetry::now_ns() - start_ns);
}

void StageStamp::on_stage_begin(core::Stage stage) {
  begin_ns_[stage] = telemetry::now_ns();
}

void StageStamp::on_stage_end(core::Stage stage, double seconds) {
  seconds_[stage] += seconds;
  record_bench_span(std::string("bench.stage.") + core::stage_name(stage),
                    begin_ns_[stage]);
}

double StageStamp::seconds(core::Stage stage) const {
  const auto it = seconds_.find(stage);
  return it == seconds_.end() ? 0.0 : it->second;
}

// --------------------------------------------------- span self-time table

SpanTable::SpanTable(std::vector<telemetry::SpanEvent> events)
    : events_(std::move(events)) {
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events_[a];
    const auto& y = events_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });
  self_s_.assign(events_.size(), 0.0);
  depth_.assign(events_.size(), 0);
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const auto& event = events_[i];
    if (stack.empty() || event.tid != tid) {
      stack.clear();
      tid = event.tid;
    }
    while (!stack.empty()) {
      const auto& top = events_[stack.back()];
      if (top.start_ns + top.dur_ns > event.start_ns) break;
      stack.pop_back();
    }
    self_s_[i] = static_cast<double>(event.dur_ns) / 1e9;
    if (!stack.empty()) {
      const auto& parent = events_[stack.back()];
      const std::uint64_t end = std::min(parent.start_ns + parent.dur_ns,
                                         event.start_ns + event.dur_ns);
      self_s_[stack.back()] -=
          static_cast<double>(end - event.start_ns) / 1e9;
    }
    depth_[i] = static_cast<int>(stack.size());
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events_.size(); ++i) {
    SpanTotals& totals = totals_[events_[i].name];
    ++totals.count;
    totals.total_s += static_cast<double>(events_[i].dur_ns) / 1e9;
    totals.self_s += self_s_[i];
  }
}

SpanTotals SpanTable::get(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? SpanTotals{} : it->second;
}

namespace {

template <typename Pick>
std::vector<double> outermost(const std::vector<telemetry::SpanEvent>& events,
                              const std::vector<int>& depth,
                              const std::string& name, Pick pick) {
  int shallowest = -1;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (name == events[i].name && (shallowest < 0 || depth[i] < shallowest))
      shallowest = depth[i];
  std::vector<double> out;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (name == events[i].name && depth[i] == shallowest)
      out.push_back(pick(i));
  return out;
}

}  // namespace

std::vector<double> SpanTable::outer_durations(const std::string& name) const {
  return outermost(events_, depth_, name, [&](std::size_t i) {
    return static_cast<double>(events_[i].dur_ns) / 1e9;
  });
}

std::vector<double> SpanTable::outer_self(const std::string& name) const {
  return outermost(events_, depth_, name,
                   [&](std::size_t i) { return self_s_[i]; });
}

std::vector<std::string> SpanTable::lines(std::size_t limit) const {
  std::vector<std::pair<std::string, SpanTotals>> rows(totals_.begin(),
                                                       totals_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::vector<std::string> out;
  char buffer[256];
  for (std::size_t i = 0; i < rows.size() && i < limit; ++i) {
    std::snprintf(buffer, sizeof buffer,
                  "span %-28s count=%-8lld total_s=%-10.4f self_s=%.4f",
                  rows[i].first.c_str(),
                  static_cast<long long>(rows[i].second.count),
                  rows[i].second.total_s, rows[i].second.self_s);
    out.emplace_back(buffer);
  }
  return out;
}

std::string write_trace(const Options& options, const std::string& file) {
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  const std::string path = options.out_dir + "/" + file;
  return telemetry::Tracer::write_chrome_trace_file(path) ? path : "";
}

}  // namespace perfbench
