#pragma once
// Shared pieces of the repository benchmark harness: options, the result
// record printed as the final JSON line, input generation, statistics,
// the benchmark's own spans, and span self-time analysis.
//
// The harness measures the router from outside: it times calls into public
// functions, reads telemetry counters and RoutingResult stage times, and
// records its own spans around those calls. It adds nothing to src/.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "core/progress.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/io.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// The seed whose quality counts are pinned in the workload sources.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".";     ///< trace files and the serve socket
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Worker threads of the "N threads" runs: half the cores, at least 2 and
/// at most 4 (never more than nproc). With every core busy, each barrier
/// waits for the host to wake an idle vCPU: on a 4-vCPU host, 4-thread
/// global_full_scale times spread 29 % between runs, 2-thread ones 4-8 %.
int threads_n();

double now_s();

/// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();

/// Worker pools, one per thread count, created on first use and kept for
/// the whole run, as a service keeps them (StitchAwareRouter::set_pool).
/// A fresh pool per route starts fresh workers whose thread-local search
/// scratch re-allocates and re-faults on every route, a cost 1-thread
/// routes (run inline on the caller) never pay: on global_full_scale it
/// made the 4-thread median 2.2 s against 1.4 s with a kept pool.
class Pools {
 public:
  mebl::exec::ThreadPool& get(int threads);

 private:
  std::map<int, std::unique_ptr<mebl::exec::ThreadPool>> pools_;
};

/// Route-workload repetitions: per-repetition wall times at 1 and N threads.
struct Repetitions {
  std::vector<double> one;
  std::vector<double> many;
};

/// Call `route_all(threads)` for (1, N) pairs, alternating which thread
/// count goes first, until another pair would end past --seconds; at least
/// two pairs, so repetition can be checked, and never past 120 s.
/// `between` runs before every pair, untimed (set-up samples spread over
/// the run).
Repetitions repeat_pairs(const Options& options,
                         const std::function<double(int)>& route_all,
                         const std::function<void()>& between = {});

/// Which results of a traced repetition the caller keeps.
enum class Keep { kNone, kOne, kMany };

/// What the traced repetitions of a route workload leave behind.
struct TracedRun {
  std::vector<mebl::telemetry::SpanEvent> events_1t;  ///< kept 1-thread spans
  std::string trace_path;  ///< the Chrome trace; empty when writing failed
  double overhead_frac = 0.0;
  std::size_t pairs = 0;  ///< untraced/traced 1-thread pairs behind it
};

/// The traced run of a route workload, which never feeds end-to-end
/// numbers. It routes untraced at 1 thread, then with the tracer on at 1
/// thread (Keep::kOne) and N threads (Keep::kMany), whose results the
/// caller keeps for its per-layer figures, and writes the trace. Untraced
/// and traced 1-thread pairs then fill half of --seconds to measure the
/// tracing overhead.
TracedRun traced_repetitions(const Options& options,
                             const std::function<double(int, Keep)>& route_all);

// ------------------------------------------------------------- statistics

double median(std::vector<double> values);
/// "a b c" with 4 significant digits, for sample listings.
std::string listing(const std::vector<double>& values);
double mean(const std::vector<double>& values);
/// num / den, or 0 when den is not positive.
double ratio(double num, double den);

/// The highest nearest-rank percentile that still has `min_beyond`
/// samples above it: the (min_beyond + 1)-th largest value, at percentile
/// 100 * (n - min_beyond) / n. The median when there are too few samples.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& values, std::size_t min_beyond = 10);

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
/// FNV-1a of `bytes`, continuing from `hash` (chain calls to hash a
/// sequence).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = kFnvOffset);

/// The paper's quality outputs, summed over a workload's designs.
struct Quality {
  std::int64_t unrouted = 0;
  std::int64_t short_polygons = 0;
  std::int64_t via_violations = 0;
  std::int64_t wirelength = 0;
  friend bool operator==(const Quality&, const Quality&) = default;
  Quality& operator+=(const Quality& other) {
    unrouted += other.unrouted;
    short_polygons += other.short_polygons;
    via_violations += other.via_violations;
    wirelength += other.wirelength;
    return *this;
  }
};

/// Sum of the counter `key` over the `stats` snapshots of `runs`.
template <typename Run>
std::int64_t counter_sum(const std::vector<Run>& runs, std::string_view key) {
  std::int64_t sum = 0;
  for (const Run& run : runs) sum += run.stats.value(key);
  return sum;
}

// ------------------------------------------------------------------ result

struct Metric {
  double value = 0.0;
  std::string unit;
  bool integral = false;
};

/// Everything one run prints: the host block, metrics by name with unit,
/// operation accounting, correctness problems and notes. print() writes the
/// human-readable lines and the final JSON line.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> details;   ///< sample counts and context lines
  std::vector<std::string> problems;  ///< failed correctness checks
  std::vector<std::string> notes;     ///< metrics not reachable from outside

  void add(const std::string& name, double value, const std::string& unit);
  void add_count(const std::string& name, std::int64_t value,
                 const std::string& unit = "count");
  void check(bool ok, const std::string& what);
  void detail(const std::string& line) { details.push_back(line); }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Host and workload block: nproc, N, build type, compiler, git SHA,
/// source digest, seed, design list and budgets.
std::string host_block(const Options& options,
                       const std::vector<std::string>& designs,
                       const std::string& budgets_json);

void print_result(const Options& options, const std::string& host,
                  const Result& result);

// ------------------------------------------------------------------ inputs

enum class Scale { kLaptop, kFull };

/// One generated design: its spec name and its MEBL1 text, the only form
/// the router receives.
struct DesignInput {
  std::string name;
  std::string text;
};

/// Generate `spec_name` at `scale` with the table harnesses' seed and,
/// at laptop scale, their per-suite generator settings. The circuits do
/// not depend on --seed: per-seed circuits (or per-seed net orders) move
/// route_ilp's cost by +-20 % and the unrouted/#VV counts by more than any
/// useful bound, which would drown the changes the benchmark must catch.
DesignInput make_design(const std::string& spec_name, Scale scale);

/// Parse MEBL1 text; throws std::runtime_error when the text is rejected.
mebl::netlist::Design parse_design(const std::string& text);

// ------------------------------------------------------- benchmark spans

/// A stable C string for a span name built at run time (the tracer keeps
/// the pointer).
const char* intern(const std::string& name);

/// Record one benchmark span [start_ns, now) when the tracer is on.
void record_bench_span(const std::string& name, std::uint64_t start_ns);

/// Stage-boundary observer: stamps a bench.stage.<name> span per stage and
/// keeps each stage's wall time, including the metrics stage, which
/// RoutingResult::times does not carry.
class StageStamp final : public mebl::core::ProgressObserver {
 public:
  void on_stage_begin(mebl::core::Stage stage) override;
  void on_stage_end(mebl::core::Stage stage, double seconds) override;
  [[nodiscard]] double seconds(mebl::core::Stage stage) const;

 private:
  std::map<mebl::core::Stage, std::uint64_t> begin_ns_;
  std::map<mebl::core::Stage, double> seconds_;
};

// --------------------------------------------------- span self-time table

/// Per-name totals of a recorded span set. A span's self time is its
/// duration minus the part covered by its direct children on the same
/// thread.
struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanTable {
 public:
  explicit SpanTable(std::vector<mebl::telemetry::SpanEvent> events);

  [[nodiscard]] SpanTotals get(const std::string& name) const;
  /// Durations (seconds) of spans named `name` whose nesting depth equals
  /// the shallowest depth that name reaches (drops re-entrant inner copies,
  /// such as the ECO verify replay inside an ECO).
  [[nodiscard]] std::vector<double> outer_durations(
      const std::string& name) const;
  /// Self times (seconds) of the outermost spans named `name`.
  [[nodiscard]] std::vector<double> outer_self(const std::string& name) const;
  /// Print the table, largest self time first.
  [[nodiscard]] std::vector<std::string> lines(std::size_t limit) const;

 private:
  std::vector<mebl::telemetry::SpanEvent> events_;
  std::vector<double> self_s_;  ///< parallel to events_
  std::vector<int> depth_;      ///< nesting depth on its thread
  std::map<std::string, SpanTotals> totals_;
};

/// The trace lines every traced run prints: where the trace went, the span
/// self-time table (`rows` largest), and a note when spans were dropped.
void add_trace_summary(Result& result, const std::string& trace_path,
                       const SpanTable& spans, std::size_t rows);

/// Write the recorded spans as a Chrome trace to `<out_dir>/<file>`;
/// returns the path written, empty on failure.
std::string write_trace(const Options& options, const std::string& file);

}  // namespace perfbench
