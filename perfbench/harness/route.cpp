// The workloads' batch phase, the full four-stage pipeline
// (StitchAwareRouter::run) over two laptop-scale circuits timed at 1 and N
// worker threads, and how each workload composes it with the ECO phase
// (serve.cpp).

#include <cstdio>
#include <optional>

#include "core/stitch_router.hpp"
#include "netlist/decompose.hpp"
#include "report/report.hpp"
#include "telemetry/keys.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mebl;
namespace keys = telemetry::keys;

/// Set-up: parse every design from its MEBL1 text, ~1-7 ms for two
/// laptop designs. The host's speed drifts over seconds, so one batch
/// timed at the start of a run (7 forked processes of 10 passes each)
/// spread 36 % over 8 runs. Instead, after warm-up passes for
/// kWarmupSeconds, kPassesPerSlot passes are timed after every timed
/// design route and as many again after the ECO phase, so the samples span
/// the run; setup_s is their median.
constexpr double kWarmupSeconds = 0.15;
constexpr int kPassesPerSlot = 10;


/// One timed StitchAwareRouter::run of one design.
struct Routed {
  double seconds = 0.0;
  core::StageTimes times;
  double metrics_s = 0.0;
  std::uint64_t canonical = 0;  ///< hash of the canonical run report
  Quality quality;
  std::int64_t global_wirelength = 0;
  int vertical_violations = 0;
  bool cancelled = false;
  telemetry::StatsSnapshot stats;
  std::uint64_t astar_ns = 0;  ///< detail.astar.search_ns delta
};

Routed route_once(const netlist::Design& design, const std::string& name,
                  const core::RouterConfig& base, int threads,
                  exec::ThreadPool& pool) {
  core::RouterConfig config = base;
  config.with_threads(threads);
  core::StitchAwareRouter router(design.grid, design.netlist, config);
  router.set_pool(&pool);
  StageStamp stamp;
  router.set_observer(&stamp);
  telemetry::Histogram& astar = telemetry::histogram(keys::kAstarSearchNs);
  const std::uint64_t astar_before = astar.total_ns();
  const std::uint64_t start_ns = telemetry::now_ns();
  const double start = now_s();
  const core::RoutingResult result = router.run();
  Routed out;
  out.seconds = now_s() - start;
  record_bench_span("bench.route." + name + ".t" + std::to_string(threads),
                    start_ns);
  out.astar_ns = astar.total_ns() - astar_before;
  out.times = result.times;
  out.metrics_s = stamp.seconds(core::Stage::kMetrics);
  const eval::RouteMetrics& m = result.metrics;
  out.quality = {m.total_nets - m.routed_nets, m.short_polygons,
                 m.via_violations, m.wirelength};
  out.global_wirelength = result.global.wirelength;
  out.vertical_violations = m.vertical_violations;
  out.cancelled = result.cancelled;
  out.stats = result.stats();
  report::WriteOptions canonical;
  canonical.include_timing = false;
  out.canonical = fnv1a(report::serialize(
      report::build_run_report(result, design.grid, design.netlist),
      canonical));
  return out;
}

/// Shared state of one pipeline run: inputs, parsed designs, and the
/// per-design reference outcome every later route must reproduce.
class PipelineRun {
 public:
  PipelineRun(const WorkloadSpec& workload, Result& result)
      : workload_(workload), result_(result) {
    for (const std::string& name : workload.designs)
      inputs_.push_back(make_design(name, Scale::kLaptop));
    for (const DesignInput& input : inputs_)
      designs_.push_back(parse_design(input.text));
    const double begin = now_s();
    while (now_s() - begin < kWarmupSeconds) parse_pass();
    reference_.resize(designs_.size());
  }

  /// Route every design once at `threads`; returns the summed wall time.
  /// After sample_setup_between_routes(), a set-up slot follows every
  /// design's route (outside its timing).
  double route_all(int threads, std::vector<Routed>* keep = nullptr) {
    double sum = 0.0;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      Routed routed = route_once(designs_[d], inputs_[d].name,
                                 workload_.config, threads,
                                 pools_.get(threads));
      check(d, threads, routed);
      sum += routed.seconds;
      if (keep != nullptr) keep->push_back(std::move(routed));
      if (sample_between_routes_) sample_setup();
    }
    return sum;
  }

  /// Per-design quality of the first route (every later one must match).
  [[nodiscard]] std::vector<Quality> per_design() const {
    std::vector<Quality> out;
    for (const auto& reference : reference_)
      out.push_back(reference ? reference->quality : Quality{});
    return out;
  }

  [[nodiscard]] Quality totals() const {
    Quality total;
    for (const Quality& quality : per_design()) total += quality;
    return total;
  }

  [[nodiscard]] std::int64_t global_wirelength() const {
    std::int64_t total = 0;
    for (const auto& reference : reference_)
      if (reference) total += reference->global_wirelength;
    return total;
  }

  void check_pinned() {
    const Quality total = totals();
    char line[256];
    std::snprintf(line, sizeof line,
                  "quality (batch) unrouted_nets=%lld short_polygons=%lld "
                  "via_violations=%lld wirelength=%lld "
                  "global_wirelength=%lld (equal at 1 and N threads and "
                  "across repetitions)",
                  static_cast<long long>(total.unrouted),
                  static_cast<long long>(total.short_polygons),
                  static_cast<long long>(total.via_violations),
                  static_cast<long long>(total.wirelength),
                  static_cast<long long>(global_wirelength()));
    result_.detail(line);
    result_.check(total == workload_.pinned &&
                      global_wirelength() == workload_.pinned_global_wirelength,
                  "batch quality counts differ from the pinned values");
  }

  [[nodiscard]] const std::vector<DesignInput>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<netlist::Design>& designs() const {
    return designs_;
  }
  void sample_setup_between_routes() { sample_between_routes_ = true; }
  /// Time kPassesPerSlot set-up passes.
  void sample_setup() {
    for (int pass = 0; pass < kPassesPerSlot; ++pass)
      setup_samples_.push_back(parse_pass());
  }
  [[nodiscard]] const std::vector<double>& setup_samples() const {
    return setup_samples_;
  }

 private:
  /// One set-up pass into scratch designs (the routed ones stay put).
  double parse_pass() {
    std::vector<netlist::Design> parsed;
    const double start = now_s();
    for (const DesignInput& input : inputs_)
      parsed.push_back(parse_design(input.text));
    return now_s() - start;
  }

  void check(std::size_t d, int threads, const Routed& routed) {
    ++result_.attempted;
    const std::string where =
        inputs_[d].name + " at " + std::to_string(threads) + " thread(s)";
    if (routed.cancelled) {
      ++result_.failed;
      result_.check(false, "route cancelled: " + where);
      return;
    }
    result_.check(routed.vertical_violations == 0,
                  "vertical wires on stitching lines: " + where);
    if (!reference_[d]) {
      reference_[d] = routed;
      return;
    }
    result_.check(routed.canonical == reference_[d]->canonical,
                  "canonical report bytes differ from the first route: " +
                      where);
    result_.check(routed.quality == reference_[d]->quality,
                  "quality counts differ from the first route: " + where);
  }

  const WorkloadSpec& workload_;
  Result& result_;
  std::vector<DesignInput> inputs_;
  std::vector<netlist::Design> designs_;
  std::vector<std::optional<Routed>> reference_;
  std::vector<double> setup_samples_;
  bool sample_between_routes_ = false;
  Pools pools_;
};

/// The batch phase runs on this share of --seconds.
Options batch_options(const Options& options, const WorkloadSpec& workload) {
  Options batch = options;
  batch.seconds = options.seconds * workload.batch_share;
  return batch;
}

Result measure(const Options& options, const WorkloadSpec& workload) {
  Result result;
  PipelineRun run(workload, result);
  run.sample_setup_between_routes();
  const Repetitions reps =
      repeat_pairs(batch_options(options, workload),
                   [&run](int threads) { return run.route_all(threads); });
  const std::vector<double>& sums_1t = reps.one;
  const std::vector<double>& sums_nt = reps.many;
  result.add("route_1t_s", median(sums_1t), "s");
  result.add("route_nt_s", median(sums_nt), "s");
  result.detail("route_1t_s: median of " + std::to_string(sums_1t.size()) +
                " repetitions: " + listing(sums_1t));
  result.detail("route_nt_s: median of " + std::to_string(sums_nt.size()) +
                " repetitions at N = " + std::to_string(threads_n()) + ": " +
                listing(sums_nt));
  run.check_pinned();

  eco_measure(options, workload, run.inputs(), run.per_design(), result);
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  // As many set-up passes again after the ECO phase, so the samples span
  // the whole run rather than its batch share.
  const std::size_t slots = run.setup_samples().size() / kPassesPerSlot;
  for (std::size_t slot = 0; slot < slots; ++slot) run.sample_setup();
  // Nearest-rank q1 and q3 of the passes: far apart when the host switched
  // between its fast and slow states during the run.
  std::vector<double> setup_ms = run.setup_samples();
  for (double& value : setup_ms) value *= 1e3;
  const std::vector<double> quartiles = {
      tail_of(setup_ms, setup_ms.size() * 3 / 4).value,
      tail_of(setup_ms, setup_ms.size() / 4).value};
  result.add("setup_s", median(run.setup_samples()), "s");
  result.detail("setup_s: median of " + std::to_string(setup_ms.size()) +
                " parse passes after warm-up: " +
                std::to_string(kPassesPerSlot) +
                " after every timed design route, as many again after the "
                "ECO phase; q1 q3 (ms): " + listing(quartiles));
  const Quality total = run.totals();
  result.add_count("short_polygons", total.short_polygons);
  result.add_count("via_violations", total.via_violations);
  result.add_count("wirelength", total.wirelength);
  result.add_count("global_wirelength", run.global_wirelength());
  result.note("unrouted_nets is 0 on some workloads and a metric must "
              "never read 0, so it is printed on the quality lines and "
              "checked against its pinned value, but is not a metric");
  return result;
}

template <typename Field>
double sum_of(const std::vector<Routed>& runs, Field field) {
  double sum = 0.0;
  for (const Routed& routed : runs) sum += field(routed);
  return sum;
}

Result traced(const Options& options, const WorkloadSpec& workload) {
  Result result;
  PipelineRun run(workload, result);
  run.sample_setup();
  const int n = threads_n();
  std::vector<Routed> one;
  std::vector<Routed> many;
  const TracedRun traced =
      traced_repetitions(batch_options(options, workload),
                         [&](int threads, Keep keep) {
        return run.route_all(threads, keep == Keep::kOne    ? &one
                                      : keep == Keep::kMany ? &many
                                                            : nullptr);
      });

  const SpanTable spans(traced.events_1t);
  std::int64_t subnets = 0;
  for (const netlist::Design& design : run.designs())
    subnets += static_cast<std::int64_t>(
        netlist::decompose_all(design.netlist).size());

  const auto global_s = [](const Routed& r) { return r.times.global_seconds; };
  const auto assign_s = [](const Routed& r) {
    return r.times.layer_seconds + r.times.track_seconds;
  };
  const auto detail_s = [](const Routed& r) { return r.times.detail_seconds; };

  result.add("netlist.parse_s", median(run.setup_samples()), "s");
  const double g1 = sum_of(one, global_s);
  const double gn = sum_of(many, global_s);
  result.add("global.s", g1, "s");
  result.add("global.nt_s", gn, "s");
  result.add("global.parallel_eff", ratio(g1, n * gn), "ratio");
  result.add_count("global.search.pops",
                   counter_sum(one, keys::kGlobalSearchPops));
  const std::int64_t rerouted = counter_sum(one, keys::kGlobalRerouted);
  result.add("global.pattern_hit_ratio",
             ratio(static_cast<double>(
                       counter_sum(one, keys::kGlobalPatternHits)),
                   static_cast<double>(subnets + rerouted)),
             "ratio");
  result.add_count("global.reroute.passes",
                   counter_sum(one, keys::kGlobalReroutePasses));
  result.add_count("global.reroute.subnets", rerouted);
  result.add("grid.storage_mb",
             static_cast<double>(counter_sum(one, keys::kGridStorageBytes)) /
                 1e6,
             "MB");
  result.add("grid.materialized_fraction",
             ratio(static_cast<double>(
                       counter_sum(one, keys::kGridTilesMaterialized)),
                   static_cast<double>(counter_sum(one, keys::kGridTilesTotal))),
             "ratio");

  const double a1 = sum_of(one, assign_s);
  const double an = sum_of(many, assign_s);
  result.add("assign.s", a1, "s");
  result.add("assign.nt_s", an, "s");
  result.add("assign.parallel_eff", ratio(a1, n * an), "ratio");
  result.add_count("assign.track.bad_ends",
                   counter_sum(one, keys::kTrackBadEnds));
  const std::int64_t nodes = counter_sum(one, keys::kTrackIlpNodes);
  result.add_count("ilp.nodes", nodes);
  result.add("ilp.nodes_per_s",
             ratio(static_cast<double>(nodes),
                   static_cast<double>(counter_sum(one, keys::kTrackIlpNs)) /
                       1e9),
             "1/s");

  const double d1 = sum_of(one, detail_s);
  const double dn = sum_of(many, detail_s);
  result.add("detail.s", d1, "s");
  result.add("detail.nt_s", dn, "s");
  result.add("detail.parallel_eff", ratio(d1, n * dn), "ratio");
  result.add("detail.main_pass_s", spans.get("detail.main_pass").total_s, "s");
  result.add("detail.rescue_s", spans.get("detail.rescue").total_s, "s");
  result.add("detail.sp_cleanup_s", spans.get("detail.sp_cleanup").total_s,
             "s");
  const std::int64_t searches = counter_sum(one, keys::kAstarSearches);
  const std::int64_t expansions = counter_sum(one, keys::kAstarExpansions);
  result.add_count("detail.astar.searches", searches);
  result.add_count("detail.astar.expansions", expansions);
  result.add("detail.astar.expansions_per_s",
             ratio(static_cast<double>(expansions),
                   sum_of(one, [](const Routed& r) {
                     return static_cast<double>(r.astar_ns) / 1e9;
                   })),
             "1/s");
  result.add("detail.astar.success_ratio",
             ratio(static_cast<double>(counter_sum(one, keys::kSubnetsAstar)),
                   static_cast<double>(searches)),
             "ratio");
  result.add_count("detail.ripup.victims",
                   counter_sum(one, keys::kRipupVictims));
  result.add_count("detail.sp_cleanup.nets",
                   counter_sum(one, keys::kSpCleanupNets));
  result.add_count("detail.subnets.failed",
                   counter_sum(one, keys::kSubnetsFailed));
  result.add("detail.subnets_per_batch",
             ratio(static_cast<double>(
                       counter_sum(one, keys::kDetailBatchedSubnets)),
                   static_cast<double>(counter_sum(one, keys::kDetailBatches))),
             "count");
  result.add_count("exec.pool.steals", counter_sum(many, keys::kExecSteals));
  result.add_count("exec.pool.idle_wakeups",
                   counter_sum(many, keys::kExecIdleWakeups));
  result.add("eval.metrics_s",
             sum_of(one, [](const Routed& r) { return r.metrics_s; }), "s");
  result.add("telemetry.trace_overhead_frac", traced.overhead_frac, "ratio");

  result.detail("per-layer 1t figures: traced 1-thread route of every "
                "design; nt figures and exec.pool.*: traced " +
                std::to_string(n) + "-thread route");
  result.detail("telemetry.trace_overhead_frac: median of " +
                std::to_string(traced.pairs) +
                " traced over as many untraced 1-thread routes");
  add_trace_summary(result, traced.trace_path, spans, 24);
  result.note(
      "detail.astar.success_ratio: the A* kernel counts searches but not "
      "failed ones; reported as subnets finally routed by A* over searches, "
      "a lower bound (a rescued subnet can take several searches)");
  result.note(
      "global.pattern_hit_ratio: global search calls are not counted; the "
      "denominator is decomposed subnets plus rerouted subnets, which also "
      "counts same-tile subnets that need no search");
  result.note(
      "ilp.*: 0 unless the workload assigns tracks with the ILP");
  run.check_pinned();
  eco_traced(options, workload, run.inputs(), run.per_design(), result);
  return result;
}

Result run(const Options& options, const WorkloadSpec& workload,
           std::string& host) {
  char split[160];
  std::snprintf(split, sizeof split,
                ", \"scale\": \"laptop\", \"batch_share\": %g, "
                "\"eco_rate_per_client\": %g, ",
                workload.batch_share, workload.eco_rate);
  host = host_block(options, workload.designs,
                    "{" + workload.config_json + split +
                        eco_budgets(options, workload) + "}");
  return options.trace ? traced(options, workload)
                       : measure(options, workload);
}

}  // namespace

Result route_mcnc(const Options& options, std::string& host) {
  WorkloadSpec workload;
  workload.designs = {"S13207", "Primary2"};
  workload.config = core::RouterConfig::stitch_aware();
  workload.config_json = "\"track_algorithm\": \"graph\"";
  workload.batch_share = 0.75;
  workload.eco_rate = 3.4;
  workload.pinned = {16, 265, 40, 423075};
  workload.pinned_global_wirelength = 12900;
  workload.pinned_final = {13, 264, 40, 423108};
  return run(options, workload, host);
}

Result route_ilp(const Options& options, std::string& host) {
  constexpr std::int64_t kNodeBudget = 50;
  WorkloadSpec workload;
  workload.designs = {"Primary1", "S9234"};
  workload.config = core::RouterConfig::stitch_aware()
                        .with_track_algorithm(core::TrackAlgorithm::kIlp)
                        .with_ilp_node_budget(kNodeBudget);
  workload.config_json = "\"track_algorithm\": \"ilp\", "
                         "\"ilp_node_budget\": " +
                         std::to_string(kNodeBudget);
  workload.batch_share = 0.5;
  workload.eco_rate = 3.4;
  workload.pinned = {0, 74, 15, 120859};
  workload.pinned_global_wirelength = 3495;
  workload.pinned_final = {0, 73, 15, 120524};
  return run(options, workload, host);
}

Result serve_eco(const Options& options, std::string& host) {
  WorkloadSpec workload;
  workload.designs = {"S9234", "Primary1"};
  workload.config = core::RouterConfig::stitch_aware();
  workload.config_json = "\"track_algorithm\": \"graph\"";
  workload.batch_share = 0.35;
  workload.eco_rate = 9.0;
  workload.eco_streams_follow_seed = true;
  workload.pinned = {0, 74, 15, 120859};
  workload.pinned_global_wirelength = 3495;
  workload.pinned_final = {0, 75, 15, 119793};
  return run(options, workload, host);
}

}  // namespace perfbench
