#pragma once
// The benchmark workloads. Every workload runs the same two phases over its
// own designs and pipeline configuration, so every workload reports every
// end-to-end metric:
//
//   1. batch: StitchAwareRouter::run of every design at 1 and N threads,
//      repeated in pairs, with set-up (parse) passes between the routes;
//   2. ECO: an in-process serve::Server holding the same designs as
//      residents, driven by one closed-loop client per resident.
//
// Each workload function fills `host` with its host block and returns the
// run's result; --trace selects the per-layer (traced) run, which never
// feeds the end-to-end numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/router_config.hpp"

namespace perfbench {

/// One workload: its designs, the configuration both phases route with,
/// how --seconds is split between the phases, and the pinned quality.
struct WorkloadSpec {
  std::vector<std::string> designs;
  mebl::core::RouterConfig config;
  std::string config_json;  ///< the configuration, for the host block
  /// Share of --seconds the batch phase repeats (1, N) pairs for; the ECO
  /// phase's stream is sized to take about the rest.
  double batch_share = 0.5;
  /// ECOs each client sends per second of the ECO phase.
  double eco_rate = 1.0;
  /// Whether --seed picks the ECO streams. Where it does not, every run
  /// sends kDefaultSeed's streams: on route_ilp the per-seed streams moved
  /// eco_p50_ms between 165 and 280 ms, and each seed repeated its figure
  /// across runs, so the spread was the inputs', not the program's.
  bool eco_streams_follow_seed = false;
  /// Batch-route totals over the designs; the circuits do not depend on
  /// --seed, so every run checks them.
  Quality pinned;
  std::int64_t pinned_global_wirelength = 0;
  /// Resident totals after kDefaultSeed's ECO streams at the default
  /// --seconds (the streams depend on both).
  Quality pinned_final;
};

/// The --seconds the final resident state is pinned at (BENCHMARK.json's
/// run_seconds).
inline constexpr double kPinnedSeconds = 30.0;

/// S13207 + Primary2, default stitch-aware pipeline: detail-bound.
Result route_mcnc(const Options& options, std::string& host);

/// Primary1 + S9234 with node-budgeted ILP track assignment: assign-bound.
Result route_ilp(const Options& options, std::string& host);

/// S9234 + Primary1 with the multilevel global pass; most of the run is
/// the ECO stream.
Result serve_eco(const Options& options, std::string& host);

// ------------------------------------------------------------- ECO phase

/// ECOs each client sends in a run of `options.seconds`.
int ecos_per_client(const Options& options, const WorkloadSpec& spec);

/// The seed of the run's ECO streams.
std::uint64_t eco_seed(const Options& options, const WorkloadSpec& spec);

/// The ECO phase's budgets as JSON members (no braces), for the host block.
std::string eco_budgets(const Options& options, const WorkloadSpec& spec);

/// The ECO phase of an untraced run: starts a daemon holding `inputs`
/// (routed with spec.config), checks that its resident routes reproduce
/// `batch` (per-design quality of the batch phase), runs the two clients'
/// streams and adds eco_p50_ms, eco_tail_ms and eco_per_s with their
/// sample counts, and checks the residents' final quality.
void eco_measure(const Options& options, const WorkloadSpec& spec,
                 const std::vector<DesignInput>& inputs,
                 const std::vector<Quality>& batch, Result& result);

/// The ECO phase of a traced run: the same streams with the tracer on,
/// adding the serve.*, report.* and routed_state.* per-layer metrics.
void eco_traced(const Options& options, const WorkloadSpec& spec,
                const std::vector<DesignInput>& inputs,
                const std::vector<Quality>& batch, Result& result);

}  // namespace perfbench
