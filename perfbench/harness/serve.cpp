// The workloads' ECO phase: an in-process mebl_serve Server (2 lanes, 2
// router threads) holding the workload's two designs as residents, driven
// over AF_UNIX by two closed-loop clients, one per resident, so ECOs never
// coalesce.
//
// Each client sends a fixed stream seeded by --seed: 3/4 net reroutes of
// 1-10 random routable nets, 1/4 pin moves to free on-track points,
// verify on every 16th ECO and a status read after every 4th. The stream
// length is the ECO phase's share of --seconds x the workload's ECO rate,
// so a given (seed, seconds) always leaves the residents in the same final
// state.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "report/report.hpp"
#include "serve/client.hpp"
#include "serve/lane_scheduler.hpp"
#include "serve/resident_design.hpp"
#include "serve/server.hpp"
#include "telemetry/keys.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mebl;
namespace keys = telemetry::keys;

constexpr int kLanes = 2;
constexpr int kThreads = 2;
constexpr int kVerifyEvery = 16;
constexpr int kStatusEvery = 4;
constexpr double kEcoDeadlineSeconds = 60.0;

}  // namespace

int ecos_per_client(const Options& options, const WorkloadSpec& spec) {
  const double eco_seconds = options.seconds * (1.0 - spec.batch_share);
  return std::max(kVerifyEvery,
                  static_cast<int>(std::lround(eco_seconds * spec.eco_rate)));
}

std::uint64_t eco_seed(const Options& options, const WorkloadSpec& spec) {
  return spec.eco_streams_follow_seed ? options.seed : kDefaultSeed;
}

std::string eco_budgets(const Options& options, const WorkloadSpec& spec) {
  return "\"eco_seed\": " + std::to_string(eco_seed(options, spec)) +
         ", \"lanes\": " + std::to_string(kLanes) +
         ", \"threads\": " + std::to_string(kThreads) +
         ", \"clients\": 2, \"ecos_per_client\": " +
         std::to_string(ecos_per_client(options, spec)) +
         ", \"verify_every\": " + std::to_string(kVerifyEvery) +
         ", \"status_every\": " + std::to_string(kStatusEvery) +
         ", \"eco_deadline_s\": " +
         std::to_string(static_cast<int>(kEcoDeadlineSeconds));
}

namespace {

struct Resident {
  std::string key;  ///< design name on the wire; hashes to its own lane
  DesignInput input;
  netlist::Design design;  ///< the client's view, for picking ECO targets
};

std::vector<Resident> make_residents(const std::vector<DesignInput>& inputs) {
  std::vector<Resident> residents;
  std::set<std::size_t> lanes;
  for (const DesignInput& input : inputs) {
    std::string key = input.name;
    for (int suffix = 1;
         !lanes.insert(serve::LaneScheduler::lane_for(key, kLanes)).second;
         ++suffix)
      key = input.name + "-" + std::to_string(suffix);
    residents.push_back({key, input, parse_design(input.text)});
  }
  return residents;
}

serve::ServerConfig server_config(const Options& options,
                                  const WorkloadSpec& spec) {
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  serve::ServerConfig config;
  config.socket_path = options.out_dir + "/serve-" +
                       std::to_string(::getpid()) + ".sock";
  config.threads = kThreads;
  config.lanes = kLanes;
  config.router = spec.config;
  return config;
}

Quality quality_of(const eval::RouteMetrics& m) {
  return {m.total_nets - m.routed_nets, m.short_polygons, m.via_violations,
          m.wirelength};
}

std::optional<report::RunReport> report_of(const serve::Response& response) {
  const report::Json* json = response.payload.get("report");
  if (json == nullptr) return std::nullopt;
  return report::parse_run_report(*json);
}

// ----------------------------------------------------------------- set-up

struct Daemon {
  std::unique_ptr<serve::Server> server;
  double startup_s = 0.0;  ///< start() until both residents are routed
};

/// Start a daemon and make every resident loaded and routed; each
/// resident's route must reproduce the batch phase's quality counts.
Daemon start_daemon(const Options& options, const WorkloadSpec& spec,
                    const std::vector<Resident>& residents,
                    const std::vector<Quality>& batch, Result& result) {
  Daemon daemon;
  const serve::ServerConfig config = server_config(options, spec);
  const double start = now_s();
  daemon.server = std::make_unique<serve::Server>(config);
  if (!daemon.server->start())
    throw std::runtime_error("cannot start the server on " +
                             config.socket_path);
  std::vector<std::optional<Quality>> routed(residents.size());
  std::vector<int> failures(residents.size(), 0);
  std::vector<std::thread> loaders;
  for (std::size_t r = 0; r < residents.size(); ++r)
    loaders.emplace_back([&, r] {
      serve::Client client;
      if (!client.connect(config.socket_path)) {
        failures[r] = 2;
        return;
      }
      serve::Request load;
      load.op = serve::Op::kLoad;
      load.design = residents[r].key;
      load.design_text = residents[r].input.text;
      const auto loaded = client.call(load);
      if (!loaded || loaded->type != "done") {
        failures[r] = 2;
        return;
      }
      serve::Request route;
      route.op = serve::Op::kRoute;
      route.design = residents[r].key;
      const auto answer = client.call(route);
      const auto report = answer ? report_of(*answer) : std::nullopt;
      if (!answer || answer->type != "done" || !report) {
        failures[r] = 1;
        return;
      }
      routed[r] = quality_of(report->metrics);
    });
  for (std::thread& loader : loaders) loader.join();
  daemon.startup_s = now_s() - start;
  for (std::size_t r = 0; r < residents.size(); ++r) {
    result.attempted += 2;
    result.failed += failures[r];
    result.check(routed[r].has_value() && r < batch.size() &&
                     *routed[r] == batch[r],
                 "the daemon's route of " + residents[r].input.name +
                     " differs from the batch route's quality counts");
  }
  return daemon;
}

// -------------------------------------------------------------- ECO load

/// What one client observed over its stream.
struct ClientLog {
  std::vector<double> eco_ms;     ///< per ECO; failures count as the cap
  std::vector<double> job_s;      ///< server-side incremental seconds
  std::vector<bool> verify;       ///< parallel to eco_ms
  std::vector<bool> ok;           ///< parallel to eco_ms
  std::vector<double> status_ms;
  std::vector<double> response_bytes;
  std::int64_t status_failed = 0;
  std::int64_t dirty_subnets = 0;
  std::int64_t fallback_full = 0;
  std::int64_t verified = 0;
  std::int64_t verify_mismatch = 0;
  std::optional<report::RunReport> final_report;
};

struct PinMove {
  netlist::PinId pin = -1;
  geom::Point to;
};

/// The stream generator: the client's own view of the resident's pins.
class EcoStream {
 public:
  EcoStream(const netlist::Design& design, std::uint64_t seed)
      : design_(design), rng_(seed) {
    for (const netlist::Net& net : design.netlist.nets())
      if (net.degree() >= 2) routable_.push_back(net.id);
    for (const netlist::Pin& pin : design.netlist.pins()) {
      positions_.push_back(pin.pos);
      taken_.insert({pin.pos.x, pin.pos.y});
    }
  }

  /// The next request: a pin move a quarter of the time (when a free
  /// destination turns up), otherwise a reroute of 1-10 nets.
  serve::Request next(std::optional<PinMove>& move) {
    serve::Request request;
    request.op = serve::Op::kEco;
    move.reset();
    if (rng_.chance(0.25)) move = pick_move();
    if (move) {
      request.move_pin = move->pin;
      request.move_to = move->to;
      return request;
    }
    const auto count = rng_.uniform_int(1, 10);
    std::set<netlist::NetId> nets;
    while (static_cast<std::int64_t>(nets.size()) < count)
      nets.insert(pick_net());
    request.nets.assign(nets.begin(), nets.end());
    return request;
  }

  /// The server accepted `move`: track the pin's new position.
  void applied(const PinMove& move) {
    geom::Point& at = positions_[static_cast<std::size_t>(move.pin)];
    taken_.erase({at.x, at.y});
    at = move.to;
    taken_.insert({at.x, at.y});
  }

 private:
  netlist::NetId pick_net() {
    return routable_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(routable_.size()) - 1))];
  }

  std::optional<PinMove> pick_move() {
    const grid::RoutingGrid& grid = design_.grid;
    for (int attempt = 0; attempt < 20; ++attempt) {
      const netlist::Net& net = design_.netlist.net(pick_net());
      const netlist::PinId pin = net.pins[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(net.degree()) - 1))];
      const geom::Point from = positions_[static_cast<std::size_t>(pin)];
      const geom::Point to{
          static_cast<geom::Coord>(from.x + rng_.uniform_int(-4, 4)),
          static_cast<geom::Coord>(from.y + rng_.uniform_int(-4, 4))};
      if (to == from || !grid.in_bounds(to) ||
          grid.stitch().is_stitch_column(to.x) ||
          taken_.count({to.x, to.y}) != 0)
        continue;
      return PinMove{pin, to};
    }
    return std::nullopt;
  }

  const netlist::Design& design_;
  util::Rng rng_;
  std::vector<netlist::NetId> routable_;
  std::vector<geom::Point> positions_;
  std::set<std::pair<geom::Coord, geom::Coord>> taken_;
};

void run_client(const std::string& socket, const Resident& resident,
                std::uint64_t seed, int count, double fail_ms, ClientLog& log) {
  serve::Client client;
  const bool connected = client.connect(socket);
  EcoStream stream(resident.design, seed);
  for (int i = 0; i < count; ++i) {
    std::optional<PinMove> move;
    serve::Request request = stream.next(move);
    request.design = resident.key;
    request.deadline_seconds = kEcoDeadlineSeconds;
    request.verify = i % kVerifyEvery == kVerifyEvery - 1;
    const std::uint64_t start_ns = telemetry::now_ns();
    const double start = now_s();
    const std::optional<serve::Response> response =
        connected ? client.call(request) : std::nullopt;
    const double ms = (now_s() - start) * 1e3;
    const bool ok = response && response->type == "done";
    if (response) {
      // The benchmark's own per-request span, keyed by client and id.
      const telemetry::RequestScope scope(
          (seed << 32) | static_cast<std::uint64_t>(response->id));
      record_bench_span("bench.eco", start_ns);
    }
    log.eco_ms.push_back(ok ? ms : fail_ms);
    log.verify.push_back(request.verify);
    log.ok.push_back(ok);
    log.job_s.push_back(0.0);
    if (ok) {
      if (const report::Json* seconds = response->payload.get("seconds"))
        log.job_s.back() = seconds->as_double();
      log.response_bytes.push_back(
          static_cast<double>(serve::encode(*response).size()));
      if (const report::Json* eco = response->payload.get("eco")) {
        if (const report::Json* dirty = eco->get("dirty_subnets"))
          log.dirty_subnets += dirty->as_int();
        if (const report::Json* full = eco->get("fallback_full"))
          log.fallback_full += full->as_bool() ? 1 : 0;
        if (request.verify) {
          const report::Json* verified = eco->get("verified");
          const report::Json* mismatch = eco->get("verify_mismatch");
          log.verified += verified != nullptr && verified->as_bool();
          log.verify_mismatch += mismatch == nullptr || mismatch->as_bool();
        }
      }
      if (move) stream.applied(*move);
      if (i + 1 == count) log.final_report = report_of(*response);
    }
    if (i % kStatusEvery == kStatusEvery - 1) {
      serve::Request status;
      status.op = serve::Op::kStatus;
      const double status_start = now_s();
      const auto answer = connected ? client.call(status) : std::nullopt;
      if (answer && answer->type == "ack")
        log.status_ms.push_back((now_s() - status_start) * 1e3);
      else
        ++log.status_failed;
    }
  }
}

struct Phase {
  std::vector<ClientLog> logs;
  double seconds = 0.0;
  int per_client = 0;
};

Phase run_phase(const Options& options, const WorkloadSpec& spec,
                const std::vector<Resident>& residents,
                const std::string& socket) {
  Phase phase;
  phase.per_client = ecos_per_client(options, spec);
  phase.logs.resize(residents.size());
  const double fail_ms = std::max(options.seconds, kEcoDeadlineSeconds) * 1e3;
  const double start = now_s();
  std::vector<std::thread> clients;
  for (std::size_t r = 0; r < residents.size(); ++r)
    clients.emplace_back([&, r] {
      run_client(socket, residents[r], eco_seed(options, spec) * 2 + r + 1,
                 phase.per_client, fail_ms, phase.logs[r]);
    });
  for (std::thread& client : clients) client.join();
  phase.seconds = now_s() - start;
  return phase;
}

/// Account the phase's operations and checks; returns the pooled ECO
/// latencies.
std::vector<double> account(const Phase& phase, Result& result) {
  std::vector<double> latencies;
  for (const ClientLog& log : phase.logs) {
    latencies.insert(latencies.end(), log.eco_ms.begin(), log.eco_ms.end());
    for (const bool ok : log.ok) {
      ++result.attempted;
      result.failed += ok ? 0 : 1;
    }
    result.attempted +=
        static_cast<std::int64_t>(log.status_ms.size()) + log.status_failed;
    result.failed += log.status_failed;
    std::int64_t requested = 0;
    for (std::size_t i = 0; i < log.verify.size(); ++i)
      requested += log.verify[i] && log.ok[i];
    result.check(log.verified == requested && log.verify_mismatch == 0,
                 "ECO verify: " + std::to_string(log.verified) + " of " +
                     std::to_string(requested) + " verified, " +
                     std::to_string(log.verify_mismatch) + " mismatched");
  }
  return latencies;
}

/// The residents' quality after their streams, checked against the pinned
/// values when the streams are kDefaultSeed's at the default --seconds.
void final_quality(const Options& options, const WorkloadSpec& spec,
                   const Phase& phase, Result& result) {
  Quality total;
  for (const ClientLog& log : phase.logs) {
    result.check(log.final_report.has_value(),
                 "a client's final ECO returned no run report");
    if (!log.final_report) continue;
    const eval::RouteMetrics& m = log.final_report->metrics;
    total += quality_of(m);
    result.check(m.vertical_violations == 0,
                 "vertical wires on stitching lines after the ECO stream");
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "quality (final resident state) unrouted_nets=%lld "
                "short_polygons=%lld via_violations=%lld wirelength=%lld",
                static_cast<long long>(total.unrouted),
                static_cast<long long>(total.short_polygons),
                static_cast<long long>(total.via_violations),
                static_cast<long long>(total.wirelength));
  result.detail(line);
  if (eco_seed(options, spec) == kDefaultSeed &&
      options.seconds == kPinnedSeconds)
    result.check(total == spec.pinned_final,
                 "final resident quality differs from the values pinned "
                 "for seed " + std::to_string(kDefaultSeed));
}

template <typename Fn>
std::vector<double> each_eco(const Phase& phase, Fn fn) {
  std::vector<double> out;
  for (const ClientLog& log : phase.logs)
    for (std::size_t i = 0; i < log.eco_ms.size(); ++i)
      if (log.ok[i]) fn(log, i, out);
  return out;
}

}  // namespace

void eco_measure(const Options& options, const WorkloadSpec& spec,
                 const std::vector<DesignInput>& inputs,
                 const std::vector<Quality>& batch, Result& result) {
  const std::vector<Resident> residents = make_residents(inputs);
  Daemon daemon = start_daemon(options, spec, residents, batch, result);
  const Phase phase =
      run_phase(options, spec, residents, daemon.server->socket_path());
  daemon.server->stop();

  const std::vector<double> latencies = account(phase, result);
  std::int64_t succeeded = 0;
  std::vector<double> medians;
  for (const ClientLog& log : phase.logs) {
    for (const bool ok : log.ok) succeeded += ok;
    medians.push_back(median(log.eco_ms));
  }
  const Tail tail = tail_of(latencies);
  result.add("eco_p50_ms", mean(medians), "ms");
  result.add("eco_tail_ms", tail.value, "ms");
  result.add("eco_per_s", static_cast<double>(succeeded) / phase.seconds,
             "1/s");
  final_quality(options, spec, phase, result);

  char line[256];
  std::snprintf(line, sizeof line,
                "eco_p50_ms: mean of the %zu residents' median latencies "
                "(%s ms) over %d ECOs each; eco_tail_ms is p%g of all %zu "
                "with %zu samples beyond it",
                medians.size(), listing(medians).c_str(), phase.per_client,
                tail.percentile, latencies.size(), tail.beyond);
  result.detail(line);
  std::int64_t status_reads = 0;
  for (const ClientLog& log : phase.logs)
    status_reads += static_cast<std::int64_t>(log.status_ms.size());
  std::snprintf(line, sizeof line,
                "eco_per_s: %lld completed ECOs over a %.3f s phase; %lld "
                "status reads beside them; daemon start-up (load and route "
                "both residents) took %.3f s",
                static_cast<long long>(succeeded), phase.seconds,
                static_cast<long long>(status_reads), daemon.startup_s);
  result.detail(line);
  result.detail("a failed or timed-out ECO counts as " +
                std::to_string(static_cast<int>(
                    std::max(options.seconds, kEcoDeadlineSeconds))) +
                " s, past every latency limit");
}

void eco_traced(const Options& options, const WorkloadSpec& spec,
                const std::vector<DesignInput>& inputs,
                const std::vector<Quality>& batch, Result& result) {
  const std::vector<Resident> residents = make_residents(inputs);
  Daemon daemon = start_daemon(options, spec, residents, batch, result);
  telemetry::Tracer::set_capacity(std::size_t{1} << 21);
  telemetry::Tracer::clear();
  const telemetry::StatsSnapshot before = telemetry::snapshot_counters();
  telemetry::Tracer::enable();
  const Phase phase =
      run_phase(options, spec, residents, daemon.server->socket_path());
  telemetry::Tracer::disable();
  const telemetry::StatsSnapshot counters =
      telemetry::delta(before, telemetry::snapshot_counters());
  daemon.server->stop();
  const SpanTable spans(telemetry::Tracer::events());
  const std::string path = write_trace(
      options, options.workload + "-seed" + std::to_string(options.seed) +
                   "-eco.trace.json");
  telemetry::Tracer::clear();
  account(phase, result);
  final_quality(options, spec, phase, result);

  const auto ms = [](std::vector<double> seconds) {
    for (double& value : seconds) value *= 1e3;
    return seconds;
  };
  const std::vector<double> eco_ms = each_eco(
      phase, [](const ClientLog& log, std::size_t i, std::vector<double>& out) {
        out.push_back(log.eco_ms[i]);
      });
  const double ecos = static_cast<double>(eco_ms.size());
  const auto per_eco_ms = [&](const std::string& name) {
    double sum = 0.0;
    for (const double value : spans.outer_durations(name)) sum += value;
    return ecos > 0 ? sum * 1e3 / ecos : 0.0;
  };
  const std::vector<double> queue_ms =
      ms(spans.outer_durations("serve.queue_wait"));
  const std::vector<double> dispatch_ms =
      ms(spans.outer_durations("serve.dispatch"));
  std::int64_t dirty = 0;
  std::int64_t fallback = 0;
  std::vector<double> bytes;
  std::vector<double> status_ms;
  for (const ClientLog& log : phase.logs) {
    dirty += log.dirty_subnets;
    fallback += log.fallback_full;
    bytes.insert(bytes.end(), log.response_bytes.begin(),
                 log.response_bytes.end());
    status_ms.insert(status_ms.end(), log.status_ms.begin(),
                     log.status_ms.end());
  }
  // Client latency minus the server's incremental seconds: the verify
  // replay's share is the difference between verified and plain ECOs.
  const auto overhead = [&](bool verify) {
    return mean(each_eco(phase, [verify](const ClientLog& log, std::size_t i,
                                         std::vector<double>& out) {
      if (log.verify[i] == verify)
        out.push_back(log.eco_ms[i] - log.job_s[i] * 1e3);
    }));
  };

  result.add("serve.queue_wait_p50_ms", median(queue_ms), "ms");
  result.add("serve.job_eco_p50_ms", median(dispatch_ms), "ms");
  result.add("serve.wire_ms", mean(eco_ms) - mean(queue_ms) - mean(dispatch_ms),
             "ms");
  result.add("serve.eco.global_ms", per_eco_ms("serve.eco.global"), "ms");
  result.add("serve.eco.assign_ms", per_eco_ms("serve.eco.assign"), "ms");
  result.add("serve.eco.detail_ms", per_eco_ms("serve.eco.detail"), "ms");
  result.add("serve.eco.sp_cleanup_ms", per_eco_ms("detail.sp_cleanup"), "ms");
  result.add("serve.eco.dirty_subnets",
             ecos > 0 ? static_cast<double>(dirty) / ecos : 0.0, "count");
  result.add("serve.eco.astar_per_dirty",
             dirty > 0 ? static_cast<double>(
                             counters.value(keys::kAstarSearches)) /
                             static_cast<double>(dirty)
                       : 0.0,
             "ratio");
  result.add_count("serve.eco.fallback_full", fallback);
  result.add("serve.verify_ms", overhead(true) - overhead(false), "ms");
  result.add("serve.status_p50_ms", median(status_ms), "ms");
  result.add("report.response_bytes", mean(bytes), "bytes");

  // Routed-state round trip through the public API, on a private resident.
  {
    serve::ResidentDesign resident(parse_design(residents.front().input.text),
                                   spec.config);
    const serve::EcoOutcome routed = resident.route_full();
    result.check(routed.ok, "private resident route failed");
    std::ostringstream out;
    const double save_start = now_s();
    result.check(resident.save_state(out), "save_state failed");
    const double save_s = now_s() - save_start;
    const std::string state = out.str();
    std::istringstream in(state);
    const double load_start = now_s();
    const auto loaded = serve::ResidentDesign::from_state(in, spec.config);
    const double load_s = now_s() - load_start;
    result.check(loaded != nullptr, "from_state rejected a saved state");
    result.add_count("routed_state.bytes",
                     static_cast<std::int64_t>(state.size()), "bytes");
    result.add("routed_state.save_ms", save_s * 1e3, "ms");
    result.add("routed_state.load_ms", load_s * 1e3, "ms");
  }

  result.detail("per-ECO means over " + std::to_string(eco_ms.size()) +
                " ECOs from request-tagged lane spans; verify replays "
                "(nested serve.eco spans) excluded");
  result.detail("routed_state.*: save_state/from_state of a private " +
                residents.front().input.name + " resident");
  add_trace_summary(result, path, spans, 20);
  result.note(
      "serve.eco.astar_per_dirty: the A* search counter also counts the "
      "verify replays (1 ECO in 16)");
}

}  // namespace perfbench
