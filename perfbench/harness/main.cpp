// perfbench_harness: one workload run of the repository benchmark.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// Prints the host block, every metric by name with its unit, sample counts,
// attempted/failed operations and any failed correctness check, then one
// JSON object as the last line. Exits 1 when a correctness check failed,
// 2 on bad arguments or an exception.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

using WorkloadFn = Result (*)(const Options&, std::string&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"route_mcnc", &perfbench::route_mcnc},
      {"route_ilp", &perfbench::route_ilp},
      {"serve_eco", &perfbench::serve_eco},
  };
  return table;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\nworkloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload")
      options.workload = value;
    else if (arg == "--seed")
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds")
      options.seconds = std::atof(value.c_str());
    else if (arg == "--trace")
      options.trace = value == "1";
    else if (arg == "--out-dir")
      options.out_dir = value;
    else if (arg == "--git-sha")
      options.git_sha = value;
    else if (arg == "--source-digest")
      options.source_digest = value;
    else
      return usage("unknown argument " + arg);
  }
  const auto it = workloads().find(options.workload);
  if (it == workloads().end())
    return usage("unknown workload '" + options.workload + "'");
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  mebl::util::Log::set_level(mebl::util::LogLevel::kWarn);
  try {
    std::string host;
    const Result result = it->second(options, host);
    perfbench::print_result(options, host, result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << options.workload
              << " failed: " << error.what() << "\n";
    return 2;
  }
}
