/// perfbench — the repository's benchmark program.
///
///   perfbench --workload <admit-churn|fabric-pdes> --seed <n>
///             --seconds <s> --trace <0|1>
///
/// Builds the workload's inputs from the seed, measures for the given
/// number of seconds, checks every output, and prints a `# info` line
/// (behaviour fingerprints, host, warnings) followed by the result object
/// as the last line of standard output. `--trace 0` reports the end-to-end
/// metrics, `--trace 1` the per-layer ones. Every run reports every metric
/// of its kind; a per-layer metric of a layer the workload does not
/// exercise reads 0.

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>

#include "report.hpp"

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

constexpr MetricDecl kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"core.controller.admit_us_p50", "us"},
    {"core.controller.release_us_p50", "us"},
    {"core.batched.ops_per_s", "1/s"},
    {"core.parallel.ops_per_s", "1/s"},
    {"core.accept_ratio", "ratio"},
    {"edf.feasibility_tests_per_admit", "count"},
    {"edf.demand_evals_per_admit", "count"},
    {"service.submit_us_p50", "us"},
    {"service.submit_us_p99", "us"},
    {"service.p99_us", "us"},
    {"service.p999_us", "us"},
    {"service.pipeline_us_p50", "us"},
    {"service.backlog_end", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.lag_max_us", "us"},
    {"loadgen.behind_schedule", "count"},
    {"sim.events_per_slot", "count"},
    {"sim.ns_per_event", "ns"},
    {"pdes.rounds", "count"},
    {"pdes.slots_per_round", "count"},
    {"pdes.work_s", "s"},
    {"pdes.critical_path_s", "s"},
    {"pdes.barrier_s", "s"},
    {"pdes.wall_s", "s"},
    {"pdes.imbalance", "ratio"},
    {"pdes.seq_slots_per_s", "1/s"},
    {"pdes.cut_records_per_rt_delivery", "ratio"},
    {"scenario.generate_us", "us"},
    {"scenario.run_us", "us"},
    {"scenario.sim_phase_us", "us"},
    {"scenario.battery_us", "us"},
    {"scenario.slots_per_scenario", "count"},
    {"analysis.oracle_checks_per_scenario", "count"},
    {"trace.overhead_ratio", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<admit-churn|fabric-pdes> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 64;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number) && number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      options.trace = number == 1;
    } else {
      return usage("bad argument");
    }
  }
  if (argc % 2 != 1) return usage("missing argument value");

  void (*workload)(const RunOptions&, Report&) = nullptr;
  if (options.workload == "admit-churn") {
    workload = run_admit_churn;
  } else if (options.workload == "fabric-pdes") {
    workload = run_fabric_pdes;
  } else {
    return usage("unknown workload");
  }

  Report report;
  using Decls = std::span<const MetricDecl>;
  for (const auto& metric :
       options.trace ? Decls(kPerLayer) : Decls(kEndToEnd)) {
    report.declare(metric.name, metric.unit);
  }
  report.info("workload", options.workload);
  report.info("seed", options.seed);
  report.info("trace", options.trace ? 1 : 0);
  record_host(report);

  workload(options, report);
  if (!options.trace) report.set("rss_peak_mb", rss_peak_mb());

  bool complete = true;
  if (!options.trace) {
    for (const std::string& name : report.unset()) {
      report.note("end-to-end metric " + name + " was not measured");
      complete = false;
    }
  }
  report.print(complete && report.failed() == 0);
  return 0;
}
