/// The scenario layer: what a conformance user pays per scenario.
///
/// Mixed-profile scenarios are short, so per-scenario construction,
/// protocol establishment, the engine battery and the calculus oracle
/// dominate rather than the kernel hot loop. The breakdown runs
/// `generate_scenario` / `run_scenario` one scenario at a time and splits
/// `run_scenario` into its simulation phase and its engine battery by
/// running each scenario again with that part switched off. One
/// `run_campaign` chunk over the same seeds gives the campaign fingerprint.
///
/// It rides on the traced `fabric-pdes` run: a campaign throughput
/// workload of its own could not be held steady on a shared host.

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "report.hpp"
#include "scenario/campaign.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

namespace {

namespace scenario = rtether::scenario;

/// Scenarios per `run_campaign` chunk and per block of the breakdown.
constexpr std::size_t kChunk = 256;

}  // namespace

void measure_scenario_layer(std::uint64_t seed, double seconds,
                            Report& report) {
  // 40-bit base: scenario i uses base + i, far from any other run's seeds.
  const std::uint64_t base = rtether::SplitMix64(seed).next() >> 24;

  scenario::CampaignConfig config;
  config.base_seed = base;
  config.scenario_count = kChunk;
  config.threads = 1;
  const scenario::CampaignResult campaign = scenario::run_campaign(config);
  report.attempt(campaign.scenarios_run);
  report.fail(campaign.failures, "campaign scenarios failed");
  for (const auto& failure : campaign.failing) {
    report.note("failing seed " + std::to_string(failure.seed) + ": " +
                failure.detail);
  }
  report.info("fingerprint.sim_digest_xor", hex(campaign.sim_digest_xor));

  scenario::RunnerOptions no_sim;
  no_sim.run_simulation = false;
  scenario::RunnerOptions no_battery;
  no_battery.backends = {};

  std::vector<double> generate_us;
  std::vector<double> run_us;
  std::vector<double> sim_phase_us;
  std::vector<double> battery_us;
  double slots = 0.0;
  double oracle_checks = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t n = 0;
  const auto phase = Clock::now();
  while (n == 0 || seconds_since(phase) < seconds) {
    for (std::size_t k = 0; k < kChunk; ++k, ++n) {
      const auto t0 = Clock::now();
      const scenario::ScenarioSpec spec =
          scenario::generate_scenario({}, base + n);
      const auto t1 = Clock::now();
      const scenario::ScenarioResult full = scenario::run_scenario(spec);
      const auto t2 = Clock::now();
      const scenario::ScenarioResult bare =
          scenario::run_scenario(spec, no_sim);
      const auto t3 = Clock::now();
      const scenario::ScenarioResult alone =
          scenario::run_scenario(spec, no_battery);
      const auto t4 = Clock::now();
      const double run = seconds_between(t1, t2) * 1e6;
      generate_us.push_back(seconds_between(t0, t1) * 1e6);
      run_us.push_back(run);
      sim_phase_us.push_back(run - seconds_between(t2, t3) * 1e6);
      battery_us.push_back(run - seconds_between(t3, t4) * 1e6);
      slots += static_cast<double>(full.simulated_slots);
      oracle_checks += static_cast<double>(full.oracle_checks);
      failed += (full.passed && bare.passed && alone.passed) ? 0 : 1;
    }
  }
  report.attempt(n);
  report.fail(failed, "scenarios failed");

  const double count = static_cast<double>(n);
  report.info("scenario.scenarios", n);
  report.set("scenario.generate_us", mean(generate_us));
  report.set("scenario.run_us", mean(run_us));
  report.set("scenario.sim_phase_us", mean(sim_phase_us));
  report.set("scenario.battery_us", mean(battery_us));
  report.set("scenario.slots_per_scenario", slots / count);
  report.set("analysis.oracle_checks_per_scenario", oracle_checks / count);
}

}  // namespace perfbench
