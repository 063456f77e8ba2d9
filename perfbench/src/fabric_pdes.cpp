/// Workload `fabric-pdes`: the simulation user.
///
/// A 4-switch line with 48 nodes per switch. Every node requests one RT
/// channel to a node on the next switch (the last switch wraps to the
/// first, crossing all three trunks); `PathAdmissionController` (ADPS)
/// admits what fits. Bursty best-effort traffic runs at load 0.5 inside
/// each switch. `ParallelSimulator` drives the fabric at `min(4, nproc)`
/// threads; each repetition builds a fresh fabric (the set-up) and
/// simulates a fixed horizon.
///
/// Output checks: zero deadline misses, every RT frame sent is delivered,
/// and, for the workload's own traffic seed, one fabric digest across the
/// 4-thread run, the `threads = 0` run and, in the traced run, the replay
/// of the round schedule.
///
/// The traced run replays that schedule itself — `run_round(p, target)` at
/// `lookahead()` steps, one timed call per partition per round — to split
/// the parallel wall time into partition work, the critical path (the
/// slowest partition of each round) and barrier time.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/multihop.hpp"
#include "core/topology.hpp"
#include "report.hpp"
#include "sim/fabric.hpp"
#include "sim/parallel.hpp"

namespace perfbench {

namespace {

using rtether::NodeId;
using rtether::Slot;
using rtether::Tick;

constexpr std::uint32_t kSwitches = 4;
constexpr std::uint32_t kNodesPerSwitch = 48;
constexpr Slot kPeriod = 40;
constexpr Slot kCapacity = 1;
constexpr Slot kDeadline = 30;
constexpr double kBestEffortLoad = 0.5;
constexpr Tick kTicksPerSlot = 16;
/// Simulated slots of traffic per repetition (plus the drain).
constexpr Slot kHorizonSlots = 4096;
constexpr Slot kDrainSlots = kDeadline + 64;

struct FabricInputs {
  rtether::core::Topology topology{1, 1};
  /// Channel requests in the order they are admitted.
  std::vector<rtether::core::ChannelSpec> requests;
  std::uint64_t traffic_seed{1};
  std::uint64_t input_hash{0};
};

/// Node n sits on switch n % 4 with rank n / 4. Its channel goes to a
/// seed-chosen rank on the next switch. Requests arrive in node order, so
/// the trunk loads — and with them which sources are admitted — do not
/// depend on the seed; the destinations and the traffic do.
FabricInputs make_inputs(std::uint64_t seed) {
  rtether::Rng rng(seed);
  const std::uint32_t nodes = kSwitches * kNodesPerSwitch;
  FabricInputs inputs;
  inputs.topology = rtether::core::Topology(nodes, kSwitches);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    inputs.topology.attach_node(NodeId{n},
                                rtether::core::SwitchId{n % kSwitches});
  }
  for (std::uint32_t s = 0; s + 1 < kSwitches; ++s) {
    inputs.topology.connect_switches(rtether::core::SwitchId{s},
                                     rtether::core::SwitchId{s + 1});
  }
  std::vector<std::vector<std::uint32_t>> ranks(kSwitches);
  for (auto& perm : ranks) {
    for (std::uint32_t r = 0; r < kNodesPerSwitch; ++r) perm.push_back(r);
    rng.shuffle(perm);
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const std::uint32_t sw = n % kSwitches;
    const std::uint32_t next = (sw + 1) % kSwitches;
    const std::uint32_t dst = ranks[sw][n / kSwitches] * kSwitches + next;
    inputs.requests.push_back(rtether::core::ChannelSpec{
        NodeId{n}, NodeId{dst}, kPeriod, kCapacity, kDeadline});
  }
  inputs.traffic_seed = rng.next_u64();
  Fnv fnv;
  for (const auto& spec : inputs.requests) {
    fnv.mix((std::uint64_t{spec.source.value()} << 32) |
            spec.destination.value());
  }
  fnv.mix(inputs.traffic_seed);
  inputs.input_hash = fnv.value();
  return inputs;
}

rtether::sim::SimConfig sim_config() {
  rtether::sim::SimConfig config;
  config.ticks_per_slot = kTicksPerSlot;
  // One slot of trunk propagation: the lookahead spans a slot of work.
  config.trunk_propagation_ticks = kTicksPerSlot;
  return config;
}

Tick run_end() {
  return sim_config().slots_to_ticks(kHorizonSlots + kDrainSlots);
}

/// The system under test: the admitted channel set and the fabric built
/// for it.
struct Built {
  std::vector<rtether::core::MultihopChannel> channels;
  rtether::core::AdmissionStats admission;
  std::unique_ptr<rtether::sim::FabricNetwork> fabric;
  double setup_s{0.0};
};

Built build(const FabricInputs& inputs, std::uint64_t traffic_seed) {
  Built built;
  const auto start = Clock::now();
  rtether::core::PathAdmissionController controller(
      inputs.topology, rtether::core::make_path_partitioner("ADPS"));
  for (const auto& spec : inputs.requests) {
    auto admitted = controller.request(spec);
    if (admitted.has_value()) {
      built.channels.push_back(std::move(admitted).value());
    }
  }
  rtether::sim::FabricOptions options;
  options.seed = traffic_seed;
  options.traffic_stop = sim_config().slots_to_ticks(kHorizonSlots);
  options.with_best_effort = true;
  options.best_effort_load = kBestEffortLoad;
  options.bursty_best_effort = true;
  built.fabric = std::make_unique<rtether::sim::FabricNetwork>(
      sim_config(), inputs.topology, built.channels, options);
  built.setup_s = seconds_since(start);
  built.admission = controller.stats();
  return built;
}

/// Fingerprint of a finished run: per-partition event counts and delivery
/// records (delay statistics by bit pattern), best-effort totals and the
/// cut-link record counts.
std::uint64_t fabric_digest(const rtether::sim::FabricNetwork& fabric) {
  Fnv fnv;
  for (std::size_t p = 0; p < fabric.partition_count(); ++p) {
    fnv.mix(fabric.kernel(p).executed_events());
    const auto& stats = fabric.partition_stats(p);
    for (const auto& [id, channel] : stats.channels()) {
      fnv.mix(id.value());
      fnv.mix(channel.frames_sent);
      fnv.mix(channel.frames_delivered);
      fnv.mix(channel.deadline_misses);
      fnv.mix(channel.delay_ticks.count());
      fnv.mix_double(channel.delay_ticks.mean());
      fnv.mix_double(channel.delay_ticks.max());
    }
    fnv.mix(stats.best_effort_sent());
    fnv.mix(stats.best_effort_delivered());
    fnv.mix_double(stats.best_effort_delay_ticks().mean());
  }
  for (const auto& trunk : fabric.trunk_traffic()) {
    fnv.mix((std::uint64_t{trunk.from} << 32) | trunk.to);
    fnv.mix(trunk.records);
  }
  return fnv.value();
}

struct Checked {
  std::uint64_t digest{0};
  std::uint64_t rt_sent{0};
  std::uint64_t rt_delivered{0};
  std::uint64_t misses{0};
};

/// Books the run's RT frames as attempted operations and every miss or
/// undelivered frame as a failure.
Checked check(const rtether::sim::FabricNetwork& fabric, bool completed,
              Report& report) {
  Checked checked;
  checked.digest = fabric_digest(fabric);
  for (const auto& [id, counts] : fabric.channel_counts()) {
    checked.rt_sent += counts.sent;
    checked.rt_delivered += counts.delivered;
    checked.misses += counts.misses;
  }
  report.attempt(checked.rt_sent);
  report.fail(checked.misses, "RT frames missed their deadline");
  report.fail(checked.rt_sent - std::min(checked.rt_sent, checked.rt_delivered),
              "RT frames were not delivered");
  report.fail(completed ? 0 : 1, "fabric run failed (event budget)");
  return checked;
}

void expect_digest(std::uint64_t want, std::uint64_t got, const char* what,
                   Report& report) {
  report.attempt(1);
  report.fail(got == want ? 0 : 1,
              std::string(what) + " digest differs from the 4-thread run");
}

unsigned parallel_threads() {
  return std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
}

struct Timed {
  double seconds{0.0};
  std::uint64_t rounds{0};
  bool completed{false};
};

Timed drive(rtether::sim::FabricNetwork& fabric, unsigned threads) {
  rtether::sim::ParallelSimulator simulator(fabric, threads);
  const auto start = Clock::now();
  Timed timed;
  timed.completed = simulator.run_until(run_end());
  timed.seconds = seconds_since(start);
  timed.rounds = simulator.rounds();
  return timed;
}

constexpr double kSlotsPerRun =
    static_cast<double>(kHorizonSlots + kDrainSlots);

/// Every repetition builds (the set-up sample) and simulates a fresh
/// fabric with the next traffic seed of the run; the channel set stays the
/// same. The figures thus average over best-effort realizations and over
/// the host conditions of the whole run.
void run_untraced(const FabricInputs& inputs, const RunOptions& options,
                  Report& report) {
  // The workload's own realization runs in parallel and inline: one digest
  // for any thread count (the traced run reports the same one). It also
  // warms the allocator before set-up is timed.
  {
    const std::uint64_t seed = inputs.traffic_seed;
    Built parallel = build(inputs, seed);
    const Timed timed = drive(*parallel.fabric, parallel_threads());
    const std::uint64_t digest =
        check(*parallel.fabric, timed.completed, report).digest;
    Built sequential = build(inputs, seed);
    const Timed seq = drive(*sequential.fabric, 0);
    expect_digest(digest,
                  check(*sequential.fabric, seq.completed, report).digest,
                  "threads = 0", report);
    report.info("fingerprint.fabric_digest", hex(digest));
    report.info("fabric.channels", parallel.channels.size());
  }

  rtether::SplitMix64 traffic(inputs.traffic_seed);
  std::vector<double> setups;
  std::vector<double> walls;
  const auto phase = Clock::now();
  do {
    Built built = build(inputs, traffic.next());
    setups.push_back(built.setup_s);
    const Timed timed = drive(*built.fabric, parallel_threads());
    walls.push_back(timed.seconds);
    (void)check(*built.fabric, timed.completed, report);
  } while (seconds_since(phase) < options.seconds);

  // Medians: a repetition that loses a vCPU to the host stalls every
  // barrier round and would dominate a total.
  report.info("fabric.reps", walls.size());
  report.set("ops_per_s", kSlotsPerRun / median(walls));
  report.set("latency_p50_us", median(walls) * 1e6);
  report.set("setup_s", median(setups));
}

/// One traced repetition: the parallel run the breakdown explains, the
/// sequential baseline, and a replay of the same round schedule with one
/// timed `run_round` call per partition per round.
struct TracedRep {
  double wall_s{0.0};
  double seq_s{0.0};
  double replay_s{0.0};
  double work_s{0.0};
  double critical_s{0.0};
  std::uint64_t rounds{0};
  std::uint64_t events{0};
  std::uint64_t cut_records{0};
  std::uint64_t rt_delivered{0};
  std::size_t partitions{0};
  std::uint64_t digest{0};
  std::uint64_t replay_digest{0};
  rtether::core::AdmissionStats admission;
};

TracedRep traced_rep(const FabricInputs& inputs, Report& report) {
  TracedRep rep;
  Built parallel = build(inputs, inputs.traffic_seed);
  const Timed wall = drive(*parallel.fabric, parallel_threads());
  const Checked reference = check(*parallel.fabric, wall.completed, report);
  rep.wall_s = wall.seconds;
  rep.admission = parallel.admission;
  Built sequential = build(inputs, inputs.traffic_seed);
  const Timed seq = drive(*sequential.fabric, 0);
  rep.seq_s = seq.seconds;
  expect_digest(reference.digest,
                check(*sequential.fabric, seq.completed, report).digest,
                "threads = 0", report);

  Built replay = build(inputs, inputs.traffic_seed);
  auto& fabric = *replay.fabric;
  rep.partitions = fabric.partition_count();
  const Tick lookahead = fabric.lookahead();
  const Tick until = run_end();
  const auto replay_start = Clock::now();
  for (Tick now = 0; now < until;) {
    const Tick target = std::min(until, now + lookahead);
    double slowest = 0.0;
    for (std::size_t p = 0; p < rep.partitions; ++p) {
      // The same cumulative per-partition event budget run_until grants.
      const std::uint64_t executed = fabric.kernel(p).executed_events();
      const std::uint64_t budget =
          executed < rtether::sim::Simulator::kDefaultMaxEvents
              ? rtether::sim::Simulator::kDefaultMaxEvents - executed
              : 0;
      const auto before = Clock::now();
      (void)fabric.run_round(p, target, budget);
      const double busy = seconds_since(before);
      rep.work_s += busy;
      slowest = std::max(slowest, busy);
    }
    rep.critical_s += slowest;
    ++rep.rounds;
    now = target;
    if (fabric.failed()) break;
  }
  rep.replay_s = seconds_since(replay_start);
  const Checked replayed = check(fabric, !fabric.failed(), report);
  expect_digest(reference.digest, replayed.digest, "traced replay", report);
  report.attempt(1);
  report.fail(rep.rounds == wall.rounds ? 0 : 1,
              "replayed round count differs from ParallelSimulator::rounds()");
  rep.events = fabric.executed_events();
  rep.cut_records = fabric.cut_link_records();
  rep.rt_delivered = replayed.rt_delivered;
  rep.digest = reference.digest;
  rep.replay_digest = replayed.digest;
  return rep;
}

/// Repeats the traced repetition for half the budget and reports the one
/// whose parallel wall time is the median, so its figures stay consistent
/// with each other (critical path + barrier = parallel wall). The other
/// half carries the scenario-layer breakdown.
void run_traced(const FabricInputs& inputs, const RunOptions& options,
                Report& report) {
  std::vector<TracedRep> reps;
  const auto phase = Clock::now();
  do {
    reps.push_back(traced_rep(inputs, report));
  } while (seconds_since(phase) < 0.5 * options.seconds);
  measure_scenario_layer(options.seed, 0.5 * options.seconds, report);
  std::sort(reps.begin(), reps.end(),
            [](const TracedRep& a, const TracedRep& b) {
              return a.wall_s < b.wall_s;
            });
  const TracedRep& rep = reps[(reps.size() - 1) / 2];
  report.info("fabric.traced_reps", reps.size());
  report.info("fingerprint.fabric_digest", hex(rep.digest));
  report.info("fingerprint.replay_digest", hex(rep.replay_digest));

  const auto events = static_cast<double>(rep.events);
  report.set("sim.events_per_slot", events / kSlotsPerRun);
  report.set("sim.ns_per_event", rep.work_s / events * 1e9);
  report.set("pdes.rounds", static_cast<double>(rep.rounds));
  report.set("pdes.slots_per_round",
             kSlotsPerRun / static_cast<double>(rep.rounds));
  report.set("pdes.work_s", rep.work_s);
  report.set("pdes.critical_path_s", rep.critical_s);
  report.set("pdes.imbalance",
             rep.critical_s /
                 (rep.work_s / static_cast<double>(rep.partitions)));
  report.set("pdes.barrier_s", rep.wall_s - rep.critical_s);
  report.set("pdes.wall_s", rep.wall_s);
  report.set("pdes.seq_slots_per_s", kSlotsPerRun / rep.seq_s);
  report.set("pdes.cut_records_per_rt_delivery",
             static_cast<double>(rep.cut_records) /
                 static_cast<double>(rep.rt_delivered));
  report.set("trace.overhead_ratio", rep.replay_s / rep.seq_s);
  report.set("edf.feasibility_tests_per_admit",
             static_cast<double>(rep.admission.feasibility_tests) /
                 static_cast<double>(rep.admission.requested));
  report.set("edf.demand_evals_per_admit",
             static_cast<double>(rep.admission.demand_evaluations) /
                 static_cast<double>(rep.admission.requested));
}

}  // namespace

void run_fabric_pdes(const RunOptions& options, Report& report) {
  const FabricInputs inputs = make_inputs(options.seed);
  report.info("fingerprint.input", hex(inputs.input_hash));
  report.info("fabric.threads", parallel_threads());
  if (options.trace) {
    run_traced(inputs, options, report);
  } else {
    run_untraced(inputs, options, report);
  }
}

}  // namespace perfbench
