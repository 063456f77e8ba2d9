/// Workload `admit-churn`: the switch serving channel requests.
///
/// A 256-node star of 32 cells × 8 nodes under ADPS receives cell-local,
/// constrained-deadline admit/release churn. The stream goes into the
/// resident `"service"` backend (2 shard workers, 1 generator thread) in
/// two phases that alternate in blocks over the run: floods that submit as
/// fast as backpressure allows, and open-loop windows at a fixed 100k ops/s
/// whose latency runs from each op's due time to its completion. Every
/// ticket's outcome is checked against the reference `AdmissionController`
/// replay that produced the stream.
///
/// The traced run adds the layer breakdown: per-call controller time, the
/// batched and parallel backends on the same stream, EDF work per admit,
/// time inside `submit_async`, tail latency and generator lag.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "core/admission.hpp"
#include "core/admission_backend.hpp"
#include "core/partitioner.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

using rtether::NodeId;
using rtether::Rng;
using rtether::Slot;
using rtether::core::AdmitOutcome;
using rtether::ChannelId;
using rtether::core::ChannelOp;
using rtether::core::ChannelSpec;
using rtether::core::ReleaseOutcome;

constexpr std::uint32_t kNodes = 256;
constexpr std::uint32_t kCellSize = 8;
constexpr const char* kScheme = "ADPS";
/// Releases target channels admitted at least this many ops earlier.
constexpr std::size_t kReleaseAge = 2048;
/// Ops in the generated stream; a flood repetition submits all of them,
/// an open-loop window a prefix.
constexpr std::size_t kStreamOps = 131'072;
constexpr unsigned kServiceWorkers = 2;
constexpr double kOpenLoopRate = 100'000.0;
constexpr double kWindowSeconds = 0.25;
/// Flood repetitions (and open-loop windows) per block.
constexpr int kBlock = 4;

struct ChurnStream {
  std::vector<ChannelOp> ops;
  /// Reference outcomes: `admits` in admit order, `releases` in release
  /// order; `slot[i]` indexes the list op i belongs to.
  std::vector<AdmitOutcome> admits;
  std::vector<ReleaseOutcome> releases;
  std::vector<std::size_t> slot;
  std::uint64_t input_hash{0};
  std::uint64_t decision_hash{0};
};

void mix_outcome(Fnv& fnv, const AdmitOutcome& outcome) {
  fnv.mix(outcome.has_value() ? 1 : 0);
  if (outcome.has_value()) {
    fnv.mix(outcome->id.value());
    fnv.mix(outcome->partition.uplink);
    fnv.mix(outcome->partition.downlink);
  } else {
    fnv.mix(static_cast<std::uint64_t>(outcome.error().reason));
    fnv.mix(outcome.error().detail);
  }
}

void mix_outcome(Fnv& fnv, const ReleaseOutcome& outcome) {
  fnv.mix(outcome.has_value() ? 3 : 2);
  if (outcome.has_value()) {
    fnv.mix(outcome->value());
  } else {
    fnv.mix(static_cast<std::uint64_t>(outcome.error().reason));
    fnv.mix(outcome.error().detail);
  }
}

template <typename Outcome>
bool same(const Outcome& got, const Outcome& want) {
  if (got.has_value() != want.has_value()) return false;
  return got.has_value() ? *got == *want : got.error() == want.error();
}

/// Cell-local churn, about one release in four once aged channels exist.
/// Release IDs come from the reference controller, which also records the
/// expected outcome of every op.
ChurnStream make_stream(std::uint64_t seed) {
  Rng rng(seed);
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};
  rtether::core::AdmissionController oracle(
      kNodes, rtether::core::make_partitioner(kScheme));
  struct Live {
    ChannelId id;
    std::size_t admitted_at;
  };
  std::vector<Live> live;
  std::size_t aged = 0;
  ChurnStream stream;
  stream.ops.reserve(kStreamOps);
  stream.slot.reserve(kStreamOps);
  Fnv inputs;
  Fnv decisions;
  while (stream.ops.size() < kStreamOps) {
    // `live` is in admission order, so the aged channels are a prefix.
    while (aged < live.size() &&
           live[aged].admitted_at + kReleaseAge < stream.ops.size()) {
      ++aged;
    }
    if (aged > 0 && rng.index(4) == 0) {
      const auto victim = rng.index(aged);
      const ChannelId id = live[victim].id;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      --aged;
      stream.ops.push_back(ChannelOp::release(id));
      inputs.mix(id.value());
      stream.slot.push_back(stream.releases.size());
      stream.releases.push_back(oracle.release(id));
      mix_outcome(decisions, stream.releases.back());
      continue;
    }
    const auto cell = static_cast<std::uint32_t>(rng.index(kNodes / kCellSize));
    const std::uint32_t base = cell * kCellSize;
    const auto src = base + static_cast<std::uint32_t>(rng.index(kCellSize));
    auto dst = base + static_cast<std::uint32_t>(rng.index(kCellSize));
    if (dst == src) dst = base + (dst - base + 1) % kCellSize;
    const Slot period = kPeriods[rng.index(std::size(kPeriods))];
    const Slot capacity = 1 + rng.index(4);
    const Slot deadline =
        2 * capacity + rng.index(period / 2 - 2 * capacity + 1);
    const ChannelSpec spec{NodeId{src}, NodeId{dst}, period, capacity,
                           deadline};
    stream.ops.push_back(ChannelOp::admit(spec));
    inputs.mix((std::uint64_t{src} << 32) | dst);
    inputs.mix((period << 24) ^ (capacity << 16) ^ deadline);
    stream.slot.push_back(stream.admits.size());
    stream.admits.push_back(oracle.request(spec));
    mix_outcome(decisions, stream.admits.back());
    if (stream.admits.back().has_value()) {
      live.push_back(Live{stream.admits.back()->id, stream.ops.size() - 1});
    }
  }
  stream.input_hash = inputs.value();
  stream.decision_hash = decisions.value();
  return stream;
}

/// Ops of `tickets` whose outcome differs from the reference.
/// Whether the ticket of op i completed with the reference outcome.
bool matches(const ChurnStream& stream, std::size_t i,
             const rtether::core::Ticket& ticket) {
  if (!ticket.done() || ticket.kind() != stream.ops[i].kind) return false;
  return stream.ops[i].kind == ChannelOp::Kind::kAdmit
             ? same(ticket.admit_outcome(), stream.admits[stream.slot[i]])
             : same(ticket.release_outcome(), stream.releases[stream.slot[i]]);
}

std::uint64_t mismatches(const ChurnStream& stream,
                         const std::vector<rtether::core::Ticket>& tickets) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    bad += matches(stream, i, tickets[i]) ? 0 : 1;
  }
  return bad;
}

std::uint64_t mismatches(const ChurnStream& stream,
                         const rtether::core::ChurnResult& result) {
  std::uint64_t bad = 0;
  if (result.admissions.size() != stream.admits.size() ||
      result.releases.size() != stream.releases.size()) {
    return stream.ops.size();
  }
  for (std::size_t i = 0; i < stream.admits.size(); ++i) {
    if (!same(result.admissions[i], stream.admits[i])) ++bad;
  }
  for (std::size_t i = 0; i < stream.releases.size(); ++i) {
    if (!same(result.releases[i], stream.releases[i])) ++bad;
  }
  return bad;
}

using Backend = rtether::core::AdmissionBackend;

std::unique_ptr<Backend> make_backend(std::string_view kind) {
  rtether::core::BackendConfig config;
  config.threads = kServiceWorkers;
  return rtether::core::make_admission_backend(
      kind, kNodes, rtether::core::make_partitioner(kScheme), config);
}

struct Flood {
  double seconds{0.0};
  std::uint64_t failed{0};
  /// Traced floods only: time inside each `submit_async`, µs.
  std::vector<double> submit_us;
  rtether::core::AdmissionStats stats;
};

/// Submits the whole stream as fast as backpressure allows, then drains.
/// Like a client, the generator consumes results as they complete (checks
/// each against the reference and drops its ticket), so finished tickets do
/// not pile up. The backend is reset first, so it decides like a fresh one.
Flood flood(Backend& backend, const ChurnStream& stream, bool traced) {
  backend.reset();
  backend.drain();
  const rtether::core::AdmissionStats before_stats = backend.stats();
  Flood result;
  std::vector<rtether::core::Ticket> tickets;
  tickets.reserve(stream.ops.size());
  if (traced) result.submit_us.reserve(stream.ops.size());
  std::size_t consumed = 0;
  const auto consume = [&] {
    while (consumed < tickets.size() && tickets[consumed].done()) {
      result.failed += matches(stream, consumed, tickets[consumed]) ? 0 : 1;
      tickets[consumed] = rtether::core::Ticket{};
      ++consumed;
    }
  };
  const auto start = Clock::now();
  for (const ChannelOp& op : stream.ops) {
    if (traced) {
      const auto before = Clock::now();
      tickets.push_back(backend.submit_async(op));
      result.submit_us.push_back(seconds_since(before) * 1e6);
    } else {
      tickets.push_back(backend.submit_async(op));
    }
    consume();
  }
  backend.drain();
  consume();
  result.seconds = seconds_since(start);
  result.failed += tickets.size() - consumed;
  // Running stats keep counting across resets; keep this flood's share.
  result.stats = backend.stats();
  result.stats.requested -= before_stats.requested;
  result.stats.accepted -= before_stats.accepted;
  result.stats.feasibility_tests -= before_stats.feasibility_tests;
  result.stats.demand_evaluations -= before_stats.demand_evaluations;
  return result;
}

/// Open-loop results pooled over every window of a run.
struct OpenLoop {
  Histogram latency;
  Histogram lag;
  std::vector<double> window_lag_p99_us;
  std::vector<double> backlog_end;
  std::size_t ops{0};
  std::uint64_t failed{0};
};

/// One open-loop window: op i is due at `start + i / rate`; the generator
/// spins until then, submits, and the completion callback stamps the
/// retire time. Latency counts from the due time, so a stalled generator
/// shows up as latency, not as a gap. The backend is reset first.
void open_loop(Backend& backend, const ChurnStream& stream, OpenLoop& run) {
  backend.reset();
  backend.drain();
  const auto n = static_cast<std::size_t>(kOpenLoopRate * kWindowSeconds);
  std::vector<Clock::time_point> done(n);
  std::atomic<std::size_t> completed{0};
  std::vector<rtether::core::Ticket> tickets;
  tickets.reserve(n);
  std::vector<double> lag_us;
  lag_us.reserve(n);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopRate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return start + interval * static_cast<Clock::rep>(i);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point when = due(i);
    Clock::time_point now = Clock::now();
    while (now < when) now = Clock::now();
    lag_us.push_back(seconds_between(when, now) * 1e6);
    tickets.push_back(backend.submit_async(stream.ops[i]));
    tickets.back().on_complete([&done, &completed, i] {
      done[i] = Clock::now();
      completed.fetch_add(1, std::memory_order_release);
    });
  }
  const Clock::time_point end = due(n);
  while (Clock::now() < end) {
  }
  run.backlog_end.push_back(
      static_cast<double>(n - completed.load(std::memory_order_acquire)));
  backend.drain();
  // The callbacks may still be running after drain() returns.
  while (completed.load(std::memory_order_acquire) < n) {
  }
  for (std::size_t i = 0; i < n; ++i) {
    run.latency.add_us(seconds_between(due(i), done[i]) * 1e6);
    run.lag.add_us(lag_us[i]);
  }
  run.window_lag_p99_us.push_back(quantile(std::move(lag_us), 0.99));
  run.ops += n;
  run.failed += mismatches(stream, tickets);
}

/// Open-loop windows until `budget_s` has passed (at least `min_windows`),
/// each on a fresh service: where the scheduler places its threads moves
/// the latency, so every window samples a new placement.
OpenLoop open_loop_phase(const ChurnStream& stream, double budget_s,
                         std::size_t min_windows) {
  OpenLoop run;
  const auto start = Clock::now();
  while (run.backlog_end.size() < min_windows ||
         seconds_since(start) + kWindowSeconds <= budget_s) {
    auto backend = make_backend("service");
    open_loop(*backend, stream, run);
  }
  return run;
}

/// Books the open-loop ops and marks the windows whose generator fell
/// behind its schedule by more than one inter-arrival at p99, and the run
/// if it did so overall. Returns how many windows fell behind.
std::uint64_t check_open_loop(const OpenLoop& run, Report& report) {
  report.attempt(run.ops);
  report.fail(run.failed,
              "open-loop outcome differs from the reference replay");
  const double interval_us = 1e6 / kOpenLoopRate;
  std::uint64_t behind = 0;
  for (std::size_t w = 0; w < run.window_lag_p99_us.size(); ++w) {
    const double lag_p99 = run.window_lag_p99_us[w];
    if (lag_p99 > interval_us) {
      ++behind;
      report.note("open-loop window " + std::to_string(w) +
                  ": generator fell behind schedule, lag p99 " +
                  std::to_string(lag_p99) + " us > " +
                  std::to_string(interval_us) + " us inter-arrival");
    }
  }
  const double lag_p99 = run.lag.quantile_us(0.99);
  if (lag_p99 > interval_us) {
    report.note("the generator fell behind its schedule by more than one "
                "inter-arrival at p99 over the whole run; the latency "
                "includes that lag");
  }
  report.info("loadgen.windows", run.window_lag_p99_us.size());
  report.info("loadgen.windows_behind", behind);
  report.info("loadgen.lag_p99_ns", static_cast<std::uint64_t>(lag_p99 * 1e3));
  return behind;
}

/// Blocks of flood repetitions and blocks of open-loop windows alternate
/// for the whole budget, so both phases sample the same host conditions;
/// only one service exists at a time. A flood block reuses one service
/// (reset between repetitions); every window gets a fresh one. Each
/// construction is a set-up sample.
void run_untraced(const ChurnStream& stream, const RunOptions& options,
                  Report& report) {
  std::vector<double> setups;
  std::vector<double> rates;
  OpenLoop open;
  const auto timed_backend = [&setups] {
    const auto built = Clock::now();
    auto backend = make_backend("service");
    setups.push_back(seconds_since(built));
    return backend;
  };
  const auto phase = Clock::now();
  do {
    {
      auto backend = timed_backend();
      for (int rep = 0; rep < kBlock; ++rep) {
        const Flood result = flood(*backend, stream, false);
        rates.push_back(static_cast<double>(stream.ops.size()) /
                        result.seconds);
        report.attempt(stream.ops.size());
        report.fail(result.failed,
                    "flood outcome differs from the reference replay");
      }
    }
    for (int rep = 0; rep < kBlock; ++rep) {
      auto backend = timed_backend();
      open_loop(*backend, stream, open);
    }
  } while (seconds_since(phase) < options.seconds);

  check_open_loop(open, report);
  report.info("admit_churn.flood_reps", rates.size());
  report.set("ops_per_s", median(rates));
  report.set("latency_p50_us", open.latency.quantile_us(0.5));
  report.set("setup_s", median(setups));
}

void run_traced(const ChurnStream& stream, const RunOptions& options,
                Report& report) {
  const auto phase = Clock::now();

  // The reference controller replaying the stream: pure decision compute.
  std::vector<double> admit_us;
  std::vector<double> release_us;
  {
    rtether::core::AdmissionController controller(
        kNodes, rtether::core::make_partitioner(kScheme));
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
      const ChannelOp& op = stream.ops[i];
      const auto before = Clock::now();
      if (op.kind == ChannelOp::Kind::kAdmit) {
        const AdmitOutcome outcome = controller.request(op.spec);
        admit_us.push_back(seconds_since(before) * 1e6);
        bad += same(outcome, stream.admits[stream.slot[i]]) ? 0 : 1;
      } else {
        const ReleaseOutcome outcome = controller.release(op.id);
        release_us.push_back(seconds_since(before) * 1e6);
        bad += same(outcome, stream.releases[stream.slot[i]]) ? 0 : 1;
      }
    }
    report.attempt(stream.ops.size());
    report.fail(bad, "controller replay is not deterministic");
  }

  // The synchronous backends on the same stream.
  for (const char* kind : {"batched", "parallel"}) {
    auto backend = make_backend(kind);
    const auto before = Clock::now();
    const auto result = backend->submit(stream.ops);
    const double seconds = seconds_since(before);
    report.attempt(stream.ops.size());
    report.fail(mismatches(stream, result),
                std::string(kind) + " outcome differs from the reference");
    report.set(std::string("core.") + kind + ".ops_per_s",
               static_cast<double>(stream.ops.size()) / seconds);
  }

  // Plain and traced floods in alternation: the median ratio is the
  // tracing overhead.
  auto backend = make_backend("service");
  std::vector<double> ratios;
  Flood traced;
  for (int pair = 0; pair < 3; ++pair) {
    const Flood plain = flood(*backend, stream, false);
    traced = flood(*backend, stream, true);
    ratios.push_back(traced.seconds / plain.seconds);
    report.attempt(2 * stream.ops.size());
    report.fail(plain.failed + traced.failed,
                "flood outcome differs from the reference replay");
  }
  backend.reset();  // one service at a time: stop it before the windows
  report.set("trace.overhead_ratio", median(ratios));
  report.set("service.submit_us_p50", quantile(traced.submit_us, 0.5));
  report.set("service.submit_us_p99", quantile(traced.submit_us, 0.99));
  const auto& stats = traced.stats;
  const double admits = static_cast<double>(stats.requested);
  report.set("edf.feasibility_tests_per_admit",
             static_cast<double>(stats.feasibility_tests) / admits);
  report.set("edf.demand_evals_per_admit",
             static_cast<double>(stats.demand_evaluations) / admits);
  report.set("core.accept_ratio", static_cast<double>(stats.accepted) / admits);

  const double remaining = options.seconds - seconds_since(phase);
  const OpenLoop open = open_loop_phase(stream, remaining, 2);
  const double controller_admit_p50 = quantile(admit_us, 0.5);
  report.set("core.controller.admit_us_p50", controller_admit_p50);
  report.set("core.controller.release_us_p50", quantile(release_us, 0.5));
  report.set("service.p99_us", open.latency.quantile_us(0.99));
  report.set("service.p999_us", open.latency.quantile_us(0.999));
  report.set("service.pipeline_us_p50",
             open.latency.quantile_us(0.5) - controller_admit_p50);
  report.set("service.backlog_end", median(open.backlog_end));
  report.set("loadgen.lag_p99_us", open.lag.quantile_us(0.99));
  report.set("loadgen.lag_max_us", open.lag.quantile_us(1.0));
  report.set("loadgen.behind_schedule",
             static_cast<double>(check_open_loop(open, report)));
}

}  // namespace

void run_admit_churn(const RunOptions& options, Report& report) {
  const ChurnStream stream = make_stream(options.seed);
  std::size_t accepted = 0;
  for (const auto& outcome : stream.admits) {
    accepted += outcome.has_value() ? 1 : 0;
  }
  report.info("fingerprint.input", hex(stream.input_hash));
  report.info("fingerprint.decisions", hex(stream.decision_hash));
  report.info("admit_churn.admits", stream.admits.size());
  report.info("admit_churn.accepted", accepted);
  report.info("admit_churn.releases", stream.releases.size());
  if (options.trace) {
    run_traced(stream, options, report);
  } else {
    run_untraced(stream, options, report);
  }
}

}  // namespace perfbench
