#pragma once

/// @file report.hpp
/// What one benchmark run prints: the metrics it measured (by name, with
/// unit), the operations it attempted and how many failed their output
/// check, and the behaviour fingerprints and host facts that let two runs
/// be compared from their output alone.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Knobs every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  /// Measurement budget; each workload splits it across its phases.
  double seconds{10.0};
  /// false: end-to-end metrics; true: per-layer metrics.
  bool trace{false};
};

class Report {
 public:
  /// Declares the metric set this run must print. Values start at 0 — a
  /// per-layer metric of a layer the workload does not exercise stays 0.
  void declare(std::string_view name, std::string_view unit);
  /// Sets a declared metric; an undeclared name is a benchmark bug and
  /// aborts the run.
  void set(std::string_view name, double value);

  /// Counts operations and output-check failures.
  void attempt(std::uint64_t count) { attempted_ += count; }
  void fail(std::uint64_t count, std::string_view why);

  /// Fingerprints, host facts and warnings for the `# info` line.
  void info(std::string_view key, std::string_view value);
  void info(std::string_view key, std::uint64_t value);
  void note(std::string_view text);

  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Names declared but never set.
  [[nodiscard]] std::vector<std::string> unset() const;

  /// Prints the `# info` line, then the result object as the last line.
  void print(bool correct) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value{0.0};
    bool set{false};
  };

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// 64-bit FNV-1a, for input and decision fingerprints.
class Fnv {
 public:
  void mix(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xffU;
      hash_ *= 0x0000'0100'0000'01b3ULL;
    }
  }
  void mix(std::string_view text) {
    mix(text.size());
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x0000'0100'0000'01b3ULL;
    }
  }
  void mix_double(double value);

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf2'9ce4'8422'2325ULL};
};

[[nodiscard]] std::string hex(std::uint64_t value);

/// Quantile q ∈ [0,1] of `values` by nearest rank (sorts a copy).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Log-linear histogram of durations: 1024 sub-buckets per power of two of
/// nanoseconds (about 0.1% resolution) in fixed memory, so pooling every
/// sample of a run costs the same memory however many samples it takes.
class Histogram {
 public:
  void add_us(double us);
  /// Quantile q ∈ [0,1] by nearest rank, as the bucket midpoint (µs).
  [[nodiscard]] double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 10;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(std::size_t{64 - kSubBits + 1} << kSubBits);
  std::uint64_t count_{0};
};

/// Peak resident set of this process, MB.
[[nodiscard]] double rss_peak_mb();

/// Records nproc, compiler, build type and CPU model.
void record_host(Report& report);

// The workloads (one translation unit each).
void run_admit_churn(const RunOptions& options, Report& report);
void run_fabric_pdes(const RunOptions& options, Report& report);

/// Per-scenario breakdown of generate_scenario / run_scenario for about
/// `seconds` (scenario.* and analysis.* metrics, campaign fingerprint).
void measure_scenario_layer(std::uint64_t seed, double seconds,
                            Report& report);

}  // namespace perfbench
