#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// CPU brand string from CPUID (no file access needed).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

void Report::declare(std::string_view name, std::string_view unit) {
  metrics_.push_back(Metric{std::string(name), std::string(unit), 0.0, false});
}

void Report::set(std::string_view name, double value) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.set = true;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %.*s is not declared\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

void Report::fail(std::uint64_t count, std::string_view why) {
  if (count == 0) return;
  failed_ += count;
  std::string text = "FAILED x";
  text += std::to_string(count);
  text += ": ";
  text += why;
  note(text);
}

void Report::info(std::string_view key, std::string_view value) {
  info_.emplace_back(std::string(key), json_string(value));
}

void Report::info(std::string_view key, std::uint64_t value) {
  info_.emplace_back(std::string(key), std::to_string(value));
}

void Report::note(std::string_view text) {
  notes_.emplace_back(text);
  std::fprintf(stderr, "perfbench: %.*s\n", static_cast<int>(text.size()),
               text.data());
}

std::vector<std::string> Report::unset() const {
  std::vector<std::string> names;
  for (const Metric& metric : metrics_) {
    if (!metric.set) names.push_back(metric.name);
  }
  return names;
}

void Report::print(bool correct) const {
  std::string line = "# info {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(info_[i].first);
    line += ": ";
    line += info_[i].second;
  }
  line += info_.empty() ? "\"notes\": [" : ", \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(notes_[i]);
  }
  line += "]}";
  std::printf("%s\n", line.c_str());

  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": ";
  result += std::to_string(attempted_);
  result += ", \"failed\": ";
  result += std::to_string(failed_);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) result += ", ";
    result += json_string(metrics_[i].name);
    result += ": {\"value\": ";
    result += json_number(metrics_[i].value);
    result += ", \"unit\": ";
    result += json_string(metrics_[i].unit);
    result += "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

void Fnv::mix_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  mix(bits);
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Histogram::add_us(double us) {
  const auto ns = static_cast<std::uint64_t>(std::max(0.0, us) * 1e3);
  // Values below 2^(kSubBits+1) ns get a bucket each; above, `shift` drops
  // the low bits so that every bucket keeps kSubBits bits of precision.
  const int width = std::bit_width(ns);
  const int shift = std::max(0, width - (kSubBits + 1));
  const std::uint64_t index =
      (static_cast<std::uint64_t>(shift) << kSubBits) + (ns >> shift);
  ++buckets_[index];
  ++count_;
}

double Histogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen < rank) continue;
    // Inverse of add_us: index = (shift << kSubBits) + top with top in
    // [2^kSubBits, 2^(kSubBits+1)) once shift > 0.
    const std::size_t shift =
        index < (std::size_t{2} << kSubBits) ? 0 : (index >> kSubBits) - 1;
    const std::uint64_t top = index - (shift << kSubBits);
    const double low = static_cast<double>(top << shift);
    const double width = static_cast<double>(std::uint64_t{1} << shift);
    return (low + (shift == 0 ? 0.0 : width / 2.0)) * 1e-3;
  }
  return 0.0;
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void record_host(Report& report) {
  report.info("host.nproc",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  report.info("host.compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  report.info("host.compiler", std::string("gcc ") + __VERSION__);
#else
  report.info("host.compiler", "unknown");
#endif
  report.info("host.build_type", PERFBENCH_BUILD_TYPE);
  report.info("host.cpu", cpu_model());
}

}  // namespace perfbench
