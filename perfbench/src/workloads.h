// The four perfbench workloads and the report they fill.
//
// A workload runs its set-up several times (set-up time is the median), one
// timed window of `seconds` with the program's tracing off, and checks the
// program's outputs against an independently built reference. With `trace`
// set it instead alternates untraced and traced windows and reports per-layer
// metrics from the benchmark-owned spans of the traced ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace JSON.
  std::string trace_path = "perfbench_trace.json";
  /// Where shard sockets live (dist_hotkey); relative to the working directory.
  std::string run_dir = ".";
  /// The sesr_shard binary (dist_hotkey).
  std::string shard_binary;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;  ///< errors + shed + refused + wrong outputs
  std::vector<std::string> problems;  ///< output mismatches and trace defects

  void set(const std::string& name, double value, const std::string& unit, int64_t samples) {
    for (Metric& metric : metrics)
      if (metric.name == name) {
        metric = {name, value, unit, samples};
        return;
      }
    metrics.push_back({name, value, unit, samples});
  }
  void problem(std::string text) { problems.push_back(std::move(text)); }
};

/// Set-up repeats per run; every set-up metric is the median over them.
inline constexpr int kSetupRepeats = 7;

/// Peak resident memory of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Report throughput_rps and latency_p50_ms, _p90_ms and _p99_ms of one
/// timed window; a percentile the window has too few samples for is left out.
void report_end_to_end(const RunSummary& summary, Report& report);

void run_defend(const RunOptions& options, const std::string& sr_label, Report& report);
void run_serve_mixed(const RunOptions& options, Report& report);
void run_dist_hotkey(const RunOptions& options, Report& report);

}  // namespace perfbench
