// sesr_perfbench: one run of one perfbench workload.
//
//   sesr_perfbench --workload defend_sesr --seed 7 --seconds 12 --trace 0
//
// Prints the machine fingerprint, one line per metric (name, value, unit,
// sample count), then a JSON object on its last line. perfbench/run.py builds
// this binary and turns that line into the benchmark's result. Exit code 1
// means an output check failed; 2 means the run itself could not complete.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "tensor/parallel.h"
#include "tensor/simd/dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void report_end_to_end(const RunSummary& summary, Report& report) {
  report.set("throughput_rps", summary.throughput_rps, "req/s", summary.samples);
  if (summary.p50_ms) report.set("latency_p50_ms", *summary.p50_ms, "ms", summary.samples);
  if (summary.p90_ms) report.set("latency_p90_ms", *summary.p90_ms, "ms", summary.samples);
  if (summary.p99_ms) report.set("latency_p99_ms", *summary.p99_ms, "ms", summary.samples);
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int run(int argc, char** argv) {
  RunOptions options;
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::stoull(value);
    else if (arg == "--seconds") options.seconds = std::stod(value);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--trace-out") options.trace_path = value;
    else if (arg == "--run-dir") options.run_dir = value;
    else if (arg == "--shard-bin") options.shard_binary = value;
    else if (arg == "--source-digest") source_digest = value;
    else throw std::invalid_argument("unknown argument " + arg);
  }

  // End-to-end numbers come from runs with the program's own tracing and
  // op profiling off; the kernel pool is pinned per workload (the shards of
  // dist_hotkey inherit it). Both must happen before any kernel runs.
  ::unsetenv("SESR_TRACE");
  ::unsetenv("SESR_PROFILE_OPS");
  const char* pool = options.workload == "serve_mixed" ? "2" : "1";
  ::setenv("SESR_NUM_THREADS", pool, 1);

  std::printf(
      "fingerprint {\"cpu\": %s, \"simd\": \"%s\", \"nproc\": %u, \"kernel_pool\": %d, "
      "\"build_type\": \"%s\", \"source_digest\": \"%s\", \"workload\": \"%s\", \"seed\": %llu}\n",
      sesr::core::json_quote(cpu_model()).c_str(),
      sesr::simd::variant_name(sesr::simd::active_variant()), std::thread::hardware_concurrency(),
      sesr::num_threads(), PERFBENCH_BUILD_TYPE, source_digest.c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);

  Report report;
  if (options.workload == "defend_sesr") run_defend(options, "SESR-M5", report);
  else if (options.workload == "defend_fsrcnn") run_defend(options, "FSRCNN", report);
  else if (options.workload == "serve_mixed") run_serve_mixed(options, report);
  else if (options.workload == "dist_hotkey") run_dist_hotkey(options, report);
  else throw std::invalid_argument("unknown workload '" + options.workload + "'");

  for (const Metric& metric : report.metrics)
    std::printf("metric %-28s %14.6f %-7s n=%lld\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<long long>(metric.samples));
  for (const std::string& problem : report.problems) std::printf("problem: %s\n", problem.c_str());

  std::string metrics;
  for (const Metric& metric : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += sesr::core::json_quote(metric.name) + ": {\"value\": " + number(metric.value) +
               ", \"unit\": " + sesr::core::json_quote(metric.unit) +
               ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  std::string problems;
  for (const std::string& problem : report.problems)
    problems += (problems.empty() ? "" : ", ") + sesr::core::json_quote(problem);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"problems\": [%s], "
              "\"metrics\": {%s}}\n",
              report.problems.empty() ? "true" : "false",
              static_cast<long long>(report.attempted), static_cast<long long>(report.failed),
              problems.c_str(), metrics.c_str());
  return report.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sesr_perfbench: %s\n", error.what());
    return 2;
  }
}
