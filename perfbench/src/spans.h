// Benchmark-owned spans for the traced run.
//
// Workloads stamp steady-clock nanoseconds (obs::trace_now_ns) around each
// public call they make; after the timed window the stamps become
// obs::SpanRecords here. The program's own tracing (SESR_TRACE) stays off,
// so the traced run times every layer from outside the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class SpanLog {
 public:
  /// Ids embed the pid, as obs ids do, so traces of several runs merge
  /// without collisions.
  SpanLog();

  /// Fresh trace id (one per request).
  uint64_t new_trace() { return next_trace_++; }

  /// Record [start_ns, end_ns) named `name` under `parent` (0 = root);
  /// returns the new span's id.
  uint64_t add(uint64_t trace, uint64_t parent, const char* name, int64_t start_ns,
               int64_t end_ns);

  [[nodiscard]] const std::vector<sesr::obs::SpanRecord>& records() const { return records_; }

 private:
  std::vector<sesr::obs::SpanRecord> records_;
  uint64_t next_trace_;
  uint64_t next_span_;
};

/// Per span name: summed duration, summed self time (duration minus the part
/// covered by child spans) and span count.
struct LayerTime {
  double total_ns = 0.0;
  double self_ns = 0.0;
  int64_t count = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<sesr::obs::SpanRecord>& spans);

/// Share of the `root` spans' time that their child spans cover (1 minus
/// the roots' self time over their duration); 0 when there are no roots.
[[nodiscard]] double span_coverage(const std::map<std::string, LayerTime>& layers,
                                   const std::string& root);

/// Write `spans` as Chrome trace JSON to `path`, read the file back through
/// obs::parse_chrome_trace and check it with obs::validate_span_nesting.
/// Returns the problems found (empty = a well-formed, well-nested trace).
[[nodiscard]] std::vector<std::string> write_checked_trace(
    const std::vector<sesr::obs::SpanRecord>& spans, const std::string& path);

}  // namespace perfbench
