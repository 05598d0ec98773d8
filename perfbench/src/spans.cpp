#include "spans.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

SpanLog::SpanLog()
    : next_trace_((static_cast<uint64_t>(::getpid()) << 32) + 1), next_span_(next_trace_) {}

uint64_t SpanLog::add(uint64_t trace, uint64_t parent, const char* name, int64_t start_ns,
                          int64_t end_ns) {
  sesr::obs::SpanRecord record;
  record.trace_id = trace;
  record.span_id = next_span_++;
  record.parent_span = parent;
  record.start_ns = start_ns;
  record.dur_ns = std::max<int64_t>(0, end_ns - start_ns);
  record.tid = 1;
  record.pid = static_cast<int32_t>(::getpid());
  record.name = name;
  records_.push_back(std::move(record));
  return records_.back().span_id;
}

std::map<std::string, LayerTime> layer_times(const std::vector<sesr::obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent_span != 0) children[spans[i].parent_span].push_back(i);

  std::map<std::string, LayerTime> out;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const sesr::obs::SpanRecord& span : spans) {
    const int64_t begin = span.start_ns;
    const int64_t end = span.start_ns + span.dur_ns;
    // Union of the child intervals clipped to this span.
    covered.clear();
    if (const auto it = children.find(span.span_id); it != children.end())
      for (const size_t c : it->second) {
        const int64_t cb = std::max(begin, spans[c].start_ns);
        const int64_t ce = std::min(end, spans[c].start_ns + spans[c].dur_ns);
        if (ce > cb) covered.emplace_back(cb, ce);
      }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = begin;
    for (const auto& [cb, ce] : covered) {
      const int64_t from = std::max(cb, reach);
      if (ce > from) child_ns += ce - from;
      reach = std::max(reach, ce);
    }
    LayerTime& layer = out[span.name];
    layer.total_ns += static_cast<double>(span.dur_ns);
    layer.self_ns += static_cast<double>(span.dur_ns - child_ns);
    layer.count += 1;
  }
  return out;
}

double span_coverage(const std::map<std::string, LayerTime>& layers, const std::string& root) {
  const auto it = layers.find(root);
  if (it == layers.end() || it->second.total_ns <= 0.0) return 0.0;
  return 1.0 - it->second.self_ns / it->second.total_ns;
}

std::vector<std::string> write_checked_trace(const std::vector<sesr::obs::SpanRecord>& spans,
                                             const std::string& path) {
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << sesr::obs::chrome_trace_json(spans);
    if (!file) return {"cannot write trace file " + path};
  }
  std::ifstream file(path, std::ios::binary);
  std::stringstream text;
  text << file.rdbuf();
  std::vector<sesr::obs::SpanRecord> parsed;
  try {
    parsed = sesr::obs::parse_chrome_trace(text.str());
  } catch (const std::exception& error) {
    return {std::string("trace does not parse: ") + error.what()};
  }
  std::vector<std::string> problems = sesr::obs::validate_span_nesting(parsed);
  if (parsed.size() != spans.size())
    problems.push_back("trace round trip kept " + std::to_string(parsed.size()) + " of " +
                       std::to_string(spans.size()) + " spans");
  return problems;
}

}  // namespace perfbench
