// The benchmark's own unit tests: percentile refusal, seeded determinism of
// inputs and arrival schedules, sustained_rps / max_shard_share on synthetic
// inputs, window summaries, and span self-time plus the Chrome trace round trip.
//
//   perfbench_selftest [scratch-trace-path]
//
// `python3 perfbench/run.py --selftest` runs this and then a one-second run of
// every workload with its output check.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> out;
  for (int i = 1; i <= n; ++i) out.push_back(static_cast<double>(i));
  return out;
}

void test_percentile() {
  using perfbench::percentile;
  check(!percentile(one_to(19), 0.5).has_value(), "p50 of 19 samples is refused");
  check(percentile(one_to(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  check(!percentile(one_to(199), 0.95).has_value(), "p95 of 199 samples is refused");
  check(percentile(one_to(200), 0.95) == 190.0, "p95 of 1..200 is 190");
  check(!percentile(one_to(999), 0.99).has_value(), "p99 of 999 samples is refused");
  check(percentile(one_to(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  std::vector<double> with_failures = one_to(60);
  for (int i = 0; i < 100; ++i) with_failures.push_back(std::numeric_limits<double>::infinity());
  check(std::isinf(*percentile(with_failures, 0.5)), "failures count as missing the limit");
  check(!percentile({}, 0.5).has_value(), "empty input is refused");
  check(perfbench::median_of({3.0, 1.0, 2.0}) == 2.0, "median of three");
  check(perfbench::median_of({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of four");
}

void test_window_summary() {
  // 1000 requests over 10 s, latencies 1..1000 ms: p99 has exactly 10 beyond.
  const perfbench::RunSummary run = perfbench::summarize_window(one_to(1000), 1000, 10.0);
  check(run.throughput_rps == 100.0, "throughput is completions over the window");
  check(run.p50_ms == 500.0 && run.p99_ms == 990.0, "p50 and p99 over every sample");
  check(run.samples == 1000, "every sample is counted");
  // A stall that hits 2% of the window shows in p99 but not in p50.
  std::vector<double> stalled(980, 1.0);
  stalled.insert(stalled.end(), 20, 50.0);
  const perfbench::RunSummary tail = perfbench::summarize_window(stalled, 1000, 10.0);
  check(tail.p50_ms == 1.0 && tail.p99_ms == 50.0, "a 2% stall moves p99");
  const perfbench::RunSummary thin = perfbench::summarize_window(one_to(999), 999, 10.0);
  check(thin.p50_ms.has_value() && !thin.p99_ms.has_value(),
        "a window under 1000 samples refuses its p99");
}

void test_determinism() {
  using perfbench::poisson_schedule;
  const auto a = poisson_schedule(7, 12, 5000.0, 0.5, 0.25, 32);
  const auto b = poisson_schedule(7, 12, 5000.0, 0.5, 0.25, 32);
  const auto c = poisson_schedule(8, 12, 5000.0, 0.5, 0.25, 32);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due_ns == b[i].due_ns && a[i].large == b[i].large && a[i].image == b[i].image;
  check(same, "same seed gives the same arrival schedule");
  check(a.size() != c.size() || a.front().due_ns != c.front().due_ns,
        "another seed gives another schedule");
  check(a.size() > 2200 && a.size() < 2800, "schedule rate is about 5000/s");
  int64_t large = 0;
  for (const auto& arrival : a) large += arrival.large ? 1 : 0;
  const double frac = static_cast<double>(large) / static_cast<double>(a.size());
  check(frac > 0.2 && frac < 0.3, "a quarter of the tiles are 16x16");
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending = ascending && a[i].due_ns >= a[i - 1].due_ns;
  check(ascending, "arrivals are in due order");

  const auto x = perfbench::image_pool(7, 1, 4, 3, 8, 8);
  const auto y = perfbench::image_pool(7, 1, 4, 3, 8, 8);
  const auto z = perfbench::image_pool(9, 1, 4, 3, 8, 8);
  bool images_same = true;
  for (size_t i = 0; i < x.size(); ++i)
    images_same = images_same && perfbench::bit_identical(x[i], y[i]);
  check(images_same, "same seed gives the same input images");
  check(!perfbench::bit_identical(x[0], z[0]), "another seed gives other images");
}

void test_sustained_and_share() {
  using perfbench::SweepStep;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SweepStep> steps = {
      {1000.0, 2.0, 0.0, 1, 1},
      {2000.0, 5.0, 0.0, 2, 3},
      {3000.0, 40.0, 0.0, 10, 12},
      {4000.0, 80.0, 0.0, 10, 12},    // p99 over the deadline
      {5000.0, 10.0, 0.0, 10, 12}};   // passes, but above a miss: not counted
  check(perfbench::sustained_rps(steps, 50.0, 16) == 3000.0, "sustained stops at the p99 miss");
  check(perfbench::sustained_rps({{1000.0, 1.0, 0.001, 0, 0}}, 50.0, 16) == 0.0,
        "any failure misses");
  check(perfbench::sustained_rps({{1000.0, 1.0, 0.0, 0, 0}, {2000.0, 1.0, 0.0, 10, 40}}, 50.0,
                                 16) == 1000.0,
        "a growing backlog misses");
  check(perfbench::sustained_rps({{1000.0, inf, 0.0, 0, 0}}, 50.0, 16) == 0.0,
        "a step without a p99 misses");

  check(perfbench::max_shard_share({100, 0}) == 1.0, "one shard doing everything is 1.0");
  check(perfbench::max_shard_share({50, 50}) == 0.5, "balanced pair is 0.5");
  check(perfbench::max_shard_share({30, 60, 10}) == 0.6, "largest of three");
  check(perfbench::max_shard_share({0, 0}) == 0.0, "nothing completed is 0");
}

void test_spans(const std::string& trace_path) {
  perfbench::SpanLog spans;
  const uint64_t trace = spans.new_trace();
  const uint64_t root = spans.add(trace, 0, "request", 1000, 2000);
  spans.add(trace, root, "a", 1000, 1300);
  spans.add(trace, root, "b", 1200, 1500);  // overlaps a: union is 1000..1500
  spans.add(trace, root, "c", 1800, 2500);  // clipped to the parent at 2000
  const auto layers = perfbench::layer_times(spans.records());
  check(layers.at("request").self_ns == 1000.0 - 500.0 - 200.0,
        "self time subtracts the child union");
  check(layers.at("a").self_ns == 300.0 && layers.at("a").count == 1,
        "leaf self time is its duration");
  check(perfbench::span_coverage(layers, "request") == 0.7, "coverage is 1 - root self share");

  perfbench::SpanLog good;
  const uint64_t t = good.new_trace();
  const uint64_t r = good.add(t, 0, "request", 10'000, 50'000);
  good.add(t, r, "stage", 20'000, 30'000);
  check(perfbench::write_checked_trace(good.records(), trace_path).empty(),
        "a nested trace round-trips clean");
  perfbench::SpanLog bad;
  const uint64_t u = bad.new_trace();
  const uint64_t s = bad.add(u, 0, "request", 10'000, 20'000);
  bad.add(u, s, "stage", 15'000, 40'000);  // outlives its parent
  check(!perfbench::write_checked_trace(bad.records(), trace_path).empty(),
        "a child outliving its parent is reported");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "perfbench_selftest_trace.json";
  test_percentile();
  test_window_summary();
  test_determinism();
  test_sustained_and_share();
  test_spans(trace_path);
  std::printf("perfbench selftest: %s (%d failure%s)\n", failures == 0 ? "ok" : "FAILED", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
