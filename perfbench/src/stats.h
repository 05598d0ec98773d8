// Statistics and seeded input generation shared by every perfbench workload.
//
// Everything here is a pure function of its arguments, so the benchmark's
// own tests (tests/selftest.cpp) pin it on synthetic inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it: p50 needs 20 samples, p95 needs 200, p99 needs 1000.
inline constexpr int64_t kMinTail = 10;

/// Nearest-rank percentile (p in (0, 1)) of `samples`. nullopt when fewer
/// than kMinTail samples lie beyond the rank — a tail that rests on a handful
/// of points is refused rather than reported. Failed requests enter as
/// +infinity, so they count as missing every latency limit.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double p);

/// End-to-end figures of one timed window.
struct RunSummary {
  double throughput_rps = 0.0;  ///< completed requests over the window
  std::optional<double> p50_ms;
  std::optional<double> p90_ms;
  std::optional<double> p99_ms;  ///< needs 1000 samples (see percentile)
  int64_t samples = 0;
};

/// Summarize a timed window: `latency_ms` holds one entry per request of the
/// window (+infinity when it failed), `completed` counts the requests that
/// completed, and `window_s` is the window's length in seconds.
[[nodiscard]] RunSummary summarize_window(const std::vector<double>& latency_ms,
                                          int64_t completed, double window_s);

/// Plain median of a small set (setup repeats, per-run windows); NaN if empty.
[[nodiscard]] double median_of(std::vector<double> values);

/// One step of the serve_mixed rate sweep, as measured.
struct SweepStep {
  double rate_rps = 0.0;      ///< offered (scheduled) rate
  double p99_ms = 0.0;        ///< +inf when the step had too few samples
  double fail_frac = 0.0;     ///< (rejected + shed + failed) / attempted
  int64_t backlog_mid = 0;    ///< outstanding requests at the step's midpoint
  int64_t backlog_end = 0;    ///< outstanding requests when its last send left
};

/// Highest offered rate of an ascending sweep whose step — and every step
/// below it — meets the limit: p99 within `deadline_ms`, nothing failed, and
/// a backlog that does not grow over the step (end <= 2 * mid + `slack`).
/// 0 when even the first step misses.
[[nodiscard]] double sustained_rps(const std::vector<SweepStep>& steps, double deadline_ms,
                                   int64_t slack);

/// Largest shard's share of all completions: 1/N is balanced, 1.0 is one
/// shard doing everything. 0 when nothing completed.
[[nodiscard]] double max_shard_share(const std::vector<int64_t>& completions);

/// One open-loop arrival: when it is due (relative to the phase start) and
/// which pool input it sends.
struct Arrival {
  int64_t due_ns = 0;
  bool large = false;  ///< 16x16 tile (else 6x6)
  int32_t image = 0;   ///< index into that shape's input pool
};

/// Poisson arrivals at `rate_rps` over `duration_s`, each a 16x16 tile with
/// probability `large_frac`, drawn from `seed` and `stream` (one stream per
/// phase, so phases are independent yet reproducible).
[[nodiscard]] std::vector<Arrival> poisson_schedule(uint64_t seed, uint64_t stream, double rate_rps,
                                                    double duration_s, double large_frac,
                                                    int32_t pool_size);

/// `count` uniform-random [1, C, H, W] images in [0, 1) from `seed`/`stream`.
[[nodiscard]] std::vector<sesr::Tensor> image_pool(uint64_t seed, uint64_t stream, int count,
                                                   int64_t channels, int64_t height,
                                                   int64_t width);

/// Bit-for-bit equality of two tensors (shape and every float's bits).
[[nodiscard]] bool bit_identical(const sesr::Tensor& a, const sesr::Tensor& b);

}  // namespace perfbench
