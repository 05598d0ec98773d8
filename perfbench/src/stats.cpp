#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double p) {
  const auto n = static_cast<int64_t>(samples.size());
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  const auto rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  if (n - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

double median_of(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

RunSummary summarize_window(const std::vector<double>& latency_ms, int64_t completed,
                            double window_s) {
  RunSummary out;
  out.samples = static_cast<int64_t>(latency_ms.size());
  out.throughput_rps = window_s > 0.0 ? static_cast<double>(completed) / window_s : 0.0;
  out.p50_ms = percentile(latency_ms, 0.50);
  out.p90_ms = percentile(latency_ms, 0.90);
  out.p99_ms = percentile(latency_ms, 0.99);
  return out;
}

double sustained_rps(const std::vector<SweepStep>& steps, double deadline_ms, int64_t slack) {
  double best = 0.0;
  for (const SweepStep& step : steps) {
    const bool met = step.p99_ms <= deadline_ms && step.fail_frac == 0.0 &&
                     step.backlog_end <= 2 * step.backlog_mid + slack;
    if (!met) break;
    best = step.rate_rps;
  }
  return best;
}

double max_shard_share(const std::vector<int64_t>& completions) {
  int64_t total = 0;
  int64_t largest = 0;
  for (const int64_t c : completions) {
    total += c;
    largest = std::max(largest, c);
  }
  return total > 0 ? static_cast<double>(largest) / static_cast<double>(total) : 0.0;
}

std::vector<Arrival> poisson_schedule(uint64_t seed, uint64_t stream, double rate_rps,
                                      double duration_s, double large_frac, int32_t pool_size) {
  std::mt19937_64 engine(seed * 0x9E3779B97F4A7C15ULL + stream);
  std::exponential_distribution<double> gap_s(rate_rps);
  std::bernoulli_distribution large(large_frac);
  std::uniform_int_distribution<int32_t> image(0, pool_size - 1);
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate_rps * duration_s * 1.1) + 16);
  for (double t = gap_s(engine); t < duration_s; t += gap_s(engine))
    out.push_back({static_cast<int64_t>(t * 1e9), large(engine), image(engine)});
  return out;
}

std::vector<sesr::Tensor> image_pool(uint64_t seed, uint64_t stream, int count, int64_t channels,
                                     int64_t height, int64_t width) {
  sesr::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  std::vector<sesr::Tensor> pool;
  pool.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i)
    pool.push_back(sesr::Tensor::rand(sesr::Shape({1, channels, height, width}), rng, 0.0f, 1.0f));
  return pool;
}

bool bit_identical(const sesr::Tensor& a, const sesr::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace perfbench
