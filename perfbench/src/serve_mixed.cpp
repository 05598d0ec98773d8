// serve_mixed: open-loop Poisson traffic into an in-process serve::Server
// (1 worker, max_batch 8) serving SESR-M5 int8. Tiles are 6x6 and 16x16 LR
// in a seeded 3:1 mix, each under a 50 ms deadline. Latency runs from each
// request's scheduled send time, so a stall also charges the requests queued
// behind it. Rates are absolute and frozen below.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "models/model_zoo.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sesr::Shape;
using sesr::Tensor;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kWeightSeed = 5;
constexpr double kDeadlineMs = 50.0;
constexpr double kLargeFrac = 0.25;
constexpr int kPoolPerShape = 32;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kQueueCapacity = 512;
constexpr int kCheckEvery = 32;  // every 32nd reply is kept and checked
constexpr double kWarmSeconds = 0.3;
constexpr size_t kTraceRequests = 2000;

// Arrival rates in requests/s, frozen: a run never derives them from the
// capacity it measures. The sweep found about 11000 req/s of capacity on a
// quiet 4-core Xeon (AVX-512 VNNI) VM and 5000-6000 req/s while other tenants
// loaded the host, which for minutes at a time slowed it to 2000 req/s or
// less. kLowRps and kHighRps sit at half of that and below, so host
// contention does not turn into shedding.
constexpr double kLowRps = 500.0;
constexpr double kHighRps = 1000.0;
constexpr std::array<double, 11> kSweepRps = {2000, 3000, 4000, 5000, 6000, 7000,
                                              8000, 9000, 10000, 11000, 12000};

/// Benchmark-owned dispatch timer for the traced run: delegates to the real
/// NetworkUpscaler and remembers, per worker thread, the dispatch it ran last.
/// A batch's callbacks run on its worker right after the dispatch, so a
/// callback reads its own dispatch window from there.
class TimedUpscaler final : public sesr::models::Upscaler {
 public:
  explicit TimedUpscaler(std::shared_ptr<sesr::models::NetworkUpscaler> inner)
      : inner_(std::move(inner)) {}

  Tensor upscale(const Tensor& low_res) override {
    const int64_t start = sesr::obs::trace_now_ns();
    Tensor out = inner_->upscale(low_res);
    finish(start);
    return out;
  }
  void upscale_batch(const Tensor& low_res, std::span<Tensor> per_image) override {
    const int64_t start = sesr::obs::trace_now_ns();
    inner_->upscale_batch(low_res, per_image);
    finish(start);
  }
  [[nodiscard]] std::string label() const override { return inner_->label(); }
  [[nodiscard]] int64_t num_params() const override { return inner_->num_params(); }
  [[nodiscard]] int64_t macs_for(const Shape& chw) const override { return inner_->macs_for(chw); }

  [[nodiscard]] std::vector<std::pair<int64_t, int64_t>> dispatches() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dispatches_;
  }

  static thread_local int64_t last_start;
  static thread_local int64_t last_end;

 private:
  void finish(int64_t start) {
    last_start = start;
    last_end = sesr::obs::trace_now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    dispatches_.emplace_back(last_start, last_end);
  }

  std::shared_ptr<sesr::models::NetworkUpscaler> inner_;
  mutable std::mutex mutex_;  // guards dispatches_
  std::vector<std::pair<int64_t, int64_t>> dispatches_;
};

thread_local int64_t TimedUpscaler::last_start = 0;
thread_local int64_t TimedUpscaler::last_end = 0;

enum Status : int8_t { kPending = 0, kOk, kShed, kError, kRefused };

/// One request's timeline (ns, obs::trace_now_ns clock). The generator
/// writes due/send/sent, the worker's callback the rest.
struct Slot {
  int64_t due = 0;
  int64_t send = 0;   // try_submit entered
  int64_t sent = 0;   // try_submit returned
  int64_t dispatch_start = 0;
  int64_t dispatch_end = 0;
  int64_t done = 0;
  Status status = kPending;
};

struct Pools {
  std::vector<Tensor> small;  // [1, 3, 6, 6]
  std::vector<Tensor> large;  // [1, 3, 16, 16]
  [[nodiscard]] const Tensor& at(const Arrival& a) const {
    return (a.large ? large : small)[static_cast<size_t>(a.image)];
  }
};

struct Phase {
  std::vector<Arrival> arrivals;
  std::vector<Slot> slots;
  std::vector<Tensor> outputs;  // outputs[i / kCheckEvery] for checked i
  double seconds = 0.0;
  int64_t start_ns = 0;  // arrivals[i].due_ns is relative to this
  int64_t backlog_mid = 0;
  int64_t backlog_end = 0;
};

void wait_until(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - sesr::obs::trace_now_ns();
    if (left <= 0) return;
    if (left > 300'000) std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200'000));
  }
}

/// Send `phase.arrivals` on schedule from this (the generator) thread, then
/// wait for every admitted request to complete.
void run_phase(sesr::serve::Server& server, const Pools& pools, Phase& phase, bool traced) {
  const size_t n = phase.arrivals.size();
  phase.slots.assign(n, Slot{});
  phase.outputs.assign((n + kCheckEvery - 1) / kCheckEvery, Tensor());
  std::atomic<int64_t> completed{0};
  int64_t admitted = 0;
  const int64_t start = sesr::obs::trace_now_ns() + 1'000'000;
  phase.start_ns = start;
  const int64_t mid = start + static_cast<int64_t>(phase.seconds * 0.5e9);
  bool mid_sampled = false;
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = phase.slots[i];
    slot.due = start + phase.arrivals[i].due_ns;
    if (!mid_sampled && slot.due >= mid) {
      phase.backlog_mid = admitted - completed.load(std::memory_order_relaxed);
      mid_sampled = true;
    }
    wait_until(slot.due);
    Tensor image = pools.at(phase.arrivals[i]);
    Tensor* keep = i % kCheckEvery == 0 ? &phase.outputs[i / kCheckEvery] : nullptr;
    slot.send = sesr::obs::trace_now_ns();
    const bool ok = server.try_submit(
        std::move(image),
        [&slot, keep, traced, &completed](sesr::serve::ServeReply reply) {
          slot.done = sesr::obs::trace_now_ns();
          if (traced) {
            slot.dispatch_start = TimedUpscaler::last_start;
            slot.dispatch_end = TimedUpscaler::last_end;
          }
          slot.status = reply.status == sesr::serve::ServeStatus::kOk     ? kOk
                        : reply.status == sesr::serve::ServeStatus::kShed ? kShed
                                                                          : kError;
          if (keep != nullptr && slot.status == kOk) *keep = std::move(reply.output);
          completed.fetch_add(1, std::memory_order_release);
        },
        std::chrono::milliseconds(static_cast<int64_t>(kDeadlineMs)));
    slot.sent = sesr::obs::trace_now_ns();
    if (ok) {
      ++admitted;
    } else {
      slot.status = kRefused;
      slot.done = slot.sent;
    }
  }
  phase.backlog_end = admitted - completed.load(std::memory_order_relaxed);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (completed.load(std::memory_order_acquire) < admitted && Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  if (completed.load(std::memory_order_acquire) < admitted) {
    server.stop();  // drains the rest: no callback may outlive `completed`
    throw std::runtime_error("serve_mixed: requests still outstanding 10 s after the last send");
  }
}

struct PhaseSummary {
  std::vector<double> latency_ms;  // per slot, from the due time; +inf for failures
  int64_t attempted = 0;
  int64_t failed = 0;
};

PhaseSummary summarize(const Phase& phase) {
  PhaseSummary out;
  for (const Slot& slot : phase.slots) {
    ++out.attempted;
    if (slot.status != kOk) {
      ++out.failed;
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    out.latency_ms.push_back(static_cast<double>(slot.done - slot.due) / 1e6);
  }
  return out;
}

Phase make_phase(uint64_t seed, uint64_t stream, double rate_rps, double seconds) {
  Phase phase;
  phase.seconds = seconds;
  phase.arrivals = poisson_schedule(seed, stream, rate_rps, seconds, kLargeFrac, kPoolPerShape);
  return phase;
}

struct Setup {
  std::shared_ptr<sesr::models::NetworkUpscaler> upscaler;
  double total_s = 0.0;
  double build_s = 0.0;
  double calibrate_s = 0.0;
  double compile_warm_s = 0.0;
  double spawn_s = 0.0;  // server construction (worker start)
};

sesr::serve::Server::Options server_options() {
  sesr::serve::Server::Options options;
  options.workers = 1;
  options.max_batch = kMaxBatch;
  options.queue_capacity = kQueueCapacity;
  options.default_deadline = std::chrono::milliseconds(static_cast<int64_t>(kDeadlineMs));
  return options;
}

Setup build(std::unique_ptr<sesr::serve::Server>* server) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  const auto since = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };
  std::shared_ptr<sesr::nn::Module> network = sesr::models::sr_model("SESR-M5").make_repo_scale();
  sesr::Rng rng(kWeightSeed);
  network->init_weights(rng);
  setup.upscaler = std::make_shared<sesr::models::NetworkUpscaler>("SESR-M5", network);
  setup.build_s = since();
  std::vector<Tensor> batches;
  for (int i = 0; i < 2; ++i)
    batches.push_back(Tensor::rand(Shape({4, 3, 16, 16}), rng, 0.0f, 1.0f));
  setup.upscaler->calibrate_int8(batches);
  setup.calibrate_s = since() - setup.build_s;
  const double before_spawn = since();
  *server = std::make_unique<sesr::serve::Server>(setup.upscaler, server_options());
  setup.spawn_s = since() - before_spawn;
  const double before_warm = since();
  (*server)->warmup(Shape({3, 6, 6}));
  (*server)->warmup(Shape({3, 16, 16}));
  setup.compile_warm_s = since() - before_warm;
  setup.total_s = since();
  return setup;
}

/// Every kept reply must equal NetworkUpscaler::upscale on its input.
void check_phase(const Phase& phase, const Pools& pools, sesr::models::NetworkUpscaler& upscaler,
                 int64_t& checked, int64_t& mismatches) {
  for (size_t i = 0; i < phase.slots.size(); i += kCheckEvery) {
    if (phase.slots[i].status != kOk) continue;
    ++checked;
    const Tensor expected = upscaler.upscale(pools.at(phase.arrivals[i]));
    if (!bit_identical(phase.outputs[i / kCheckEvery], expected)) ++mismatches;
  }
}

}  // namespace

void run_serve_mixed(const RunOptions& options, Report& report) {
  Pools pools{image_pool(options.seed, 2, kPoolPerShape, 3, 6, 6),
              image_pool(options.seed, 3, kPoolPerShape, 3, 16, 16)};

  std::vector<Setup> setups;
  std::unique_ptr<sesr::serve::Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    setups.push_back(build(&server));
  }
  const auto median_setup = [&](double Setup::*field) {
    std::vector<double> values;
    for (const Setup& setup : setups) values.push_back(setup.*field);
    return median_of(values);
  };
  report.set("setup_s", median_setup(&Setup::total_s), "s", kSetupRepeats);
  report.set("setup.build_s", median_setup(&Setup::build_s), "s", kSetupRepeats);
  report.set("setup.calibrate_s", median_setup(&Setup::calibrate_s), "s", kSetupRepeats);
  report.set("setup.compile_warm_s", median_setup(&Setup::compile_warm_s), "s", kSetupRepeats);
  report.set("setup.spawn_s", median_setup(&Setup::spawn_s), "s", kSetupRepeats);
  sesr::models::NetworkUpscaler& upscaler = *setups.back().upscaler;

  Phase warm = make_phase(options.seed, 10, kLowRps, kWarmSeconds);
  run_phase(*server, pools, warm, false);
  const int64_t compiles_before = upscaler.plan_compile_count();

  int64_t checked = 0, mismatches = 0;
  const auto account = [&](Phase& phase) {
    const PhaseSummary summary = summarize(phase);
    report.attempted += summary.attempted;
    report.failed += summary.failed;
    check_phase(phase, pools, upscaler, checked, mismatches);
    return summary;
  };

  if (!options.trace) {
    Phase high = make_phase(options.seed, 12, kHighRps, options.seconds);
    run_phase(*server, pools, high, false);
    server->stop();
    const PhaseSummary summary = account(high);
    // Throughput is goodput: replies within the deadline over the span from
    // the window's start to its last completion. Below capacity it follows
    // the offered rate and moves only with deadline misses.
    int64_t good = 0;
    int64_t last_done = high.start_ns;
    for (size_t i = 0; i < high.slots.size(); ++i) {
      good += summary.latency_ms[i] <= kDeadlineMs ? 1 : 0;
      last_done = std::max(last_done, high.slots[i].done);
    }
    report_end_to_end(summarize_window(summary.latency_ms, good,
                                       static_cast<double>(last_done - high.start_ns) / 1e9),
                      report);
  } else {
    const double slice = options.seconds * 0.2;
    Phase low = make_phase(options.seed, 11, kLowRps, slice);
    Phase high = make_phase(options.seed, 12, kHighRps, slice);
    run_phase(*server, pools, low, false);
    run_phase(*server, pools, high, false);
    const sesr::serve::ServerStats direct_stats = server->stats();
    server->stop();

    // Traced high-rate window: the same (already warm) upscaler, served
    // through the timing wrapper.
    auto timed = std::make_shared<TimedUpscaler>(setups.back().upscaler);
    sesr::serve::Server traced_server(timed, server_options());
    Phase traced = make_phase(options.seed, 13, kHighRps, slice);
    run_phase(traced_server, pools, traced, true);
    const sesr::serve::ServerStats traced_stats = traced_server.stats();
    traced_server.stop();
    report.set("sr.plan_compiles",
               static_cast<double>(upscaler.plan_compile_count() - compiles_before), "count", 1);

    const PhaseSummary low_summary = account(low);
    const PhaseSummary high_summary = account(high);
    account(traced);
    const auto n_low = static_cast<int64_t>(low_summary.latency_ms.size());
    report.set("serve.low_p50_ms", percentile(low_summary.latency_ms, 0.50).value_or(0.0), "ms",
               n_low);
    report.set("serve.low_p99_ms", percentile(low_summary.latency_ms, 0.99).value_or(0.0), "ms",
               n_low);

    std::vector<double> lag_ms;
    for (const Phase* phase : {&low, &high})
      for (const Slot& slot : phase->slots)
        lag_ms.push_back(static_cast<double>(slot.send - slot.due) / 1e6);
    report.set("bench.generator_lag_p99_ms", percentile(lag_ms, 0.99).value_or(0.0), "ms",
               static_cast<int64_t>(lag_ms.size()));

    // Per-layer numbers from the traced window's ok requests.
    SpanLog spans;
    std::vector<double> admit_us, queue_ms, reply_us, traced_latency_ms;
    for (const Slot& s : traced.slots) {
      if (s.status != kOk) continue;
      admit_us.push_back(static_cast<double>(s.sent - s.send) / 1e3);
      queue_ms.push_back(static_cast<double>(s.dispatch_start - s.due) / 1e6);
      reply_us.push_back(static_cast<double>(s.done - s.dispatch_end) / 1e3);
      traced_latency_ms.push_back(static_cast<double>(s.done - s.due) / 1e6);
      const uint64_t trace = spans.new_trace();
      const uint64_t root =
          spans.add(trace, 0, "serve.request", s.due, std::max(s.done, s.sent));
      spans.add(trace, root, "bench.gen_lag", s.due, s.send);
      spans.add(trace, root, "serve.admit", s.send, s.sent);
      spans.add(trace, root, "serve.queue_wait", s.sent, s.dispatch_start);
      spans.add(trace, root, "serve.dispatch", s.dispatch_start, s.dispatch_end);
      spans.add(trace, root, "serve.reply", s.dispatch_end, s.done);
    }
    const auto n = static_cast<int64_t>(admit_us.size());
    const auto pct = [](const std::vector<double>& v, double p) {
      return percentile(v, p).value_or(0.0);
    };
    report.set("serve.admit_us", pct(admit_us, 0.5), "us", n);
    report.set("serve.queue_wait_p50_ms", pct(queue_ms, 0.5), "ms", n);
    report.set("serve.queue_wait_p99_ms", pct(queue_ms, 0.99), "ms", n);
    report.set("serve.reply_us", pct(reply_us, 0.5), "us", n);
    const auto dispatches = timed->dispatches();
    std::vector<double> dispatch_ms;
    double busy_ns = 0.0;
    for (const auto& [begin, end] : dispatches) {
      dispatch_ms.push_back(static_cast<double>(end - begin) / 1e6);
      busy_ns += static_cast<double>(end - begin);
    }
    const auto n_dispatch = static_cast<int64_t>(dispatches.size());
    report.set("serve.dispatch_ms", pct(dispatch_ms, 0.5), "ms", n_dispatch);
    report.set("serve.busy_frac", busy_ns / (traced.seconds * 1e9), "ratio", n_dispatch);
    report.set("serve.dispatches", static_cast<double>(traced_stats.batches), "count", n_dispatch);
    report.set("serve.batch_mean", traced_stats.mean_batch_size, "count", n_dispatch);
    report.set("serve.peak_queue_depth", static_cast<double>(traced_stats.peak_queue_depth),
               "count", 1);
    report.set("serve.shed", static_cast<double>(direct_stats.shed + traced_stats.shed), "count",
               1);
    report.set("serve.rejected",
               static_cast<double>(direct_stats.rejected + traced_stats.rejected), "count", 1);
    const auto layers = layer_times(spans.records());
    report.set("bench.span_coverage", span_coverage(layers, "serve.request"), "ratio", n);
    const auto untraced_p50 = percentile(high_summary.latency_ms, 0.5);
    const auto traced_p50 = percentile(traced_latency_ms, 0.5);
    report.set("bench.trace_overhead",
               untraced_p50 && traced_p50 ? *traced_p50 / *untraced_p50 : 0.0, "ratio", n);
    report.set("bench.samples", static_cast<double>(n), "count", n);
    std::vector<sesr::obs::SpanRecord> written(
        spans.records().begin(),
        spans.records().begin() +
            static_cast<std::ptrdiff_t>(std::min(spans.records().size(), 6 * kTraceRequests)));
    for (std::string& problem : write_checked_trace(written, options.trace_path))
      report.problem("trace: " + problem);

    // Fixed rate sweep on a fresh direct server; stops at the first step
    // that misses. Sweep requests are a capacity probe: they are not part of
    // attempted/failed, and their replies are not kept.
    sesr::serve::Server sweep_server(setups.back().upscaler, server_options());
    std::vector<SweepStep> steps;
    const double step_s = options.seconds * 0.4 / static_cast<double>(kSweepRps.size());
    for (size_t k = 0; k < kSweepRps.size(); ++k) {
      Phase phase = make_phase(options.seed, 20 + k, kSweepRps[k], step_s);
      run_phase(sweep_server, pools, phase, false);
      const PhaseSummary summary = summarize(phase);
      steps.push_back({kSweepRps[k],
                       percentile(summary.latency_ms, 0.99)
                           .value_or(std::numeric_limits<double>::infinity()),
                       summary.attempted > 0 ? static_cast<double>(summary.failed) /
                                                   static_cast<double>(summary.attempted)
                                             : 1.0,
                       phase.backlog_mid, phase.backlog_end});
      std::printf("sweep: %.0f req/s p99 %.3f ms fail %.4f backlog %lld -> %lld\n",
                  steps.back().rate_rps, steps.back().p99_ms, steps.back().fail_frac,
                  static_cast<long long>(steps.back().backlog_mid),
                  static_cast<long long>(steps.back().backlog_end));
      if (sustained_rps(steps, kDeadlineMs, 2 * kMaxBatch) < kSweepRps[k]) break;
    }
    sweep_server.stop();
    report.set("serve.sustained_rps", sustained_rps(steps, kDeadlineMs, 2 * kMaxBatch), "req/s",
               static_cast<int64_t>(steps.size()));
  }

  if (mismatches > 0)
    report.problem(std::to_string(mismatches) + " of " + std::to_string(checked) +
                   " checked replies differ from NetworkUpscaler::upscale");
  report.failed += mismatches;
  report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

}  // namespace perfbench
