// dist_hotkey: a dist::Frontend over 2 sesr_shard processes serving
// default=sesr_m5:int8:seed=5, closed loop with 32 requests outstanding from
// one generator thread. Every request is the same 6x6 tile, so every request
// hashes to one owner shard and routing / frontend overhead set the pace.
//
// Shards are spawned with dist::ShardProcess (the spawner LocalCluster is
// built on) so that their sockets live under the run directory, inside the
// working tree, instead of a temp directory.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/process.h"
#include "dist/shard.h"
#include "obs/trace.h"
#include "serve/stats_json.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sesr::Shape;
using sesr::Tensor;
using Clock = std::chrono::steady_clock;

constexpr const char* kSpec = "default=sesr_m5:int8:seed=5";
constexpr int kShards = 2;
constexpr int64_t kOutstanding = 32;
constexpr int64_t kWindow = 64;
constexpr int kWarmRequests = 64;
constexpr size_t kTraceRequests = 2000;

/// Shard processes plus the frontend connected to them; tears everything
/// down (frontend first, then SIGKILL + reap, then socket files).
class Cluster {
 public:
  Cluster(const RunOptions& options, int generation) {
    for (int i = 0; i < kShards; ++i) {
      const std::string socket = options.run_dir + "/shard" + std::to_string(::getpid()) + "_" +
                                 std::to_string(generation) + "_" + std::to_string(i) + ".sock";
      sockets_.push_back(socket);
      processes_.push_back(std::make_unique<sesr::dist::ShardProcess>(
          options.shard_binary,
          std::vector<std::string>{"--socket", socket, "--model", kSpec, "--workers", "1",
                                   "--max-batch", "4", "--queue",
                                   std::to_string(2 * kWindow)}));
    }
    sesr::dist::Frontend::Options frontend;
    for (int i = 0; i < kShards; ++i)
      frontend.shards.push_back({"shard" + std::to_string(i), sockets_[static_cast<size_t>(i)]});
    frontend.window = kWindow;
    frontend.heartbeat_interval = std::chrono::milliseconds(50);
    frontend.connect_timeout = std::chrono::milliseconds(20000);
    frontend_ = std::make_unique<sesr::dist::Frontend>(frontend);
  }
  ~Cluster() {
    frontend_.reset();
    processes_.clear();  // ShardProcess destruction SIGKILLs and reaps
    for (const std::string& socket : sockets_) ::unlink(socket.c_str());
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sesr::dist::Frontend& frontend() { return *frontend_; }

  /// Summed peak resident memory of the shard processes, in MB.
  [[nodiscard]] double shards_peak_rss_mb() const {
    double total = 0.0;
    for (const auto& process : processes_) {
      std::ifstream status("/proc/" + std::to_string(process->pid()) + "/status");
      for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0) total += std::stod(line.substr(6)) / 1024.0;
    }
    return total;
  }

 private:
  std::vector<std::string> sockets_;
  std::vector<std::unique_ptr<sesr::dist::ShardProcess>> processes_;
  std::unique_ptr<sesr::dist::Frontend> frontend_;
};

/// Span stamps of one request of a traced window.
struct Record {
  int64_t submit = 0;     // submit_async entered
  int64_t submitted = 0;  // submit_async returned
  int64_t done = 0;       // reply callback ran
};

struct Window {
  std::vector<double> latency_ms;  // per reply, +inf when it failed
  std::deque<Record> records;  // traced windows only; stable addresses
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  double ok_latency_ms = 0.0;  // summed over ok replies
  double wall_s = 0.0;
};

/// Closed loop: keep kOutstanding requests in flight for `seconds`, then
/// drain. Each reply is compared with `expected` in its callback.
Window run_window(sesr::dist::Frontend& frontend, const Tensor& tile, const Tensor& expected,
                  double seconds, bool traced) {
  Window window;
  std::mutex mutex;  // guards window's counters and latencies, and outstanding
  std::condition_variable cv;
  int64_t outstanding = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < kOutstanding; });
      ++outstanding;
    }
    Record* record = traced ? &window.records.emplace_back() : nullptr;
    const int64_t submit = sesr::obs::trace_now_ns();
    frontend.submit_async(
        Tensor(tile), {},
        [&window, record, submit, &expected, &mutex, &cv,
         &outstanding](sesr::serve::ServeReply reply) {
          const int64_t done = sesr::obs::trace_now_ns();
          const bool ok = reply.ok();
          const bool matches = ok && bit_identical(reply.output, expected);
          if (record != nullptr) record->done = done;
          // Notify under the lock: the waiter may destroy cv as soon as it
          // sees outstanding == 0.
          const std::lock_guard<std::mutex> lock(mutex);
          window.latency_ms.push_back(ok ? static_cast<double>(done - submit) / 1e6
                                         : std::numeric_limits<double>::infinity());
          ++window.attempted;
          window.failed += ok ? 0 : 1;
          window.mismatches += ok && !matches ? 1 : 0;
          window.ok_latency_ms += ok ? static_cast<double>(done - submit) / 1e6 : 0.0;
          --outstanding;
          cv.notify_one();
        });
    if (record != nullptr) {
      record->submit = submit;
      record->submitted = sesr::obs::trace_now_ns();
    }
  }
  std::unique_lock<std::mutex> lock(mutex);
  if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return outstanding == 0; })) {
    lock.unlock();
    frontend.stop();  // completes the rest: no callback may outlive this frame
    throw std::runtime_error("dist_hotkey: replies still outstanding 30 s after the last send");
  }
  window.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return window;
}

/// Per-shard ServerStats from the frontend's latest pongs.
std::vector<sesr::serve::ServerStats> shard_stats(sesr::dist::Frontend& frontend) {
  std::vector<sesr::serve::ServerStats> out;
  for (const auto& [name, info] : frontend.stats().shards)
    out.push_back(info.stats_json.empty() ? sesr::serve::ServerStats{}
                                          : sesr::serve::server_stats_from_json(info.stats_json));
  return out;
}

}  // namespace

void run_dist_hotkey(const RunOptions& options, Report& report) {
  if (options.shard_binary.empty()) throw std::invalid_argument("dist_hotkey needs --shard-bin");
  const Tensor tile = image_pool(options.seed, 4, 1, 3, 6, 6).front();

  // Local reference: the same deterministic spec the shards build from.
  const sesr::dist::ModelSpec spec = sesr::dist::parse_model_spec(kSpec);
  const Tensor expected =
      sesr::dist::build_registry({spec})->acquire(spec.id)->upscaler->upscale(tile);

  std::vector<double> setup_s, spawn_s, warm_s;
  std::unique_ptr<Cluster> cluster;
  for (int generation = 0; generation < kSetupRepeats; ++generation) {
    cluster.reset();
    const Clock::time_point start = Clock::now();
    cluster = std::make_unique<Cluster>(options, generation);
    const double spawned = std::chrono::duration<double>(Clock::now() - start).count();
    std::vector<sesr::serve::ServeFuture> warm;
    for (int i = 0; i < kWarmRequests; ++i)
      warm.push_back(cluster->frontend().submit(Tensor(tile)));
    for (sesr::serve::ServeFuture& future : warm)
      if (!future.get().ok()) throw std::runtime_error("dist_hotkey: warmup request failed");
    const double total = std::chrono::duration<double>(Clock::now() - start).count();
    setup_s.push_back(total);
    spawn_s.push_back(spawned);
    warm_s.push_back(total - spawned);
  }
  report.set("setup_s", median_of(setup_s), "s", kSetupRepeats);
  report.set("setup.spawn_s", median_of(spawn_s), "s", kSetupRepeats);
  report.set("setup.compile_warm_s", median_of(warm_s), "s", kSetupRepeats);

  sesr::dist::Frontend& frontend = cluster->frontend();
  const auto fresh_pongs = [] { std::this_thread::sleep_for(std::chrono::milliseconds(150)); };
  fresh_pongs();
  const std::vector<sesr::serve::ServerStats> before = shard_stats(frontend);
  const sesr::dist::FrontendStats frontend_before = frontend.stats();

  int64_t mismatches = 0;
  const auto account = [&](const Window& window) {
    report.attempted += window.attempted;
    report.failed += window.failed;
    mismatches += window.mismatches;
  };

  if (!options.trace) {
    const Window window = run_window(frontend, tile, expected, options.seconds, false);
    account(window);
    report_end_to_end(
        summarize_window(window.latency_ms, window.attempted - window.failed, window.wall_s),
        report);
  } else {
    // Untraced and traced windows alternate; the traced ones stamp the
    // benchmark's spans around submit_async and the reply callback.
    double untraced_done = 0.0, untraced_s = 0.0, traced_done = 0.0, traced_s = 0.0;
    double ok_latency_ms = 0.0;
    int64_t ok_replies = 0;
    SpanLog spans;
    std::vector<double> submit_us;
    for (int w = 0; w < 4; ++w) {
      const bool traced = w % 2 == 1;
      const Window window = run_window(frontend, tile, expected, options.seconds / 4.0, traced);
      account(window);
      (traced ? traced_done : untraced_done) += static_cast<double>(window.attempted);
      (traced ? traced_s : untraced_s) += window.wall_s;
      ok_latency_ms += window.ok_latency_ms;
      ok_replies += window.attempted - window.failed;
      for (const Record& r : window.records) {
        submit_us.push_back(static_cast<double>(r.submitted - r.submit) / 1e3);
        const uint64_t trace = spans.new_trace();
        const uint64_t root =
            spans.add(trace, 0, "dist.request", r.submit, std::max(r.done, r.submitted));
        spans.add(trace, root, "dist.submit", r.submit, r.submitted);
        spans.add(trace, root, "dist.remote", r.submitted, std::max(r.done, r.submitted));
      }
    }
    fresh_pongs();
    const std::vector<sesr::serve::ServerStats> after = shard_stats(frontend);
    const sesr::dist::FrontendStats frontend_after = frontend.stats();

    // Shard-side service time as an exact mean over the windows: the pongs'
    // latency histograms carry their count and microsecond sum.
    std::vector<int64_t> completions;
    int64_t batches = 0, images = 0, shard_count = 0, shard_sum_us = 0;
    for (size_t i = 0; i < after.size() && i < before.size(); ++i) {
      completions.push_back(after[i].completed - before[i].completed);
      batches += after[i].batches - before[i].batches;
      images += after[i].batched_images - before[i].batched_images;
      shard_count += after[i].latency.count - before[i].latency.count;
      shard_sum_us += after[i].latency.sum_us - before[i].latency.sum_us;
    }
    const auto n = static_cast<int64_t>(submit_us.size());
    const double client_ms = ok_replies > 0 ? ok_latency_ms / static_cast<double>(ok_replies) : 0.0;
    const double shard_ms =
        shard_count > 0 ? static_cast<double>(shard_sum_us) / 1e3 / static_cast<double>(shard_count)
                        : 0.0;
    report.set("dist.submit_us", percentile(submit_us, 0.5).value_or(0.0), "us", n);
    report.set("dist.shard_service_ms", shard_ms, "ms", shard_count);
    report.set("dist.overhead_ms", client_ms - shard_ms, "ms", ok_replies);
    report.set("dist.max_shard_share", max_shard_share(completions), "ratio",
               static_cast<int64_t>(completions.size()));
    report.set("dist.shard_batch_mean",
               batches > 0 ? static_cast<double>(images) / static_cast<double>(batches) : 0.0,
               "count", batches);
    report.set("dist.resubmitted",
               static_cast<double>(frontend_after.resubmitted - frontend_before.resubmitted),
               "count", 1);
    report.set("dist.rejected",
               static_cast<double>(frontend_after.rejected - frontend_before.rejected), "count",
               1);
    const auto layers = layer_times(spans.records());
    report.set("bench.span_coverage", span_coverage(layers, "dist.request"), "ratio", n);
    report.set("bench.trace_overhead", (untraced_done / untraced_s) / (traced_done / traced_s),
               "ratio", n);
    report.set("bench.samples", static_cast<double>(n), "count", n);
    std::vector<sesr::obs::SpanRecord> written(
        spans.records().begin(),
        spans.records().begin() +
            static_cast<std::ptrdiff_t>(std::min(spans.records().size(), 2 * kTraceRequests)));
    for (std::string& problem : write_checked_trace(written, options.trace_path))
      report.problem("trace: " + problem);
  }

  if (mismatches > 0)
    report.problem(std::to_string(mismatches) +
                   " replies differ from the local build_registry reference");
  report.failed += mismatches;
  report.set("peak_rss_mb", peak_rss_mb() + cluster->shards_peak_rss_mb(), "MB", 1);
  cluster.reset();
}

}  // namespace perfbench
