// defend_sesr / defend_fsrcnn: the paper's defended request, closed loop,
// one client. 32x32 LR -> JPEG q75 -> db4 wavelet -> x2 SR (int8) ->
// MobileNet-V2 -> label, driven stage by stage through the public calls
// JpegCompressor::apply, WaveletDenoiser::apply, NetworkUpscaler::upscale and
// Classifier::forward.

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/defense.h"
#include "hw/cost_model.h"
#include "hw/ethos_u55.h"
#include "models/model_zoo.h"
#include "obs/trace.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sesr::Shape;
using sesr::Tensor;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kWeightSeed = 5;  // weights are fixed; the workload seed draws inputs
constexpr int kPool = 16;            // distinct LR images, cycled
constexpr int64_t kLr = 32;
constexpr int kCheckEvery = 10;      // every 10th request's logits are checked
constexpr int kWarmRequests = 3;
constexpr size_t kTraceRequests = 400;  // requests written to the trace file

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One defended-request stack built from fixed seeds. The DefensePipeline
/// calibrates the SR stage's int8 artifact (on JPEG+wavelet output, as in
/// deployment) and is the reference path; the timed path calls the stages.
struct Stack {
  std::shared_ptr<sesr::models::NetworkUpscaler> upscaler;
  std::shared_ptr<sesr::models::Classifier> classifier;
  std::unique_ptr<sesr::core::DefensePipeline> pipeline;
  sesr::preprocess::JpegCompressor jpeg{sesr::core::DefenseOptions{}.jpeg};
  sesr::preprocess::WaveletDenoiser wavelet{sesr::core::DefenseOptions{}.wavelet};
};

struct SetupTimes {
  double build_s = 0.0;
  double calibrate_s = 0.0;
  double compile_warm_s = 0.0;
  double total_s = 0.0;
};

// Stage boundaries of one request: start, after JPEG, after wavelet, after
// SR, after the classifier, after the label.
using Stamps = std::array<int64_t, 6>;

int64_t argmax(const Tensor& logits) {
  int64_t best = 0;
  for (int64_t i = 1; i < logits.numel(); ++i)
    if (logits[i] > logits[best]) best = i;
  return best;
}

/// The timed request. Stage stamps are taken only when `stamps` is given.
Tensor defended_request(Stack& stack, const Tensor& image, Stamps* stamps) {
  if (stamps != nullptr) (*stamps)[0] = sesr::obs::trace_now_ns();
  Tensor x = stack.jpeg.apply(image);
  if (stamps != nullptr) (*stamps)[1] = sesr::obs::trace_now_ns();
  x = stack.wavelet.apply(x);
  if (stamps != nullptr) (*stamps)[2] = sesr::obs::trace_now_ns();
  x = stack.upscaler->upscale(x);
  if (stamps != nullptr) (*stamps)[3] = sesr::obs::trace_now_ns();
  return stack.classifier->forward(x);
}

Stack build_stack(const std::string& sr_label, SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  Stack stack;
  std::shared_ptr<sesr::nn::Module> network = sesr::models::sr_model(sr_label).make_repo_scale();
  sesr::Rng sr_rng(kWeightSeed);
  network->init_weights(sr_rng);
  stack.upscaler = std::make_shared<sesr::models::NetworkUpscaler>(sr_label, network);
  stack.classifier = sesr::models::classifier_zoo()[0].make(10);
  sesr::Rng cls_rng(kWeightSeed + 1);
  stack.classifier->init(cls_rng);
  stack.pipeline = std::make_unique<sesr::core::DefensePipeline>(stack.upscaler);
  const double built = since(start);

  sesr::Rng calib_rng(kWeightSeed + 2);
  std::vector<Tensor> batches;
  for (int i = 0; i < 2; ++i)
    batches.push_back(Tensor::rand(Shape({4, 3, kLr, kLr}), calib_rng, 0.0f, 1.0f));
  stack.pipeline->calibrate_int8(batches);
  const double calibrated = since(start);

  stack.upscaler->warmup(Shape({1, 3, kLr, kLr}), 1);
  const Tensor warm = Tensor::rand(Shape({1, 3, kLr, kLr}), calib_rng, 0.0f, 1.0f);
  for (int i = 0; i < kWarmRequests; ++i) static_cast<void>(defended_request(stack, warm, nullptr));
  if (times != nullptr) {
    times->total_s = since(start);
    times->build_s = built;
    times->calibrate_s = calibrated - built;
    times->compile_warm_s = times->total_s - calibrated;
  }
  return stack;
}

struct Window {
  int64_t done = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<Stamps> stamps;  // traced windows only
};

struct Check {
  int image = 0;
  Tensor logits;
  int64_t label = 0;
};

/// Closed loop for `seconds`; request i sends pool[(first + i) % kPool].
Window run_window(Stack& stack, const std::vector<Tensor>& pool, double seconds, bool traced,
                  int64_t first, std::vector<Check>& checks) {
  Window window;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (int64_t i = first; Clock::now() < stop; ++i) {
    const int image = static_cast<int>(i % kPool);
    Stamps stamps{};
    const Clock::time_point t0 = Clock::now();
    Tensor logits = defended_request(stack, pool[static_cast<size_t>(image)],
                                     traced ? &stamps : nullptr);
    if (traced) stamps[4] = sesr::obs::trace_now_ns();
    const int64_t label = argmax(logits);
    if (traced) stamps[5] = sesr::obs::trace_now_ns();
    const Clock::time_point t1 = Clock::now();
    window.latency_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (traced) window.stamps.push_back(stamps);
    if (i % kCheckEvery == 0) checks.push_back({image, std::move(logits), label});
    ++window.done;
  }
  window.wall_s = since(start);
  return window;
}

/// Logits of a freshly built stack (same seeds) through DefensePipeline::apply
/// + Classifier::forward; every checked request must match them bit for bit.
void check_outputs(const std::string& sr_label, const std::vector<Tensor>& pool,
                   const std::vector<Check>& checks, Report& report) {
  Stack reference = build_stack(sr_label, nullptr);
  std::vector<Tensor> expected(kPool);
  std::vector<bool> have(kPool, false);
  int64_t mismatches = 0;
  for (const Check& check : checks) {
    const auto image = static_cast<size_t>(check.image);
    if (!have[image]) {
      expected[image] = reference.classifier->forward(reference.pipeline->apply(pool[image]));
      have[image] = true;
    }
    if (!bit_identical(check.logits, expected[image]) || check.label != argmax(expected[image]))
      ++mismatches;
  }
  if (mismatches > 0)
    report.problem(std::to_string(mismatches) + " of " + std::to_string(checks.size()) +
                   " checked requests differ from the DefensePipeline reference");
  report.failed += mismatches;
}

/// Analytic Ethos-U55 FPS of the defended pipeline (SR at 32x32 + classifier
/// at 64x64), the paper's deployment target.
double ethos_u55_fps(const std::string& sr_label) {
  const auto network = sesr::models::sr_model(sr_label).make_repo_scale();
  const auto classifier = sesr::models::classifier_zoo()[0].make(10);
  const sesr::hw::EthosU55Model npu;
  const double ms = npu.estimate(*network, Shape({1, 3, kLr, kLr})).total_ms +
                    npu.estimate(*classifier, Shape({1, 3, 2 * kLr, 2 * kLr})).total_ms;
  return 1000.0 / ms;
}

}  // namespace

void run_defend(const RunOptions& options, const std::string& sr_label, Report& report) {
  const std::vector<Tensor> pool = image_pool(options.seed, 1, kPool, 3, kLr, kLr);

  std::vector<SetupTimes> setups(kSetupRepeats);
  Stack stack;
  for (SetupTimes& times : setups) stack = build_stack(sr_label, &times);
  const auto median_setup = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& times : setups) values.push_back(times.*field);
    return median_of(values);
  };
  report.set("setup_s", median_setup(&SetupTimes::total_s), "s", kSetupRepeats);
  report.set("setup.build_s", median_setup(&SetupTimes::build_s), "s", kSetupRepeats);
  report.set("setup.calibrate_s", median_setup(&SetupTimes::calibrate_s), "s", kSetupRepeats);
  report.set("setup.compile_warm_s", median_setup(&SetupTimes::compile_warm_s), "s",
             kSetupRepeats);

  std::vector<Check> checks;
  const int64_t compiles_before = stack.upscaler->plan_compile_count();
  if (!options.trace) {
    const Window window = run_window(stack, pool, options.seconds, false, 0, checks);
    report.attempted += window.done;
    report_end_to_end(summarize_window(window.latency_ms, window.done, window.wall_s), report);
  } else {
    // Untraced and traced windows alternate so both see the same machine.
    int64_t next = 0;
    double untraced_done = 0.0, untraced_s = 0.0, traced_done = 0.0, traced_s = 0.0;
    std::vector<Stamps> stamps;
    for (int w = 0; w < 4; ++w) {
      const bool traced = w % 2 == 1;
      Window window = run_window(stack, pool, options.seconds / 4.0, traced, next, checks);
      next += window.done;
      report.attempted += window.done;
      (traced ? traced_done : untraced_done) += static_cast<double>(window.done);
      (traced ? traced_s : untraced_s) += window.wall_s;
      stamps.insert(stamps.end(), window.stamps.begin(), window.stamps.end());
    }
    report.set("sr.plan_compiles",
               static_cast<double>(stack.upscaler->plan_compile_count() - compiles_before),
               "count", next);

    SpanLog spans;
    std::vector<double> jpeg_ms, wavelet_ms, sr_ms, classify_ms;
    for (const Stamps& s : stamps) {
      const uint64_t trace = spans.new_trace();
      const uint64_t root = spans.add(trace, 0, "defend.request", s[0], s[5]);
      spans.add(trace, root, "preprocess.jpeg", s[0], s[1]);
      spans.add(trace, root, "preprocess.wavelet", s[1], s[2]);
      spans.add(trace, root, "sr.upscale", s[2], s[3]);
      spans.add(trace, root, "classify.forward", s[3], s[4]);
      jpeg_ms.push_back(static_cast<double>(s[1] - s[0]) / 1e6);
      wavelet_ms.push_back(static_cast<double>(s[2] - s[1]) / 1e6);
      sr_ms.push_back(static_cast<double>(s[3] - s[2]) / 1e6);
      classify_ms.push_back(static_cast<double>(s[4] - s[3]) / 1e6);
    }
    const auto layers = layer_times(spans.records());
    const double request_ns =
        layers.count("defend.request") ? layers.at("defend.request").total_ns : 0.0;
    const auto share = [&](const char* name) {
      return request_ns > 0.0 && layers.count(name) ? layers.at(name).self_ns / request_ns : 0.0;
    };
    const auto n = static_cast<int64_t>(stamps.size());
    const auto p50 = [](const std::vector<double>& v) { return percentile(v, 0.5).value_or(0.0); };
    report.set("preprocess.jpeg_ms", p50(jpeg_ms), "ms", n);
    report.set("preprocess.wavelet_ms", p50(wavelet_ms), "ms", n);
    report.set("preprocess.share", share("preprocess.jpeg") + share("preprocess.wavelet"), "ratio",
               n);
    const double sr_macs = static_cast<double>(stack.upscaler->macs_for(Shape({3, kLr, kLr})));
    const double cls_macs = static_cast<double>(
        sesr::hw::summarize(*stack.classifier, Shape({1, 3, 2 * kLr, 2 * kLr})).macs);
    report.set("sr.ms", p50(sr_ms), "ms", n);
    report.set("sr.share", share("sr.upscale"), "ratio", n);
    report.set("sr.gmacs_per_s", sr_macs / (p50(sr_ms) * 1e6), "GMAC/s", n);
    report.set("classify.ms", p50(classify_ms), "ms", n);
    report.set("classify.share", share("classify.forward"), "ratio", n);
    report.set("classify.gmacs_per_s", cls_macs / (p50(classify_ms) * 1e6), "GMAC/s", n);
    report.set("bench.span_coverage", span_coverage(layers, "defend.request"), "ratio", n);
    report.set("bench.trace_overhead", (untraced_done / untraced_s) / (traced_done / traced_s),
               "ratio", n);
    report.set("bench.samples", static_cast<double>(n), "count", n);

    std::vector<sesr::obs::SpanRecord> written(
        spans.records().begin(),
        spans.records().begin() +
            static_cast<std::ptrdiff_t>(std::min(spans.records().size(), 5 * kTraceRequests)));
    for (std::string& problem : write_checked_trace(written, options.trace_path))
      report.problem("trace: " + problem);
  }

  check_outputs(sr_label, pool, checks, report);
  std::printf("paper: ethos_u55_fps %s = %.2f (analytic, SR at %lldx%lld + MobileNet-V2)\n",
              sr_label.c_str(), ethos_u55_fps(sr_label), static_cast<long long>(kLr),
              static_cast<long long>(kLr));
  report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

}  // namespace perfbench
