// Shared declarations of the end-to-end benchmark (see README.md).
//
// One run = one workload for a fixed wall-clock budget. Every run builds
// the model under test the way a user would: load the trained serve-sim
// checkpoint, quantize it with APTQ-75% (Method::aptq_mixed, 2/4-bit,
// paper-default calibration protocol), pack it with PackedModel::pack, and
// then serve or re-quantize it. An untraced run reports the end-to-end
// metrics; a traced run (--trace 1) reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/model_zoo.hpp"
#include "core/pipeline.hpp"
#include "quant/packed_model.hpp"
#include "serve/engine.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run prints: the result-line fields plus every metric by name.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run then reports correct=false.
  void fail_check(const std::string& why);

  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::uint64_t attempted = 0;  ///< requests sent + quantizations run
  std::uint64_t failed = 0;     ///< failed, rejected or evicted

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> check_failures_;
};

// --- statistics --------------------------------------------------------

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// Middle value, or the mean of the two middle values; 0 when empty.
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mib();

/// Sizes the global ThreadPool to `threads`, capped at the host's core
/// count so a run never uses more threads than nproc.
void set_pool_threads(std::size_t threads);

// --- the model under test ---------------------------------------------

constexpr double kMiB = 1024.0 * 1024.0;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 9;

/// Trained checkpoint + corpora, then the APTQ-75% packed artifact.
struct Artifact {
  std::unique_ptr<aptq::StandardCorpora> corpora;
  aptq::Model fp;
  aptq::PackedModel packed;
  double quantize_s = 0.0;  ///< quantize_model + PackedModel::pack
  double ppl_c4 = 0.0;      ///< C4Sim perplexity of packed.unpack()
};

/// Builds the corpora and loads the serve-sim checkpoint from
/// .cache/aptq (relative to the working directory). Returns the seconds
/// taken. Throws when the checkpoint is missing: training it would take
/// minutes and measure the trainer, not the system.
double load_inputs(Artifact& artifact);

/// APTQ-75% with the paper-default protocol; `calib_seed` picks the
/// calibration segments.
aptq::PipelineConfig aptq75_config(std::uint64_t calib_seed);

/// Quantizes artifact.fp into artifact.packed and sets quantize_s.
void quantize_and_pack(Artifact& artifact, const aptq::PipelineConfig& cfg);

/// quantize_and_pack, appending the time to `times` and counting it as
/// attempted; a repeat must reproduce the previous artifact byte for byte.
void quantize_once(Artifact& artifact, const aptq::PipelineConfig& cfg,
                   std::vector<double>& times, Result& result);

/// quantize_once with the program's spans and telemetry on; reports the
/// quant.* per-layer metrics.
void quantize_traced(Artifact& artifact, const aptq::PipelineConfig& cfg,
                     std::vector<double>& times, Result& result);

/// C4Sim perplexity of the packed model (unpack() -> evaluate_perplexity).
double packed_perplexity(const Artifact& artifact);

std::size_t count_layers_with_bits(const aptq::PackedModel& model, int bits);

/// Reports the artifact metrics shared by every workload.
void report_artifact(const Artifact& artifact, Result& result);

// --- serving -----------------------------------------------------------

/// Client-side timing of one request.
struct RequestTrace {
  double due = 0.0;    ///< scheduled send time (s, steady clock)
  double sent = 0.0;   ///< actual send / submit time
  std::vector<double> token_at;  ///< arrival time of each token
  aptq::TokenSeq tokens;
  aptq::serve::FinishReason finish = aptq::serve::FinishReason::none;
  bool failed = false;  ///< transport error, rejection or eviction
};

/// Latency limits a request must meet to count towards slo_attainment.
struct Slo {
  double ttft_ms = 0.0;
  double itl_ms = 0.0;  ///< limit on the request's mean inter-token gap
};

/// Fills ttft/itl percentiles, slo_attainment and tokens_per_s from the
/// client-side traces; `wall_s` is the window tokens_per_s divides by.
void report_latency(const std::vector<RequestTrace>& traces, const Slo& slo,
                    double wall_s, Result& result);

/// The output check: replays `requests` in id order through an engine
/// with max_batch 1 over `oracle`, skipping (cancelling) every request not
/// in `checked`, and compares token streams with `observed`. Returns the
/// number of mismatching requests.
std::size_t check_against_solo(
    const aptq::serve::Backend& oracle,
    const std::vector<aptq::serve::Request>& requests,
    const std::vector<aptq::TokenSeq>& observed,
    const std::vector<std::size_t>& checked);

/// Up to `limit` request indices chosen deterministically from `seed`.
std::vector<std::size_t> pick_checked(std::size_t n, std::size_t limit,
                                      std::uint64_t seed);

// --- workloads -----------------------------------------------------------

void run_quantize_aptq(const Options& opt, Result& result);
void run_chat_shared_prefix(const Options& opt, Result& result);
void run_batch_decode(const Options& opt, Result& result);
void run_tp2_http(const Options& opt, Result& result);

// --- traced-run helpers -------------------------------------------------

/// Per-name totals over the trace recorded so far (obs::trace_json()).
struct SpanTotals {
  struct Entry {
    std::uint64_t count = 0;
    double self_ms = 0.0;  ///< duration minus time covered by child spans
    std::vector<double> durations_ms;
  };
  std::vector<std::pair<std::string, Entry>> by_name;
  const Entry* find(const std::string& name) const;
  double self_s(const std::string& name) const;
};
SpanTotals collect_spans();

/// Drops recorded spans and zeroes the metrics registry.
void reset_observability();

/// Per-layer kernel probe over the served model's own linears, split by
/// bit width (kern.* metrics).
void probe_kernels(const aptq::PackedModel& model, Result& result);

/// Per-layer quant.* metrics from the spans of one traced quantization.
void report_quant_spans(const SpanTotals& spans, const Artifact& artifact,
                        Result& result);

/// Zero-valued net.* / http.* metrics for the local workloads, which send
/// nothing over a network, so every traced run reports the full set.
void report_idle_net(Result& result);

/// The serving phase of quantize_aptq: one offline batch over the freshly
/// quantized artifact, half of it checked against the solo oracle.
void serve_check_batch(const Options& opt, const aptq::PackedModel& model,
                       Result& result);

}  // namespace e2e
