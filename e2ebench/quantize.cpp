// The model under test (checkpoint -> APTQ-75% -> packed artifact) and the
// quantize_aptq workload.
#include <cmath>
#include <filesystem>

#include "bench.hpp"
#include "eval/perplexity.hpp"
#include "obs/control.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace e2e {

namespace {

constexpr const char* kCheckpoint = ".cache/aptq/serve-sim.ckpt";

/// SplitMix64 finalizer: spreads consecutive workload seeds apart.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool same_linears(const aptq::PackedModel& a, const aptq::PackedModel& b) {
  if (a.linears().size() != b.linears().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.linears().size(); ++i) {
    if (!(a.linears()[i] == b.linears()[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

double load_inputs(Artifact& artifact) {
  APTQ_CHECK(std::filesystem::exists(kCheckpoint),
             std::string("missing checkpoint ") + kCheckpoint +
                 " (run from the repository root)");
  const double t0 = now_s();
  artifact.corpora = aptq::make_standard_corpora();
  aptq::ModelZoo zoo;
  artifact.fp = zoo.get(aptq::serve_sim(), *artifact.corpora,
                        /*verbose=*/false);
  return now_s() - t0;
}

aptq::PipelineConfig aptq75_config(std::uint64_t calib_seed) {
  aptq::PipelineConfig cfg;  // paper-default protocol
  cfg.ratio_high = 0.75;
  cfg.calib_seed = calib_seed;
  return cfg;
}

void quantize_and_pack(Artifact& artifact, const aptq::PipelineConfig& cfg) {
  const double t0 = now_s();
  aptq::QuantizedModel qm;
  {
    aptq::obs::TraceSpan span("bench.quantize_model", "bench");
    qm = aptq::quantize_model(artifact.fp, artifact.corpora->c4,
                              aptq::Method::aptq_mixed, cfg);
  }
  {
    aptq::obs::TraceSpan span("bench.pack", "bench");
    artifact.packed = aptq::PackedModel::pack(qm, cfg.group_size);
  }
  artifact.quantize_s = now_s() - t0;
}

double packed_perplexity(const Artifact& artifact) {
  aptq::obs::TraceSpan span("bench.evaluate_perplexity", "bench");
  const auto segments = artifact.corpora->c4.eval_segments(48, 96);
  return aptq::evaluate_perplexity(artifact.packed.unpack(), segments)
      .perplexity;
}

std::size_t count_layers_with_bits(const aptq::PackedModel& model, int bits) {
  std::size_t n = 0;
  for (const auto& linear : model.linears()) {
    n += linear.spec().bits == bits ? 1 : 0;
  }
  return n;
}

void report_artifact(const Artifact& artifact, Result& result) {
  result.set("quantize_s", artifact.quantize_s, "s");
  result.set("ppl_c4", artifact.ppl_c4, "ppl");
  result.set("weight_mib",
             static_cast<double>(artifact.packed.linear_storage_bytes()) /
                 kMiB,
             "MiB");
  result.set("layers_2bit",
             static_cast<double>(count_layers_with_bits(artifact.packed, 2)),
             "count");
  // A model that scores no better than uniform over the vocabulary is
  // broken, whatever its speed.
  const double uniform =
      static_cast<double>(artifact.fp.config.vocab_size);
  if (!(std::isfinite(artifact.ppl_c4) && artifact.ppl_c4 < uniform)) {
    result.fail_check("packed C4Sim perplexity " +
                      std::to_string(artifact.ppl_c4) +
                      " is not below the uniform baseline");
  }
}

void report_quant_spans(const SpanTotals& spans, const Artifact& artifact,
                        Result& result) {
  result.set("quant.calib_forward_s", spans.self_s("calib.forward"), "s");
  result.set("quant.gamma_probe_s", spans.self_s("calib.gamma_probe"), "s");
  result.set("quant.hessian_s", spans.self_s("hessian.accumulate"), "s");
  result.set("quant.gptq_s", spans.self_s("gptq.solve"), "s");
  result.set("quant.alloc_s", spans.self_s("mixed.rank_sensitivities"), "s");
  result.set("quant.pack_s", spans.self_s("pack.model"), "s");
  result.set("quant.layers_2bit",
             static_cast<double>(count_layers_with_bits(artifact.packed, 2)),
             "count");
}

void quantize_once(Artifact& artifact, const aptq::PipelineConfig& cfg,
                   std::vector<double>& times, Result& result) {
  const aptq::PackedModel previous = artifact.packed;
  quantize_and_pack(artifact, cfg);
  times.push_back(artifact.quantize_s);
  ++result.attempted;
  if (times.size() > 1 && !same_linears(previous, artifact.packed)) {
    result.fail_check("re-quantizing the same calibration set changed the "
                      "packed weights");
  }
}

void quantize_traced(Artifact& artifact, const aptq::PipelineConfig& cfg,
                     std::vector<double>& times, Result& result) {
  reset_observability();
  aptq::obs::set_tracing(true);
  aptq::obs::set_telemetry(true);
  quantize_once(artifact, cfg, times, result);
  aptq::obs::set_tracing(false);
  aptq::obs::set_telemetry(false);
  report_quant_spans(collect_spans(), artifact, result);
}

// quantize_aptq: re-quantize for the whole window; the seed picks the
// calibration segments.
void run_quantize_aptq(const Options& opt, Result& result) {
  set_pool_threads(2);
  Artifact artifact;
  std::vector<double> setup_s = {load_inputs(artifact)};
  const aptq::PipelineConfig cfg =
      aptq75_config(aptq::PipelineConfig{}.calib_seed ^ mix(opt.seed));

  std::vector<double> quantize_s;
  if (opt.trace) {
    // A traced quantization between two untraced ones of the same inputs;
    // its time over theirs is the tracing overhead.
    quantize_once(artifact, cfg, quantize_s, result);
    quantize_traced(artifact, cfg, quantize_s, result);
    quantize_once(artifact, cfg, quantize_s, result);
    result.set("obs.trace_overhead_share",
               2.0 * quantize_s[1] / (quantize_s[0] + quantize_s[2]), "ratio");
  } else {
    // At least three, so quantize_s is a median of three and every run
    // checks that a repeat is byte-identical; then another only if it
    // should end inside the window.
    const double deadline = now_s() + opt.seconds;
    do {
      quantize_once(artifact, cfg, quantize_s, result);
    } while (quantize_s.size() < 3 ||
             now_s() + quantize_s.back() <= deadline);
  }
  artifact.quantize_s = median(quantize_s);
  artifact.ppl_c4 = packed_perplexity(artifact);
  report_artifact(artifact, result);

  for (std::size_t rep = 1; rep < kSetups; ++rep) {
    Artifact again;
    setup_s.push_back(load_inputs(again));
  }
  result.set("setup_s", median(setup_s), "s");
  serve_check_batch(opt, artifact.packed, result);
}

}  // namespace e2e
