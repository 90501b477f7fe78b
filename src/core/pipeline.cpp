#include "core/pipeline.hpp"

#include <cmath>
#include <map>

#include "model/forward.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/gptq.hpp"
#include "tensor/ops.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace aptq {

namespace {

std::string percent_label(double fraction) {
  const double pct = 100.0 * fraction;
  const long rounded = std::lround(pct);
  if (std::fabs(pct - static_cast<double>(rounded)) < 1e-9) {
    return std::to_string(rounded) + "%";
  }
  return fmt_fixed(pct, 1) + "%";
}

}  // namespace

std::string method_name(Method method, const PipelineConfig& config) {
  switch (method) {
    case Method::fp: return "FP32";
    case Method::rtn: return "RTN";
    case Method::gptq: return "GPTQ";
    case Method::owq: return "OWQ";
    case Method::smoothquant: return "SmoothQuant";
    case Method::fpq: return "FPQ";
    case Method::llm_qat: return "LLM-QAT";
    case Method::pbllm:
      return "PB-LLM-" + percent_label(config.pbllm_salient_fraction);
    case Method::awq: return "AWQ";
    case Method::aptq: return "APTQ";
    case Method::aptq_mixed:
      return "APTQ-" + percent_label(config.ratio_high);
    case Method::blockwise_mixed:
      return "Blockwise-" + percent_label(config.ratio_high);
    case Method::aptq_knapsack:
      return "APTQ-KP-" + percent_label(config.ratio_high);
  }
  APTQ_FAIL("unknown Method");
}

namespace {

QuantSpec int_spec(int bits, std::size_t group_size,
                   bool mse_clip_search = false) {
  QuantSpec spec;
  spec.bits = bits;
  spec.group_size = group_size;
  spec.mse_clip_search = mse_clip_search;
  return spec;
}

// Record for a layer left untouched in full precision.
QuantizedLayerInfo fp_layer_info(const LinearRef& ref) {
  QuantizedLayerInfo info;
  info.name = ref.name;
  info.bits = 32.0;
  info.weight_count = ref.weight->size();
  info.packed_bytes = ref.weight->size() * sizeof(float);
  return info;
}

// Methods whose per-layer work runs through the Hessian-driven path.
bool needs_hessians(Method method) {
  switch (method) {
    case Method::gptq:
    case Method::owq:
    case Method::pbllm:
    case Method::aptq:
    case Method::aptq_mixed:
    case Method::blockwise_mixed:
    case Method::aptq_knapsack:
      return true;
    default:
      return false;
  }
}

HessianMode hessian_mode_for(Method method) {
  switch (method) {
    case Method::aptq:
    case Method::aptq_mixed:
    case Method::blockwise_mixed:  // ablation isolates the allocator only
    case Method::aptq_knapsack:
      return HessianMode::aptq;
    default:
      return HessianMode::gptq;
  }
}

// Mean squared element-wise error between the reference and quantized
// weights — the per-layer "quant.mse" telemetry column.
double weight_mse(const Matrix& w_ref, const Matrix& w_quant) {
  const double dist = frobenius_distance(w_ref, w_quant);
  return dist * dist / static_cast<double>(w_ref.size());
}

// Quantize one layer given its Hessian; returns the info record and writes
// the quantized weights back through the ref.
QuantizedLayerInfo quantize_hessian_layer(const LinearRef& ref,
                                          const LayerCalibration& calib,
                                          Method method, int layer_bits,
                                          const PipelineConfig& config) {
  obs::TraceSpan span("layer:" + ref.name, "quant");
  const Matrix wt = ref.weight->transposed();  // out-major view
  QuantizedLayerInfo info;
  info.name = ref.name;
  info.weight_count = wt.size();

  switch (method) {
    case Method::gptq:
    case Method::aptq:
    case Method::aptq_mixed:
    case Method::blockwise_mixed:
    case Method::aptq_knapsack: {
      GptqConfig gc;
      gc.spec = int_spec(layer_bits, config.group_size,
                         config.mse_clip_search);
      gc.block_size = config.solver_block;
      gc.damp = config.damp;
      gc.act_order = config.act_order;
      GptqResult res = gptq_quantize(wt, calib.hessian, gc);
      info = make_layer_info(ref.name, res.weight, gc.spec, res.proxy_loss,
                             res.recon_error);
      *ref.weight = res.weight.transposed();
      break;
    }
    case Method::owq: {
      OwqConfig oc;
      oc.spec = int_spec(layer_bits, config.group_size);
      oc.block_size = config.solver_block;
      oc.damp = config.damp;
      oc.fp_column_fraction = config.owq_fp_column_fraction;
      OwqResult res = owq_quantize(wt, calib.hessian, oc);
      info.bits = res.avg_bits;
      info.packed_bytes = static_cast<std::size_t>(
          std::ceil(res.avg_bits * static_cast<double>(wt.size()) / 8.0));
      info.recon_error =
          reconstruction_error(wt, res.weight, calib.hessian);
      *ref.weight = res.weight.transposed();
      break;
    }
    case Method::pbllm: {
      PbLlmConfig pc;
      pc.salient_fraction = config.pbllm_salient_fraction;
      PbLlmResult res = pbllm_quantize(wt, calib.hessian, pc);
      info.bits = res.avg_bits;
      info.packed_bytes = static_cast<std::size_t>(
          std::ceil(res.avg_bits * static_cast<double>(wt.size()) / 8.0));
      info.recon_error =
          reconstruction_error(wt, res.weight, calib.hessian);
      *ref.weight = res.weight.transposed();
      break;
    }
    default:
      APTQ_FAIL("quantize_hessian_layer: not a Hessian method");
  }
  if (obs::telemetry_enabled()) {
    obs::layer_stat(ref.name, "alloc.bits", layer_bits);
    obs::layer_stat(ref.name, "quant.bits_effective", info.bits);
    obs::layer_stat(ref.name, "quant.mse",
                    weight_mse(wt, ref.weight->transposed()));
    obs::layer_stat(ref.name, "quant.proxy_loss", info.proxy_loss);
    obs::layer_stat(ref.name, "quant.recon_error", info.recon_error);
    obs::layer_stat(ref.name, "quant.packed_bytes",
                    static_cast<double>(info.packed_bytes));
    obs::layer_stat(ref.name, "hessian.damp", config.damp);
  }
  return info;
}

// Fan the independent per-layer quantization jobs of one calibration result
// out across the thread pool. Each job reads its own Hessian and writes its
// own weight matrix, so the jobs commute; the info records are appended in
// calibration order regardless of scheduling.
template <typename BitsFn>
void quantize_layers(const CalibrationResult& calib,
                     const std::map<std::string, const LinearRef*>& by_name,
                     Method method, const PipelineConfig& config,
                     const BitsFn& layer_bits,
                     std::vector<QuantizedLayerInfo>& out) {
  const std::size_t base = out.size();
  out.resize(base + calib.layers.size());
  parallel_for(0, calib.layers.size(), 1,
               [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const LayerCalibration& layer = calib.layers[i];
      const LinearRef* ref = by_name.at(layer.name);
      out[base + i] = quantize_hessian_layer(*ref, layer, method,
                                             layer_bits(layer.name), config);
    }
  });
}

// Advance each segment's carried activations through block `b`: on return
// inputs[si] is the input of block b+1.
void advance_inputs(const Model& model, std::size_t b,
                    std::vector<Matrix>& inputs) {
  parallel_for(0, inputs.size(), 1, [&](std::size_t lo, std::size_t hi) {
    BlockCache cache;
    for (std::size_t si = lo; si < hi; ++si) {
      obs::TraceSpan span("calib.forward", "calib");
      block_forward(model, b, inputs[si], cache);
      inputs[si] = std::move(cache.x_out);
    }
  });
}

}  // namespace

QuantizedModel quantize_model_with_segments(
    const Model& fp_model, std::span<const TokenSeq> segments, Method method,
    const PipelineConfig& config) {
  obs::PhaseSpan phase("pipeline.quantize_model");
  QuantizedModel qm;
  qm.method = method_name(method, config);
  qm.model = fp_model;

  const auto linears = collect_linears(qm.model);

  if (method == Method::fp) {
    for (const auto& ref : linears) {
      qm.layers.push_back(fp_layer_info(ref));
    }
    return qm;
  }

  if (method == Method::rtn || method == Method::fpq) {
    QuantSpec spec = int_spec(config.bits, config.group_size);
    if (method == Method::fpq) {
      spec.format = QFormat::fp4_e2m1;
      spec.bits = 4;
    }
    for (const auto& ref : linears) {
      Matrix wt = ref.weight->transposed();
      Matrix original;
      if (obs::telemetry_enabled()) {
        original = wt;
      }
      quantize_dequantize_matrix(wt, spec);
      if (obs::telemetry_enabled()) {
        obs::layer_stat(ref.name, "alloc.bits", spec.bits);
        obs::layer_stat(ref.name, "quant.mse", weight_mse(original, wt));
      }
      qm.layers.push_back(make_layer_info(ref.name, wt, spec, 0.0, 0.0));
      *ref.weight = wt.transposed();
    }
    return qm;
  }

  if (method == Method::awq) {
    const ActivationMaxima maxima =
        collect_activation_maxima(fp_model, segments);
    AwqConfig ac;
    ac.spec = int_spec(config.bits, config.group_size,
                       config.mse_clip_search);
    awq_apply(qm.model, maxima, ac);
    for (const auto& ref : linears) {
      obs::layer_stat(ref.name, "alloc.bits", ac.spec.bits);
      qm.layers.push_back(make_layer_info(ref.name, ref.weight->transposed(),
                                          ac.spec, 0.0, 0.0));
    }
    return qm;
  }

  if (method == Method::smoothquant) {
    const ActivationMaxima maxima =
        collect_activation_maxima(fp_model, segments);
    SmoothQuantConfig sc;
    sc.alpha = config.smoothquant_alpha;
    sc.weight_bits = config.bits;
    sc.group_size = config.group_size;
    sc.act_bits = config.smoothquant_act_bits;
    smoothquant_apply(qm.model, maxima, sc);
    const QuantSpec spec = int_spec(config.bits, config.group_size);
    for (const auto& ref : linears) {
      obs::layer_stat(ref.name, "alloc.bits", spec.bits);
      qm.layers.push_back(
          make_layer_info(ref.name, ref.weight->transposed(), spec, 0.0, 0.0));
    }
    qm.forward_options.act_quant_bits = config.smoothquant_act_bits;
    return qm;
  }

  if (method == Method::llm_qat) {
    QatConfig qc = config.qat;
    qc.spec = int_spec(config.bits, config.group_size);
    qm.model = qat_finetune(fp_model, qc);
    const auto trained_linears = collect_linears(qm.model);
    for (const auto& ref : trained_linears) {
      obs::layer_stat(ref.name, "alloc.bits", qc.spec.bits);
      qm.layers.push_back(make_layer_info(ref.name, ref.weight->transposed(),
                                          qc.spec, 0.0, 0.0));
    }
    return qm;
  }

  APTQ_CHECK(needs_hessians(method), "quantize_model: unhandled method");
  CalibConfig calib_cfg;
  calib_cfg.mode = hessian_mode_for(method);
  calib_cfg.probes = config.probes;
  calib_cfg.seed = config.calib_seed ^ 0xABCDu;

  // Mixed-precision methods decide the per-layer bit widths from a
  // sensitivity pre-pass on the full-precision model (Algorithm 1, step 2).
  BitAllocation allocation;
  CalibrationResult prepass;
  const bool mixed = method == Method::aptq_mixed ||
                     method == Method::blockwise_mixed ||
                     method == Method::aptq_knapsack;
  if (mixed) {
    obs::PhaseSpan prepass_phase("pipeline.sensitivity_prepass");
    prepass = collect_calibration(fp_model, segments, calib_cfg);
    const auto ranking =
        rank_sensitivities(prepass, fp_model, config.sensitivity_metric);
    switch (method) {
      case Method::aptq_mixed:
        allocation = allocate_by_sensitivity(ranking, config.ratio_high,
                                             config.high_bits,
                                             config.low_bits);
        break;
      case Method::blockwise_mixed:
        allocation = allocate_blockwise(ranking, config.ratio_high,
                                        config.high_bits, config.low_bits);
        break;
      default: {
        const double target =
            static_cast<double>(config.high_bits) * config.ratio_high +
            static_cast<double>(config.low_bits) * (1.0 - config.ratio_high);
        allocation = allocate_knapsack(ranking, fp_model, target,
                                       config.knapsack_menu,
                                       config.group_size);
        break;
      }
    }
  }
  const auto layer_bits = [&](const std::string& name) {
    if (!mixed) {
      return config.bits;
    }
    const auto it = allocation.find(name);
    APTQ_CHECK(it != allocation.end(),
               "quantize_model: layer missing from allocation: " + name);
    return it->second;
  };

  std::map<std::string, const LinearRef*> by_name;
  for (const auto& ref : linears) {
    by_name[ref.name] = &ref;
  }

  if (config.sequential) {
    // GPTQ protocol: quantize block by block, deriving each block's Hessians
    // on the partially quantized model. Each segment's input to block b is
    // carried over from block b-1's output, computed once that block was
    // quantized, instead of re-running blocks 0..b-1. Within a block the
    // layer jobs are independent and run concurrently.
    std::vector<Matrix> inputs;
    inputs.reserve(segments.size());
    for (const auto& segment : segments) {
      inputs.push_back(embed_tokens(qm.model, segment));
    }
    for (std::size_t b = 0; b < qm.model.config.n_layers; ++b) {
      obs::TraceSpan block_span("block:" + std::to_string(b), "pipeline");
      CalibrationResult calib;
      {
        obs::PhaseSpan calib_phase("pipeline.calibration");
        if (b > 0) {
          advance_inputs(qm.model, b - 1, inputs);
        }
        if (b == 0 && mixed) {
          // The pre-pass already calibrated block 0 on these same weights,
          // segments and config.
          for (auto& layer : prepass.layers) {
            if (layer.block == 0 && layer.kind != LinearKind::lm_head) {
              calib.layers.push_back(std::move(layer));
            }
          }
        } else {
          calib = collect_block_calibration(qm.model, inputs, b, calib_cfg);
        }
      }
      obs::PhaseSpan solve_phase("pipeline.solve");
      quantize_layers(calib, by_name, method, config, layer_bits, qm.layers);
    }
  } else {
    CalibrationResult calib;
    {
      obs::PhaseSpan calib_phase("pipeline.calibration");
      // A mixed method's pre-pass is this very calibration.
      calib = mixed ? std::move(prepass)
                    : collect_calibration(fp_model, segments, calib_cfg);
    }
    obs::PhaseSpan solve_phase("pipeline.solve");
    quantize_layers(calib, by_name, method, config, layer_bits, qm.layers);
  }
  return qm;
}

QuantizedModel quantize_model(const Model& fp_model,
                              const Corpus& calib_corpus, Method method,
                              const PipelineConfig& config) {
  const auto segments = sample_calibration_set(
      calib_corpus, config.calib_segments, config.calib_seq_len,
      config.calib_seed);
  return quantize_model_with_segments(fp_model, segments, method, config);
}

}  // namespace aptq
