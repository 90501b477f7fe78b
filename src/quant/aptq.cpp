#include "quant/aptq.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "model/backward.hpp"
#include "model/forward.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

namespace aptq {

const LayerCalibration& CalibrationResult::by_name(
    const std::string& name) const {
  for (const auto& layer : layers) {
    if (layer.name == name) {
      return layer;
    }
  }
  APTQ_FAIL("CalibrationResult: no layer named " + name);
}

AttentionGammas attention_gammas(const Model& model, std::size_t block,
                                 const BlockCache& cache, std::size_t probes,
                                 Rng& rng) {
  APTQ_CHECK(probes >= 1, "attention_gammas: need at least one probe");
  const std::size_t t_len = cache.normed1.rows();
  const std::size_t d = model.config.dim;
  AttentionGammas g;
  g.q.assign(t_len, 0.0f);
  g.k.assign(t_len, 0.0f);
  g.v.assign(t_len, 0.0f);
  for (std::size_t p = 0; p < probes; ++p) {
    const Matrix seed = Matrix::randn(t_len, d, rng);
    const AttentionProbeGrads pg =
        attention_probe_backward(model, block, cache, seed);
    for (std::size_t t = 0; t < t_len; ++t) {
      g.q[t] += dot(pg.dq.row(t), pg.dq.row(t));
      g.k[t] += dot(pg.dk.row(t), pg.dk.row(t));
      g.v[t] += dot(pg.dv.row(t), pg.dv.row(t));
    }
  }
  // Normalize by probe count and seed dimensionality so that an identity
  // Jacobian yields γ = 1 (comparable to GPTQ's implicit γ ≡ 1).
  const float norm = 1.0f / (static_cast<float>(probes) *
                             static_cast<float>(d));
  for (std::size_t t = 0; t < t_len; ++t) {
    g.q[t] *= norm;
    g.k[t] *= norm;
    g.v[t] *= norm;
  }
  return g;
}

namespace {

// The input activation matrix feeding a given linear layer, read from the
// forward cache.
const Matrix& linear_input(const ForwardCache& cache, LinearKind kind,
                           std::size_t block) {
  switch (kind) {
    case LinearKind::q_proj:
    case LinearKind::k_proj:
    case LinearKind::v_proj:
      return cache.blocks[block].normed1;
    case LinearKind::o_proj:
      return cache.blocks[block].attn_cat;
    case LinearKind::gate_proj:
    case LinearKind::up_proj:
      return cache.blocks[block].normed2;
    case LinearKind::down_proj:
      return cache.blocks[block].act;
    case LinearKind::lm_head:
      return cache.normed_final;
  }
  APTQ_FAIL("linear_input: unknown kind");
}

struct LayerSlot {
  ConstLinearRef ref;
  HessianAccumulator acc;
  double gamma_sum = 0.0;
  std::size_t gamma_count = 0;
};

// Segments whose forwards and γ probes run concurrently before their
// Hessian terms are folded in. A fixed constant, so the fold order never
// depends on the thread count; it bounds the live forward caches.
constexpr std::size_t kSegmentChunk = 16;

// Fills a segment's forward cache: a full model_forward, or one block's
// forward from that segment's carried input.
using SegmentForward = std::function<void(std::size_t, ForwardCache&)>;

CalibrationResult collect_impl(const Model& model, std::size_t n_segments,
                               const SegmentForward& forward,
                               const CalibConfig& config, long only_block) {
  APTQ_CHECK(n_segments > 0, "calibration: no segments");
  std::vector<LayerSlot> slots;
  for (const auto& ref : collect_linears(model, config.include_lm_head)) {
    if (only_block >= 0 && ref.kind != LinearKind::lm_head &&
        ref.block != static_cast<std::size_t>(only_block)) {
      continue;
    }
    if (only_block >= 0 && ref.kind == LinearKind::lm_head) {
      continue;
    }
    slots.push_back({ref, HessianAccumulator(ref.weight->rows()), 0.0, 0});
  }
  APTQ_CHECK(!slots.empty(), "calibration: no layers selected");

  const std::size_t chunk = std::min(kSegmentChunk, n_segments);
  std::vector<ForwardCache> caches(chunk);
  // γ per (segment in chunk, block), shared by that block's q/k/v slots.
  std::vector<std::vector<AttentionGammas>> gammas(
      chunk, std::vector<AttentionGammas>(model.config.n_layers));
  for (std::size_t c0 = 0; c0 < n_segments; c0 += chunk) {
    const std::size_t c1 = std::min(c0 + chunk, n_segments);
    // Each segment of the chunk owns its cache and γ slots, so segments run
    // concurrently. The probe RNG is keyed to (seed, segment, block), so
    // per-block collection reproduces exactly the γ a full-model pass would
    // produce.
    parallel_for(c0, c1, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t si = b; si < e; ++si) {
        obs::TraceSpan segment_span("calib.segment", "calib");
        ForwardCache& cache = caches[si - c0];
        {
          obs::TraceSpan forward_span("calib.forward", "calib");
          forward(si, cache);
        }
        if (config.mode != HessianMode::aptq) {
          continue;
        }
        for (const auto& slot : slots) {
          if (slot.ref.kind != LinearKind::q_proj) {
            continue;
          }
          obs::TraceSpan probe_span("calib.gamma_probe", "calib");
          Rng probe_rng(config.seed ^ (si * 1000003ull) ^
                        (slot.ref.block * 7919ull + 1));
          gammas[si - c0][slot.ref.block] =
              attention_gammas(model, slot.ref.block,
                               cache.blocks[slot.ref.block], config.probes,
                               probe_rng);
        }
      }
    });
    // Per-layer Hessian accumulation: every slot owns its accumulator and
    // folds the chunk's segments in ascending order, so each layer's token
    // order matches the serial path at any thread count.
    parallel_for(0, slots.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        auto& slot = slots[i];
        for (std::size_t si = c0; si < c1; ++si) {
          const Matrix& x =
              linear_input(caches[si - c0], slot.ref.kind, slot.ref.block);
          std::span<const float> gamma;
          if (config.mode == HessianMode::aptq) {
            const auto& bg = gammas[si - c0][slot.ref.block];
            switch (slot.ref.kind) {
              case LinearKind::q_proj: gamma = bg.q; break;
              case LinearKind::k_proj: gamma = bg.k; break;
              case LinearKind::v_proj: gamma = bg.v; break;
              default: break;  // o_proj / FFN / lm_head: γ ≡ 1 (eq. 9)
            }
          }
          slot.acc.add_matrix(x, gamma);
          for (const float gv : gamma) {
            slot.gamma_sum += gv;
            ++slot.gamma_count;
          }
        }
      }
    });
  }

  CalibrationResult result;
  result.layers.reserve(slots.size());
  for (auto& slot : slots) {
    LayerCalibration layer;
    layer.name = slot.ref.name;
    layer.kind = slot.ref.kind;
    layer.block = slot.ref.block;
    layer.hessian = slot.acc.finalized();
    layer.avg_trace = slot.acc.average_trace();
    layer.weight_count = slot.ref.weight->size();
    layer.gamma_mean = slot.gamma_count > 0
                           ? slot.gamma_sum /
                                 static_cast<double>(slot.gamma_count)
                           : 1.0;
    if (obs::telemetry_enabled()) {
      float diag_min = layer.hessian(0, 0);
      float diag_max = diag_min;
      for (std::size_t i = 1; i < layer.hessian.rows(); ++i) {
        const float v = layer.hessian(i, i);
        diag_min = std::min(diag_min, v);
        diag_max = std::max(diag_max, v);
      }
      obs::layer_stat(layer.name, "hessian.avg_trace", layer.avg_trace);
      obs::layer_stat(layer.name, "hessian.diag_min", diag_min);
      obs::layer_stat(layer.name, "hessian.diag_max", diag_max);
      obs::layer_stat(layer.name, "hessian.gamma_mean", layer.gamma_mean);
      obs::layer_stat(layer.name, "hessian.tokens",
                      static_cast<double>(slot.acc.tokens_seen()));
    }
    result.layers.push_back(std::move(layer));
  }
  return result;
}

}  // namespace

CalibrationResult collect_calibration(const Model& model,
                                      std::span<const TokenSeq> segments,
                                      const CalibConfig& config) {
  return collect_impl(
      model, segments.size(),
      [&](std::size_t si, ForwardCache& cache) {
        model_forward(model, segments[si], cache);
      },
      config, /*only_block=*/-1);
}

CalibrationResult collect_block_calibration(const Model& model,
                                            std::span<const Matrix> inputs,
                                            std::size_t block,
                                            const CalibConfig& config) {
  APTQ_CHECK(block < model.config.n_layers,
             "collect_block_calibration: block out of range");
  return collect_impl(
      model, inputs.size(),
      [&](std::size_t si, ForwardCache& cache) {
        cache.blocks.resize(model.config.n_layers);
        block_forward(model, block, inputs[si], cache.blocks[block]);
      },
      config, static_cast<long>(block));
}

}  // namespace aptq
