#include "model/forward.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace aptq {

Matrix extract_head(const Matrix& x, std::size_t h, std::size_t head_dim) {
  APTQ_CHECK((h + 1) * head_dim <= x.cols(), "extract_head: out of range");
  Matrix out(x.rows(), head_dim);
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const float* src = x.data() + t * x.cols() + h * head_dim;
    float* dst = out.data() + t * head_dim;
    for (std::size_t c = 0; c < head_dim; ++c) {
      dst[c] = src[c];
    }
  }
  return out;
}

void accumulate_head(Matrix& dst, const Matrix& src, std::size_t h,
                     std::size_t head_dim) {
  APTQ_CHECK(src.rows() == dst.rows() && src.cols() == head_dim &&
                 (h + 1) * head_dim <= dst.cols(),
             "accumulate_head: shape mismatch");
  for (std::size_t t = 0; t < dst.rows(); ++t) {
    float* d = dst.data() + t * dst.cols() + h * head_dim;
    const float* s = src.data() + t * head_dim;
    for (std::size_t c = 0; c < head_dim; ++c) {
      d[c] += s[c];
    }
  }
}

void fake_quant_rows(Matrix& m, int bits) {
  APTQ_CHECK(bits >= 2 && bits <= 16, "fake_quant_rows: bits out of range");
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    float max_abs = 0.0f;
    for (const float v : row) {
      max_abs = std::max(max_abs, std::fabs(v));
    }
    if (max_abs == 0.0f) {
      continue;
    }
    const float scale = max_abs / levels;
    for (float& v : row) {
      v = std::round(v / scale) * scale;
    }
  }
}

namespace {

// Applies the optional activation fake-quant before a linear layer.
void maybe_quant(Matrix& m, const ForwardOptions& options) {
  if (options.act_quant_bits > 0) {
    fake_quant_rows(m, options.act_quant_bits);
  }
}

}  // namespace

Matrix embed_tokens(const Model& model, std::span<const TokenId> tokens) {
  const auto& cfg = model.config;
  APTQ_CHECK(!tokens.empty(), "embed_tokens: empty input");
  Matrix x(tokens.size(), cfg.dim);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const TokenId tok = tokens[t];
    APTQ_CHECK(tok >= 0 && static_cast<std::size_t>(tok) < cfg.vocab_size,
               "embed_tokens: token id out of range");
    const auto src = model.tok_embed.row(static_cast<std::size_t>(tok));
    std::copy(src.begin(), src.end(), x.row(t).begin());
  }
  return x;
}

void block_forward(const Model& model, std::size_t layer, const Matrix& x_in,
                   BlockCache& bc, const ForwardOptions& options) {
  const auto& cfg = model.config;
  APTQ_CHECK(layer < cfg.n_layers, "block_forward: layer out of range");
  APTQ_CHECK(x_in.rows() >= 1 && x_in.cols() == cfg.dim,
             "block_forward: input shape mismatch");
  const auto& w = model.blocks[layer];
  const std::size_t t_len = x_in.rows();
  const std::size_t d = cfg.dim;
  const std::size_t hd = cfg.head_dim();
  const std::size_t heads = cfg.n_heads;
  const float inv_sqrt_hd = 1.0f / std::sqrt(static_cast<float>(hd));

  bc.x_in = x_in;

  rmsnorm_forward(bc.x_in, w.attn_norm, cfg.norm_eps, bc.normed1,
                  bc.inv_rms1);
  maybe_quant(bc.normed1, options);

  bc.q_rot = matmul(bc.normed1, w.wq);
  bc.k_rot = matmul(bc.normed1, w.wk);
  bc.v = matmul(bc.normed1, w.wv);
  rope_apply(bc.q_rot, hd, cfg.rope_theta);
  rope_apply(bc.k_rot, hd, cfg.rope_theta);

  bc.probs.assign(heads, Matrix());
  bc.attn_cat.resize(t_len, d);
  const std::size_t group_factor = cfg.group_factor();
  for (std::size_t h = 0; h < heads; ++h) {
    const std::size_t g = h / group_factor;  // shared kv head (GQA)
    const Matrix qh = extract_head(bc.q_rot, h, hd);
    const Matrix kh = extract_head(bc.k_rot, g, hd);
    const Matrix vh = extract_head(bc.v, g, hd);
    Matrix scores(t_len, t_len);
    gemm(qh, Trans::no, kh, Trans::yes, scores, inv_sqrt_hd);
    softmax_rows(scores, /*causal_offset=*/0);
    bc.probs[h] = std::move(scores);
    const Matrix oh = matmul(bc.probs[h], vh);
    accumulate_head(bc.attn_cat, oh, h, hd);
  }

  Matrix attn_in = bc.attn_cat;  // o_proj input (possibly fake-quantized)
  maybe_quant(attn_in, options);
  if (options.act_quant_bits > 0) {
    bc.attn_cat = attn_in;  // keep cache consistent with what was used
  }
  Matrix attn_out = matmul(bc.attn_cat, w.wo);

  bc.x_mid = bc.x_in;
  axpy(1.0f, attn_out, bc.x_mid);

  rmsnorm_forward(bc.x_mid, w.ffn_norm, cfg.norm_eps, bc.normed2,
                  bc.inv_rms2);
  maybe_quant(bc.normed2, options);

  bc.gate_pre = matmul(bc.normed2, w.w_gate);
  bc.up = matmul(bc.normed2, w.w_up);
  silu(bc.gate_pre, bc.silu_gate);
  bc.act.resize(t_len, cfg.ffn_dim);
  for (std::size_t i = 0; i < bc.act.size(); ++i) {
    bc.act.flat()[i] = bc.silu_gate.flat()[i] * bc.up.flat()[i];
  }
  maybe_quant(bc.act, options);
  Matrix ffn_out = matmul(bc.act, w.w_down);

  bc.x_out = bc.x_mid;
  axpy(1.0f, ffn_out, bc.x_out);
}

Matrix model_forward(const Model& model, std::span<const TokenId> tokens,
                     ForwardCache& cache, const ForwardOptions& options) {
  const auto& cfg = model.config;
  APTQ_CHECK(!tokens.empty(), "model_forward: empty input");
  cache.seq_len = tokens.size();
  cache.x0 = embed_tokens(model, tokens);
  cache.blocks.resize(cfg.n_layers);
  const Matrix* x = &cache.x0;
  for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
    block_forward(model, layer, *x, cache.blocks[layer], options);
    x = &cache.blocks[layer].x_out;
  }

  rmsnorm_forward(*x, model.final_norm, cfg.norm_eps, cache.normed_final,
                  cache.inv_rms_final);
  maybe_quant(cache.normed_final, options);
  return matmul(cache.normed_final, model.lm_head);
}

Matrix model_forward(const Model& model, std::span<const TokenId> tokens,
                     const ForwardOptions& options) {
  ForwardCache cache;
  return model_forward(model, tokens, cache, options);
}

}  // namespace aptq
