// Transformer forward pass with full activation caching.
//
// The cache serves three consumers: the training backward pass, the APTQ
// attention-probe backward pass (which needs per-block attention internals),
// and the calibration pipeline (which reads each linear layer's input
// activations out of the cache). Sequence lengths and widths are small in
// this build, so caching everything is cheap.
#pragma once

#include <span>
#include <vector>

#include "data/vocab.hpp"
#include "model/model.hpp"
#include "tensor/matrix.hpp"

namespace aptq {

/// Forward-pass options. `act_quant_bits > 0` applies per-token symmetric
/// fake quantization to every linear layer input (simulates W·A quantized
/// inference, used by the SmoothQuant W4A8 baseline).
struct ForwardOptions {
  int act_quant_bits = 0;
};

/// Cached activations of one block (T = sequence length).
struct BlockCache {
  Matrix x_in;                 // (T×d) block input
  Matrix normed1;              // (T×d) input to q/k/v projections
  std::vector<float> inv_rms1;
  Matrix q_rot, k_rot, v;      // (T×d) post-RoPE q/k and raw v
  std::vector<Matrix> probs;   // per head: (T×T) post-softmax attention
  Matrix attn_cat;             // (T×d) concatenated heads = o_proj input
  Matrix x_mid;                // (T×d) after attention residual
  Matrix normed2;              // (T×d) input to gate/up projections
  std::vector<float> inv_rms2;
  Matrix gate_pre, silu_gate, up, act;  // (T×ffn); act = down_proj input
  Matrix x_out;                // (T×d) block output
};

/// Full-model activation cache.
struct ForwardCache {
  Matrix x0;                   // (T×d) embedded input
  std::vector<BlockCache> blocks;
  Matrix normed_final;         // (T×d) lm_head input
  std::vector<float> inv_rms_final;
  std::size_t seq_len = 0;
};

/// Token embeddings of `tokens`: the (T×d) input to block 0.
Matrix embed_tokens(const Model& model, std::span<const TokenId> tokens);

/// Run block `layer` over its (T×d) input `x_in`, filling `bc` (the block
/// output is `bc.x_out`).
void block_forward(const Model& model, std::size_t layer, const Matrix& x_in,
                   BlockCache& bc, const ForwardOptions& options = {});

/// Run the model over `tokens`; returns (T×V) logits and fills `cache`.
Matrix model_forward(const Model& model, std::span<const TokenId> tokens,
                     ForwardCache& cache, const ForwardOptions& options = {});

/// Convenience overload without cache retention.
Matrix model_forward(const Model& model, std::span<const TokenId> tokens,
                     const ForwardOptions& options = {});

/// Extract head `h` (columns [h*head_dim, (h+1)*head_dim)) as a copy.
Matrix extract_head(const Matrix& x, std::size_t h, std::size_t head_dim);

/// dst columns of head `h` += src (T×head_dim).
void accumulate_head(Matrix& dst, const Matrix& src, std::size_t h,
                     std::size_t head_dim);

/// Per-token symmetric fake quantization to `bits` (activation simulation):
/// each row is scaled by max|row|/(2^{bits-1}-1), rounded, and dequantized.
void fake_quant_rows(Matrix& m, int bits);

}  // namespace aptq
