// PackedModel: the deployable artifact — every linear layer stored
// bit-packed (per-layer bit widths, as produced by the mixed-precision
// pipeline), embeddings/norms in f32, with save/load and a forward path
// that runs through the fused dequantize-matmul kernel.
//
// Packing re-fits each group's grid from the (already grid-snapped) solver
// output, which can re-snap a value by at most half a quantization step;
// tests bound the resulting logit drift and perplexity delta.
//
// Incremental decoding: PackedModel plugs into the shared KV-cache engine
// (model/decode.hpp) via the decode_prefill / decode_step /
// decode_step_batch overloads below, whose projections run the fused
// dequant-dot kernels (QuantizedLinear::matvec_transposed_batch). See
// docs/DECODING.md.
#pragma once

#include <map>
#include <string>

#include "data/vocab.hpp"
#include "model/decode.hpp"
#include "model/model.hpp"
#include "model/sampler.hpp"
#include "quant/qformat.hpp"
#include "quant/qmodel.hpp"
#include "util/rng.hpp"

namespace aptq {

/// A fully packed model.
class PackedModel {
 public:
  PackedModel() = default;

  /// Pack a quantized model using the per-layer bit widths recorded in
  /// `qm.layers` (integer-bit layers only — PB-LLM/OWQ mixed-FP layers
  /// cannot be bit-packed; pack() throws for them).
  static PackedModel pack(const QuantizedModel& qm, std::size_t group_size);

  /// Pack a plain model uniformly at `spec` (RTN semantics).
  static PackedModel pack_uniform(const Model& model, const QuantSpec& spec);

  /// Assemble a model from already-built parts — the reassembly path for
  /// tensor-parallel shard files (net/shard.hpp), where the linears were
  /// carved with QuantizedLinear::row_slice and stacked back with
  /// row_concat. Validates tensor counts/shapes against `config`; the
  /// result saves bit-identically to the model the parts came from.
  static PackedModel assemble(const ModelConfig& config, Matrix tok_embed,
                              std::vector<std::vector<float>> attn_norms,
                              std::vector<std::vector<float>> ffn_norms,
                              std::vector<float> final_norm, Matrix lm_head,
                              std::vector<QuantizedLinear> linears);

  /// Reconstruct an evaluable dense model (dequantize every linear).
  Model unpack() const;

  /// Forward pass running directly on packed weights (dequantizing row
  /// blocks through the fused kernel); returns (T × V) logits.
  Matrix forward(std::span<const TokenId> tokens) const;

  const ModelConfig& config() const { return config_; }

  /// Packed bytes of all quantized linears (excludes f32 embeddings/norms).
  std::size_t linear_storage_bytes() const;

  /// Total artifact size in bytes (linears + f32 tensors).
  std::size_t total_storage_bytes() const;

  /// Per-layer packed tensors, in collect_linears order.
  const std::vector<QuantizedLinear>& linears() const { return linears_; }

  // f32 tensors, exposed for the decode engine adapter.
  const Matrix& tok_embed() const { return tok_embed_; }
  const Matrix& lm_head() const { return lm_head_; }
  std::span<const float> attn_norm(std::size_t layer) const {
    return attn_norms_[layer];
  }
  std::span<const float> ffn_norm(std::size_t layer) const {
    return ffn_norms_[layer];
  }
  std::span<const float> final_norm() const { return final_norm_; }

  /// Deploy-format round-trip.
  void save(const std::string& path) const;
  static PackedModel load(const std::string& path);

 private:
  static PackedModel pack_impl(const Model& model,
                               const std::map<std::string, QuantSpec>& specs);

  ModelConfig config_;
  Matrix tok_embed_;
  std::vector<std::vector<float>> attn_norms_;
  std::vector<std::vector<float>> ffn_norms_;
  std::vector<float> final_norm_;
  Matrix lm_head_;
  // Seven per block, in collect_linears order (q,k,v,o,gate,up,down).
  std::vector<QuantizedLinear> linears_;
};

/// The model/decode.hpp entry points over packed weights, with the same
/// contracts: prefill row j is bitwise identical to the j-th of T
/// sequential decode_step calls, and decode_step_batch row i to
/// decode_step(model, tokens[i], *states[i]). Projections ride
/// QuantizedLinear::matvec_transposed_batch, which unpacks each weight
/// row's codes once per call.
Matrix decode_prefill(const PackedModel& model, std::span<const TokenId> tokens,
                      DecodeState& state);
std::vector<float> decode_step(const PackedModel& model, TokenId token,
                               DecodeState& state);
Matrix decode_step_batch(const PackedModel& model,
                         std::span<const TokenId> tokens,
                         std::span<DecodeState* const> states);

/// Sample `length` tokens autoregressively from a packed model (same loop
/// and RNG consumption as sample_from_model, running on packed weights).
TokenSeq sample_from_packed(const PackedModel& model, std::size_t length,
                            Rng& rng, const SampleConfig& config = {},
                            const TokenSeq& prompt = {});

}  // namespace aptq
