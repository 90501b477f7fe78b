// APTQ calibration: attention-aware Hessian collection (paper §3.2) and the
// layer-sensitivity statistics feeding mixed-precision allocation (§3.3).
//
// Realization of eqs. (7)-(15): for each attention projection the Hessian is
// H = 2·Σ_t γ_t·x_t x_tᵀ, where γ_t is the squared Frobenius norm of the
// Jacobian of the attention-block output F with respect to the projection's
// output at token t, estimated by Hutchinson probes through the *real*
// backward pass (softmax, QKᵀ/PV matmuls, RoPE, head concat):
//   γ_t = E_u ||∂⟨u, F⟩/∂(out_t)||²/d   with u ~ N(0, I).
// For o_proj F is linear in W_O, so γ ≡ 1 and H reduces exactly to GPTQ's
// 2XXᵀ over the concatenated heads (eq. 9); feed-forward layers are plain
// GPTQ Hessians per the paper ("Derivatives for Different Quantization
// Layers"). See DESIGN.md §2.2 for the derivation.
#pragma once

#include <string>
#include <vector>

#include "data/vocab.hpp"
#include "model/model.hpp"
#include "quant/hessian.hpp"

namespace aptq {

/// Which Hessian to build for attention projections.
enum class HessianMode {
  gptq,  ///< plain 2XXᵀ everywhere (the GPTQ baseline)
  aptq,  ///< γ-weighted attention-aware Hessians for q/k/v (the paper)
};

/// Calibration options.
struct CalibConfig {
  HessianMode mode = HessianMode::aptq;
  std::size_t probes = 2;        ///< Hutchinson probes per segment per block
  std::uint64_t seed = 0xCA11B;  ///< probe RNG seed
  bool include_lm_head = false;
};

/// Hessian + statistics for one quantizable layer.
struct LayerCalibration {
  std::string name;
  LinearKind kind = LinearKind::q_proj;
  std::size_t block = 0;
  Matrix hessian;            ///< finalized, undamped (d_in × d_in)
  double avg_trace = 0.0;    ///< tr(H)/d_in — the §3.3 sensitivity metric
  std::size_t weight_count = 0;
  double gamma_mean = 1.0;   ///< mean token weight (1.0 in gptq mode)
};

/// Calibration output for a set of layers, in network order.
struct CalibrationResult {
  std::vector<LayerCalibration> layers;

  const LayerCalibration& by_name(const std::string& name) const;
};

/// Collect Hessians for every quantizable layer of `model` over the
/// calibration segments (one forward + `probes` attention-probe backwards
/// per segment in aptq mode). Segments run concurrently in fixed chunks;
/// each layer's Hessian folds them in segment order, so the result is
/// bitwise independent of the thread count.
CalibrationResult collect_calibration(const Model& model,
                                      std::span<const TokenSeq> segments,
                                      const CalibConfig& config);

/// Collect Hessians for the seven linear layers of block `block`, given
/// each calibration segment's (T×d) input to that block — the inner step of
/// the sequential quantization pipeline, where block b's Hessians must be
/// computed with blocks 0..b-1 already quantized. The pipeline carries
/// `inputs` forward block by block (embed_tokens, then block_forward); the
/// result equals the block's layers of collect_calibration on a model whose
/// earlier blocks produced those inputs, bitwise.
CalibrationResult collect_block_calibration(const Model& model,
                                            std::span<const Matrix> inputs,
                                            std::size_t block,
                                            const CalibConfig& config);

/// Per-token γ weights for one block's attention projections.
struct AttentionGammas {
  std::vector<float> q, k, v;  ///< per token; o_proj uses γ ≡ 1 (eq. 9)
};

/// Compute γ for one block from its cached forward state by running
/// `probes` random-seed probe backwards (exposed for tests/ablation).
AttentionGammas attention_gammas(const Model& model, std::size_t block,
                                 const struct BlockCache& cache,
                                 std::size_t probes, Rng& rng);

}  // namespace aptq
