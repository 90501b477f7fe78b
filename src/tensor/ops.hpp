// Dense linear-algebra and neural-network kernels over Matrix.
//
// These are the compute substrate for the transformer forward/backward pass
// and the quantization solvers. gemm() dispatches by shape onto the
// register-tiled packed-panel micro-kernels in tensor/kernels.hpp (1-row
// products take a dedicated matvec path; tiny products stay on the naive
// aptq::ref loops). Every path splits work across the global thread pool
// with shape-only chunk boundaries, so results are bitwise identical at any
// thread count (docs/PARALLELISM.md); the tiled kernels reassociate the
// k-summation relative to the naive loops, so cross-implementation
// agreement is tolerance-based with aptq::ref::gemm as the oracle
// (docs/KERNELS.md).
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace aptq {

/// Transposition selector for gemm operands.
enum class Trans { no, yes };

/// General matrix multiply: C = alpha * op(A) * op(B) + beta * C.
/// Shapes are validated; C must already have the result shape.
void gemm(const Matrix& a, Trans trans_a, const Matrix& b, Trans trans_b,
          Matrix& c, float alpha = 1.0f, float beta = 0.0f);

/// Convenience: returns op(A) * op(B).
Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a = Trans::no,
              Trans trans_b = Trans::no);

/// x (m×k) times w (k×n) through kern::gemv_batch: row i of the result is
/// bitwise identical to the product of row i alone, at any m, any thread
/// count and for any column slice of w — the decode engine's projection.
/// Unlike matmul() it never switches to the tiled GEMM.
Matrix matmul_rowwise(const Matrix& x, const Matrix& w);

/// y += alpha * x (flat).
void axpy(float alpha, const Matrix& x, Matrix& y);

/// Elementwise in-place scale.
void scale(Matrix& m, float alpha);

/// Dot product of two equal-length spans.
float dot(std::span<const float> a, std::span<const float> b);

/// Sum of squares of all elements.
double sum_squares(const Matrix& m);

/// Frobenius norm of (a - b). Shapes must match.
double frobenius_distance(const Matrix& a, const Matrix& b);

/// Row-wise softmax in place. If `causal_offset >= 0`, entry (r, c) is
/// masked to zero probability for c > r + causal_offset (standard causal
/// attention mask when the matrix is scores over (query, key) positions).
void softmax_rows(Matrix& m, long causal_offset = -1);

/// Backward of row-wise softmax: given probabilities P (output of
/// softmax_rows) and upstream gradient dP, writes dScores = P ∘ (dP - rowsum(P∘dP)).
void softmax_rows_backward(const Matrix& probs, const Matrix& grad_probs,
                           Matrix& grad_scores);

/// RMSNorm forward: out(r,:) = in(r,:) / rms(r) * gain, where
/// rms(r) = sqrt(mean(in(r,:)^2) + eps). Returns per-row 1/rms in inv_rms
/// (resized to rows×1) for use by the backward pass.
void rmsnorm_forward(const Matrix& in, std::span<const float> gain, float eps,
                     Matrix& out, std::vector<float>& inv_rms);

/// RMSNorm backward: accumulates grad_in and grad_gain given the cached
/// input and inv_rms from the forward pass.
void rmsnorm_backward(const Matrix& in, std::span<const float> gain,
                      std::span<const float> inv_rms, const Matrix& grad_out,
                      Matrix& grad_in, std::span<float> grad_gain);

/// SiLU (x * sigmoid(x)) applied elementwise, out-of-place.
void silu(const Matrix& in, Matrix& out);

/// d/dx SiLU evaluated at `in`, multiplied elementwise by grad_out.
void silu_backward(const Matrix& in, const Matrix& grad_out, Matrix& grad_in);

/// Rotary position embedding applied in place to a (T × d) matrix whose
/// columns are grouped in `head_dim`-sized heads; rotates pairs
/// (2i, 2i+1) within each head by position-dependent angles. `inverse`
/// applies the opposite rotation (the transpose — used in backward).
/// Row t is rotated for absolute position t + `position_offset` (used by
/// incremental decoding, where a 1-row matrix sits at an arbitrary
/// position).
void rope_apply(Matrix& x, std::size_t head_dim, float theta_base = 10000.0f,
                bool inverse = false, std::size_t position_offset = 0);

/// rope_apply with an independent absolute position per row: row t is
/// rotated for position `positions[t]` (positions.size() == x.rows()).
/// Used by batched decode, where each row belongs to a different request
/// at its own context depth. The per-row float expressions are exactly
/// rope_apply's, so row t is bitwise identical to rope_apply on a 1-row
/// matrix with position_offset = positions[t].
void rope_apply_rows(Matrix& x, std::size_t head_dim,
                     std::span<const std::size_t> positions,
                     float theta_base = 10000.0f);

/// Mean of diagonal entries (square matrix).
double diag_mean(const Matrix& m);

/// Trace of a square matrix.
double trace(const Matrix& m);

}  // namespace aptq
