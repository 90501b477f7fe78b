// Register-tiled, cache-blocked micro-kernels — the single-core arithmetic
// engine under gemm(), Hessian accumulation and the GPTQ panel updates.
//
// Design (docs/KERNELS.md):
//   * One NN micro-kernel. Both operands are repacked into contiguous
//     panels first, so all four Trans variants (and the SYRK below) reduce
//     to the same inner loop: a kGemmMR-row accumulator block, two vector
//     registers wide (8 floats baseline / 16 under AVX), held in GCC/Clang
//     vector-extension types so the accumulators provably stay in the
//     register file. Each k-step broadcasts one packed-A lane against the
//     unit-stride packed-B row. No branches in the loop body.
//   * Cache blocking: the shared dimension is cut into kGemmKC slices
//     (packed B panel stays cache-resident), rows into kGemmMR tiles
//     grouped kGemmMC at a time for the thread pool.
//   * Determinism contract: tile and chunk boundaries are a pure function
//     of the operand shapes — never of the thread count — so results are
//     bitwise identical at any thread count. Tiling does reassociate the
//     k-summation, so tiled results are *not* bitwise equal to the naive
//     loops; aptq::ref keeps those as the tolerance oracle.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace aptq {

enum class Trans;  // defined in tensor/ops.hpp

/// Micro-kernel geometry, exposed so tests can probe tile boundaries.
inline constexpr std::size_t kGemmMR = 6;    // rows per register tile
inline constexpr std::size_t kGemmNR = 8;    // baseline cols per tile (AVX: 16)
inline constexpr std::size_t kGemmKC = 256;  // k-slice per packed panel
inline constexpr std::size_t kGemmMC = 96;   // rows per parallel chunk

/// C += alpha * op(A) * op(B) through the packed-panel micro-kernel.
/// Shapes must already agree (the public gemm() wrapper validates).
void gemm_tiled(const Matrix& a, Trans trans_a, const Matrix& b,
                Trans trans_b, Matrix& c, float alpha);

/// Borrowed view of one block-quantized matrix (the storage QuantizedLinear
/// builds): rows × groups blocks, each `bytes_per_group` packed codes plus a
/// per-group affine pair so that w = scale·q + bias (bias = -scale·zero).
///
/// Code order inside a 4-bit block follows the llama.cpp Q4 split: byte j
/// holds code j in its low nibble and code j + bytes_per_group in its high
/// nibble, so the dequant-dot kernels read x contiguously for both halves.
/// 2-bit blocks hold four codes per byte in order, little-endian (code j in
/// bits 2·(j%4) of byte j/4); 8-bit blocks store one code per byte in
/// order. A short tail group (cols not a multiple of group_len) zero-pads
/// its unused code slots; blocks are always byte-aligned at stride
/// bytes_per_group.
struct QBlock {
  const std::uint8_t* codes = nullptr;  // rows × groups × bytes_per_group
  const float* scale = nullptr;         // rows × groups
  const float* bias = nullptr;          // rows × groups
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t group_len = 0;        // codes per full group
  std::size_t groups = 0;           // groups per row
  std::size_t bytes_per_group = 0;  // ceil(group_len · bits / 8)
  int bits = 4;                     // packed code width: 2, 4 or 8
};

/// SYRK fast path for Hessian accumulation: upper(C) += alpha · Xᵀ·diag(γ)·X
/// where X is (tokens × d) and γ is per-token (empty ⇒ all ones). Only
/// tiles that intersect the upper triangle are computed (half the flops of
/// the full product); the strict lower triangle of C is never touched.
void syrk_upper(const Matrix& x, std::span<const float> gamma, float alpha,
                Matrix& c);

/// Symmetric matvec y = H·x reading only the diagonal and strict upper
/// triangle of H (one pass, d²/2 element reads): the SYRK-adjacent kernel
/// for Hutchinson probes against the mirrored Hessian.
void symv_upper(const Matrix& h, std::span<const float> x, std::span<float> y);

namespace kern {

/// y += xᵀ·B for row-major B (k × n): the dense matvec under 1-row GEMMs
/// (incremental decoding projections). j-vectorized, k unrolled by 4.
void gemv(const float* x, const float* b, std::size_t k, std::size_t n,
          float* y);

/// Row-batched dense GEMV: Y(batch × n) += X(batch × k) · B(k × n), both
/// row-major. Each output row is produced by exactly gemv()'s per-element
/// fold (same 4-way k-blocking, same j order), so row i of Y is bitwise
/// identical to gemv(X row i) — while each k-block of B is streamed once
/// and reused across the whole batch (the memory amortization batched
/// decode rides). Parallel over column strips; strip boundaries depend only
/// on n, so results are bitwise identical at any thread count.
void gemv_batch(const float* x, const float* b, std::size_t batch,
                std::size_t k, std::size_t n, float* y);

/// y += xᵀ·Bᵀ for row-major B (n × k): one contiguous dot per output.
void gemv_t(const float* x, const float* b, std::size_t k, std::size_t n,
            float* y);

/// GPTQ panel update: w[c] -= Σ_j err[j] · u[j·ldu + c] for c in [0, n).
/// The j-fold is blocked by 4 with a single combined subtract per element;
/// the fold order depends only on r, so results are reproducible.
void rank_update(float* w, std::size_t n, const float* err, std::size_t r,
                 const float* u, std::size_t ldu);

/// Four-accumulator dot product over contiguous spans (fixed fold order).
float dot4(const float* a, const float* b, std::size_t n);

/// llama.cpp's magic-number fast round-to-nearest (ties to even). Valid for
/// |v| < 2^22; callers clamp afterwards, quantize grids never exceed that.
inline int nearest_int(float v) {
  const float biased = v + 12582912.0f;  // 1.5 · 2^23: shifts into the
  int i;                                 // integer-exact mantissa window
  __builtin_memcpy(&i, &biased, sizeof i);
  return (i & 0x007fffff) - 0x00400000;
}

/// Fused dequant-dot of one blocked row against x (length q.cols):
/// Σ_g scale_g · Σ_c x[c]·code[c] + bias_g · xsum[g]. `xsum` holds the
/// per-group sums of x; pass nullptr to fold them on the fly (slower).
/// Vectorized code widening + FMA; one horizontal reduction per row.
float qdot(const QBlock& q, std::size_t row, const float* x,
           const float* xsum);

/// y = Q_dq · x over every row (y length q.rows). Computes the per-group x
/// sums once, shares them across rows, and splits rows over the global
/// thread pool (fixed grain — bitwise identical at any thread count).
void qgemv(const QBlock& q, const float* x, float* y);

/// Batched fused dequant-dot: Y(n × rows) = X(n × cols) · Q_dqᵀ where every
/// output element uses exactly qgemv's per-row fold — the codes of each
/// weight row are widened to float once per batch (code widening is exact,
/// so a preconverted code participates in the same float expressions as a
/// just-converted one) and the per-group accumulation then replays the
/// qdot fold per input. Row i of Y is bitwise identical to
/// qgemv(X row i) at any batch size and thread count, while the code
/// unpack and the code-byte streaming are paid once per row per batch —
/// this is the packed kernel under batched decode.
void qgemv_batch(const QBlock& q, const float* x, std::size_t n, float* y);

}  // namespace kern

namespace ref {

/// The pre-tiling naive loops, retained verbatim as the tolerance oracle
/// for the tiled kernels (and as the "naive" side of bench/kernels_micro).
/// C = alpha * op(A) * op(B) + beta * C; shapes are validated.
void gemm(const Matrix& a, Trans trans_a, const Matrix& b, Trans trans_b,
          Matrix& c, float alpha = 1.0f, float beta = 0.0f);

/// Naive token-loop SYRK: upper(C) += alpha · Σ_t γ_t x_t x_tᵀ — the old
/// HessianAccumulator::add_matrix inner loop, kept as the oracle.
void syrk_upper(const Matrix& x, std::span<const float> gamma, float alpha,
                Matrix& c);

/// Naive blocked dequant-dot GEMV: per element, unpack one code, dequantize
/// it, multiply-accumulate — the scalar fused-GEMV this PR's vectorized
/// kern::qgemv replaced, kept as its tolerance oracle and as the "naive"
/// side of the quantized_gemv microbench axis.
void qgemv(const QBlock& q, const float* x, float* y);

}  // namespace ref

}  // namespace aptq
