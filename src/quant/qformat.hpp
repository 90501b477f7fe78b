// Quantization grids and packed weight storage.
//
// Supports the formats used across the paper's comparison table: affine
// integer grids at 2/3/4/8 bits with per-group scale+zero-point (the GPTQ /
// APTQ / RTN representation, group size configurable — the paper uses 128
// on d=4096 rows; we default to 16 on our scaled-down rows), the FP4 E2M1
// grid (the FPQ / LLM-FP4 baseline), and binary ±α rows (the PB-LLM
// baseline's non-salient part).
//
// quantize_dequantize_* functions implement "fake quantization" (values
// snapped to the grid but kept in f32, which is what perplexity evaluation
// consumes); QuantizedLinear is the genuinely bit-packed storage used to
// account model size and to benchmark dequantization kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/io.hpp"

namespace aptq {

/// Numeric format of a quantization grid.
enum class QFormat {
  int_affine,  ///< round-to-nearest affine integer grid (scale + zero-point)
  fp4_e2m1,    ///< 4-bit float: 1 sign, 2 exponent, 1 mantissa, per-group scale
};

/// A quantization grid specification.
struct QuantSpec {
  int bits = 4;                  ///< 2..8 for int_affine; fixed 4 for fp4
  std::size_t group_size = 16;   ///< weights sharing one scale (0 = whole row)
  QFormat format = QFormat::int_affine;
  bool symmetric = false;        ///< int_affine only: force zero-point to mid
  /// Search a per-group clipping ratio that minimizes the group's MSE
  /// instead of always spanning min..max (AWQ-style clip search). Slightly
  /// slower grid fitting, lower rounding error on heavy-tailed weights.
  bool mse_clip_search = false;

  void validate() const;
};

/// Scale/zero-point of one quantization group.
struct GroupParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Fit affine grid parameters to the min/max of `values`.
GroupParams fit_group_params(std::span<const float> values,
                             const QuantSpec& spec);

/// Quantize one value to its integer code under `params` (int_affine).
std::int32_t quantize_value(float v, const GroupParams& params,
                            const QuantSpec& spec);

/// Dequantize an integer code.
float dequantize_value(std::int32_t code, const GroupParams& params);

/// Snap one value to the grid: dequantize(quantize(v)). For fp4_e2m1 the
/// GroupParams scale maps the group's max |w| onto the largest grid point.
float quantize_dequantize_value(float v, const GroupParams& params,
                                const QuantSpec& spec);

/// The 8 non-negative magnitudes of the E2M1 grid (unscaled).
std::span<const float> fp4_magnitudes();

/// Fake-quantize a full row in place using per-group parameters fit from the
/// row's current values. Returns the parameters per group.
std::vector<GroupParams> quantize_dequantize_row(std::span<float> row,
                                                 const QuantSpec& spec);

/// Fake-quantize every row of a matrix in place (weights stored out-major:
/// rows are output channels, columns input channels — groups run along the
/// input dimension, matching GPTQ's grouping).
void quantize_dequantize_matrix(Matrix& w, const QuantSpec& spec);

/// Number of groups a row of `row_len` splits into under `spec`.
std::size_t group_count(std::size_t row_len, const QuantSpec& spec);

/// Block-quantized storage of one linear layer: out-major rows cut into
/// byte-aligned per-group blocks of packed codes, with the group's
/// scale/zero beside them in struct-of-arrays form (the Q40/llama.cpp
/// blocked layout, generalized to runtime group sizes). Provides the memory
/// accounting used in the size/accuracy trade-off tables and the storage
/// the vectorized dequant-dot kernels (kern::qgemv) read.
///
/// Block geometry: every group — including a ragged tail — occupies
/// bytes_per_group = ceil(group_len · packed_bits / 8) bytes, so block g of
/// row r starts at (r · groups + g) · bytes_per_group. 4-bit codes (also
/// 3-bit and fp4, stored in nibbles) use the split-nibble order QBlock
/// documents; 8-bit codes (also 5..7-bit) are one byte each; 1/2-bit codes
/// pack little-endian within the block.
class QuantizedLinear {
 public:
  QuantizedLinear() = default;

  /// Quantize `w` (out-major) into packed form. The codes are exactly the
  /// ones quantize_dequantize_matrix would produce. `spec.group_size` is
  /// normalized into [1, cols]: 0 (whole row) and anything larger than the
  /// row length both become one group spanning the row.
  QuantizedLinear(const Matrix& w, const QuantSpec& spec);

  /// Reconstruct the dequantized weight matrix.
  Matrix dequantize() const;

  /// Fused dequantize-then-multiply: returns x · Wᵀ_dq for x of shape
  /// (n × in_features) — matvec_transposed_batch into a fresh matrix.
  Matrix matmul_transposed(const Matrix& x) const;

  /// Fused dequantize GEMV: y[r] = Σ_c x[c] · W_dq(r, c), for x of length
  /// in_features and y of length out_features, served by the vectorized
  /// kern::qgemv for affine codes of 2 bits and up.
  void matvec_transposed(std::span<const float> x, std::span<float> y) const;

  /// Batched matvec: y(i,:) for input row x(i,:) is bitwise identical to
  /// matvec_transposed(x.row(i), y.row(i)). The kernel path
  /// (kern::qgemv_batch) unpacks each weight row's codes once and reuses
  /// the floats across all batch rows while replaying the solo qgemv fold
  /// per row. x is (batch × in_features), y must be preallocated
  /// (batch × out_features).
  void matvec_transposed_batch(const Matrix& x, Matrix& y) const;

  /// True when this layer's codes are served by the vectorized blocked
  /// kernels: int_affine at 2..8 bits (stored as 2-bit quads, nibbles or
  /// bytes). fp4 and 1-bit layers take the scalar fallback.
  bool has_kernel_path() const;

  /// Borrowed kernel view of the blocked storage (has_kernel_path() only).
  QBlock block_view() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const QuantSpec& spec() const { return spec_; }

  /// Packed size in bytes (codes + group parameters).
  std::size_t storage_bytes() const;

  /// Effective bits per weight including group-parameter overhead.
  double bits_per_weight() const;

  /// Mean of the per-group grid scales — the final scales the (optional)
  /// MSE clip search settled on, exported as quantization telemetry.
  double mean_group_scale() const;

  /// Binary round-trip (used by the packed-model deploy format). Writes the
  /// blocked v3 record; deserialize() reads it back. deserialize_v2() reads
  /// the pre-blocked row-major record (packed file format v2) and repacks
  /// the codes into blocks — same codes, same dequantized values.
  void serialize(BinaryWriter& writer) const;
  static QuantizedLinear deserialize(BinaryReader& reader);
  static QuantizedLinear deserialize_v2(BinaryReader& reader);

  /// Rows [r0, r1) as a standalone layer over the same grid. Blocked codes
  /// are row-major (row r's blocks are contiguous), so the slice is a pure
  /// byte copy: tensor-parallel shards carved this way and stacked back with
  /// row_concat reproduce the original storage bit-for-bit.
  QuantizedLinear row_slice(std::size_t r0, std::size_t r1) const;

  /// Inverse of row_slice: stack shards (same spec/cols, slice order) into
  /// one layer bitwise identical to the layer they were cut from.
  static QuantizedLinear row_concat(const std::vector<QuantizedLinear>& parts);

  bool operator==(const QuantizedLinear& other) const;

 private:
  std::uint32_t code_at(std::size_t r, std::size_t c) const;
  void set_code(std::size_t r, std::size_t c, std::uint32_t code);
  /// Derive blocked geometry + the dequant acceleration arrays from
  /// spec_/rows_/cols_/group_params_ (ctor and both deserializers).
  void init_geometry();
  void finalize_dequant();

  QuantSpec spec_;  // group_size normalized into [1, cols]
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  int packed_bits_ = 4;             // stored code width: 1/2/4/8
  std::size_t group_len_ = 0;       // codes per full group
  std::size_t groups_ = 0;          // groups per row
  std::size_t bytes_per_group_ = 0; // uniform block stride, tail included
  std::vector<std::uint8_t> codes_;       // rows × groups × bytes_per_group
  std::vector<GroupParams> group_params_;  // rows × groups
  // Affine dequant planes for the kernels: w = dq_scale·q + dq_bias
  // (dq_bias = -scale·zero). Derived, never serialized; empty for fp4.
  std::vector<float> dq_scale_;
  std::vector<float> dq_bias_;
};

}  // namespace aptq
