#include "quant/qformat.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "util/threadpool.hpp"

namespace aptq {

void QuantSpec::validate() const {
  if (format == QFormat::fp4_e2m1) {
    APTQ_CHECK(bits == 4, "QuantSpec: fp4_e2m1 is a 4-bit format");
  } else {
    APTQ_CHECK(bits >= 1 && bits <= 8, "QuantSpec: bits out of range");
  }
}

namespace {

constexpr std::array<float, 8> kFp4Magnitudes = {0.0f, 0.5f, 1.0f, 1.5f,
                                                 2.0f, 3.0f, 4.0f, 6.0f};

std::int32_t clamp_code(long v, long lo, long hi) {
  return static_cast<std::int32_t>(std::clamp(v, lo, hi));
}

}  // namespace

std::span<const float> fp4_magnitudes() {
  return {kFp4Magnitudes.data(), kFp4Magnitudes.size()};
}

namespace {

// Grid MSE of `values` under `params` (used by the clip search).
double grid_mse(std::span<const float> values, const GroupParams& params,
                const QuantSpec& spec);

GroupParams fit_group_params_minmax(std::span<const float> values,
                                    const QuantSpec& spec);

}  // namespace

GroupParams fit_group_params(std::span<const float> values,
                             const QuantSpec& spec) {
  spec.validate();
  APTQ_CHECK(!values.empty(), "fit_group_params: empty group");
  if (!spec.mse_clip_search || spec.format == QFormat::fp4_e2m1) {
    return fit_group_params_minmax(values, spec);
  }
  // Clip search: shrink the representable range by a factor c and keep the
  // c minimizing the squared rounding error (clipped tails trade against
  // finer steps for the bulk).
  QuantSpec base = spec;
  base.mse_clip_search = false;
  GroupParams best = fit_group_params_minmax(values, base);
  double best_mse = grid_mse(values, best, base);
  for (const float clip : {0.95f, 0.9f, 0.85f, 0.8f, 0.7f, 0.6f}) {
    std::vector<float> shrunk(values.begin(), values.end());
    for (float& v : shrunk) {
      v *= clip;
    }
    GroupParams p = fit_group_params_minmax(shrunk, base);
    const double mse = grid_mse(values, p, base);
    if (mse < best_mse) {
      best_mse = mse;
      best = p;
    }
  }
  return best;
}

namespace {

double grid_mse(std::span<const float> values, const GroupParams& params,
                const QuantSpec& spec) {
  double mse = 0.0;
  for (const float v : values) {
    const double d = quantize_dequantize_value(v, params, spec) - v;
    mse += d * d;
  }
  return mse;
}

GroupParams fit_group_params_minmax(std::span<const float> values,
                                    const QuantSpec& spec) {
  GroupParams p;
  if (spec.format == QFormat::fp4_e2m1) {
    float max_abs = 0.0f;
    for (const float v : values) {
      max_abs = std::max(max_abs, std::fabs(v));
    }
    p.scale = max_abs > 0.0f ? max_abs / kFp4Magnitudes.back() : 1.0f;
    p.zero_point = 0;
    return p;
  }
  const long qmax = (1L << spec.bits) - 1;
  if (spec.symmetric) {
    float max_abs = 0.0f;
    for (const float v : values) {
      max_abs = std::max(max_abs, std::fabs(v));
    }
    const long half = 1L << (spec.bits - 1);
    // Codes span [1, 2^bits - 1]: code 0 is sacrificed so the grid is odd-
    // symmetric around the zero-point and ±max_abs are both exactly
    // representable. (With the former max_abs/half scale, +max_abs mapped
    // to code 2^bits, clamped, and dequantized a full step short.)
    const long span = half > 1 ? half - 1 : 1;
    p.scale = max_abs > 0.0f ? max_abs / static_cast<float>(span)
                             : 1.0f;
    p.zero_point = static_cast<std::int32_t>(half);
    return p;
  }
  float lo = values[0];
  float hi = values[0];
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // The grid must contain zero so that exact-zero weights stay exact.
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  if (hi == lo) {
    p.scale = 1.0f;
    p.zero_point = 0;
    return p;
  }
  p.scale = (hi - lo) / static_cast<float>(qmax);
  p.zero_point = clamp_code(std::lround(-lo / p.scale), 0, qmax);
  return p;
}

}  // namespace

std::int32_t quantize_value(float v, const GroupParams& params,
                            const QuantSpec& spec) {
  if (spec.format == QFormat::fp4_e2m1) {
    const float scaled = params.scale > 0.0f ? v / params.scale : 0.0f;
    const float mag = std::fabs(scaled);
    std::size_t best = 0;
    float best_err = std::fabs(mag - kFp4Magnitudes[0]);
    for (std::size_t i = 1; i < kFp4Magnitudes.size(); ++i) {
      const float err = std::fabs(mag - kFp4Magnitudes[i]);
      if (err < best_err) {
        best_err = err;
        best = i;
      }
    }
    const std::int32_t sign = scaled < 0.0f ? 1 : 0;
    return static_cast<std::int32_t>((sign << 3) | static_cast<int>(best));
  }
  const long qmax = (1L << spec.bits) - 1;
  // Symmetric grids reserve code 0 (see fit_group_params_minmax) so that
  // the code range is odd-symmetric around the zero-point.
  const long qmin = spec.symmetric && spec.bits > 1 ? 1 : 0;
  const float t = v / params.scale;
  // kern::nearest_int is exact for |t| < 2^22; grid-fitted scales keep t
  // within a few hundred, but corrupt or adversarial inputs can overflow
  // the window — those saturate straight to the grid edge.
  const long rounded = std::fabs(t) < 4194304.0f
                           ? static_cast<long>(kern::nearest_int(t))
                           : (t > 0.0f ? 1L << 30 : -(1L << 30));
  return clamp_code(rounded + params.zero_point, qmin, qmax);
}

float dequantize_value(std::int32_t code, const GroupParams& params) {
  return static_cast<float>(code - params.zero_point) * params.scale;
}

float quantize_dequantize_value(float v, const GroupParams& params,
                                const QuantSpec& spec) {
  const std::int32_t code = quantize_value(v, params, spec);
  if (spec.format == QFormat::fp4_e2m1) {
    const float mag = kFp4Magnitudes[static_cast<std::size_t>(code & 0x7)];
    return ((code >> 3) != 0 ? -mag : mag) * params.scale;
  }
  return dequantize_value(code, params);
}

std::size_t group_count(std::size_t row_len, const QuantSpec& spec) {
  const std::size_t g = spec.group_size == 0 ? row_len : spec.group_size;
  return (row_len + g - 1) / g;
}

std::vector<GroupParams> quantize_dequantize_row(std::span<float> row,
                                                 const QuantSpec& spec) {
  spec.validate();
  const std::size_t g = spec.group_size == 0 ? row.size() : spec.group_size;
  std::vector<GroupParams> params;
  params.reserve(group_count(row.size(), spec));
  for (std::size_t start = 0; start < row.size(); start += g) {
    const std::size_t len = std::min(g, row.size() - start);
    auto group = row.subspan(start, len);
    const GroupParams p = fit_group_params(group, spec);
    for (float& v : group) {
      v = quantize_dequantize_value(v, p, spec);
    }
    params.push_back(p);
  }
  return params;
}

void quantize_dequantize_matrix(Matrix& w, const QuantSpec& spec) {
  for (std::size_t r = 0; r < w.rows(); ++r) {
    quantize_dequantize_row(w.row(r), spec);
  }
}

QuantizedLinear::QuantizedLinear(const Matrix& w, const QuantSpec& spec)
    : spec_(spec), rows_(w.rows()), cols_(w.cols()) {
  spec.validate();
  // Normalize group_size into [1, cols]: 0 (whole row) and over-long groups
  // both mean "one group spans the row". Serialized v3 records therefore
  // always carry an in-range group_size, which lets the loader reject 0 and
  // > cols as corruption.
  if (cols_ > 0 && (spec_.group_size == 0 || spec_.group_size > cols_)) {
    spec_.group_size = cols_;
  }
  init_geometry();
  codes_.assign(rows_ * groups_ * bytes_per_group_, 0);
  group_params_.assign(rows_ * groups_, GroupParams{});
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto row = w.row(r);
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t start = g * group_len_;
      const std::size_t len = std::min(group_len_, cols_ - start);
      const GroupParams p =
          fit_group_params(row.subspan(start, len), spec_);
      group_params_[r * groups_ + g] = p;
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t c = start + i;
        set_code(r, c,
                 static_cast<std::uint32_t>(quantize_value(row[c], p, spec_)));
      }
    }
  }
  finalize_dequant();
}

void QuantizedLinear::init_geometry() {
  // 1/2/4/8-bit codes pack exactly; 3-bit codes (and fp4) ride in nibbles
  // and 5..7-bit codes in whole bytes.
  packed_bits_ = spec_.bits == 3 ? 4 : spec_.bits > 4 ? 8 : spec_.bits;
  group_len_ = spec_.group_size == 0 ? cols_ : spec_.group_size;
  groups_ = group_len_ > 0 ? (cols_ + group_len_ - 1) / group_len_ : 0;
  bytes_per_group_ =
      (group_len_ * static_cast<std::size_t>(packed_bits_) + 7) / 8;
}

void QuantizedLinear::finalize_dequant() {
  if (spec_.format != QFormat::int_affine) {
    dq_scale_.clear();
    dq_bias_.clear();
    return;
  }
  dq_scale_.resize(group_params_.size());
  dq_bias_.resize(group_params_.size());
  for (std::size_t i = 0; i < group_params_.size(); ++i) {
    dq_scale_[i] = group_params_[i].scale;
    dq_bias_[i] = -group_params_[i].scale *
                  static_cast<float>(group_params_[i].zero_point);
  }
}

bool QuantizedLinear::has_kernel_path() const {
  return spec_.format == QFormat::int_affine && cols_ > 0 &&
         packed_bits_ >= 2;
}

QBlock QuantizedLinear::block_view() const {
  QBlock b;
  b.codes = codes_.data();
  b.scale = dq_scale_.data();
  b.bias = dq_bias_.data();
  b.rows = rows_;
  b.cols = cols_;
  b.group_len = group_len_;
  b.groups = groups_;
  b.bytes_per_group = bytes_per_group_;
  b.bits = packed_bits_;
  return b;
}

std::uint32_t QuantizedLinear::code_at(std::size_t r, std::size_t c) const {
  const std::size_t g = c / group_len_;
  const std::size_t k = c - g * group_len_;
  const std::uint8_t* b =
      codes_.data() + (r * groups_ + g) * bytes_per_group_;
  if (packed_bits_ == 8) {
    return b[k];
  }
  if (packed_bits_ == 4) {
    // Split-nibble order (see QBlock): lows first, highs fold back onto the
    // same bytes.
    return k < bytes_per_group_
               ? static_cast<std::uint32_t>(b[k] & 0x0Fu)
               : static_cast<std::uint32_t>(b[k - bytes_per_group_] >> 4);
  }
  const std::size_t cpb = static_cast<std::size_t>(8 / packed_bits_);
  const int shift = static_cast<int>(k % cpb) * packed_bits_;
  return (b[k / cpb] >> shift) & ((1u << packed_bits_) - 1u);
}

void QuantizedLinear::set_code(std::size_t r, std::size_t c,
                               std::uint32_t code) {
  const std::size_t g = c / group_len_;
  const std::size_t k = c - g * group_len_;
  std::uint8_t* b = codes_.data() + (r * groups_ + g) * bytes_per_group_;
  if (packed_bits_ == 8) {
    b[k] = static_cast<std::uint8_t>(code);
  } else if (packed_bits_ == 4) {
    if (k < bytes_per_group_) {
      b[k] |= static_cast<std::uint8_t>(code & 0x0Fu);
    } else {
      b[k - bytes_per_group_] |= static_cast<std::uint8_t>((code & 0x0Fu) << 4);
    }
  } else {
    const std::size_t cpb = static_cast<std::size_t>(8 / packed_bits_);
    const int shift = static_cast<int>(k % cpb) * packed_bits_;
    b[k / cpb] |= static_cast<std::uint8_t>(code << shift);
  }
}

Matrix QuantizedLinear::dequantize() const {
  Matrix w(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const GroupParams& p = group_params_[r * groups_ + c / group_len_];
      const auto code = static_cast<std::int32_t>(code_at(r, c));
      if (spec_.format == QFormat::fp4_e2m1) {
        const float mag = fp4_magnitudes()[static_cast<std::size_t>(code & 7)];
        w(r, c) = ((code >> 3) != 0 ? -mag : mag) * p.scale;
      } else {
        w(r, c) = dequantize_value(code, p);
      }
    }
  }
  return w;
}

Matrix QuantizedLinear::matmul_transposed(const Matrix& x) const {
  Matrix out(x.rows(), rows_);
  matvec_transposed_batch(x, out);
  return out;
}

void QuantizedLinear::matvec_transposed_batch(const Matrix& x,
                                              Matrix& y) const {
  APTQ_CHECK(x.cols() == cols_, "QuantizedLinear: input width mismatch");
  APTQ_CHECK(y.rows() == x.rows() && y.cols() == rows_,
             "QuantizedLinear: batched output shape mismatch");
  if (x.rows() == 0) {
    return;
  }
  if (has_kernel_path()) {
    kern::qgemv_batch(block_view(), x.data(), x.rows(), y.data());
    return;
  }
  // Non-kernel formats keep the solo path per row; batching only helps the
  // blocked kernels, and the fallback is already bitwise-stable.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    matvec_transposed(x.row(i), y.row(i));
  }
}

void QuantizedLinear::matvec_transposed(std::span<const float> x,
                                        std::span<float> y) const {
  APTQ_CHECK(x.size() == cols_, "QuantizedLinear: input width mismatch");
  APTQ_CHECK(y.size() == rows_, "QuantizedLinear: output size mismatch");
  if (has_kernel_path()) {
    kern::qgemv(block_view(), x.data(), y.data());
    return;
  }
  // Scalar fallback for fp4 and 1-bit: dequantize in kChunk-wide
  // slices to an on-stack scratch, dot against x.
  constexpr std::size_t kChunk = 128;
  parallel_for(0, rows_, 16, [&](std::size_t rb, std::size_t re) {
    float buf[kChunk];
    for (std::size_t r = rb; r < re; ++r) {
      float acc = 0.0f;
      for (std::size_t g = 0; g < groups_; ++g) {
        const GroupParams& p = group_params_[r * groups_ + g];
        const std::size_t start = g * group_len_;
        const std::size_t len = std::min(group_len_, cols_ - start);
        for (std::size_t cb = 0; cb < len; cb += kChunk) {
          const std::size_t clen = std::min(kChunk, len - cb);
          for (std::size_t i = 0; i < clen; ++i) {
            const std::size_t c = start + cb + i;
            const auto code = static_cast<std::int32_t>(code_at(r, c));
            if (spec_.format == QFormat::fp4_e2m1) {
              const float mag =
                  fp4_magnitudes()[static_cast<std::size_t>(code & 7)];
              buf[i] = ((code >> 3) != 0 ? -mag : mag) * p.scale;
            } else {
              buf[i] = dequantize_value(code, p);
            }
          }
          const float* xc = x.data() + start + cb;
          for (std::size_t i = 0; i < clen; ++i) {
            acc += xc[i] * buf[i];
          }
        }
      }
      y[r] = acc;
    }
  });
}

std::size_t QuantizedLinear::storage_bytes() const {
  // Must match the serialized per-group layout exactly (f32 scale +
  // i32 zero_point) so bits_per_weight() agrees with the on-disk size.
  constexpr std::size_t kGroupParamBytes =
      sizeof(float) + sizeof(std::int32_t);
  return codes_.size() + group_params_.size() * kGroupParamBytes;
}

double QuantizedLinear::bits_per_weight() const {
  return 8.0 * static_cast<double>(storage_bytes()) /
         static_cast<double>(rows_ * cols_);
}

double QuantizedLinear::mean_group_scale() const {
  if (group_params_.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (const GroupParams& p : group_params_) {
    acc += p.scale;
  }
  return acc / static_cast<double>(group_params_.size());
}

// Blocked record (packed file format v3). The prologue keeps the v2 field
// order (bits, group_size, format, flags, rows, cols) so header-offset
// corruption tests stay valid; the geometry field after it is the block
// stride bytes_per_group where v2 stored codes_per_byte, and the code bytes
// are blocked rather than row-major.
void QuantizedLinear::serialize(BinaryWriter& writer) const {
  writer.write_u32(static_cast<std::uint32_t>(spec_.bits));
  writer.write_u64(spec_.group_size);
  writer.write_u32(static_cast<std::uint32_t>(spec_.format));
  writer.write_u32(spec_.symmetric ? 1u : 0u);
  writer.write_u32(spec_.mse_clip_search ? 1u : 0u);
  writer.write_u64(rows_);
  writer.write_u64(cols_);
  writer.write_u64(bytes_per_group_);
  writer.write_bytes(codes_);
  writer.write_u64(group_params_.size());
  for (const GroupParams& p : group_params_) {
    writer.write_f32(p.scale);
    writer.write_i32(p.zero_point);
  }
}

QuantizedLinear QuantizedLinear::deserialize(BinaryReader& reader) {
  QuantizedLinear q;
  q.spec_.bits = static_cast<int>(reader.read_u32());
  q.spec_.group_size = reader.read_u64();
  const std::uint32_t format_code = reader.read_u32();
  APTQ_CHECK(format_code <= static_cast<std::uint32_t>(QFormat::fp4_e2m1),
             "QuantizedLinear: unknown format code " +
                 std::to_string(format_code));
  q.spec_.format = static_cast<QFormat>(format_code);
  q.spec_.symmetric = reader.read_u32() != 0;
  q.spec_.mse_clip_search = reader.read_u32() != 0;
  q.spec_.validate();
  q.rows_ = reader.read_u64();
  q.cols_ = reader.read_u64();
  // v3 always writes the normalized group size; 0 and > cols are corrupt.
  APTQ_CHECK(q.spec_.group_size >= 1 && q.spec_.group_size <= q.cols_,
             "QuantizedLinear: corrupt group_size " +
                 std::to_string(q.spec_.group_size));
  q.init_geometry();
  const std::uint64_t stride = reader.read_u64();
  APTQ_CHECK(stride == q.bytes_per_group_,
             "QuantizedLinear: corrupt block stride");
  q.codes_ = reader.read_bytes();
  APTQ_CHECK(q.codes_.size() == q.rows_ * q.groups_ * q.bytes_per_group_,
             "QuantizedLinear: corrupt code block");
  const std::uint64_t n_params = reader.read_u64();
  APTQ_CHECK(n_params == q.rows_ * q.groups_,
             "QuantizedLinear: corrupt group parameters");
  q.group_params_.resize(n_params);
  for (auto& p : q.group_params_) {
    p.scale = reader.read_f32();
    p.zero_point = reader.read_i32();
  }
  q.finalize_dequant();
  return q;
}

QuantizedLinear QuantizedLinear::deserialize_v2(BinaryReader& reader) {
  // v2 record: same prologue, then codes_per_byte and row-major packed
  // codes (byte c/cpb of row r, shifted (c%cpb)·bits). Decode with the old
  // geometry, then repack each code into the blocked layout — codes and
  // group parameters carry over exactly, so dequantized values are
  // bit-identical to what the v2 reader produced.
  QuantizedLinear q;
  q.spec_.bits = static_cast<int>(reader.read_u32());
  q.spec_.group_size = reader.read_u64();
  const std::uint32_t format_code = reader.read_u32();
  APTQ_CHECK(format_code <= static_cast<std::uint32_t>(QFormat::fp4_e2m1),
             "QuantizedLinear: unknown format code " +
                 std::to_string(format_code));
  q.spec_.format = static_cast<QFormat>(format_code);
  q.spec_.symmetric = reader.read_u32() != 0;
  q.spec_.mse_clip_search = reader.read_u32() != 0;
  q.spec_.validate();
  q.rows_ = reader.read_u64();
  q.cols_ = reader.read_u64();
  const std::uint64_t codes_per_byte = reader.read_u64();
  APTQ_CHECK(codes_per_byte >= 1 && codes_per_byte <= 8,
             "QuantizedLinear: corrupt codes_per_byte");
  const std::vector<std::uint8_t> v2_codes = reader.read_bytes();
  const std::size_t bytes_per_row =
      (q.cols_ + codes_per_byte - 1) / codes_per_byte;
  APTQ_CHECK(v2_codes.size() == q.rows_ * bytes_per_row,
             "QuantizedLinear: corrupt code block");
  const std::uint64_t n_params = reader.read_u64();
  APTQ_CHECK(n_params == q.rows_ * group_count(q.cols_, q.spec_),
             "QuantizedLinear: corrupt group parameters");
  q.group_params_.resize(n_params);
  for (auto& p : q.group_params_) {
    p.scale = reader.read_f32();
    p.zero_point = reader.read_i32();
  }
  // v2 stored whatever group_size the spec carried; normalize like the
  // constructor does (group count is unchanged by normalization).
  if (q.cols_ > 0 &&
      (q.spec_.group_size == 0 || q.spec_.group_size > q.cols_)) {
    q.spec_.group_size = q.cols_;
  }
  q.init_geometry();
  APTQ_CHECK(q.rows_ * q.groups_ == n_params,
             "QuantizedLinear: corrupt group parameters");
  const int v2_bits = static_cast<int>(8 / codes_per_byte);
  APTQ_CHECK(v2_bits == q.packed_bits_,
             "QuantizedLinear: codes_per_byte disagrees with bits");
  q.codes_.assign(q.rows_ * q.groups_ * q.bytes_per_group_, 0);
  for (std::size_t r = 0; r < q.rows_; ++r) {
    for (std::size_t c = 0; c < q.cols_; ++c) {
      const std::uint8_t byte = v2_codes[r * bytes_per_row + c / codes_per_byte];
      const int shift = static_cast<int>(c % codes_per_byte) * v2_bits;
      q.set_code(r, c, (byte >> shift) & ((1u << v2_bits) - 1u));
    }
  }
  q.finalize_dequant();
  return q;
}

QuantizedLinear QuantizedLinear::row_slice(std::size_t r0,
                                           std::size_t r1) const {
  APTQ_CHECK(r0 <= r1 && r1 <= rows_, "row_slice: range out of bounds");
  QuantizedLinear q;
  q.spec_ = spec_;
  q.rows_ = r1 - r0;
  q.cols_ = cols_;
  q.init_geometry();
  const std::size_t row_bytes = groups_ * bytes_per_group_;
  q.codes_.assign(codes_.begin() + static_cast<std::ptrdiff_t>(r0 * row_bytes),
                  codes_.begin() + static_cast<std::ptrdiff_t>(r1 * row_bytes));
  q.group_params_.assign(
      group_params_.begin() + static_cast<std::ptrdiff_t>(r0 * groups_),
      group_params_.begin() + static_cast<std::ptrdiff_t>(r1 * groups_));
  q.finalize_dequant();
  return q;
}

QuantizedLinear QuantizedLinear::row_concat(
    const std::vector<QuantizedLinear>& parts) {
  APTQ_CHECK(!parts.empty(), "row_concat: no parts");
  QuantizedLinear q;
  q.spec_ = parts.front().spec_;
  q.cols_ = parts.front().cols_;
  for (const QuantizedLinear& p : parts) {
    APTQ_CHECK(p.cols_ == q.cols_ && p.spec_.bits == q.spec_.bits &&
                   p.spec_.group_size == q.spec_.group_size &&
                   p.spec_.format == q.spec_.format &&
                   p.spec_.symmetric == q.spec_.symmetric &&
                   p.spec_.mse_clip_search == q.spec_.mse_clip_search,
               "row_concat: parts disagree on grid or width");
    q.rows_ += p.rows_;
  }
  q.init_geometry();
  q.codes_.reserve(q.rows_ * q.groups_ * q.bytes_per_group_);
  q.group_params_.reserve(q.rows_ * q.groups_);
  for (const QuantizedLinear& p : parts) {
    q.codes_.insert(q.codes_.end(), p.codes_.begin(), p.codes_.end());
    q.group_params_.insert(q.group_params_.end(), p.group_params_.begin(),
                           p.group_params_.end());
  }
  q.finalize_dequant();
  return q;
}

bool QuantizedLinear::operator==(const QuantizedLinear& other) const {
  return spec_.bits == other.spec_.bits &&
         spec_.group_size == other.spec_.group_size &&
         spec_.format == other.spec_.format &&
         spec_.symmetric == other.spec_.symmetric &&
         spec_.mse_clip_search == other.spec_.mse_clip_search &&
         rows_ == other.rows_ &&
         cols_ == other.cols_ && codes_ == other.codes_ &&
         group_params_.size() == other.group_params_.size() &&
         std::equal(group_params_.begin(), group_params_.end(),
                    other.group_params_.begin(),
                    [](const GroupParams& a, const GroupParams& b) {
                      return a.scale == b.scale &&
                             a.zero_point == b.zero_point;
                    });
}

}  // namespace aptq
