// Unit tests for src/quant/qformat: grid fitting, round-trips, FP4 E2M1
// semantics, bit-packing, storage accounting, and the blocked-format
// property suite (random matrices × group sizes × bit widths, edge rows,
// byte-identical serialization).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "quant/qformat.hpp"
#include "temp_file.hpp"

namespace aptq {
namespace {

QuantSpec spec_of(int bits, std::size_t group = 0, bool symmetric = false) {
  QuantSpec s;
  s.bits = bits;
  s.group_size = group;
  s.symmetric = symmetric;
  return s;
}

TEST(QuantSpec, Validation) {
  EXPECT_NO_THROW(spec_of(4).validate());
  EXPECT_THROW(spec_of(0).validate(), Error);
  EXPECT_THROW(spec_of(9).validate(), Error);
  QuantSpec fp4;
  fp4.format = QFormat::fp4_e2m1;
  fp4.bits = 3;
  EXPECT_THROW(fp4.validate(), Error);
  fp4.bits = 4;
  EXPECT_NO_THROW(fp4.validate());
}

TEST(GroupParams, AsymmetricCoversRange) {
  const std::vector<float> v = {-1.0f, -0.2f, 0.4f, 2.0f};
  const auto spec = spec_of(4);
  const GroupParams p = fit_group_params(v, spec);
  // Extremes must round-trip within one step.
  for (const float x : v) {
    const float q = quantize_dequantize_value(x, p, spec);
    EXPECT_NEAR(q, x, p.scale * 0.5f + 1e-6f);
  }
}

TEST(GroupParams, GridContainsExactZero) {
  const std::vector<float> v = {0.3f, 0.7f, 1.9f};  // all positive
  const auto spec = spec_of(4);
  const GroupParams p = fit_group_params(v, spec);
  EXPECT_EQ(quantize_dequantize_value(0.0f, p, spec), 0.0f);
}

TEST(GroupParams, ConstantGroupIsExact) {
  const std::vector<float> v = {0.5f, 0.5f, 0.5f};
  const auto spec = spec_of(4);
  const GroupParams p = fit_group_params(v, spec);
  EXPECT_NEAR(quantize_dequantize_value(0.5f, p, spec), 0.5f, 1e-4f);
}

TEST(GroupParams, AllZeroGroupIsIdentity) {
  const std::vector<float> v = {0.0f, 0.0f};
  const auto spec = spec_of(2);
  const GroupParams p = fit_group_params(v, spec);
  EXPECT_EQ(quantize_dequantize_value(0.0f, p, spec), 0.0f);
}

TEST(GroupParams, SymmetricIsOddAroundZero) {
  const std::vector<float> v = {-2.0f, 1.0f, 0.5f};
  const auto spec = spec_of(4, 0, /*symmetric=*/true);
  const GroupParams p = fit_group_params(v, spec);
  const float q1 = quantize_dequantize_value(0.7f, p, spec);
  const float q2 = quantize_dequantize_value(-0.7f, p, spec);
  EXPECT_NEAR(q1, -q2, 1e-6f);
  EXPECT_EQ(quantize_dequantize_value(0.0f, p, spec), 0.0f);
}

class BitWidthRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthRoundTrip, ErrorBoundedByHalfStep) {
  const int bits = GetParam();
  Rng rng(bits);
  std::vector<float> v(64);
  for (auto& x : v) {
    x = rng.normal(0.0f, 1.0f);
  }
  const auto spec = spec_of(bits);
  const GroupParams p = fit_group_params(v, spec);
  for (const float x : v) {
    const float q = quantize_dequantize_value(x, p, spec);
    EXPECT_LE(std::fabs(q - x), p.scale * 0.5f + 1e-5f) << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitWidthRoundTrip,
                         ::testing::Values(2, 3, 4, 5, 8));

TEST(BitWidths, ErrorShrinksWithMoreBits) {
  Rng rng(7);
  std::vector<float> v(256);
  for (auto& x : v) {
    x = rng.normal(0.0f, 1.0f);
  }
  double prev_err = 1e9;
  for (const int bits : {2, 3, 4, 6, 8}) {
    const auto spec = spec_of(bits);
    const GroupParams p = fit_group_params(v, spec);
    double err = 0.0;
    for (const float x : v) {
      const float q = quantize_dequantize_value(x, p, spec);
      err += (q - x) * (q - x);
    }
    EXPECT_LT(err, prev_err) << "bits=" << bits;
    prev_err = err;
  }
}

TEST(Fp4, GridMagnitudesAreE2M1) {
  const auto mags = fp4_magnitudes();
  ASSERT_EQ(mags.size(), 8u);
  EXPECT_EQ(mags[0], 0.0f);
  EXPECT_EQ(mags[7], 6.0f);
  EXPECT_EQ(mags[3], 1.5f);
}

TEST(Fp4, SnapsToScaledGrid) {
  QuantSpec spec;
  spec.format = QFormat::fp4_e2m1;
  const std::vector<float> v = {-6.0f, -0.4f, 0.0f, 1.4f, 6.0f};
  const GroupParams p = fit_group_params(v, spec);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);  // max |v| = 6 maps exactly
  EXPECT_FLOAT_EQ(quantize_dequantize_value(6.0f, p, spec), 6.0f);
  EXPECT_FLOAT_EQ(quantize_dequantize_value(-6.0f, p, spec), -6.0f);
  EXPECT_FLOAT_EQ(quantize_dequantize_value(0.0f, p, spec), 0.0f);
  EXPECT_FLOAT_EQ(quantize_dequantize_value(1.4f, p, spec), 1.5f);
  EXPECT_FLOAT_EQ(quantize_dequantize_value(-0.4f, p, spec), -0.5f);
}

TEST(Fp4, NonUniformResolution) {
  // E2M1 has finer steps near zero than near the max — check 0.25 rounds to
  // 0 or 0.5 while 5.0 rounds to one of {4, 6}.
  QuantSpec spec;
  spec.format = QFormat::fp4_e2m1;
  const std::vector<float> v = {6.0f};
  const GroupParams p = fit_group_params(v, spec);
  const float near_zero = quantize_dequantize_value(0.25f, p, spec);
  EXPECT_TRUE(near_zero == 0.0f || near_zero == 0.5f);
  const float near_max = quantize_dequantize_value(5.0f, p, spec);
  EXPECT_TRUE(near_max == 4.0f || near_max == 6.0f);
}

TEST(RowQuant, GroupsGetIndependentScales) {
  // First group small values, second group large: per-group scales must
  // give the small group fine resolution.
  Matrix w(1, 8);
  for (int i = 0; i < 4; ++i) {
    w(0, static_cast<std::size_t>(i)) = 0.01f * static_cast<float>(i + 1);
  }
  for (int i = 4; i < 8; ++i) {
    w(0, static_cast<std::size_t>(i)) = 10.0f * static_cast<float>(i - 3);
  }
  Matrix grouped = w;
  const auto params4 = quantize_dequantize_row(grouped.row(0), spec_of(4, 4));
  EXPECT_EQ(params4.size(), 2u);
  Matrix whole = w;
  quantize_dequantize_row(whole.row(0), spec_of(4, 0));
  double err_grouped = 0.0, err_whole = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    err_grouped += std::fabs(grouped(0, i) - w(0, i));
    err_whole += std::fabs(whole(0, i) - w(0, i));
  }
  EXPECT_LT(err_grouped, err_whole);
}

TEST(RowQuant, GroupCountArithmetic) {
  EXPECT_EQ(group_count(48, spec_of(4, 16)), 3u);
  EXPECT_EQ(group_count(50, spec_of(4, 16)), 4u);  // ragged tail group
  EXPECT_EQ(group_count(48, spec_of(4, 0)), 1u);
}

TEST(MatrixQuant, AppliesToEveryRow) {
  Rng rng(9);
  Matrix w = Matrix::randn(6, 32, rng);
  const Matrix orig = w;
  quantize_dequantize_matrix(w, spec_of(2, 8));
  // Every row changed (2-bit is lossy on gaussian data)...
  for (std::size_t r = 0; r < 6; ++r) {
    double diff = 0.0;
    for (std::size_t c = 0; c < 32; ++c) {
      diff += std::fabs(w(r, c) - orig(r, c));
    }
    EXPECT_GT(diff, 0.0);
  }
  // ...and is idempotent (already on the grid).
  Matrix again = w;
  quantize_dequantize_matrix(again, spec_of(2, 8));
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(again.flat()[i], w.flat()[i], 1e-5f);
  }
}

class PackedRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PackedRoundTrip, DequantMatchesFakeQuant) {
  const auto [bits, group] = GetParam();
  Rng rng(42 + static_cast<std::uint64_t>(bits));
  const Matrix w = Matrix::randn(8, 48, rng);
  const auto spec = spec_of(bits, group);
  const QuantizedLinear packed(w, spec);
  Matrix fake = w;
  quantize_dequantize_matrix(fake, spec);
  const Matrix unpacked = packed.dequantize();
  ASSERT_EQ(unpacked.rows(), 8u);
  ASSERT_EQ(unpacked.cols(), 48u);
  for (std::size_t i = 0; i < fake.size(); ++i) {
    EXPECT_NEAR(unpacked.flat()[i], fake.flat()[i], 1e-5f)
        << "bits=" << bits << " group=" << group;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndGroups, PackedRoundTrip,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(std::size_t{8}, std::size_t{16},
                                         std::size_t{0})));

TEST(Packed, Fp4RoundTrip) {
  Rng rng(11);
  const Matrix w = Matrix::randn(4, 32, rng);
  QuantSpec spec;
  spec.format = QFormat::fp4_e2m1;
  spec.group_size = 8;
  const QuantizedLinear packed(w, spec);
  Matrix fake = w;
  quantize_dequantize_matrix(fake, spec);
  const Matrix unpacked = packed.dequantize();
  for (std::size_t i = 0; i < fake.size(); ++i) {
    EXPECT_NEAR(unpacked.flat()[i], fake.flat()[i], 1e-5f);
  }
}

TEST(Packed, StorageShrinksWithBits) {
  Rng rng(12);
  const Matrix w = Matrix::randn(16, 64, rng);
  const std::size_t b2 = QuantizedLinear(w, spec_of(2, 16)).storage_bytes();
  const std::size_t b4 = QuantizedLinear(w, spec_of(4, 16)).storage_bytes();
  const std::size_t b8 = QuantizedLinear(w, spec_of(8, 16)).storage_bytes();
  EXPECT_LT(b2, b4);
  EXPECT_LT(b4, b8);
  // All far below fp32.
  EXPECT_LT(b8, w.size() * sizeof(float));
}

TEST(Packed, BitsPerWeightNearNominal) {
  Rng rng(13);
  const Matrix w = Matrix::randn(32, 128, rng);
  const QuantizedLinear q4(w, spec_of(4, 16));
  // 4 bits + 8 bytes (f32 scale + i32 zero-point, matching the serialized
  // layout) per 16-weight group = 4 + 4 = 8 bits.
  EXPECT_NEAR(q4.bits_per_weight(), 8.0, 0.2);
  const QuantizedLinear q2(w, spec_of(2, 16));
  EXPECT_NEAR(q2.bits_per_weight(), 6.0, 0.2);
}

TEST(Packed, FusedMatmulMatchesDequantMatmul) {
  Rng rng(14);
  const Matrix w = Matrix::randn(10, 24, rng);  // out-major
  const Matrix x = Matrix::randn(5, 24, rng);
  const QuantizedLinear packed(w, spec_of(4, 8));
  const Matrix fused = packed.matmul_transposed(x);
  const Matrix wdq = packed.dequantize();
  ASSERT_EQ(fused.rows(), 5u);
  ASSERT_EQ(fused.cols(), 10u);
  for (std::size_t n = 0; n < 5; ++n) {
    for (std::size_t r = 0; r < 10; ++r) {
      float ref = 0.0f;
      for (std::size_t c = 0; c < 24; ++c) {
        ref += x(n, c) * wdq(r, c);
      }
      EXPECT_NEAR(fused(n, r), ref, 1e-4f);
    }
  }
  const Matrix bad(5, 23);
  EXPECT_THROW(packed.matmul_transposed(bad), Error);
}

// Regression for the symmetric grid clipping bug: the grid used to span
// codes [0, 2^bits - 1] around a centered zero-point, which made +max_abs
// unrepresentable (it clipped to max_abs - scale). The fixed grid reserves
// code 0 so ±max_abs are both exact at every width.
class SymmetricExtremes : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricExtremes, MaxAbsRepresentableWithBothSigns) {
  const int bits = GetParam();
  const float max_abs = 1.75f;
  const std::vector<float> v = {max_abs, -0.4f, 0.9f};
  const auto spec = spec_of(bits, 0, /*symmetric=*/true);
  const GroupParams p = fit_group_params(v, spec);
  const float qp = quantize_dequantize_value(max_abs, p, spec);
  const float qn = quantize_dequantize_value(-max_abs, p, spec);
  EXPECT_NEAR(qp, max_abs, 1e-5f) << "bits " << bits;
  EXPECT_NEAR(qn, -max_abs, 1e-5f) << "bits " << bits;
  EXPECT_EQ(qp, -qn) << "bits " << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, SymmetricExtremes, ::testing::Range(2, 9));

TEST(Packed, MatvecMatchesDequantizedGemv) {
  Rng rng(16);
  // 300 columns cross the GEMV dequant chunk (128) with a ragged tail; the
  // spec list covers grouped int grids, whole-row groups, and fp4.
  std::vector<QuantSpec> specs = {spec_of(4, 16), spec_of(3, 8),
                                  spec_of(2, 0), spec_of(8, 16, true)};
  QuantSpec fp4;
  fp4.format = QFormat::fp4_e2m1;
  fp4.bits = 4;
  fp4.group_size = 16;
  specs.push_back(fp4);
  const Matrix w = Matrix::randn(9, 300, rng);
  const Matrix x = Matrix::randn(1, 300, rng);
  for (const QuantSpec& spec : specs) {
    const QuantizedLinear packed(w, spec);
    const Matrix wdq = packed.dequantize();
    std::vector<float> y(w.rows());
    packed.matvec_transposed(x.row(0), y);
    for (std::size_t r = 0; r < w.rows(); ++r) {
      float ref = 0.0f;
      for (std::size_t c = 0; c < w.cols(); ++c) {
        ref += x(0, c) * wdq(r, c);
      }
      EXPECT_NEAR(y[r], ref, 1e-4f) << "row " << r;
    }
    // Single-row matmul_transposed routes through the same kernel.
    const Matrix fused = packed.matmul_transposed(x);
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_EQ(fused(0, r), y[r]);
    }
  }
}

TEST(Packed, MatvecRejectsBadShapes) {
  Rng rng(17);
  const QuantizedLinear packed(Matrix::randn(4, 12, rng), spec_of(4, 4));
  std::vector<float> x(12), y(4);
  EXPECT_NO_THROW(packed.matvec_transposed(x, y));
  std::vector<float> short_x(11), short_y(3);
  EXPECT_THROW(packed.matvec_transposed(short_x, y), Error);
  EXPECT_THROW(packed.matvec_transposed(x, short_y), Error);
}

TEST(Packed, RaggedColumnsPack) {
  Rng rng(15);
  const Matrix w = Matrix::randn(3, 13, rng);  // 13 cols: ragged at 2 bits
  const QuantizedLinear packed(w, spec_of(2, 5));
  const Matrix unpacked = packed.dequantize();
  Matrix fake = w;
  quantize_dequantize_matrix(fake, spec_of(2, 5));
  for (std::size_t i = 0; i < fake.size(); ++i) {
    EXPECT_NEAR(unpacked.flat()[i], fake.flat()[i], 1e-5f);
  }
}

// ---- blocked-format property suite ----------------------------------------
//
// The blocked storage must be observationally identical to fake
// quantization for every (bits, group_size, row length) combination: the
// blocks are an encoding detail, never a semantics change.

// Serialize a linear and return the raw record bytes.
std::vector<std::uint8_t> record_bytes(const QuantizedLinear& q) {
  const ScopedTempFile file("aptq_qfmt_prop");
  {
    BinaryWriter writer(file.path());
    q.serialize(writer);
  }
  std::ifstream in(file.path(), std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

class BlockedProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BlockedProperty, RandomMatricesRoundTripWithinGridTolerance) {
  const auto [bits, group] = GetParam();
  // Row lengths straddle the group size: shorter than one group, exact
  // multiples, and ragged tails.
  for (const std::size_t cols :
       {group / 2 + 1, group, 2 * group, 2 * group + 3, std::size_t{129}}) {
    Rng rng(100 + static_cast<std::uint64_t>(bits) * 7 + group + cols);
    const Matrix w = Matrix::randn(5, cols, rng);
    const auto spec = spec_of(bits, group);
    const QuantizedLinear packed(w, spec);
    Matrix fake = w;
    quantize_dequantize_matrix(fake, spec);
    const Matrix unpacked = packed.dequantize();
    for (std::size_t i = 0; i < fake.size(); ++i) {
      ASSERT_NEAR(unpacked.flat()[i], fake.flat()[i], 1e-6f)
          << "bits=" << bits << " group=" << group << " cols=" << cols;
    }
    // Grid tolerance against the original values: every weight within half
    // a step of its group's grid (the mean scale bounds a "typical" step;
    // per-group check uses the matrix-wide max via mean upper bound).
    const QuantizedLinear reloaded = [&] {
      const ScopedTempFile file("aptq_qfmt_prop_rt");
      {
        BinaryWriter writer(file.path());
        packed.serialize(writer);
      }
      BinaryReader reader(file.path());
      return QuantizedLinear::deserialize(reader);
    }();
    EXPECT_TRUE(reloaded == packed);
    // Byte-identical re-serialization (acceptance: v3 round-trips exactly).
    EXPECT_EQ(record_bytes(reloaded), record_bytes(packed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    GroupsAndWidths, BlockedProperty,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(std::size_t{8}, std::size_t{16},
                                         std::size_t{32}, std::size_t{64})));

// Every width 1..8 stores its codes without overlap: the packed layer
// dequantizes to exactly the fake-quantized values (5..7-bit codes ride
// in whole bytes) and its record round-trips byte for byte.
TEST(BlockedProperty, EveryWidthDequantizesToFakeQuantBitwise) {
  Rng rng(57);
  const Matrix w = Matrix::randn(6, 37, rng);
  for (int bits = 1; bits <= 8; ++bits) {
    for (const std::size_t group : {std::size_t{8}, std::size_t{16}}) {
      const auto spec = spec_of(bits, group);
      const QuantizedLinear packed(w, spec);
      Matrix fake = w;
      quantize_dequantize_matrix(fake, spec);
      EXPECT_TRUE(packed.dequantize() == fake)
          << "bits=" << bits << " group=" << group;
      const ScopedTempFile file("aptq_qfmt_widths");
      {
        BinaryWriter writer(file.path());
        packed.serialize(writer);
      }
      BinaryReader reader(file.path());
      const QuantizedLinear reloaded = QuantizedLinear::deserialize(reader);
      EXPECT_TRUE(reloaded == packed) << "bits=" << bits << " group=" << group;
      EXPECT_EQ(record_bytes(reloaded), record_bytes(packed));
    }
  }
}

TEST(BlockedProperty, EdgeRowsQuantizeExactly) {
  // Rows the grid must represent without error: all-zero, single repeated
  // value, and alternating ±max_abs (grid endpoints).
  constexpr std::size_t kCols = 37;  // ragged for every group size below
  Matrix w(4, kCols);
  const float kMax = 3.25f;
  for (std::size_t c = 0; c < kCols; ++c) {
    w(0, c) = 0.0f;
    w(1, c) = 0.8125f;
    w(2, c) = (c % 2 == 0) ? kMax : -kMax;
    w(3, c) = (c % 2 == 0) ? kMax : 0.0f;
  }
  for (const int bits : {2, 3, 4, 8}) {
    for (const std::size_t group : {std::size_t{8}, std::size_t{16}}) {
      for (const bool symmetric : {false, true}) {
        const auto spec = spec_of(bits, group, symmetric);
        const QuantizedLinear packed(w, spec);
        const Matrix dq = packed.dequantize();
        const std::string ctx = "bits=" + std::to_string(bits) +
                                " group=" + std::to_string(group) +
                                " sym=" + std::to_string(symmetric);
        // Symmetric grids reserve code 0 so ±max_abs are exact grid
        // endpoints; asymmetric grids snap the zero-point to an integer
        // code, which can shift ±max_abs off-grid by up to half a step.
        const float step = 2.0f * kMax / static_cast<float>((1 << bits) - 1);
        const float max_tol = symmetric ? 1e-5f : step * 0.5f + 1e-4f;
        for (std::size_t c = 0; c < kCols; ++c) {
          // All-zero rows are exactly zero (the grid always contains 0).
          EXPECT_EQ(dq(0, c), 0.0f) << ctx;
          // A constant row round-trips to itself (constant is a grid point
          // in both grid constructions).
          EXPECT_NEAR(dq(1, c), w(1, c), 1e-5f) << ctx;
          EXPECT_NEAR(dq(2, c), w(2, c), max_tol) << ctx << " col " << c;
        }
        // Row 3 spans [0, max]: endpoints representable on asymmetric grids.
        if (!symmetric) {
          EXPECT_NEAR(dq(3, 0), kMax, 1e-5f) << ctx;
          EXPECT_NEAR(dq(3, 1), 0.0f, 1e-5f) << ctx;
        }
      }
    }
  }
}

TEST(BlockedProperty, GroupSizeNormalizesToRowLength) {
  Rng rng(55);
  const Matrix w = Matrix::randn(3, 20, rng);
  // 0 (whole row) and any group larger than the row mean the same thing;
  // the stored spec and the serialized record must agree exactly.
  const QuantizedLinear whole(w, spec_of(4, 0));
  const QuantizedLinear large(w, spec_of(4, 64));
  const QuantizedLinear exact(w, spec_of(4, 20));
  EXPECT_EQ(whole.spec().group_size, 20u);
  EXPECT_EQ(large.spec().group_size, 20u);
  EXPECT_TRUE(whole == exact);
  EXPECT_TRUE(large == exact);
  EXPECT_EQ(record_bytes(whole), record_bytes(exact));
}

TEST(BlockedProperty, KernelPathCoversAffineNibbleAndByteWidths) {
  Rng rng(56);
  const Matrix w = Matrix::randn(2, 16, rng);
  EXPECT_TRUE(QuantizedLinear(w, spec_of(3, 8)).has_kernel_path());
  EXPECT_TRUE(QuantizedLinear(w, spec_of(4, 8)).has_kernel_path());
  EXPECT_TRUE(QuantizedLinear(w, spec_of(8, 8)).has_kernel_path());
  EXPECT_TRUE(QuantizedLinear(w, spec_of(2, 8)).has_kernel_path());
  EXPECT_TRUE(QuantizedLinear(w, spec_of(6, 8)).has_kernel_path());
  EXPECT_FALSE(QuantizedLinear(w, spec_of(1, 8)).has_kernel_path());
  QuantSpec fp4;
  fp4.format = QFormat::fp4_e2m1;
  fp4.group_size = 8;
  EXPECT_FALSE(QuantizedLinear(w, fp4).has_kernel_path());
  // The view mirrors the blocked geometry.
  const QuantizedLinear q(w, spec_of(4, 8));
  const QBlock b = q.block_view();
  EXPECT_EQ(b.rows, 2u);
  EXPECT_EQ(b.cols, 16u);
  EXPECT_EQ(b.group_len, 8u);
  EXPECT_EQ(b.groups, 2u);
  EXPECT_EQ(b.bytes_per_group, 4u);
  EXPECT_EQ(b.bits, 4);
}

}  // namespace
}  // namespace aptq
