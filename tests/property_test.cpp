// Property-based sweeps over the quantization stack: invariants that must
// hold across random instances, bit widths, group sizes and formats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "quant/gptq.hpp"
#include "quant/qformat.hpp"
#include "quant/hessian.hpp"
#include "tensor/cholesky.hpp"
#include "tensor/ops.hpp"

namespace aptq {
namespace {

// ---- quantization grid properties across (bits, group, symmetric) -------

// Three 8-byte fields and no padding. gtest prints a parameter type it has
// no printer for as a dump of its bytes, and gtest_discover_tests puts that
// dump into each test's name; padding bytes would carry leftover stack
// contents into the names and change them from one run to the next.
struct GridCase {
  std::int64_t bits;
  std::size_t group;
  std::int64_t symmetric;  // 0 or 1
};
static_assert(sizeof(GridCase) == 24);

class GridProperties : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridProperties, IdempotentAndBounded) {
  const auto [bits, group, symmetric] = GetParam();
  QuantSpec spec;
  spec.bits = static_cast<int>(bits);
  spec.group_size = group;
  spec.symmetric = symmetric != 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(1000 + seed);
    Matrix w = Matrix::randn(5, 24, rng, 0.0f, rng.uniform(0.1f, 3.0f));
    const Matrix orig = w;
    quantize_dequantize_matrix(w, spec);
    // Bounded error: every entry within one step of its group's scale.
    for (std::size_t r = 0; r < w.rows(); ++r) {
      const auto params = quantize_dequantize_row(
          Matrix(orig).row(r), spec);
      const std::size_t g = group == 0 ? 24 : group;
      for (std::size_t c = 0; c < w.cols(); ++c) {
        const float scale = params[c / g].scale;
        EXPECT_LE(std::fabs(w(r, c) - orig(r, c)),
                  scale * (symmetric ? 1.01f : 0.51f) + 1e-6f)
            << "seed " << seed;
      }
    }
    // Idempotent: re-quantizing is a fixed point for asymmetric grids
    // (the refit grid reproduces scale and zero-point exactly). Symmetric
    // grids clip the positive extreme to (2^{b-1}−1)·scale, so a refit
    // shrinks the scale — idempotence genuinely does not hold there.
    if (!symmetric) {
      Matrix again = w;
      quantize_dequantize_matrix(again, spec);
      for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_NEAR(again.flat()[i], w.flat()[i], 1e-4f);
      }
    }
  }
}

TEST_P(GridProperties, SignAndZeroPreservation) {
  const auto [bits, group, symmetric] = GetParam();
  QuantSpec spec;
  spec.bits = static_cast<int>(bits);
  spec.group_size = group;
  spec.symmetric = symmetric != 0;
  Rng rng(77);
  Matrix w = Matrix::randn(4, 16, rng);
  w(0, 3) = 0.0f;
  w(2, 7) = 0.0f;
  Matrix q = w;
  quantize_dequantize_matrix(q, spec);
  // Exact zeros stay exact (the grid contains zero by construction).
  EXPECT_EQ(q(0, 3), 0.0f);
  EXPECT_EQ(q(2, 7), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridProperties,
    ::testing::Values(GridCase{2, 8, false}, GridCase{2, 0, true},
                      GridCase{3, 8, false}, GridCase{4, 16, false},
                      GridCase{4, 0, true}, GridCase{8, 8, false}));

// ---- round-trip sweep across every supported bit width -------------------

// Row length 23 with groups {5, 8, 0}: 23 is divisible by none of them, so
// every case exercises a short tail group at the row boundary.
class BitWidthRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthRoundTrip, ErrorWithinHalfStepPerGroup) {
  const int bits = GetParam();
  for (const std::size_t group : {std::size_t{5}, std::size_t{8},
                                  std::size_t{0}}) {
    QuantSpec spec;
    spec.bits = bits;
    spec.group_size = group;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(6000 + seed);
      std::vector<float> row(23);
      for (auto& v : row) {
        v = rng.normal(0.0f, rng.uniform(0.2f, 2.0f));
      }
      const std::vector<float> orig = row;
      const auto params = quantize_dequantize_row(row, spec);
      ASSERT_EQ(params.size(), group_count(row.size(), spec));
      const std::size_t g = group == 0 ? row.size() : group;
      for (std::size_t c = 0; c < row.size(); ++c) {
        // Round-to-nearest on an affine grid spanning the group's min..max:
        // at most half a step of error for values inside the span.
        const float step = params[c / g].scale;
        EXPECT_LE(std::fabs(row[c] - orig[c]), 0.5f * step + 1e-6f)
            << "bits=" << bits << " group=" << group << " seed=" << seed
            << " col=" << c;
      }
    }
  }
}

TEST_P(BitWidthRoundTrip, DoubleQuantizationIsIdempotent) {
  const int bits = GetParam();
  for (const std::size_t group : {std::size_t{5}, std::size_t{0}}) {
    QuantSpec spec;
    spec.bits = bits;
    spec.group_size = group;
    Rng rng(6100 + static_cast<std::uint64_t>(bits));
    std::vector<float> row(23);
    for (auto& v : row) {
      v = rng.normal(0.0f, 1.0f);
    }
    quantize_dequantize_row(row, spec);
    std::vector<float> again = row;
    quantize_dequantize_row(again, spec);
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_NEAR(again[c], row[c], 1e-4f)
          << "bits=" << bits << " group=" << group << " col=" << c;
    }
  }
}

TEST_P(BitWidthRoundTrip, TailGroupGetsItsOwnScale) {
  // The 3-element tail of a 23-wide row under group 5 must be fit from its
  // own min/max, not the previous group's: plant a tail with a much smaller
  // range and check its error bound tracks the tail scale.
  const int bits = GetParam();
  QuantSpec spec;
  spec.bits = bits;
  spec.group_size = 5;
  std::vector<float> row(23);
  Rng rng(6200);
  for (std::size_t c = 0; c < 20; ++c) {
    row[c] = rng.normal(0.0f, 5.0f);  // loud leading groups
  }
  for (std::size_t c = 20; c < 23; ++c) {
    row[c] = rng.normal(0.0f, 0.01f);  // quiet tail
  }
  const std::vector<float> orig = row;
  const auto params = quantize_dequantize_row(row, spec);
  ASSERT_EQ(params.size(), 5u);
  const float tail_step = params[4].scale;
  for (std::size_t c = 20; c < 23; ++c) {
    EXPECT_LE(std::fabs(row[c] - orig[c]), 0.5f * tail_step + 1e-7f);
  }
  // A tail reusing a loud group's scale would show a much larger step.
  EXPECT_LT(tail_step, params[0].scale * 0.1f);
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, BitWidthRoundTrip,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Fp4Properties, RoundTripBoundAndIdempotence) {
  QuantSpec spec;
  spec.format = QFormat::fp4_e2m1;
  spec.bits = 4;
  for (const std::size_t group : {std::size_t{5}, std::size_t{8},
                                  std::size_t{0}}) {
    spec.group_size = group;
    Rng rng(6300 + group);
    std::vector<float> row(23);
    for (auto& v : row) {
      v = rng.normal(0.0f, 1.5f);
    }
    const std::vector<float> orig = row;
    const auto params = quantize_dequantize_row(row, spec);
    const std::size_t g = group == 0 ? row.size() : group;
    for (std::size_t c = 0; c < row.size(); ++c) {
      // E2M1 magnitudes are {0, .5, 1, 1.5, 2, 3, 4, 6}·scale; the widest
      // gap (4..6) gives a worst-case error of one scale unit.
      EXPECT_LE(std::fabs(row[c] - orig[c]), params[c / g].scale * 1.01f)
          << "group=" << group << " col=" << c;
    }
    std::vector<float> again = row;
    quantize_dequantize_row(again, spec);
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_NEAR(again[c], row[c], 1e-4f) << "group=" << group;
    }
  }
}

// ---- Hessian properties --------------------------------------------------

TEST(HessianProperties, AlwaysPsdAcrossRandomData) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(2000 + seed);
    const std::size_t d = 4 + rng.index(12);
    const std::size_t n = 2 + rng.index(40);
    const Matrix x = Matrix::randn(n, d, rng);
    HessianAccumulator acc(d);
    std::vector<float> gamma(n);
    for (auto& g : gamma) {
      g = rng.uniform(0.0f, 3.0f);
    }
    acc.add_matrix(x, gamma);
    // Damped Hessian always factorizes (PSD + jitter ⇒ PD).
    EXPECT_NO_THROW(gptq_inverse_factor(acc.finalized_damped(0.01)))
        << "seed " << seed << " d=" << d << " n=" << n;
    // zᵀHz ≥ 0 for arbitrary z on the raw Hessian.
    const Matrix h = acc.finalized();
    std::vector<float> z(d), hz(d);
    for (auto& v : z) {
      v = rng.normal(0.0f, 1.0f);
    }
    for (std::size_t i = 0; i < d; ++i) {
      hz[i] = dot(h.row(i), z);
    }
    EXPECT_GE(dot(z, hz), -1e-3f);
  }
}

// ---- GPTQ vs RTN dominance across random layers --------------------------

TEST(SolverProperties, GptqNeverLosesToRtnOnObjective) {
  int wins = 0, ties = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(3000 + seed);
    const std::size_t d_in = 8 + rng.index(24);
    const Matrix w = Matrix::randn(6, d_in, rng);
    const Matrix mix = Matrix::randn(d_in, d_in, rng, 0.0f,
                                     1.0f / std::sqrt((float)d_in));
    const Matrix x = matmul(Matrix::randn(64, d_in, rng), mix);
    HessianAccumulator acc(d_in);
    acc.add_matrix(x);
    const Matrix h = acc.finalized();
    GptqConfig cfg;
    cfg.spec.bits = 2 + static_cast<int>(rng.index(3));
    cfg.spec.group_size = 8;
    const double gptq_err =
        reconstruction_error(w, gptq_quantize(w, h, cfg).weight, h);
    const double rtn_err =
        reconstruction_error(w, rtn_quantize(w, cfg.spec), h);
    if (gptq_err < rtn_err * 0.999) {
      ++wins;
    } else if (gptq_err <= rtn_err * 1.02) {
      ++ties;
    }
  }
  // GPTQ must win or tie every instance, and win most.
  EXPECT_EQ(wins + ties, 10);
  EXPECT_GE(wins, 7);
}

// ---- RoPE / Cholesky structural sweeps -----------------------------------

TEST(RopeProperties, OrthogonalAtEveryOffsetAndWidth) {
  Rng rng(4000);
  for (const std::size_t hd : {2u, 4u, 8u}) {
    for (const std::size_t offset : {0u, 5u, 100u}) {
      Matrix x = Matrix::randn(6, hd * 2, rng);
      const double norm_before = sum_squares(x);
      Matrix original = x;
      rope_apply(x, hd, 10000.0f, false, offset);
      EXPECT_NEAR(sum_squares(x), norm_before, 1e-3);
      rope_apply(x, hd, 10000.0f, true, offset);
      EXPECT_LT(frobenius_distance(x, original), 1e-4);
    }
  }
}

TEST(CholeskyProperties, FactorIdentityAcrossSizes) {
  for (const std::size_t n : {2u, 5u, 17u, 40u}) {
    Rng rng(5000 + n);
    const Matrix a = Matrix::randn(n, n + 2, rng);
    Matrix h(n, n);
    gemm(a, Trans::no, a, Trans::yes, h);
    for (std::size_t i = 0; i < n; ++i) {
      h(i, i) += 0.3f;
    }
    const Matrix u = gptq_inverse_factor(h);
    const Matrix utu = matmul(u, u, Trans::yes, Trans::no);
    const Matrix should_be_identity = matmul(utu, h);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(should_be_identity(i, j), i == j ? 1.0f : 0.0f, 5e-2f)
            << "n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace aptq
