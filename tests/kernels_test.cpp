// Tests for the register-tiled micro-kernel layer (tensor/kernels.hpp):
// tiled GEMM vs the retained naive reference across all four Trans variants
// and non-tile-multiple shapes, the SYRK upper-triangle fast path, the
// symmetric matvec, the GPTQ panel update, the gemv matvec fast path, the
// blocked dequant-dot kernels (qgemv/qdot/qgemv_batch) vs their naive
// oracle — and the determinism contract: bitwise-identical results at
// 1/2/4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "quant/qformat.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

namespace aptq {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::randn(r, c, rng);
}

// Tiled and naive kernels reassociate the k-fold differently, so agreement
// is tolerance-based, scaled with the fold length.
void expect_tolerance_equal(const Matrix& got, const Matrix& want,
                            std::size_t fold_len) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const float tol =
      1e-5f * std::sqrt(static_cast<float>(std::max<std::size_t>(fold_len, 1)))
      * 8.0f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], want.flat()[i], tol) << "flat index " << i;
  }
}

Matrix op_input(std::size_t rows, std::size_t cols, Trans t,
                std::uint64_t seed) {
  return t == Trans::no ? random_matrix(rows, cols, seed)
                        : random_matrix(cols, rows, seed);
}

class TiledGemmVariants
    : public ::testing::TestWithParam<std::tuple<Trans, Trans>> {};

TEST_P(TiledGemmVariants, MatchesReferenceOnOddShapes) {
  const auto [ta, tb] = GetParam();
  // Shapes straddle the tile geometry: below one tile, exact multiples of
  // (kGemmMR, kGemmNR), one past a multiple, and a k crossing kGemmKC.
  const std::size_t shapes[][3] = {
      {1, 1, 1},
      {3, 5, 2},
      {kGemmMR, kGemmNR, 16},
      {kGemmMR + 1, kGemmNR + 1, 17},
      {2 * kGemmMR, 3 * kGemmNR, kGemmKC},
      {37, 41, kGemmKC + 19},
  };
  for (const auto& s : shapes) {
    const std::size_t m = s[0], n = s[1], k = s[2];
    const Matrix a = op_input(m, k, ta, 11 * m + k);
    const Matrix b = op_input(k, n, tb, 13 * n + k);
    Matrix want(m, n);
    ref::gemm(a, ta, b, tb, want, 1.0f, 0.0f);
    Matrix got(m, n);
    gemm_tiled(a, ta, b, tb, got, 1.0f);
    expect_tolerance_equal(got, want, k);
  }
}

TEST_P(TiledGemmVariants, AccumulatesWithAlphaIntoExistingC) {
  const auto [ta, tb] = GetParam();
  const std::size_t m = 13, n = 19, k = 29;
  const Matrix a = op_input(m, k, ta, 31);
  const Matrix b = op_input(k, n, tb, 32);
  const Matrix c0 = random_matrix(m, n, 33);
  Matrix want = c0;
  ref::gemm(a, ta, b, tb, want, -0.7f, 1.0f);
  Matrix got = c0;
  gemm_tiled(a, ta, b, tb, got, -0.7f);
  expect_tolerance_equal(got, want, k);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, TiledGemmVariants,
    ::testing::Combine(::testing::Values(Trans::no, Trans::yes),
                       ::testing::Values(Trans::no, Trans::yes)));

TEST(TiledGemm, PublicGemmDispatchAgreesWithReference) {
  // Exercise all three public dispatch arms (gemv, naive, tiled) against
  // ref::gemm, with alpha/beta composition.
  const std::size_t shapes[][3] = {
      {1, 40, 64},   // matvec fast path
      {5, 7, 3},     // below the tiled threshold
      {64, 48, 56},  // tiled
  };
  for (const auto& s : shapes) {
    const std::size_t m = s[0], n = s[1], k = s[2];
    for (const Trans tb : {Trans::no, Trans::yes}) {
      const Matrix a = random_matrix(m, k, 7 * m + 1);
      const Matrix b = op_input(k, n, tb, 7 * n + 2);
      const Matrix c0 = random_matrix(m, n, 7 * k + 3);
      Matrix want = c0;
      ref::gemm(a, Trans::no, b, tb, want, 1.25f, 0.5f);
      Matrix got = c0;
      gemm(a, Trans::no, b, tb, got, 1.25f, 0.5f);
      expect_tolerance_equal(got, want, k);
    }
  }
}

TEST(TiledGemm, BitwiseIdenticalAtAnyThreadCount) {
  const Matrix a = random_matrix(130, 160, 41);
  const Matrix b = random_matrix(160, 151, 42);
  ThreadPool::set_global_threads(1);
  Matrix serial(130, 151);
  gemm_tiled(a, Trans::no, b, Trans::no, serial, 1.0f);
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool::set_global_threads(threads);
    Matrix parallel(130, 151);
    gemm_tiled(a, Trans::no, b, Trans::no, parallel, 1.0f);
    EXPECT_TRUE(parallel == serial) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(1);
}

TEST(SyrkUpper, MatchesReferenceUnweighted) {
  for (const std::size_t d : {1ul, 7ul, 16ul, 37ul}) {
    const Matrix x = random_matrix(71, d, 50 + d);
    Matrix want(d, d);
    ref::syrk_upper(x, {}, 1.0f, want);
    Matrix got(d, d);
    syrk_upper(x, {}, 1.0f, got);
    expect_tolerance_equal(got, want, x.rows());
  }
}

TEST(SyrkUpper, MatchesReferenceWeightedAcrossKcBoundary) {
  const std::size_t d = 29;
  const Matrix x = random_matrix(kGemmKC + 37, d, 61);
  std::vector<float> gamma(x.rows());
  Rng rng(62);
  for (auto& g : gamma) {
    g = rng.uniform(0.0f, 2.0f);
  }
  gamma[3] = 0.0f;
  Matrix want(d, d);
  ref::syrk_upper(x, gamma, 0.5f, want);
  Matrix got(d, d);
  syrk_upper(x, gamma, 0.5f, got);
  expect_tolerance_equal(got, want, x.rows());
}

TEST(SyrkUpper, NeverTouchesStrictLowerTriangle) {
  const std::size_t d = 23;
  const Matrix x = random_matrix(40, d, 63);
  Matrix c(d, d, -7.5f);
  syrk_upper(x, {}, 1.0f, c);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(c(i, j), -7.5f) << "(" << i << "," << j << ")";
    }
  }
}

TEST(SyrkUpper, BitwiseIdenticalAtAnyThreadCount) {
  const std::size_t d = 45;
  const Matrix x = random_matrix(300, d, 64);
  std::vector<float> gamma(x.rows(), 1.25f);
  ThreadPool::set_global_threads(1);
  Matrix serial(d, d);
  syrk_upper(x, gamma, 1.0f, serial);
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool::set_global_threads(threads);
    Matrix parallel(d, d);
    syrk_upper(x, gamma, 1.0f, parallel);
    EXPECT_TRUE(parallel == serial) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(1);
}

TEST(SymvUpper, MatchesDenseMatvecOnSymmetricInput) {
  const std::size_t d = 33;
  const Matrix a = random_matrix(d, d + 5, 70);
  Matrix h(d, d);
  gemm(a, Trans::no, a, Trans::yes, h);  // symmetric
  Rng rng(71);
  std::vector<float> z(d), got(d);
  for (auto& v : z) {
    v = rng.normal(0.0f, 1.0f);
  }
  symv_upper(h, z, got);
  for (std::size_t i = 0; i < d; ++i) {
    double want = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      want += static_cast<double>(h(i, j)) * z[j];
    }
    EXPECT_NEAR(got[i], want, 1e-3) << "row " << i;
  }
}

TEST(RankUpdate, MatchesRowAtATimeSweep) {
  for (const std::size_t r : {1ul, 3ul, 4ul, 7ul, 16ul}) {
    const std::size_t n = 37, ldu = 64;
    const Matrix u = random_matrix(r, ldu, 80 + r);
    std::vector<float> err(r);
    Rng rng(81);
    for (auto& e : err) {
      e = rng.normal(0.0f, 0.5f);
    }
    std::vector<float> want(n), got(n);
    for (std::size_t c = 0; c < n; ++c) {
      want[c] = got[c] = rng.normal(0.0f, 1.0f);
    }
    for (std::size_t j = 0; j < r; ++j) {
      for (std::size_t c = 0; c < n; ++c) {
        want[c] -= err[j] * u(j, c);
      }
    }
    kern::rank_update(got.data(), n, err.data(), r, u.data(), ldu);
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(got[c], want[c], 1e-5f) << "r=" << r << " c=" << c;
    }
  }
}

TEST(Gemv, BothLayoutsMatchReferenceGemm) {
  const std::size_t k = 53, n = 21;
  const Matrix x = random_matrix(1, k, 90);
  for (const Trans tb : {Trans::no, Trans::yes}) {
    const Matrix b = op_input(k, n, tb, 91);
    Matrix want(1, n);
    ref::gemm(x, Trans::no, b, tb, want);
    Matrix got(1, n);
    gemm(x, Trans::no, b, tb, got);
    expect_tolerance_equal(got, want, k);
  }
}

TEST(Dot4, MatchesSerialDotWithinTolerance) {
  for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 17ul, 128ul}) {
    const Matrix a = random_matrix(1, std::max<std::size_t>(n, 1), 95 + n);
    const Matrix b = random_matrix(1, std::max<std::size_t>(n, 1), 96 + n);
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      want += static_cast<double>(a.flat()[i]) * b.flat()[i];
    }
    EXPECT_NEAR(kern::dot4(a.data(), b.data(), n), want, 1e-4)
        << "n=" << n;
  }
}

// ---- blocked dequant-dot kernels vs the naive oracle -----------------------
//
// kern::qgemv / qdot / qgemv_batch vectorize the nibble unpack and
// reassociate the k-fold, so agreement with aptq::ref's per-element loop is
// tolerance-based (pinned below); the determinism contract (bitwise equal
// at any thread count within one build) is exact.

// Pinned tolerance for one fused dequant-dot: vector-lane reassociation over
// a fold of length k on O(1)-magnitude data.
float qdot_tol(std::size_t k) {
  return 1e-5f *
         std::sqrt(static_cast<float>(std::max<std::size_t>(k, 1))) * 8.0f;
}

QuantSpec qspec(int bits, std::size_t group) {
  QuantSpec s;
  s.bits = bits;
  s.group_size = group;
  return s;
}

class QuantizedGemvOracle
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(QuantizedGemvOracle, MatchesNaiveDequantDotOnOddShapes) {
  const auto [bits, group] = GetParam();
  // Odd shapes: 1×1, single row × long K, prime dims, K < group (whole row
  // collapses to one ragged group), K a prime just past the group.
  const std::size_t shapes[][2] = {
      {1, 1}, {1, 131}, {7, 53}, {3, group > 1 ? group - 1 : 1}, {13, 67},
  };
  for (const auto& s : shapes) {
    const std::size_t rows = s[0], cols = s[1];
    const Matrix w = random_matrix(rows, cols, 7 * rows + cols + group);
    const Matrix x = random_matrix(1, cols, 19 * rows + cols);
    const QuantizedLinear packed(w, qspec(bits, group));
    ASSERT_TRUE(packed.has_kernel_path());
    const QBlock q = packed.block_view();
    std::vector<float> want(rows, 0.0f);
    ref::qgemv(q, x.data(), want.data());
    std::vector<float> got(rows, -1.0f);
    kern::qgemv(q, x.data(), got.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_NEAR(got[r], want[r], qdot_tol(cols))
          << "bits=" << bits << " group=" << group << " rows=" << rows
          << " cols=" << cols << " r=" << r;
      // qdot with on-the-fly group sums agrees with the same row.
      EXPECT_NEAR(kern::qdot(q, r, x.data(), nullptr), want[r],
                  qdot_tol(cols));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndGroups, QuantizedGemvOracle,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(std::size_t{8}, std::size_t{16},
                                         std::size_t{32})));

TEST(QuantizedGemv, MultiRequestVariantMatchesPerRowGemv) {
  const std::size_t rows = 11, cols = 75, n = 5;
  const Matrix w = random_matrix(rows, cols, 201);
  const Matrix x = random_matrix(n, cols, 202);
  const QuantizedLinear packed(w, qspec(4, 16));
  const QBlock q = packed.block_view();
  std::vector<float> multi(n * rows, -1.0f);
  kern::qgemv_batch(q, x.data(), n, multi.data());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> solo(rows, 0.0f);
    ref::qgemv(q, x.data() + i * cols, solo.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_NEAR(multi[i * rows + r], solo[r], qdot_tol(cols))
          << "request " << i << " row " << r;
    }
  }
}

TEST(QuantizedGemv, BitwiseIdenticalAtAnyThreadCount) {
  const std::size_t rows = 29, cols = 140;
  const Matrix w = random_matrix(rows, cols, 203);
  const Matrix x = random_matrix(4, cols, 204);
  for (const int bits : {2, 4}) {
    const QuantizedLinear packed(w, qspec(bits, 16));
    const QBlock q = packed.block_view();
    std::vector<float> base_gemv(rows);
    ThreadPool::set_global_threads(1);
    kern::qgemv(q, x.data(), base_gemv.data());
    for (const std::size_t threads : {2ul, 4ul}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> y(rows, -7.0f);
      kern::qgemv(q, x.data(), y.data());
      EXPECT_EQ(y, base_gemv) << "bits=" << bits << " " << threads
                              << " threads";
    }
  }
  ThreadPool::set_global_threads(1);
}

// ---- batched decode kernels: per-row bitwise equality with the solo path --
//
// gemv_batch / qgemv_batch exist so continuous-batching decode can stack
// requests into one forward pass; the serving determinism contract requires
// row i of the batched result to be bitwise identical to running row i
// alone through gemv / qgemv. Exact EXPECT_EQ, no tolerance.

TEST(GemvBatch, EveryRowBitwiseMatchesSoloGemv) {
  // Odd shapes: n below/above the column-strip width (64), prime k, and
  // batch sizes from 1 (delegates to gemv) to 9.
  const std::size_t shapes[][2] = {{53, 21}, {128, 64}, {67, 130}, {1, 1}};
  for (const auto& s : shapes) {
    const std::size_t k = s[0], n = s[1];
    const Matrix b = random_matrix(k, n, 301 + k + n);
    for (const std::size_t batch : {1ul, 2ul, 3ul, 8ul, 9ul}) {
      const Matrix x = random_matrix(batch, k, 302 + batch);
      std::vector<float> y_batch(batch * n, 0.0f);
      kern::gemv_batch(x.data(), b.data(), batch, k, n, y_batch.data());
      for (std::size_t i = 0; i < batch; ++i) {
        std::vector<float> y_solo(n, 0.0f);
        kern::gemv(x.data() + i * k, b.data(), k, n, y_solo.data());
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(y_batch[i * n + j], y_solo[j])
              << "k=" << k << " n=" << n << " batch=" << batch << " row=" << i
              << " col=" << j;
        }
      }
    }
  }
}

TEST(GemvBatch, BitwiseIdenticalAtAnyThreadCount) {
  const std::size_t k = 96, n = 200, batch = 6;
  const Matrix b = random_matrix(k, n, 311);
  const Matrix x = random_matrix(batch, k, 312);
  ThreadPool::set_global_threads(1);
  std::vector<float> base(batch * n, 0.0f);
  kern::gemv_batch(x.data(), b.data(), batch, k, n, base.data());
  for (const std::size_t threads : {2ul, 4ul}) {
    ThreadPool::set_global_threads(threads);
    std::vector<float> y(batch * n, 0.0f);
    kern::gemv_batch(x.data(), b.data(), batch, k, n, y.data());
    EXPECT_EQ(y, base) << threads << " threads";
  }
  ThreadPool::set_global_threads(1);
}

class QuantizedGemvBatchBitwise
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(QuantizedGemvBatchBitwise, EveryRowBitwiseMatchesSoloQgemv) {
  const auto [bits, group] = GetParam();
  // Shapes cover the vector fast path (cols a multiple of the group), a
  // ragged tail group, K < group, and a single weight row.
  const std::size_t shapes[][2] = {
      {11, 4 * group}, {7, 3 * group + 3}, {3, group > 1 ? group - 1 : 1},
      {1, 2 * group}};
  for (const auto& s : shapes) {
    const std::size_t rows = s[0], cols = s[1];
    const Matrix w = random_matrix(rows, cols, 401 + rows + cols);
    const QuantizedLinear packed(w, qspec(bits, group));
    ASSERT_TRUE(packed.has_kernel_path());
    const QBlock q = packed.block_view();
    for (const std::size_t batch : {1ul, 2ul, 5ul, 9ul}) {
      const Matrix x = random_matrix(batch, cols, 402 + batch);
      std::vector<float> y_batch(batch * rows, -3.0f);
      kern::qgemv_batch(q, x.data(), batch, y_batch.data());
      for (std::size_t i = 0; i < batch; ++i) {
        std::vector<float> y_solo(rows, -5.0f);
        kern::qgemv(q, x.data() + i * cols, y_solo.data());
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(y_batch[i * rows + r], y_solo[r])
              << "bits=" << bits << " group=" << group << " rows=" << rows
              << " cols=" << cols << " batch=" << batch << " request=" << i
              << " row=" << r;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndGroups, QuantizedGemvBatchBitwise,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(std::size_t{8}, std::size_t{16})));

// Odd group lengths leave the split-half fold's high half one column short
// (and, at 2 bits, starting mid-byte), so they take the generic per-group
// body on both the solo and the panel side; the two must still agree
// bitwise, and stay within tolerance of the oracle.
TEST(QuantizedGemvBatch, OddGroupLengthsMatchSoloBitwise) {
  for (const int bits : {2, 4}) {
    for (const std::size_t group : {5ul, 7ul, 10ul, 13ul}) {
      const std::size_t rows = 6, cols = 4 * group;
      const Matrix w = random_matrix(rows, cols, 421 + group);
      const QuantizedLinear packed(w, qspec(bits, group));
      const QBlock q = packed.block_view();
      const std::size_t batch = 3;
      const Matrix x = random_matrix(batch, cols, 422 + group);
      std::vector<float> y_batch(batch * rows, 0.0f);
      kern::qgemv_batch(q, x.data(), batch, y_batch.data());
      for (std::size_t i = 0; i < batch; ++i) {
        std::vector<float> y_solo(rows), want(rows);
        kern::qgemv(q, x.data() + i * cols, y_solo.data());
        ref::qgemv(q, x.data() + i * cols, want.data());
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(y_batch[i * rows + r], y_solo[r])
              << "bits=" << bits << " group=" << group << " request=" << i
              << " row=" << r;
          EXPECT_NEAR(y_solo[r], want[r], qdot_tol(cols));
        }
      }
    }
  }
}

TEST(QuantizedGemvBatch, BitwiseIdenticalAtAnyThreadCount) {
  const std::size_t rows = 37, cols = 96, batch = 5;
  const Matrix w = random_matrix(rows, cols, 411);
  const Matrix x = random_matrix(batch, cols, 412);
  for (const int bits : {2, 4}) {
    const QuantizedLinear packed(w, qspec(bits, 16));
    const QBlock q = packed.block_view();
    ThreadPool::set_global_threads(1);
    std::vector<float> base(batch * rows, 0.0f);
    kern::qgemv_batch(q, x.data(), batch, base.data());
    for (const std::size_t threads : {2ul, 4ul}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> y(batch * rows, 0.0f);
      kern::qgemv_batch(q, x.data(), batch, y.data());
      EXPECT_EQ(y, base) << "bits=" << bits << " " << threads << " threads";
    }
  }
  ThreadPool::set_global_threads(1);
}

TEST(QuantizedGemv, XsumPrecomputationDoesNotChangeAnyBit) {
  // qgemv precomputes per-group sums of x; qdot with xsum == nullptr folds
  // them on the fly in the same fixed order — the two must agree exactly.
  const std::size_t rows = 9, cols = 100;
  const Matrix w = random_matrix(rows, cols, 205);
  const Matrix x = random_matrix(1, cols, 206);
  for (const int bits : {2, 4, 8}) {
    const QuantizedLinear packed(w, qspec(bits, 16));
    const QBlock q = packed.block_view();
    std::vector<float> y(rows);
    kern::qgemv(q, x.data(), y.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(kern::qdot(q, r, x.data(), nullptr), y[r])
          << "bits=" << bits << " row " << r;
    }
  }
}

TEST(NearestInt, RoundsToNearestWithTiesToEven) {
  EXPECT_EQ(kern::nearest_int(0.0f), 0);
  EXPECT_EQ(kern::nearest_int(1.4f), 1);
  EXPECT_EQ(kern::nearest_int(1.6f), 2);
  EXPECT_EQ(kern::nearest_int(-1.4f), -1);
  EXPECT_EQ(kern::nearest_int(-1.6f), -2);
  // Ties go to even (banker's rounding — matches the FMA pipeline's FP
  // rounding mode, unlike lround's away-from-zero).
  EXPECT_EQ(kern::nearest_int(0.5f), 0);
  EXPECT_EQ(kern::nearest_int(1.5f), 2);
  EXPECT_EQ(kern::nearest_int(2.5f), 2);
  EXPECT_EQ(kern::nearest_int(-0.5f), 0);
  EXPECT_EQ(kern::nearest_int(-1.5f), -2);
  // Exact integers across the quantization code range.
  for (int i = -300; i <= 300; ++i) {
    EXPECT_EQ(kern::nearest_int(static_cast<float>(i)), i);
  }
}

}  // namespace
}  // namespace aptq
