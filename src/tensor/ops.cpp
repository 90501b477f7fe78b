#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.hpp"
#include "util/threadpool.hpp"

namespace aptq {

namespace {

// Below this flop count (2·m·n·k) the packing overhead of the tiled path
// outweighs its register reuse; route to the naive reference loops. The
// cutoff is a pure function of the shape, so the dispatch — and thus the
// result — never depends on the thread count.
constexpr std::size_t kTiledMinFlops = 1u << 16;  // ≈ a 32³ product

}  // namespace

void gemm(const Matrix& a, Trans trans_a, const Matrix& b, Trans trans_b,
          Matrix& c, float alpha, float beta) {
  const std::size_t m = trans_a == Trans::no ? a.rows() : a.cols();
  const std::size_t ka = trans_a == Trans::no ? a.cols() : a.rows();
  const std::size_t kb = trans_b == Trans::no ? b.rows() : b.cols();
  const std::size_t n = trans_b == Trans::no ? b.cols() : b.rows();
  APTQ_CHECK(ka == kb, "gemm: inner dimensions mismatch");
  APTQ_CHECK(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");

  if (m == 1) {
    // Dense matvec fast path (decoding projections, per-token heads): the
    // single row of op(A) is contiguous whether A is stored 1×k or k×1.
    if (beta == 0.0f) {
      c.set_zero();
    } else if (beta != 1.0f) {
      scale(c, beta);
    }
    const float* x = a.data();
    std::vector<float> scaled;
    if (alpha != 1.0f) {
      scaled.assign(x, x + ka);
      for (float& v : scaled) {
        v *= alpha;
      }
      x = scaled.data();
    }
    if (trans_b == Trans::no) {
      kern::gemv(x, b.data(), ka, n, c.data());
    } else {
      kern::gemv_t(x, b.data(), ka, n, c.data());
    }
    return;
  }
  if (2 * m * n * ka < kTiledMinFlops) {
    ref::gemm(a, trans_a, b, trans_b, c, alpha, beta);
    return;
  }
  if (beta == 0.0f) {
    c.set_zero();
  } else if (beta != 1.0f) {
    scale(c, beta);
  }
  gemm_tiled(a, trans_a, b, trans_b, c, alpha);
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a, Trans trans_b) {
  const std::size_t m = trans_a == Trans::no ? a.rows() : a.cols();
  const std::size_t n = trans_b == Trans::no ? b.cols() : b.rows();
  Matrix c(m, n);
  gemm(a, trans_a, b, trans_b, c);
  return c;
}

Matrix matmul_rowwise(const Matrix& x, const Matrix& w) {
  APTQ_CHECK(x.cols() == w.rows(), "matmul_rowwise: inner dimension mismatch");
  Matrix out(x.rows(), w.cols());
  kern::gemv_batch(x.data(), w.data(), x.rows(), x.cols(), w.cols(),
                   out.data());
  return out;
}

void axpy(float alpha, const Matrix& x, Matrix& y) {
  APTQ_CHECK(x.rows() == y.rows() && x.cols() == y.cols(),
             "axpy: shape mismatch");
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    yp[i] += alpha * xp[i];
  }
}

void scale(Matrix& m, float alpha) {
  for (float& v : m.flat()) {
    v *= alpha;
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  APTQ_CHECK(a.size() == b.size(), "dot: length mismatch");
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double sum_squares(const Matrix& m) {
  double acc = 0.0;
  for (const float v : m.flat()) {
    acc += static_cast<double>(v) * v;
  }
  return acc;
}

double frobenius_distance(const Matrix& a, const Matrix& b) {
  APTQ_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "frobenius_distance: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a.flat()[i]) - b.flat()[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

void softmax_rows(Matrix& m, long causal_offset) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = m.data() + r * cols;
    const std::size_t limit =
        causal_offset < 0
            ? cols
            : std::min<std::size_t>(cols, r + 1 + static_cast<std::size_t>(
                                                      causal_offset));
    APTQ_CHECK(limit > 0, "softmax_rows: fully masked row");
    float max_v = row[0];
    for (std::size_t c = 1; c < limit; ++c) {
      max_v = std::max(max_v, row[c]);
    }
    float sum = 0.0f;
    for (std::size_t c = 0; c < limit; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < limit; ++c) {
      row[c] *= inv;
    }
    for (std::size_t c = limit; c < cols; ++c) {
      row[c] = 0.0f;
    }
  }
}

void softmax_rows_backward(const Matrix& probs, const Matrix& grad_probs,
                           Matrix& grad_scores) {
  APTQ_CHECK(probs.rows() == grad_probs.rows() &&
                 probs.cols() == grad_probs.cols(),
             "softmax_rows_backward: shape mismatch");
  grad_scores.resize(probs.rows(), probs.cols());
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    const float* p = probs.data() + r * probs.cols();
    const float* dp = grad_probs.data() + r * probs.cols();
    float* ds = grad_scores.data() + r * probs.cols();
    float inner = 0.0f;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      inner += p[c] * dp[c];
    }
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      ds[c] = p[c] * (dp[c] - inner);
    }
  }
}

void rmsnorm_forward(const Matrix& in, std::span<const float> gain, float eps,
                     Matrix& out, std::vector<float>& inv_rms) {
  const std::size_t rows = in.rows();
  const std::size_t cols = in.cols();
  APTQ_CHECK(gain.size() == cols, "rmsnorm_forward: gain size mismatch");
  out.resize(rows, cols);
  inv_rms.assign(rows, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = in.data() + r * cols;
    float* y = out.data() + r * cols;
    float ms = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      ms += x[c] * x[c];
    }
    const float inv = 1.0f / std::sqrt(ms / static_cast<float>(cols) + eps);
    inv_rms[r] = inv;
    for (std::size_t c = 0; c < cols; ++c) {
      y[c] = x[c] * inv * gain[c];
    }
  }
}

void rmsnorm_backward(const Matrix& in, std::span<const float> gain,
                      std::span<const float> inv_rms, const Matrix& grad_out,
                      Matrix& grad_in, std::span<float> grad_gain) {
  const std::size_t rows = in.rows();
  const std::size_t cols = in.cols();
  APTQ_CHECK(grad_out.rows() == rows && grad_out.cols() == cols,
             "rmsnorm_backward: grad shape mismatch");
  APTQ_CHECK(gain.size() == cols && grad_gain.size() == cols &&
                 inv_rms.size() == rows,
             "rmsnorm_backward: size mismatch");
  grad_in.resize(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = in.data() + r * cols;
    const float* dy = grad_out.data() + r * cols;
    float* dx = grad_in.data() + r * cols;
    const float inv = inv_rms[r];
    float inner = 0.0f;  // sum_j dy_j * g_j * x_j
    for (std::size_t c = 0; c < cols; ++c) {
      inner += dy[c] * gain[c] * x[c];
    }
    const float coef = inv * inv * inv * inner / static_cast<float>(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      dx[c] = inv * gain[c] * dy[c] - coef * x[c];
      grad_gain[c] += dy[c] * x[c] * inv;
    }
  }
}

void silu(const Matrix& in, Matrix& out) {
  out.resize(in.rows(), in.cols());
  const float* x = in.data();
  float* y = out.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float s = 1.0f / (1.0f + std::exp(-x[i]));
    y[i] = x[i] * s;
  }
}

void silu_backward(const Matrix& in, const Matrix& grad_out, Matrix& grad_in) {
  APTQ_CHECK(in.rows() == grad_out.rows() && in.cols() == grad_out.cols(),
             "silu_backward: shape mismatch");
  grad_in.resize(in.rows(), in.cols());
  const float* x = in.data();
  const float* dy = grad_out.data();
  float* dx = grad_in.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float s = 1.0f / (1.0f + std::exp(-x[i]));
    // d/dx [x * s(x)] = s + x * s * (1 - s)
    dx[i] = dy[i] * (s + x[i] * s * (1.0f - s));
  }
}

void rope_apply(Matrix& x, std::size_t head_dim, float theta_base,
                bool inverse, std::size_t position_offset) {
  APTQ_CHECK(head_dim >= 2 && head_dim % 2 == 0,
             "rope_apply: head_dim must be even and >= 2");
  APTQ_CHECK(x.cols() % head_dim == 0,
             "rope_apply: cols must be a multiple of head_dim");
  const std::size_t heads = x.cols() / head_dim;
  const std::size_t half = head_dim / 2;
  const float sign = inverse ? -1.0f : 1.0f;
  // The frequencies depend only on the head geometry: one pow each, hoisted
  // out of the row loop (previously recomputed rows×half times). Per row,
  // the position's cos/sin pairs go into O(half) tables reused across every
  // head — same float expressions as the per-element originals, so results
  // are bitwise identical (pinned by tensor_test.cpp).
  std::vector<float> freq(half), cos_tab(half), sin_tab(half);
  for (std::size_t i = 0; i < half; ++i) {
    freq[i] = std::pow(theta_base, -2.0f * static_cast<float>(i) /
                                       static_cast<float>(head_dim));
  }
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const float pos = static_cast<float>(t + position_offset);
    for (std::size_t i = 0; i < half; ++i) {
      const float angle = pos * freq[i];
      cos_tab[i] = std::cos(angle);
      sin_tab[i] = sign * std::sin(angle);
    }
    float* row = x.data() + t * x.cols();
    for (std::size_t h = 0; h < heads; ++h) {
      float* head = row + h * head_dim;
      for (std::size_t i = 0; i < half; ++i) {
        float* pair = head + 2 * i;
        const float x0 = pair[0];
        const float x1 = pair[1];
        pair[0] = cos_tab[i] * x0 - sin_tab[i] * x1;
        pair[1] = sin_tab[i] * x0 + cos_tab[i] * x1;
      }
    }
  }
}

void rope_apply_rows(Matrix& x, std::size_t head_dim,
                     std::span<const std::size_t> positions,
                     float theta_base) {
  APTQ_CHECK(head_dim >= 2 && head_dim % 2 == 0,
             "rope_apply_rows: head_dim must be even and >= 2");
  APTQ_CHECK(x.cols() % head_dim == 0,
             "rope_apply_rows: cols must be a multiple of head_dim");
  APTQ_CHECK(positions.size() == x.rows(),
             "rope_apply_rows: one position per row required");
  const std::size_t heads = x.cols() / head_dim;
  const std::size_t half = head_dim / 2;
  // Same hoisted frequency/cos/sin tables — and the same per-element
  // expressions — as rope_apply, so each row matches a solo rope_apply at
  // position_offset = positions[t] bit-for-bit (pinned by tensor_test).
  std::vector<float> freq(half), cos_tab(half), sin_tab(half);
  for (std::size_t i = 0; i < half; ++i) {
    freq[i] = std::pow(theta_base, -2.0f * static_cast<float>(i) /
                                       static_cast<float>(head_dim));
  }
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const float pos = static_cast<float>(positions[t]);
    for (std::size_t i = 0; i < half; ++i) {
      const float angle = pos * freq[i];
      cos_tab[i] = std::cos(angle);
      sin_tab[i] = std::sin(angle);
    }
    float* row = x.data() + t * x.cols();
    for (std::size_t h = 0; h < heads; ++h) {
      float* head = row + h * head_dim;
      for (std::size_t i = 0; i < half; ++i) {
        float* pair = head + 2 * i;
        const float x0 = pair[0];
        const float x1 = pair[1];
        pair[0] = cos_tab[i] * x0 - sin_tab[i] * x1;
        pair[1] = sin_tab[i] * x0 + cos_tab[i] * x1;
      }
    }
  }
}

double diag_mean(const Matrix& m) {
  APTQ_CHECK(m.rows() == m.cols() && m.rows() > 0,
             "diag_mean: square non-empty matrix required");
  return trace(m) / static_cast<double>(m.rows());
}

double trace(const Matrix& m) {
  APTQ_CHECK(m.rows() == m.cols(), "trace: square matrix required");
  double acc = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    acc += m(i, i);
  }
  return acc;
}

}  // namespace aptq
