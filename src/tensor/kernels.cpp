#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

// GCC and Clang vector extensions give the micro-kernel register-resident
// 4-wide accumulators on the baseline ISA (no intrinsics headers, no
// -march requirement). Plain fixed-count float arrays express the same
// computation but GCC 12's SLP vectorizer spills them to the stack behind a
// shuffle storm, costing ~5x; the extension types pin the intended codegen.
#if defined(__GNUC__) || defined(__clang__)
#define APTQ_KERNEL_VEC_EXT 1
#endif

namespace aptq {

namespace {

constexpr std::size_t MR = kGemmMR;
constexpr std::size_t KC = kGemmKC;
constexpr std::size_t MC = kGemmMC;
static_assert(MC % MR == 0, "parallel chunk must hold whole register tiles");

#ifdef APTQ_KERNEL_VEC_EXT
// Vector width tracks the compile-time ISA: 8 lanes when AVX is enabled
// (APTQ_NATIVE on an AVX host), 4 lanes on the baseline target. Within one
// binary the fold order is fixed, so the determinism contract holds;
// different builds may differ in the low bits (tolerance-covered vs ref).
#if defined(__AVX__)
constexpr std::size_t kVecLanes = 8;
#else
constexpr std::size_t kVecLanes = 4;
#endif
typedef float vNf __attribute__((vector_size(kVecLanes * sizeof(float))));
// Code bytes and their i32 widening, for the dequant-dot kernels.
typedef std::uint8_t vNu8 __attribute__((vector_size(kVecLanes)));
typedef std::int32_t vNi32
    __attribute__((vector_size(kVecLanes * sizeof(std::int32_t))));
// The B panel always spans two vectors: MR×2 = 12 accumulator registers —
// the full baseline SSE file, and enough independent FMA chains to cover
// the FMA latency on AVX cores.
constexpr std::size_t NR = 2 * kVecLanes;
static_assert(NR % kGemmNR == 0 || kGemmNR % NR == 0,
              "panel width must stay tile-compatible");
#else
constexpr std::size_t NR = kGemmNR;
#endif

// Logical element view of op(M) without materializing the transpose.
struct OpView {
  const float* data;
  std::size_t ld;  // leading dimension of the stored matrix
  bool trans;      // logical (i, j) reads data[j*ld + i] when set
  float at(std::size_t i, std::size_t j) const {
    return trans ? data[j * ld + i] : data[i * ld + j];
  }
};

// Pack the k-slice [p0, p0+kc) of op(B) (k × n) into NR-wide panels:
// panel jp occupies bp[jp*kc*NR ..), row p of it holding the NR (zero-padded
// past n) consecutive columns — the unit-stride B feed of the micro-kernel.
void pack_b(const OpView& b, std::size_t p0, std::size_t kc, std::size_t n,
            float* bp) {
  const std::size_t npanels = (n + NR - 1) / NR;
  for (std::size_t jp = 0; jp < npanels; ++jp) {
    const std::size_t j0 = jp * NR;
    const std::size_t jn = std::min(NR, n - j0);
    float* dst = bp + jp * kc * NR;
    if (!b.trans) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b.data + (p0 + p) * b.ld + j0;
        float* row = dst + p * NR;
        for (std::size_t j = 0; j < jn; ++j) {
          row[j] = src[j];
        }
        for (std::size_t j = jn; j < NR; ++j) {
          row[j] = 0.0f;
        }
      }
    } else {
      // op(B)(p, j) = B(j, p): gather columns of the stored matrix.
      for (std::size_t j = 0; j < jn; ++j) {
        const float* src = b.data + (j0 + j) * b.ld + p0;
        for (std::size_t p = 0; p < kc; ++p) {
          dst[p * NR + j] = src[p];
        }
      }
      for (std::size_t j = jn; j < NR; ++j) {
        for (std::size_t p = 0; p < kc; ++p) {
          dst[p * NR + j] = 0.0f;
        }
      }
    }
  }
}

// Pack one MR-row tile of op(A) (m × k) over the k-slice [p0, p0+kc):
// ap[p*MR + i] = op(A)(i0+i, p0+p), zero-padded past mr rows.
void pack_a(const OpView& a, std::size_t i0, std::size_t mr, std::size_t p0,
            std::size_t kc, float* ap) {
  for (std::size_t i = 0; i < mr; ++i) {
    if (!a.trans) {
      const float* src = a.data + (i0 + i) * a.ld + p0;
      for (std::size_t p = 0; p < kc; ++p) {
        ap[p * MR + i] = src[p];
      }
    } else {
      const float* src = a.data + p0 * a.ld + (i0 + i);
      for (std::size_t p = 0; p < kc; ++p) {
        ap[p * MR + i] = src[p * a.ld];
      }
    }
  }
  for (std::size_t i = mr; i < MR; ++i) {
    for (std::size_t p = 0; p < kc; ++p) {
      ap[p * MR + i] = 0.0f;
    }
  }
}

// The compute core shared by both store variants: the MR×NR accumulator
// block over a packed A tile and a packed B panel, written out to `accf`.
// Each k-step multiplies one broadcast A lane against the NR-wide B row;
// the MR·NR/kVecLanes accumulator vectors stay in the vector register file
// (12 of 16 on baseline SSE).
#ifdef APTQ_KERNEL_VEC_EXT
void micro_accumulate(std::size_t kc, const float* ap, const float* bp,
                      float accf[MR][NR]) {
  constexpr std::size_t NV = NR / kVecLanes;
  vNf acc[MR][NV] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    vNf bv[NV];
    std::memcpy(bv, bp + p * NR, sizeof bv);
    const float* a = ap + p * MR;
    for (std::size_t i = 0; i < MR; ++i) {
      const vNf ai = vNf{} + a[i];  // scalar-vector op broadcasts the lane
      for (std::size_t v = 0; v < NV; ++v) {
        acc[i][v] += ai * bv[v];
      }
    }
  }
  std::memcpy(accf, acc, sizeof(vNf) * MR * NV);
}
#else
// Portable fallback: same fold order, plain arrays.
void micro_accumulate(std::size_t kc, const float* ap, const float* bp,
                      float accf[MR][NR]) {
  float acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t j = 0; j < NR; ++j) {
        acc[i][j] += a[i] * b[j];
      }
    }
  }
  std::memcpy(accf, acc, sizeof acc);
}
#endif

// Stores C += alpha·acc for the valid (mr × nr) corner of one tile.
void micro_tile(std::size_t kc, const float* ap, const float* bp, float alpha,
                float* c, std::size_t ldc, std::size_t mr, std::size_t nr) {
  float acc[MR][NR];
  micro_accumulate(kc, ap, bp, acc);
  if (mr == MR && nr == NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < NR; ++j) {
        crow[j] += alpha * acc[i][j];
      }
    }
  } else {
    for (std::size_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] += alpha * acc[i][j];
      }
    }
  }
}

// micro_tile for diagonal-crossing SYRK tiles: same compute, but the store
// keeps only the upper-triangle entries (absolute column >= absolute row).
void micro_tile_upper(std::size_t kc, const float* ap, const float* bp,
                      float alpha, float* c, std::size_t ldc, std::size_t i0,
                      std::size_t j0, std::size_t mr, std::size_t nr) {
  float acc[MR][NR];
  micro_accumulate(kc, ap, bp, acc);
  for (std::size_t i = 0; i < mr; ++i) {
    const std::size_t row = i0 + i;
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      if (j0 + j >= row) {
        crow[j] += alpha * acc[i][j];
      }
    }
  }
}

}  // namespace

void gemm_tiled(const Matrix& a, Trans trans_a, const Matrix& b,
                Trans trans_b, Matrix& c, float alpha) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = trans_a == Trans::no ? a.cols() : a.rows();
  if (m == 0 || n == 0 || k == 0) {
    return;
  }
  const OpView av{a.data(), a.cols(), trans_a == Trans::yes};
  const OpView bv{b.data(), b.cols(), trans_b == Trans::yes};
  const std::size_t npanels = (n + NR - 1) / NR;
  const std::size_t mtiles = (m + MR - 1) / MR;
  std::vector<float> bpack(KC * npanels * NR);
  // k-slices accumulate into C in ascending order on every path; row-tile
  // chunks depend only on the shape, so results are bitwise identical at
  // any thread count.
  for (std::size_t p0 = 0; p0 < k; p0 += KC) {
    const std::size_t kc = std::min(KC, k - p0);
    pack_b(bv, p0, kc, n, bpack.data());
    parallel_for(0, mtiles, MC / MR, [&](std::size_t t0, std::size_t t1) {
      std::vector<float> apack(kc * MR);
      for (std::size_t t = t0; t < t1; ++t) {
        const std::size_t i0 = t * MR;
        const std::size_t mr = std::min(MR, m - i0);
        pack_a(av, i0, mr, p0, kc, apack.data());
        for (std::size_t jp = 0; jp < npanels; ++jp) {
          const std::size_t j0 = jp * NR;
          micro_tile(kc, apack.data(), bpack.data() + jp * kc * NR, alpha,
                     c.data() + i0 * n + j0, n, mr,
                     std::min(NR, n - j0));
        }
      }
    });
  }
}

void syrk_upper(const Matrix& x, std::span<const float> gamma, float alpha,
                Matrix& c) {
  const std::size_t tokens = x.rows();
  const std::size_t d = x.cols();
  APTQ_CHECK(c.rows() == d && c.cols() == d, "syrk_upper: C shape mismatch");
  APTQ_CHECK(gamma.empty() || gamma.size() == tokens,
             "syrk_upper: gamma length mismatch");
  if (tokens == 0 || d == 0) {
    return;
  }
  // op(A) = (diag(γ)X)ᵀ and op(B) = X feed the same NN micro-kernel as
  // gemm_tiled; γ is folded in while packing A, matching the reference
  // fold h(i, j) += (γ_t·x_ti)·x_tj. Only tiles touching the upper
  // triangle run, and diagonal-crossing tiles mask their store.
  const std::size_t npanels = (d + NR - 1) / NR;
  const std::size_t mtiles = (d + MR - 1) / MR;
  std::vector<float> bpack(KC * npanels * NR);
  const OpView bv{x.data(), d, false};
  for (std::size_t p0 = 0; p0 < tokens; p0 += KC) {
    const std::size_t kc = std::min(KC, tokens - p0);
    pack_b(bv, p0, kc, d, bpack.data());
    // Small grain (2 tiles): upper-triangle tiles make early rows heavier,
    // so finer chunks let the pool balance the load.
    parallel_for(0, mtiles, 2, [&](std::size_t t0, std::size_t t1) {
      std::vector<float> apack(kc * MR);
      for (std::size_t t = t0; t < t1; ++t) {
        const std::size_t i0 = t * MR;
        const std::size_t mr = std::min(MR, d - i0);
        // Pack γ-scaled columns of X: ap[p*MR + i] = γ_{p0+p} · X(p0+p, i0+i).
        for (std::size_t p = 0; p < kc; ++p) {
          const float g = gamma.empty() ? 1.0f : gamma[p0 + p];
          const float* src = x.data() + (p0 + p) * d + i0;
          float* dst = apack.data() + p * MR;
          for (std::size_t i = 0; i < MR; ++i) {
            dst[i] = i < mr ? g * src[i] : 0.0f;
          }
        }
        // Panels strictly below the diagonal (j0 + NR <= i0) are skipped.
        for (std::size_t jp = i0 / NR; jp < npanels; ++jp) {
          const std::size_t j0 = jp * NR;
          const std::size_t nr = std::min(NR, d - j0);
          float* ctile = c.data() + i0 * d + j0;
          if (j0 >= i0 + mr) {
            micro_tile(kc, apack.data(), bpack.data() + jp * kc * NR, alpha,
                       ctile, d, mr, nr);
          } else {
            micro_tile_upper(kc, apack.data(), bpack.data() + jp * kc * NR,
                             alpha, ctile, d, i0, j0, mr, nr);
          }
        }
      }
    });
  }
}

void symv_upper(const Matrix& h, std::span<const float> x,
                std::span<float> y) {
  const std::size_t d = h.rows();
  APTQ_CHECK(h.cols() == d, "symv_upper: square matrix required");
  APTQ_CHECK(x.size() == d && y.size() == d, "symv_upper: length mismatch");
  std::fill(y.begin(), y.end(), 0.0f);
  // One sweep over the diagonal + strict upper triangle: row i contributes
  // h_ij·x_j to y_i (gather) and h_ij·x_i to y_j (scatter), both
  // unit-stride.
  for (std::size_t i = 0; i < d; ++i) {
    const float* row = h.data() + i * d;
    const float xi = x[i];
    float acc = row[i] * xi;
    float* yp = y.data();
    for (std::size_t j = i + 1; j < d; ++j) {
      acc += row[j] * x[j];
      yp[j] += row[j] * xi;
    }
    yp[i] += acc;
  }
}

namespace kern {

void gemv(const float* x, const float* b, std::size_t k, std::size_t n,
          float* y) {
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const float x0 = x[p];
    const float x1 = x[p + 1];
    const float x2 = x[p + 2];
    const float x3 = x[p + 3];
    const float* b0 = b + p * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (std::size_t j = 0; j < n; ++j) {
      y[j] += x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
    }
  }
  for (; p < k; ++p) {
    const float xp = x[p];
    const float* br = b + p * n;
    for (std::size_t j = 0; j < n; ++j) {
      y[j] += xp * br[j];
    }
  }
}

void gemv_t(const float* x, const float* b, std::size_t k, std::size_t n,
            float* y) {
  for (std::size_t j = 0; j < n; ++j) {
    y[j] += dot4(x, b + j * k, k);
  }
}

void gemv_batch(const float* x, const float* b, std::size_t batch,
                std::size_t k, std::size_t n, float* y) {
  if (batch == 1) {
    gemv(x, b, k, n, y);
    return;
  }
  // Column strips keep the four active B rows of a k-block L1-resident
  // while the batch loop reuses them; the per-element fold (4-way k
  // blocking, ascending j) is exactly gemv()'s, so every output row is
  // bitwise identical to a solo gemv of that input. Strip boundaries are a
  // pure function of n — never of the thread count.
  constexpr std::size_t kStrip = 64;
  const std::size_t strips = (n + kStrip - 1) / kStrip;
  const auto run = [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const std::size_t j0 = s * kStrip;
      const std::size_t j1 = std::min(n, j0 + kStrip);
      std::size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (std::size_t i = 0; i < batch; ++i) {
          const float* xi = x + i * k;
          const float x0 = xi[p];
          const float x1 = xi[p + 1];
          const float x2 = xi[p + 2];
          const float x3 = xi[p + 3];
          float* yi = y + i * n;
          for (std::size_t j = j0; j < j1; ++j) {
            yi[j] += x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
          }
        }
      }
      for (; p < k; ++p) {
        const float* br = b + p * n;
        for (std::size_t i = 0; i < batch; ++i) {
          const float xp = x[i * k + p];
          float* yi = y + i * n;
          for (std::size_t j = j0; j < j1; ++j) {
            yi[j] += xp * br[j];
          }
        }
      }
    }
  };
  // Skip pool dispatch when the pool cannot realize parallelism (more pool
  // threads than cores): the serial loop runs the identical chunks in
  // ascending order, so the result is unchanged either way.
  if (strips > 1 && ThreadPool::effective_global_threads() > 1) {
    parallel_for(0, strips, 1, run);
  } else {
    run(0, strips);
  }
}

void rank_update(float* w, std::size_t n, const float* err, std::size_t r,
                 const float* u, std::size_t ldu) {
  std::size_t j = 0;
  for (; j + 4 <= r; j += 4) {
    const float e0 = err[j];
    const float e1 = err[j + 1];
    const float e2 = err[j + 2];
    const float e3 = err[j + 3];
    const float* u0 = u + j * ldu;
    const float* u1 = u0 + ldu;
    const float* u2 = u1 + ldu;
    const float* u3 = u2 + ldu;
    for (std::size_t c = 0; c < n; ++c) {
      w[c] -= e0 * u0[c] + e1 * u1[c] + e2 * u2[c] + e3 * u3[c];
    }
  }
  for (; j < r; ++j) {
    const float e = err[j];
    const float* ur = u + j * ldu;
    for (std::size_t c = 0; c < n; ++c) {
      w[c] -= e * ur[c];
    }
  }
}

float dot4(const float* a, const float* b, std::size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float tail = 0.0f;
  for (; i < n; ++i) {
    tail += a[i] * b[i];
  }
  return ((s0 + s1) + (s2 + s3)) + tail;
}

// The packed dequant-dot family below promises batched == solo bitwise
// (qdot_row_panel/panel2 replay qdot_row's expression trees). That holds only
// if those trees round alike, but FMA contraction may fuse them differently
// per call site, so on FMA targets it is off for this section; the GEMM/SYRK
// kernels above keep it. The baseline ISA has no FMA, so its code is
// unaffected.
#if defined(__FMA__) && defined(__GNUC__) && !defined(__clang__)
#define APTQ_PACKED_NO_CONTRACT
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

namespace {

// Split-half fold. The 4-bit and 2-bit kernels fold every group as two
// halves, columns [0, half) and [half, len) with half = ceil(group_len / 2),
// each half on its own accumulator chain. For 4-bit blocks the halves are
// the storage order itself (byte t holds column t in its low nibble and
// column half + t in its high nibble, so half == bytes_per_group). 2-bit
// blocks store their columns in order, four to a byte; for them the halves
// are only a fold order, which gives 2-bit the same chain count as 4-bit
// and lets both widths share the prescaled-panel fold (qdot_row_panel).
inline std::size_t half_len(const QBlock& q) { return (q.group_len + 1) / 2; }

// Geometry of one group g of a blocked row: `len` valid codes, of which
// `lo_n` sit in the low half (at 8 bits: all of them) and `hi_n` in the
// high half.
struct GroupShape {
  std::size_t len;
  std::size_t lo_n;
  std::size_t hi_n;
};

inline GroupShape group_shape(const QBlock& q, std::size_t g) {
  const std::size_t start = g * q.group_len;
  const std::size_t len = std::min(q.group_len, q.cols - start);
  if (q.bits == 8) {
    return {len, len, 0};
  }
  const std::size_t lo_n = std::min(len, half_len(q));
  return {len, lo_n, len - lo_n};
}

// Code of column k in a 2-bit block: four codes per byte, little-endian.
inline std::uint32_t code2(const std::uint8_t* b, std::size_t k) {
  return (b[k / 4] >> (2 * (k % 4))) & 3u;
}

// Code access for the split-half widths, for a group whose code bytes start
// at b: lo(b, half, t) is the code of column t, hi(b, half, t) the code of
// column half + t, and widen() yields the kVecLanes codes at both positions
// as unscaled floats. Every widening is exact (small integers), so a vector
// lane and a scalar convert of the same code are the same float.
template <int kBits>
struct SplitCodes;

template <>
struct SplitCodes<4> {
  static std::uint32_t lo(const std::uint8_t* b, std::size_t, std::size_t t) {
    return b[t] & 0x0Fu;
  }
  static std::uint32_t hi(const std::uint8_t* b, std::size_t, std::size_t t) {
    return static_cast<std::uint32_t>(b[t] >> 4);
  }
#ifdef APTQ_KERNEL_VEC_EXT
  // Both halves share each byte load. Codes widen u8 -> i32 -> f32 in
  // single-use convert chains, with the nibble mask/shift applied in the u8
  // domain: GCC folds each chain to pmovzx + cvtdq2ps. A direct u8 -> f32
  // convertvector, or widening once and reusing the i32 vector for both
  // nibbles, scalarizes into per-lane pextrb/pinsrd/cvtsi2ss storms under
  // -march=native.
  static void widen(const std::uint8_t* b, std::size_t, std::size_t j,
                    vNf& lo, vNf& hi) {
    vNu8 bytes;
    std::memcpy(&bytes, b + j, sizeof bytes);
    lo = __builtin_convertvector(__builtin_convertvector(bytes & 0x0F, vNi32),
                                 vNf);
    hi = __builtin_convertvector(__builtin_convertvector(bytes >> 4, vNi32),
                                 vNf);
  }
#endif
};

#ifdef APTQ_KERNEL_VEC_EXT
// Byte -> four 2-bit codes, lowest bits first, as floats. The baseline SSE2
// target has no per-lane variable shift, so one 16-byte load from this 4 KiB
// (L1-resident) table is the cheapest exact widening of four columns.
struct Code2Table {
  alignas(16) float v[256][4];
};

constexpr Code2Table make_code2_table() {
  Code2Table t{};
  for (int b = 0; b < 256; ++b) {
    for (int i = 0; i < 4; ++i) {
      t.v[b][i] = static_cast<float>((b >> (2 * i)) & 3);
    }
  }
  return t;
}

constexpr Code2Table kCode2 = make_code2_table();
#endif

template <>
struct SplitCodes<2> {
  static std::uint32_t lo(const std::uint8_t* b, std::size_t, std::size_t t) {
    return code2(b, t);
  }
  static std::uint32_t hi(const std::uint8_t* b, std::size_t half,
                          std::size_t t) {
    return code2(b, half + t);
  }
#ifdef APTQ_KERNEL_VEC_EXT
  // kVecLanes codes from column k on.
  static vNf widen_at(const std::uint8_t* b, std::size_t k) {
    vNf v;
    if (k % 4 == 0) {
      for (std::size_t c = 0; c < kVecLanes / 4; ++c) {
        std::memcpy(reinterpret_cast<char*>(&v) + c * sizeof kCode2.v[0],
                    kCode2.v[b[k / 4 + c]], sizeof kCode2.v[0]);
      }
    } else {
      // A high half that starts mid-byte: odd group lengths only.
      for (std::size_t l = 0; l < kVecLanes; ++l) {
        v[l] = static_cast<float>(code2(b, k + l));
      }
    }
    return v;
  }
  static void widen(const std::uint8_t* b, std::size_t half, std::size_t j,
                    vNf& lo, vNf& hi) {
    lo = widen_at(b, j);
    hi = widen_at(b, half + j);
  }
#endif
};

#ifdef APTQ_KERNEL_VEC_EXT
// True when every full group of a split-half width is two halves of whole
// vectors: the shape the constant-trip-count fast paths below handle. An
// odd group_len leaves the high half one column short and takes the
// generic body instead.
inline bool split_fast_path(const QBlock& q) {
  const std::size_t half = half_len(q);
  return q.bits != 8 && q.group_len == 2 * half && half % kVecLanes == 0;
}
#endif

// Fused dequant-dot over one row. `xsum` must hold the per-group sums of x
// (callers precompute via group_sums; the fold there matches the order an
// on-the-fly fold would use, so precomputation never changes a bit).
//
// Each product applies the group scale to the code before touching x —
// (scale·code)·x, the same rounding a materialized dequantize would give —
// rather than scaling the group's partial dot afterwards. That placement
// is what lets the batched path store scale·code in its row panel once and
// drop the scale multiply from the per-input loop entirely (see
// unpack_codes_row / qdot_row_panel).
//
// The group fold order is fixed (groups in ascending pairs, vector body
// then scalar remainder, even/odd accumulator chains merged at the end),
// so a given build is deterministic; vector and portable builds
// reassociate differently (tolerance-covered vs aptq::ref).
//
// Two structural choices carry the performance:
//   * Two-group unroll. One accumulator chain serializes the loop on FMA
//     latency -- a group is 16 weights at g16, so a single `vacc +=` per
//     group caps the row at ~4 weights/cycle regardless of vector width.
//     Group pairs feed disjoint even/odd accumulators, keeping two groups'
//     FMAs in flight. The accumulators must stay plain locals: indexing a
//     vNf acc[2] by group parity spills the array to the stack, 2x slower.
//   * A constant-trip-count fast path for full split-half groups. The
//     generic per-group body re-derives its bounds (group_shape) and keeps
//     scalar remainder loops alive -- ~20 cycles of bookkeeping per group
//     against ~6 cycles of vector math. When both halves of a group are a
//     whole number of vector loads, all of that folds away.
template <int kBits>
float qdot_row_impl(const QBlock& q, const std::uint8_t* codes,
                    const float* scale, const float* bias, const float* x,
                    const float* xsum) {
  const std::size_t nb = q.bytes_per_group;
  [[maybe_unused]] const std::size_t half = half_len(q);
#ifdef APTQ_KERNEL_VEC_EXT
  vNf vlo0 = {};
  vNf vhi0 = {};
  vNf vlo1 = {};
  vNf vhi1 = {};
#else
  int vlo0 = 0, vhi0 = 0, vlo1 = 0, vhi1 = 0;  // unused placeholders
  (void)vlo0;
  (void)vhi0;
  (void)vlo1;
  (void)vhi1;
#endif
  float sb0 = 0.0f;
  float sb1 = 0.0f;
  std::size_t g = 0;
#ifdef APTQ_KERNEL_VEC_EXT
  if constexpr (kBits != 8) {
    if (split_fast_path(q)) {
      // Every group except a ragged tail is full: len == group_len, both
      // halves span exactly `half` columns.
      const std::size_t full =
          q.cols % q.group_len == 0 ? q.groups : q.groups - 1;
      // kSingleVec specializes the dominant shape (one vector per half,
      // e.g. g16 at 8 lanes): the inner j-loop folds to straight-line
      // code. Same arithmetic, same fold order either way.
      const auto pair_loop = [&]<bool kSingleVec>() {
        for (; g + 2 <= full; g += 2) {
          const std::uint8_t* b0 = codes + g * nb;
          const std::uint8_t* b1 = b0 + nb;
          const float* xg0 = x + g * q.group_len;
          const float* xg1 = xg0 + q.group_len;
          const vNf dv0 = vNf{} + scale[g];
          const vNf dv1 = vNf{} + scale[g + 1];
          for (std::size_t j = 0; j < (kSingleVec ? kVecLanes : half);
               j += kVecLanes) {
            vNf lo0, hi0, lo1, hi1;
            SplitCodes<kBits>::widen(b0, half, j, lo0, hi0);
            SplitCodes<kBits>::widen(b1, half, j, lo1, hi1);
            vNf xlo0, xhi0, xlo1, xhi1;
            std::memcpy(&xlo0, xg0 + j, sizeof xlo0);
            std::memcpy(&xhi0, xg0 + half + j, sizeof xhi0);
            std::memcpy(&xlo1, xg1 + j, sizeof xlo1);
            std::memcpy(&xhi1, xg1 + half + j, sizeof xhi1);
            vlo0 += (dv0 * lo0) * xlo0;
            vhi0 += (dv0 * hi0) * xhi0;
            vlo1 += (dv1 * lo1) * xlo1;
            vhi1 += (dv1 * hi1) * xhi1;
          }
          sb0 += bias[g] * xsum[g];
          sb1 += bias[g + 1] * xsum[g + 1];
        }
      };
      if (half == kVecLanes) {
        pair_loop.template operator()<true>();
      } else {
        pair_loop.template operator()<false>();
      }
    }
  }
#endif
  // Generic per-group body: ragged tails, odd group geometries, and the
  // 8-bit layout. Chains alternate with the caller loop's parity so the
  // fold order stays a pure function of the shape.
  const auto do_group = [&](std::size_t gi, auto& vlo_acc, auto& vhi_acc,
                            float& sbacc) {
    const auto [len, lo_n, hi_n] = group_shape(q, gi);
    const std::uint8_t* b = codes + gi * nb;
    const float* xg = x + gi * q.group_len;
    const float d = scale[gi];
    std::size_t j = 0;
    float s = 0.0f;
    if constexpr (kBits == 8) {  // one code per byte, in order
#ifdef APTQ_KERNEL_VEC_EXT
      const vNf dv = vNf{} + d;
      for (; j + kVecLanes <= len; j += kVecLanes) {
        vNu8 bytes;
        std::memcpy(&bytes, b + j, sizeof bytes);
        vNf xv;
        std::memcpy(&xv, xg + j, sizeof xv);
        vlo_acc += (dv * __builtin_convertvector(
                             __builtin_convertvector(bytes, vNi32), vNf)) *
                   xv;
      }
#endif
      for (std::size_t t = j; t < len; ++t) {
        s += xg[t] * (d * static_cast<float>(b[t]));
      }
    } else {
#ifdef APTQ_KERNEL_VEC_EXT
      const vNf dv = vNf{} + d;
      for (; j + kVecLanes <= hi_n; j += kVecLanes) {
        vNf lo, hi;
        SplitCodes<kBits>::widen(b, half, j, lo, hi);
        vNf xlo, xhi;
        std::memcpy(&xlo, xg + j, sizeof xlo);
        std::memcpy(&xhi, xg + half + j, sizeof xhi);
        vlo_acc += (dv * lo) * xlo;
        vhi_acc += (dv * hi) * xhi;
      }
#endif
      for (std::size_t t = j; t < hi_n; ++t) {
        s += xg[half + t] *
             (d * static_cast<float>(SplitCodes<kBits>::hi(b, half, t)));
      }
      for (std::size_t t = j; t < lo_n; ++t) {
        s += xg[t] *
             (d * static_cast<float>(SplitCodes<kBits>::lo(b, half, t)));
      }
    }
    sbacc += s + bias[gi] * xsum[gi];
  };
  for (; g + 2 <= q.groups; g += 2) {
    do_group(g, vlo0, vhi0, sb0);
    do_group(g + 1, vlo1, vhi1, sb1);
  }
  if (g < q.groups) {
    do_group(g, vlo0, vhi0, sb0);
  }
  float sacc = sb0 + sb1;
#ifdef APTQ_KERNEL_VEC_EXT
  const vNf vsum = (vlo0 + vlo1) + (vhi0 + vhi1);
  for (std::size_t v = 0; v < kVecLanes; ++v) {
    sacc += vsum[v];
  }
#endif
  return sacc;
}

float qdot_row(const QBlock& q, const std::uint8_t* codes, const float* scale,
               const float* bias, const float* x, const float* xsum) {
  switch (q.bits) {
    case 2:
      return qdot_row_impl<2>(q, codes, scale, bias, x, xsum);
    case 4:
      return qdot_row_impl<4>(q, codes, scale, bias, x, xsum);
    default:
      return qdot_row_impl<8>(q, codes, scale, bias, x, xsum);
  }
}

// Widen one blocked row's codes to prescaled floats in x order:
// cw[pos] = scale[g] * float(code at column pos), resolving the block
// layout. Code widening is exact and qdot_row's fold multiplies each code
// by its group scale before touching x, so a stored (scale·code) product
// is bit-for-bit the float the dequant-dot computes in flight — which is
// what lets qdot_row_panel below replay qdot_row's fold from this panel
// with the scale multiply already paid. The group bias stays out of the
// panel (it rides the xsum term in the dot). `cw` must hold
// groups·group_len floats (the ragged-tail pad is never read by the dot,
// but keeping the stride uniform keeps indexing trivial).
template <int kBits>
void unpack_codes_row_impl(const QBlock& q, const std::uint8_t* codes,
                           const float* scale, float* cw) {
  const std::size_t nb = q.bytes_per_group;
  [[maybe_unused]] const std::size_t half = half_len(q);
  std::size_t g = 0;
#ifdef APTQ_KERNEL_VEC_EXT
  // The unpack is the per-row cost the whole panel design amortizes, so it
  // must not be the slow part: widen with the same exact vector widening
  // the in-flight dot uses instead of one scalar convert per weight. The
  // stored value is the elementwise product scale·float(code) either way,
  // so this path never changes a panel bit.
  if constexpr (kBits != 8) {
    if (split_fast_path(q)) {
      const std::size_t full =
          q.cols % q.group_len == 0 ? q.groups : q.groups - 1;
      for (; g < full; ++g) {
        const std::uint8_t* b = codes + g * nb;
        float* wg = cw + g * q.group_len;
        const vNf dv = vNf{} + scale[g];
        for (std::size_t j = 0; j < half; j += kVecLanes) {
          vNf lo, hi;
          SplitCodes<kBits>::widen(b, half, j, lo, hi);
          const vNf wlo = dv * lo;
          const vNf whi = dv * hi;
          std::memcpy(wg + j, &wlo, sizeof wlo);
          std::memcpy(wg + half + j, &whi, sizeof whi);
        }
      }
    }
  }
#endif
  // Scalar per-group body: ragged tails, odd geometries, 8-bit.
  for (; g < q.groups; ++g) {
    const auto [len, lo_n, hi_n] = group_shape(q, g);
    const std::uint8_t* b = codes + g * nb;
    float* wg = cw + g * q.group_len;
    const float d = scale[g];
    if constexpr (kBits == 8) {
      for (std::size_t t = 0; t < len; ++t) {
        wg[t] = d * static_cast<float>(b[t]);
      }
    } else {
      for (std::size_t t = 0; t < lo_n; ++t) {
        wg[t] = d * static_cast<float>(SplitCodes<kBits>::lo(b, half, t));
      }
      for (std::size_t t = 0; t < hi_n; ++t) {
        wg[half + t] =
            d * static_cast<float>(SplitCodes<kBits>::hi(b, half, t));
      }
    }
  }
}

void unpack_codes_row(const QBlock& q, const std::uint8_t* codes,
                      const float* scale, float* cw) {
  switch (q.bits) {
    case 2:
      return unpack_codes_row_impl<2>(q, codes, scale, cw);
    case 4:
      return unpack_codes_row_impl<4>(q, codes, scale, cw);
    default:
      return unpack_codes_row_impl<8>(q, codes, scale, cw);
  }
}

// qdot_row with the code bytes replaced by the prescaled float panel of
// unpack_codes_row. Same accumulator structure, same group pairing, same
// vector/scalar split, same final reduction — every float expression is
// identical (the stored scale·code products equal the in-flight ones
// bit-for-bit), so the result is bitwise equal to qdot_row on the same
// row. The panel is in x order at every width (the 2-bit and 4-bit halves
// are plain column ranges of it), so the batch path pays 4 plain vector
// loads where the solo path paid byte loads, code widening, and the
// per-group scale multiply — per
// input the dot is down to one multiply and one add per vector, which is
// most of the batched-decode speedup.
float qdot_row_panel(const QBlock& q, const float* cw, const float* bias,
                     const float* x, const float* xsum) {
  const std::size_t half = half_len(q);
#ifdef APTQ_KERNEL_VEC_EXT
  vNf vlo0 = {};
  vNf vhi0 = {};
  vNf vlo1 = {};
  vNf vhi1 = {};
#else
  int vlo0 = 0, vhi0 = 0, vlo1 = 0, vhi1 = 0;  // unused placeholders
  (void)vlo0;
  (void)vhi0;
  (void)vlo1;
  (void)vhi1;
#endif
  float sb0 = 0.0f;
  float sb1 = 0.0f;
  std::size_t g = 0;
#ifdef APTQ_KERNEL_VEC_EXT
  if (split_fast_path(q)) {
    const std::size_t full =
        q.cols % q.group_len == 0 ? q.groups : q.groups - 1;
    const auto pair_loop = [&]<bool kSingleVec>() {
      for (; g + 2 <= full; g += 2) {
        const float* cw0 = cw + g * q.group_len;
        const float* cw1 = cw0 + q.group_len;
        const float* xg0 = x + g * q.group_len;
        const float* xg1 = xg0 + q.group_len;
        for (std::size_t j = 0; j < (kSingleVec ? kVecLanes : half);
             j += kVecLanes) {
          vNf lo0, hi0, lo1, hi1;
          std::memcpy(&lo0, cw0 + j, sizeof lo0);
          std::memcpy(&hi0, cw0 + half + j, sizeof hi0);
          std::memcpy(&lo1, cw1 + j, sizeof lo1);
          std::memcpy(&hi1, cw1 + half + j, sizeof hi1);
          vNf xlo0, xhi0, xlo1, xhi1;
          std::memcpy(&xlo0, xg0 + j, sizeof xlo0);
          std::memcpy(&xhi0, xg0 + half + j, sizeof xhi0);
          std::memcpy(&xlo1, xg1 + j, sizeof xlo1);
          std::memcpy(&xhi1, xg1 + half + j, sizeof xhi1);
          vlo0 += lo0 * xlo0;
          vhi0 += hi0 * xhi0;
          vlo1 += lo1 * xlo1;
          vhi1 += hi1 * xhi1;
        }
        sb0 += bias[g] * xsum[g];
        sb1 += bias[g + 1] * xsum[g + 1];
      }
    };
    if (half == kVecLanes) {
      pair_loop.template operator()<true>();
    } else {
      pair_loop.template operator()<false>();
    }
  }
#endif
  const auto do_group = [&](std::size_t gi, auto& vlo_acc, auto& vhi_acc,
                            float& sbacc) {
    const auto [len, lo_n, hi_n] = group_shape(q, gi);
    const float* cwg = cw + gi * q.group_len;
    const float* xg = x + gi * q.group_len;
    std::size_t j = 0;
    float s = 0.0f;
    if (q.bits != 8) {
#ifdef APTQ_KERNEL_VEC_EXT
      for (; j + kVecLanes <= hi_n; j += kVecLanes) {
        vNf lo, hi;
        std::memcpy(&lo, cwg + j, sizeof lo);
        std::memcpy(&hi, cwg + half + j, sizeof hi);
        vNf xlo, xhi;
        std::memcpy(&xlo, xg + j, sizeof xlo);
        std::memcpy(&xhi, xg + half + j, sizeof xhi);
        vlo_acc += lo * xlo;
        vhi_acc += hi * xhi;
      }
#endif
      for (std::size_t t = j; t < hi_n; ++t) {
        s += xg[half + t] * cwg[half + t];
      }
      for (std::size_t t = j; t < lo_n; ++t) {
        s += xg[t] * cwg[t];
      }
    } else {  // bits == 8: one code per panel float, in order
#ifdef APTQ_KERNEL_VEC_EXT
      for (; j + kVecLanes <= len; j += kVecLanes) {
        vNf cv, xv;
        std::memcpy(&cv, cwg + j, sizeof cv);
        std::memcpy(&xv, xg + j, sizeof xv);
        vlo_acc += cv * xv;
      }
#endif
      for (std::size_t t = j; t < len; ++t) {
        s += xg[t] * cwg[t];
      }
    }
    sbacc += s + bias[gi] * xsum[gi];
  };
  for (; g + 2 <= q.groups; g += 2) {
    do_group(g, vlo0, vhi0, sb0);
    do_group(g + 1, vlo1, vhi1, sb1);
  }
  if (g < q.groups) {
    do_group(g, vlo0, vhi0, sb0);
  }
  float sacc = sb0 + sb1;
#ifdef APTQ_KERNEL_VEC_EXT
  const vNf vsum = (vlo0 + vlo1) + (vhi0 + vhi1);
  for (std::size_t v = 0; v < kVecLanes; ++v) {
    sacc += vsum[v];
  }
#endif
  return sacc;
}

// Two qdot_row_panel calls fused into one pass over the row's panel: input
// a and input b keep fully separate accumulator sets and each one's fold
// replays qdot_row_panel's (and therefore qdot_row's) expression tree
// exactly, so both results are bitwise equal to the solo calls. What the
// fusion buys is everything that is per-row rather than per-input: the
// panel (cw) vector loads, the scale broadcasts, the loop bookkeeping, and
// the call prologue/reduction are paid once for two inputs. At decode
// shapes (a 128-wide row is only ~4 vector iterations) that per-call
// overhead is most of the kernel, so pairing inputs is nearly a 2x on the
// batched dequant-dot.
void qdot_row_panel2(const QBlock& q, const float* cw, const float* bias,
                     const float* xa, const float* xsa, const float* xb,
                     const float* xsb, float* ya, float* yb) {
  const std::size_t half = half_len(q);
#ifdef APTQ_KERNEL_VEC_EXT
  vNf alo0 = {}, ahi0 = {}, alo1 = {}, ahi1 = {};
  vNf blo0 = {}, bhi0 = {}, blo1 = {}, bhi1 = {};
#else
  int alo0 = 0, ahi0 = 0, alo1 = 0, ahi1 = 0;  // unused placeholders
  int blo0 = 0, bhi0 = 0, blo1 = 0, bhi1 = 0;
  (void)alo0;
  (void)ahi0;
  (void)alo1;
  (void)ahi1;
  (void)blo0;
  (void)bhi0;
  (void)blo1;
  (void)bhi1;
#endif
  float sa0 = 0.0f, sa1 = 0.0f;
  float sb0 = 0.0f, sb1 = 0.0f;
  std::size_t g = 0;
#ifdef APTQ_KERNEL_VEC_EXT
  if (split_fast_path(q)) {
    const std::size_t full =
        q.cols % q.group_len == 0 ? q.groups : q.groups - 1;
    const auto pair_loop = [&]<bool kSingleVec>() {
      for (; g + 2 <= full; g += 2) {
        const float* cw0 = cw + g * q.group_len;
        const float* cw1 = cw0 + q.group_len;
        const float* xa0 = xa + g * q.group_len;
        const float* xa1 = xa0 + q.group_len;
        const float* xb0 = xb + g * q.group_len;
        const float* xb1 = xb0 + q.group_len;
        for (std::size_t j = 0; j < (kSingleVec ? kVecLanes : half);
             j += kVecLanes) {
          vNf lo0, hi0, lo1, hi1;
          std::memcpy(&lo0, cw0 + j, sizeof lo0);
          std::memcpy(&hi0, cw0 + half + j, sizeof hi0);
          std::memcpy(&lo1, cw1 + j, sizeof lo1);
          std::memcpy(&hi1, cw1 + half + j, sizeof hi1);
          vNf v0, v1, v2, v3;
          std::memcpy(&v0, xa0 + j, sizeof v0);
          std::memcpy(&v1, xa0 + half + j, sizeof v1);
          std::memcpy(&v2, xa1 + j, sizeof v2);
          std::memcpy(&v3, xa1 + half + j, sizeof v3);
          alo0 += lo0 * v0;
          ahi0 += hi0 * v1;
          alo1 += lo1 * v2;
          ahi1 += hi1 * v3;
          std::memcpy(&v0, xb0 + j, sizeof v0);
          std::memcpy(&v1, xb0 + half + j, sizeof v1);
          std::memcpy(&v2, xb1 + j, sizeof v2);
          std::memcpy(&v3, xb1 + half + j, sizeof v3);
          blo0 += lo0 * v0;
          bhi0 += hi0 * v1;
          blo1 += lo1 * v2;
          bhi1 += hi1 * v3;
        }
        sa0 += bias[g] * xsa[g];
        sa1 += bias[g + 1] * xsa[g + 1];
        sb0 += bias[g] * xsb[g];
        sb1 += bias[g + 1] * xsb[g + 1];
      }
    };
    if (half == kVecLanes) {
      pair_loop.template operator()<true>();
    } else {
      pair_loop.template operator()<false>();
    }
  }
#endif
  // Generic remainder (ragged tails, odd geometries, 8-bit): the solo
  // panel body run per input, group order per input unchanged.
  const auto do_group = [&](std::size_t gi, const float* x,
                            const float* xsum, auto& vlo_acc, auto& vhi_acc,
                            float& sbacc) {
    const auto [len, lo_n, hi_n] = group_shape(q, gi);
    const float* cwg = cw + gi * q.group_len;
    const float* xg = x + gi * q.group_len;
    std::size_t j = 0;
    float s = 0.0f;
    if (q.bits != 8) {
#ifdef APTQ_KERNEL_VEC_EXT
      for (; j + kVecLanes <= hi_n; j += kVecLanes) {
        vNf lo, hi;
        std::memcpy(&lo, cwg + j, sizeof lo);
        std::memcpy(&hi, cwg + half + j, sizeof hi);
        vNf xlo, xhi;
        std::memcpy(&xlo, xg + j, sizeof xlo);
        std::memcpy(&xhi, xg + half + j, sizeof xhi);
        vlo_acc += lo * xlo;
        vhi_acc += hi * xhi;
      }
#endif
      for (std::size_t t = j; t < hi_n; ++t) {
        s += xg[half + t] * cwg[half + t];
      }
      for (std::size_t t = j; t < lo_n; ++t) {
        s += xg[t] * cwg[t];
      }
    } else {
#ifdef APTQ_KERNEL_VEC_EXT
      for (; j + kVecLanes <= len; j += kVecLanes) {
        vNf cv, xv;
        std::memcpy(&cv, cwg + j, sizeof cv);
        std::memcpy(&xv, xg + j, sizeof xv);
        vlo_acc += cv * xv;
      }
#endif
      for (std::size_t t = j; t < len; ++t) {
        s += xg[t] * cwg[t];
      }
    }
    sbacc += s + bias[gi] * xsum[gi];
  };
  for (; g + 2 <= q.groups; g += 2) {
    do_group(g, xa, xsa, alo0, ahi0, sa0);
    do_group(g + 1, xa, xsa, alo1, ahi1, sa1);
    do_group(g, xb, xsb, blo0, bhi0, sb0);
    do_group(g + 1, xb, xsb, blo1, bhi1, sb1);
  }
  if (g < q.groups) {
    do_group(g, xa, xsa, alo0, ahi0, sa0);
    do_group(g, xb, xsb, blo0, bhi0, sb0);
  }
  float ra = sa0 + sa1;
  float rb = sb0 + sb1;
#ifdef APTQ_KERNEL_VEC_EXT
  const vNf va = (alo0 + alo1) + (ahi0 + ahi1);
  const vNf vb = (blo0 + blo1) + (bhi0 + bhi1);
  for (std::size_t v = 0; v < kVecLanes; ++v) {
    ra += va[v];
  }
  for (std::size_t v = 0; v < kVecLanes; ++v) {
    rb += vb[v];
  }
#endif
  *ya = ra;
  *yb = rb;
}

// Per-group sums of x into `xsum` (length q.groups), each group folded in
// fixed serial order — precomputing must not change any bit.
void group_sums(const QBlock& q, const float* x, float* xsum) {
  for (std::size_t g = 0; g < q.groups; ++g) {
    const std::size_t start = g * q.group_len;
    const std::size_t len = std::min(q.group_len, q.cols - start);
    float s = 0.0f;
    for (std::size_t t = 0; t < len; ++t) {
      s += x[start + t];
    }
    xsum[g] = s;
  }
}

// Group counts up to this fit a stack buffer; beyond it (cols/group_len >
// 512) the sums spill to a heap vector. Decode-sized gemvs must not pay a
// malloc per call -- at dim 128 the allocation costs as much as the dot.
constexpr std::size_t kXsumStack = 512;

}  // namespace

float qdot(const QBlock& q, std::size_t row, const float* x,
           const float* xsum) {
  const std::size_t stride = q.groups * q.bytes_per_group;
  const float* srow = q.scale + row * q.groups;
  const float* brow = q.bias + row * q.groups;
  if (xsum != nullptr) {
    return qdot_row(q, q.codes + row * stride, srow, brow, x, xsum);
  }
  // group_sums folds each group in the same serial order an on-the-fly
  // fold would, so computing them here cannot change a bit of the result.
  float stack[kXsumStack];
  std::vector<float> heap;
  float* sums = stack;
  if (q.groups > kXsumStack) {
    heap.resize(q.groups);
    sums = heap.data();
  }
  group_sums(q, x, sums);
  return qdot_row(q, q.codes + row * stride, srow, brow, x, sums);
}

void qgemv(const QBlock& q, const float* x, float* y) {
  float stack[kXsumStack];
  std::vector<float> heap;
  float* xsum = stack;
  if (q.groups > kXsumStack) {
    heap.resize(q.groups);
    xsum = heap.data();
  }
  group_sums(q, x, xsum);
  const std::size_t stride = q.groups * q.bytes_per_group;
  const auto run_rows = [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      y[r] = qdot_row(q, q.codes + r * stride, q.scale + r * q.groups,
                      q.bias + r * q.groups, x, xsum);
    }
  };
  // Row results are independent of chunk boundaries, so skipping the pool
  // when it cannot help (more workers than cores) changes no bit.
  if (ThreadPool::effective_global_threads() > 1) {
    parallel_for(0, q.rows, 16, run_rows);
  } else {
    run_rows(0, q.rows);
  }
}

void qgemv_batch(const QBlock& q, const float* x, std::size_t n, float* y) {
  if (n == 1) {
    // The panel fold is bitwise equal to qgemv either way; the solo kernel
    // just skips the panel write-back.
    qgemv(q, x, y);
    return;
  }
  // Per-input per-group x sums, with the same serial fold the solo path
  // uses (group_sums never changes a bit — see qdot).
  std::vector<float> xsums(n * q.groups);
  for (std::size_t i = 0; i < n; ++i) {
    group_sums(q, x + i * q.cols, xsums.data() + i * q.groups);
  }
  const std::size_t stride = q.groups * q.bytes_per_group;
  // The panel is group_len-strided, so a ragged tail group pads to a full
  // stride; the pad is written once (zeros) and never read by the dot.
  const std::size_t panel_len = q.groups * q.group_len;
  const auto run_rows = [&](std::size_t rb, std::size_t re) {
    std::vector<float> cw(panel_len, 0.0f);
    for (std::size_t r = rb; r < re; ++r) {
      unpack_codes_row(q, q.codes + r * stride, q.scale + r * q.groups,
                       cw.data());
      const float* brow = q.bias + r * q.groups;
      // Inputs in pairs: the fused two-input dot pays the panel loads and
      // loop bookkeeping once per pair (each input's fold is still the
      // solo expression tree, so row results stay bitwise identical).
      std::size_t i = 0;
      for (; i + 2 <= n; i += 2) {
        qdot_row_panel2(q, cw.data(), brow, x + i * q.cols,
                        xsums.data() + i * q.groups, x + (i + 1) * q.cols,
                        xsums.data() + (i + 1) * q.groups, y + i * q.rows + r,
                        y + (i + 1) * q.rows + r);
      }
      for (; i < n; ++i) {
        y[i * q.rows + r] = qdot_row_panel(q, cw.data(), brow, x + i * q.cols,
                                           xsums.data() + i * q.groups);
      }
    }
  };
  // Same grain as qgemv so the chunking story stays uniform; skip pool
  // dispatch entirely when the pool is oversubscribed (chunk results are
  // independent, so the serial loop is bit-identical).
  if (ThreadPool::effective_global_threads() > 1) {
    parallel_for(0, q.rows, 16, run_rows);
  } else {
    run_rows(0, q.rows);
  }
}

}  // namespace kern
#ifdef APTQ_PACKED_NO_CONTRACT
#pragma GCC pop_options
#undef APTQ_PACKED_NO_CONTRACT
#endif

namespace ref {

namespace {

// Row-chunk size for the parallel reference gemm: at least ~32k flops per
// chunk so small matmuls stay on one thread. Depends only on the shape, so
// chunk boundaries — and results — are reproducible.
std::size_t gemm_row_grain(std::size_t flops_per_row) {
  constexpr std::size_t kMinChunkFlops = 32768;
  return std::max<std::size_t>(
      1, kMinChunkFlops / std::max<std::size_t>(1, flops_per_row));
}

// The pre-tiling loops. The historical `if (av == 0.0f) continue;` skips
// were removed: they blocked vectorization of the j loop and made
// 0-coefficient rows swallow NaN/Inf from B (0·NaN now propagates as NaN,
// matching the tiled kernels — covered in tensor_test.cpp).

// C += alpha * A * B, all row-major; ikj ordering vectorizes over j.
void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  parallel_for(0, m, gemm_row_grain(2 * k * n),
               [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = c.data() + i * n;
      const float* arow = a.data() + i * k;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = alpha * arow[p];
        const float* brow = b.data() + p * n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  });
}

// C += alpha * A * B^T; rows of A dot rows of B (both contiguous).
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  parallel_for(0, m, gemm_row_grain(2 * k * n),
               [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a.data() + i * k;
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = b.data() + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
          acc += arow[p] * brow[p];
        }
        crow[j] += alpha * acc;
      }
    }
  });
}

// C += alpha * A^T * B.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha) {
  const std::size_t k = a.rows();  // shared dimension
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  parallel_for(0, m, gemm_row_grain(2 * k * n),
               [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = c.data() + i * n;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = alpha * a.data()[p * m + i];
        const float* brow = b.data() + p * n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  });
}

// C += alpha * A^T * B^T (rare; used only in gradient checks).
void gemm_tt(const Matrix& a, const Matrix& b, Matrix& c, float alpha) {
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  const std::size_t n = b.rows();
  parallel_for(0, m, gemm_row_grain(2 * k * n),
               [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
          acc += a(p, i) * b(j, p);
        }
        c(i, j) += alpha * acc;
      }
    }
  });
}

}  // namespace

void gemm(const Matrix& a, Trans trans_a, const Matrix& b, Trans trans_b,
          Matrix& c, float alpha, float beta) {
  const std::size_t m = trans_a == Trans::no ? a.rows() : a.cols();
  const std::size_t ka = trans_a == Trans::no ? a.cols() : a.rows();
  const std::size_t kb = trans_b == Trans::no ? b.rows() : b.cols();
  const std::size_t n = trans_b == Trans::no ? b.cols() : b.rows();
  APTQ_CHECK(ka == kb, "ref::gemm: inner dimensions mismatch");
  APTQ_CHECK(c.rows() == m && c.cols() == n, "ref::gemm: output shape mismatch");
  if (beta == 0.0f) {
    c.set_zero();
  } else if (beta != 1.0f) {
    scale(c, beta);
  }
  if (trans_a == Trans::no && trans_b == Trans::no) {
    gemm_nn(a, b, c, alpha);
  } else if (trans_a == Trans::no) {
    gemm_nt(a, b, c, alpha);
  } else if (trans_b == Trans::no) {
    gemm_tn(a, b, c, alpha);
  } else {
    gemm_tt(a, b, c, alpha);
  }
}

void syrk_upper(const Matrix& x, std::span<const float> gamma, float alpha,
                Matrix& c) {
  const std::size_t tokens = x.rows();
  const std::size_t d = x.cols();
  APTQ_CHECK(c.rows() == d && c.cols() == d,
             "ref::syrk_upper: C shape mismatch");
  APTQ_CHECK(gamma.empty() || gamma.size() == tokens,
             "ref::syrk_upper: gamma length mismatch");
  // The pre-SYRK HessianAccumulator::add_matrix loop, verbatim (including
  // its γ·x == 0 skip): the tolerance oracle and the "naive" bench side.
  for (std::size_t t = 0; t < tokens; ++t) {
    const float* xt = x.data() + t * d;
    const float g = gamma.empty() ? 1.0f : gamma[t];
    for (std::size_t i = 0; i < d; ++i) {
      const float gi = alpha * g * xt[i];
      if (gi == 0.0f) {
        continue;
      }
      float* row = c.data() + i * d;
      for (std::size_t j = i; j < d; ++j) {
        row[j] += gi * xt[j];
      }
    }
  }
}

void qgemv(const QBlock& q, const float* x, float* y) {
  // One code at a time: locate the byte, extract, dequantize, accumulate —
  // the per-element access pattern of the pre-blocked scalar fused GEMV.
  for (std::size_t r = 0; r < q.rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < q.cols; ++c) {
      const std::size_t g = c / q.group_len;
      const std::size_t k = c - g * q.group_len;
      const std::size_t block = r * q.groups + g;
      const std::uint8_t* b = q.codes + block * q.bytes_per_group;
      std::uint32_t code;
      if (q.bits == 8) {
        code = b[k];
      } else if (q.bits == 2) {
        code = (b[k / 4] >> (2 * (k % 4))) & 3u;
      } else {
        code = k < q.bytes_per_group ? (b[k] & 0x0Fu)
                                     : static_cast<std::uint32_t>(
                                           b[k - q.bytes_per_group] >> 4);
      }
      acc += x[c] *
             (q.scale[block] * static_cast<float>(code) + q.bias[block]);
    }
    y[r] = acc;
  }
}

}  // namespace ref

}  // namespace aptq
