// Kernel probe for traced runs: times the served model's own packed
// linears through the three kernel entry points the decode engine uses,
// split by bit width, plus one batched decode step for the 2-bit share.
// Bytes are computed from storage_bytes(), not measured.
#include <algorithm>
#include <array>

#include "bench.hpp"
#include "serve_driver.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

constexpr std::size_t kBatchRows = kMaxBatch;
constexpr std::size_t kPromptRows = 80;  // a chat prompt: 64 + 8..24

/// Median over five repeats of the mean seconds per call of `fn`, each
/// repeat running at least ~2 ms.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  fn();  // warm caches and lazy buffers
  const double t0 = now_s();
  fn();
  const double once = std::max(now_s() - t0, 1e-7);
  const auto calls =
      static_cast<std::size_t>(std::max(1.0, 2e-3 / once));
  std::vector<double> per_call;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = now_s();
    for (std::size_t i = 0; i < calls; ++i) {
      fn();
    }
    per_call.push_back((now_s() - s) / static_cast<double>(calls));
  }
  return median(per_call);
}

aptq::Matrix random_matrix(aptq::Rng& rng, std::size_t rows,
                           std::size_t cols) {
  aptq::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (float& v : m.row(r)) {
      v = rng.uniform(-1.0f, 1.0f);
    }
  }
  return m;
}

struct Acc {
  double seconds = 0.0;
  double weight_rows = 0.0;  ///< weights × input rows processed
  double ns_per_weight() const {
    return weight_rows > 0.0 ? seconds * 1e9 / weight_rows : 0.0;
  }
};

}  // namespace

void probe_kernels(const aptq::PackedModel& model, Result& result) {
  aptq::obs::TraceSpan span("bench.kernel_probe", "bench");
  aptq::Rng rng(0x9F0BEull);
  std::array<Acc, 2> gemv;   // [0] = 2-bit layers, [1] = 4-bit layers
  std::array<Acc, 2> gemv8;
  std::array<Acc, 2> gemm;
  double storage_bytes = 0.0;
  double gemv_seconds = 0.0;
  for (const aptq::QuantizedLinear& linear : model.linears()) {
    const double weights =
        static_cast<double>(linear.rows() * linear.cols());
    const aptq::Matrix x1 = random_matrix(rng, 1, linear.cols());
    const aptq::Matrix x8 = random_matrix(rng, kBatchRows, linear.cols());
    const aptq::Matrix xp = random_matrix(rng, kPromptRows, linear.cols());
    std::vector<float> y1(linear.rows());
    aptq::Matrix y8(kBatchRows, linear.rows());
    const double t1 =
        seconds_per_call([&] { linear.matvec_transposed(x1.row(0), y1); });
    const double t8 =
        seconds_per_call([&] { linear.matvec_transposed_batch(x8, y8); });
    const double tp = seconds_per_call([&] {
      const aptq::Matrix y = linear.matmul_transposed(xp);
      (void)y;
    });
    storage_bytes += static_cast<double>(linear.storage_bytes());
    gemv_seconds += t1;
    const int bits = linear.spec().bits;
    if (bits != 2 && bits != 4) {
      continue;
    }
    const std::size_t k = bits == 2 ? 0 : 1;
    gemv[k].seconds += t1;
    gemv[k].weight_rows += weights;
    gemv8[k].seconds += t8;
    gemv8[k].weight_rows += weights * kBatchRows;
    gemm[k].seconds += tp;
    gemm[k].weight_rows += weights * kPromptRows;
  }

  // One batched decode step of kBatchRows sessions at context 16, rewound
  // after every call so each call does the same work.
  const aptq::ModelConfig& cfg = model.config();
  std::vector<aptq::DecodeState> states;
  std::vector<aptq::DecodeState*> ptrs;
  states.reserve(kBatchRows);
  for (std::size_t i = 0; i < kBatchRows; ++i) {
    states.emplace_back(cfg, 64);
    aptq::TokenSeq prompt(16);
    for (auto& t : prompt) {
      t = static_cast<aptq::TokenId>(rng.index(cfg.vocab_size));
    }
    aptq::decode_prefill(model, prompt, states.back());
  }
  for (auto& s : states) {
    ptrs.push_back(&s);
  }
  const std::vector<aptq::TokenId> tokens(kBatchRows, 1);
  const double step_s = seconds_per_call([&] {
    const aptq::Matrix logits =
        aptq::decode_step_batch(model, tokens, ptrs);
    (void)logits;
    for (auto& s : states) {
      s.rewind(16);
    }
  });

  result.set("kern.gemv_ns_per_weight.2bit", gemv[0].ns_per_weight(),
             "ns/weight");
  result.set("kern.gemv_ns_per_weight.4bit", gemv[1].ns_per_weight(),
             "ns/weight");
  result.set("kern.gemv8_ns_per_weight.2bit", gemv8[0].ns_per_weight(),
             "ns/weight");
  result.set("kern.gemv8_ns_per_weight.4bit", gemv8[1].ns_per_weight(),
             "ns/weight");
  result.set("kern.gemm_ns_per_weight.2bit", gemm[0].ns_per_weight(),
             "ns/weight");
  result.set("kern.gemm_ns_per_weight.4bit", gemm[1].ns_per_weight(),
             "ns/weight");
  // Weight bytes one decoded token streams: every packed linear plus the
  // f32 lm head (computed from storage sizes).
  const double head_bytes =
      static_cast<double>(model.lm_head().size() * sizeof(float));
  result.set("kern.weight_bytes_per_token", storage_bytes + head_bytes, "B");
  result.set("kern.weight_gbps",
             gemv_seconds > 0.0 ? storage_bytes / gemv_seconds * 1e-9 : 0.0,
             "GB/s");
  result.set("kern.2bit_time_share",
             step_s > 0.0 ? gemv8[0].seconds / step_s : 0.0, "share");
  result.set("kern.decode_step8_ms", step_s * 1e3, "ms");
}

}  // namespace e2e
