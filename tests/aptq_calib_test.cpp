// Unit tests for src/quant/aptq: attention γ weights, Hessian collection in
// both modes, per-block collection, and the structural properties that make
// APTQ "attention-aware" (γ ≡ 1 exactly where the paper's eq. 9 reduces to
// GPTQ, γ varying where the softmax nonlinearity enters).
#include <gtest/gtest.h>

#include <cmath>

#include "model/forward.hpp"
#include "quant/aptq.hpp"
#include "quant/qformat.hpp"
#include "tensor/cholesky.hpp"
#include "tensor/ops.hpp"

namespace aptq {
namespace {

ModelConfig small_config() {
  ModelConfig c;
  c.vocab_size = 16;
  c.dim = 12;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 20;
  return c;
}

std::vector<TokenSeq> make_segments(std::size_t n, std::size_t len,
                                    std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TokenSeq> segs(n);
  for (auto& s : segs) {
    s.resize(len);
    for (auto& t : s) {
      t = static_cast<TokenId>(rng.index(vocab));
    }
  }
  return segs;
}

TEST(AttentionGammas, ShapesAndPositivity) {
  const Model m = Model::init(small_config(), 1);
  const auto segs = make_segments(1, 9, 16, 2);
  ForwardCache cache;
  model_forward(m, segs[0], cache);
  Rng rng(3);
  const AttentionGammas g = attention_gammas(m, 0, cache.blocks[0], 3, rng);
  ASSERT_EQ(g.q.size(), 9u);
  ASSERT_EQ(g.k.size(), 9u);
  ASSERT_EQ(g.v.size(), 9u);
  for (std::size_t t = 0; t < 9; ++t) {
    EXPECT_GE(g.q[t], 0.0f);
    EXPECT_GE(g.k[t], 0.0f);
    EXPECT_GT(g.v[t], 0.0f);  // value path always carries probability mass
  }
}

TEST(AttentionGammas, VaryAcrossTokens) {
  // The whole point: the softmax Jacobian makes token importances unequal.
  const Model m = Model::init(small_config(), 4);
  const auto segs = make_segments(1, 12, 16, 5);
  ForwardCache cache;
  model_forward(m, segs[0], cache);
  Rng rng(6);
  const AttentionGammas g = attention_gammas(m, 0, cache.blocks[0], 4, rng);
  const auto spread = [](const std::vector<float>& v) {
    float lo = v[0], hi = v[0];
    for (const float x : v) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    return hi - lo;
  };
  EXPECT_GT(spread(g.v), 1e-4f);
  EXPECT_GT(spread(g.q), 1e-6f);
}

TEST(AttentionGammas, DeterministicInProbeSeed) {
  const Model m = Model::init(small_config(), 7);
  const auto segs = make_segments(1, 8, 16, 8);
  ForwardCache cache;
  model_forward(m, segs[0], cache);
  Rng a(9), b(9);
  const AttentionGammas ga = attention_gammas(m, 0, cache.blocks[0], 2, a);
  const AttentionGammas gb = attention_gammas(m, 0, cache.blocks[0], 2, b);
  EXPECT_EQ(ga.v, gb.v);
  EXPECT_EQ(ga.q, gb.q);
}

TEST(AttentionGammas, MoreProbesReduceVariance) {
  const Model m = Model::init(small_config(), 10);
  const auto segs = make_segments(1, 10, 16, 11);
  ForwardCache cache;
  model_forward(m, segs[0], cache);
  // Estimate the estimator's variance at 1 vs 8 probes across repeats.
  const auto variance_of = [&](std::size_t probes) {
    std::vector<double> estimates;
    for (std::uint64_t rep = 0; rep < 12; ++rep) {
      Rng rng(100 + rep);
      const AttentionGammas g =
          attention_gammas(m, 0, cache.blocks[0], probes, rng);
      estimates.push_back(g.v[5]);
    }
    double mean = 0.0;
    for (const double e : estimates) {
      mean += e;
    }
    mean /= static_cast<double>(estimates.size());
    double var = 0.0;
    for (const double e : estimates) {
      var += (e - mean) * (e - mean);
    }
    return var / static_cast<double>(estimates.size());
  };
  EXPECT_LT(variance_of(8), variance_of(1));
}

TEST(Calibration, CoversAllLinearLayers) {
  const Model m = Model::init(small_config(), 12);
  const auto segs = make_segments(4, 10, 16, 13);
  CalibConfig cfg;
  const CalibrationResult res = collect_calibration(m, segs, cfg);
  ASSERT_EQ(res.layers.size(), 2u * 7u);
  EXPECT_EQ(res.layers[0].name, "layers.0.self_attn.q_proj");
  EXPECT_EQ(res.layers[13].name, "layers.1.mlp.down_proj");
  for (const auto& layer : res.layers) {
    const std::size_t d_in =
        layer.kind == LinearKind::down_proj ? 20u : 12u;
    EXPECT_EQ(layer.hessian.rows(), d_in) << layer.name;
    EXPECT_GT(layer.avg_trace, 0.0) << layer.name;
    EXPECT_GT(layer.weight_count, 0u);
  }
  EXPECT_NO_THROW(res.by_name("layers.1.self_attn.v_proj"));
  EXPECT_THROW(res.by_name("nonexistent"), Error);
}

TEST(Calibration, LmHeadIncludedOnRequest) {
  const Model m = Model::init(small_config(), 14);
  const auto segs = make_segments(2, 8, 16, 15);
  CalibConfig cfg;
  cfg.include_lm_head = true;
  const CalibrationResult res = collect_calibration(m, segs, cfg);
  EXPECT_EQ(res.layers.size(), 15u);
  EXPECT_EQ(res.layers.back().name, "lm_head");
}

TEST(Calibration, GptqModeMatchesPlainAccumulation) {
  // In gptq mode the o_proj Hessian must equal 2/N·Σ attn_catᵀ·attn_cat.
  const Model m = Model::init(small_config(), 16);
  const auto segs = make_segments(3, 9, 16, 17);
  CalibConfig cfg;
  cfg.mode = HessianMode::gptq;
  const CalibrationResult res = collect_calibration(m, segs, cfg);

  HessianAccumulator ref(12);
  ForwardCache cache;
  for (const auto& s : segs) {
    model_forward(m, s, cache);
    ref.add_matrix(cache.blocks[0].attn_cat);
  }
  const Matrix expected = ref.finalized();
  const Matrix& got = res.by_name("layers.0.self_attn.o_proj").hessian;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], expected.flat()[i], 1e-4f);
  }
}

TEST(Calibration, OProjIdenticalAcrossModes) {
  // F is linear in W_O (paper eq. 9) ⇒ the o_proj Hessian is mode-invariant.
  const Model m = Model::init(small_config(), 18);
  const auto segs = make_segments(3, 8, 16, 19);
  CalibConfig gptq_cfg, aptq_cfg;
  gptq_cfg.mode = HessianMode::gptq;
  aptq_cfg.mode = HessianMode::aptq;
  const auto a = collect_calibration(m, segs, gptq_cfg);
  const auto b = collect_calibration(m, segs, aptq_cfg);
  const Matrix& ha = a.by_name("layers.0.self_attn.o_proj").hessian;
  const Matrix& hb = b.by_name("layers.0.self_attn.o_proj").hessian;
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_NEAR(ha.flat()[i], hb.flat()[i], 1e-5f);
  }
  // FFN layers likewise.
  const Matrix& fa = a.by_name("layers.1.mlp.gate_proj").hessian;
  const Matrix& fb = b.by_name("layers.1.mlp.gate_proj").hessian;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_NEAR(fa.flat()[i], fb.flat()[i], 1e-5f);
  }
}

TEST(Calibration, QkvDifferAcrossModes) {
  // The attention-aware Hessians must actually differ from plain XXᵀ.
  const Model m = Model::init(small_config(), 20);
  const auto segs = make_segments(4, 10, 16, 21);
  CalibConfig gptq_cfg, aptq_cfg;
  gptq_cfg.mode = HessianMode::gptq;
  aptq_cfg.mode = HessianMode::aptq;
  aptq_cfg.probes = 4;
  const auto a = collect_calibration(m, segs, gptq_cfg);
  const auto b = collect_calibration(m, segs, aptq_cfg);
  for (const char* name : {"layers.0.self_attn.q_proj",
                           "layers.0.self_attn.k_proj",
                           "layers.0.self_attn.v_proj"}) {
    const Matrix& ha = a.by_name(name).hessian;
    const Matrix& hb = b.by_name(name).hessian;
    EXPECT_GT(frobenius_distance(ha, hb),
              1e-3 * std::sqrt(sum_squares(ha)))
        << name;
  }
  // γ statistics are recorded for attention layers in aptq mode.
  EXPECT_NE(b.by_name("layers.0.self_attn.v_proj").gamma_mean, 1.0);
}

// Each segment's input to block `block` from a full forward pass.
std::vector<Matrix> block_inputs(const Model& m,
                                 const std::vector<TokenSeq>& segs,
                                 std::size_t block) {
  std::vector<Matrix> inputs;
  ForwardCache cache;
  for (const auto& s : segs) {
    model_forward(m, s, cache);
    inputs.push_back(cache.blocks[block].x_in);
  }
  return inputs;
}

// Per-block collection must reproduce the full pass's layers exactly: the
// sequential pipeline relies on it when it swaps whole-model forwards for
// carried block inputs.
void expect_same_layers(const CalibrationResult& got,
                        const CalibrationResult& full) {
  for (const auto& layer : got.layers) {
    const auto& ref = full.by_name(layer.name);
    EXPECT_TRUE(layer.hessian == ref.hessian) << layer.name;
    EXPECT_EQ(layer.avg_trace, ref.avg_trace) << layer.name;
    EXPECT_EQ(layer.gamma_mean, ref.gamma_mean) << layer.name;
  }
}

TEST(Calibration, BlockCollectionMatchesFiltering) {
  const Model m = Model::init(small_config(), 22);
  const auto segs = make_segments(3, 8, 16, 23);
  CalibConfig cfg;
  const auto full = collect_calibration(m, segs, cfg);
  const auto inputs = block_inputs(m, segs, 1);
  const auto block1 = collect_block_calibration(m, inputs, 1, cfg);
  ASSERT_EQ(block1.layers.size(), 7u);
  for (const auto& layer : block1.layers) {
    EXPECT_EQ(layer.block, 1u);
  }
  expect_same_layers(block1, full);
  EXPECT_THROW(collect_block_calibration(m, inputs, 5, cfg), Error);
}

TEST(Calibration, BlockZeroFromEmbeddingsMatchesFullPass) {
  // The pipeline reuses the full-precision pre-pass for block 0.
  const Model m = Model::init(small_config(), 27);
  const auto segs = make_segments(18, 8, 16, 28);  // spans two chunks
  CalibConfig cfg;
  const auto full = collect_calibration(m, segs, cfg);
  std::vector<Matrix> embedded;
  for (const auto& s : segs) {
    embedded.push_back(embed_tokens(m, s));
  }
  const auto block0 = collect_block_calibration(m, embedded, 0, cfg);
  ASSERT_EQ(block0.layers.size(), 7u);
  expect_same_layers(block0, full);
}

TEST(Calibration, CarriedInputsMatchFullPassAfterQuantizingBlockZero) {
  // The sequential protocol: snap block 0 to a 3-bit grid, then carry the
  // embeddings through it with block_forward.
  Model m = Model::init(small_config(), 29);
  QuantSpec spec;
  spec.bits = 3;
  spec.group_size = 4;
  for (const auto& ref : collect_linears(m)) {
    if (ref.kind != LinearKind::lm_head && ref.block == 0) {
      Matrix wt = ref.weight->transposed();
      quantize_dequantize_matrix(wt, spec);
      *ref.weight = wt.transposed();
    }
  }
  const auto segs = make_segments(5, 9, 16, 30);
  std::vector<Matrix> carried;
  BlockCache bc;
  for (const auto& s : segs) {
    block_forward(m, 0, embed_tokens(m, s), bc);
    carried.push_back(bc.x_out);
  }
  const auto expected = block_inputs(m, segs, 1);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_TRUE(carried[i] == expected[i]) << "segment " << i;
  }
  for (const auto mode : {HessianMode::gptq, HessianMode::aptq}) {
    CalibConfig cfg;
    cfg.mode = mode;
    expect_same_layers(collect_block_calibration(m, carried, 1, cfg),
                       collect_calibration(m, segs, cfg));
  }
}

TEST(Calibration, RejectsEmptySegments) {
  const Model m = Model::init(small_config(), 24);
  CalibConfig cfg;
  EXPECT_THROW(collect_calibration(m, {}, cfg), Error);
}

TEST(Calibration, HessiansAreSpdAfterDamping) {
  const Model m = Model::init(small_config(), 25);
  const auto segs = make_segments(4, 10, 16, 26);
  CalibConfig cfg;
  const auto res = collect_calibration(m, segs, cfg);
  for (const auto& layer : res.layers) {
    Matrix h = layer.hessian;
    const float jitter = static_cast<float>(0.01 * diag_mean(h));
    for (std::size_t i = 0; i < h.rows(); ++i) {
      if (h(i, i) == 0.0f) {
        h(i, i) = 1.0f;
      }
      h(i, i) += jitter;
    }
    EXPECT_NO_THROW(gptq_inverse_factor(h)) << layer.name;
  }
}

}  // namespace
}  // namespace aptq
