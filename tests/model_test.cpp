// Unit tests for src/model: configuration validation, initialization,
// forward-pass structure (shapes, determinism, causality), the parameter
// registry, checkpoint round-trips, and activation fake-quant.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "model/backward.hpp"
#include "model/forward.hpp"
#include "model/model.hpp"
#include "tensor/ops.hpp"
#include "temp_file.hpp"

namespace aptq {
namespace {

ModelConfig tiny_config() {
  ModelConfig c;
  c.vocab_size = 12;
  c.dim = 8;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 16;
  return c;
}

TokenSeq ramp_tokens(std::size_t n, std::size_t vocab) {
  TokenSeq t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<TokenId>((i * 5 + 3) % vocab);
  }
  return t;
}

TEST(ModelConfig, ValidatesConsistency) {
  EXPECT_NO_THROW(tiny_config().validate());
  auto c = tiny_config();
  c.n_heads = 3;  // 8 % 3 != 0
  EXPECT_THROW(c.validate(), Error);
  c = tiny_config();
  c.dim = 4;
  c.n_heads = 4;  // head_dim 1 is odd
  EXPECT_THROW(c.validate(), Error);
  c = tiny_config();
  c.n_layers = 0;
  EXPECT_THROW(c.validate(), Error);
}

TEST(Model, InitIsDeterministicAndCounted) {
  const Model a = Model::init(tiny_config(), 3);
  const Model b = Model::init(tiny_config(), 3);
  EXPECT_TRUE(a.tok_embed == b.tok_embed);
  EXPECT_TRUE(a.blocks[1].wv == b.blocks[1].wv);
  const Model c = Model::init(tiny_config(), 4);
  EXPECT_FALSE(a.tok_embed == c.tok_embed);

  // vocab*d + L*(2d + 4d² + 2*d*f + f*d) + d + d*vocab
  const std::size_t expected = 12 * 8 +
                               2 * (2 * 8 + 4 * 64 + 3 * 8 * 16) +
                               8 + 8 * 12;
  EXPECT_EQ(a.parameter_count(), expected);
}

TEST(Model, LinearRegistryNamesAndKinds) {
  Model m = Model::init(tiny_config(), 5);
  const auto linears = collect_linears(m);
  ASSERT_EQ(linears.size(), 2u * 7u);
  EXPECT_EQ(linears[0].name, "layers.0.self_attn.q_proj");
  EXPECT_EQ(linears[1].name, "layers.0.self_attn.k_proj");
  EXPECT_EQ(linears[6].name, "layers.0.mlp.down_proj");
  EXPECT_EQ(linears[7].name, "layers.1.self_attn.q_proj");
  EXPECT_TRUE(is_attention(linears[3].kind));
  EXPECT_FALSE(is_attention(linears[4].kind));
  EXPECT_EQ(linears[2].weight, &m.blocks[0].wv);

  const auto with_head = collect_linears(m, /*include_lm_head=*/true);
  EXPECT_EQ(with_head.size(), 15u);
  EXPECT_EQ(with_head.back().name, "lm_head");
  EXPECT_EQ(with_head.back().weight, &m.lm_head);
}

TEST(Model, LinearKindToString) {
  EXPECT_EQ(to_string(LinearKind::k_proj), "k_proj");
  EXPECT_EQ(to_string(LinearKind::down_proj), "down_proj");
}

TEST(Model, VisitParamsCoversEverything) {
  Model m = Model::init(tiny_config(), 6);
  std::size_t total = 0;
  visit_params(m, [&total](std::span<float> s) { total += s.size(); });
  EXPECT_EQ(total, m.parameter_count());
}

TEST(Forward, LogitShapeAndDeterminism) {
  const Model m = Model::init(tiny_config(), 7);
  const TokenSeq tokens = ramp_tokens(9, 12);
  const Matrix a = model_forward(m, tokens);
  EXPECT_EQ(a.rows(), 9u);
  EXPECT_EQ(a.cols(), 12u);
  const Matrix b = model_forward(m, tokens);
  EXPECT_TRUE(a == b);
  for (const float v : a.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Forward, RejectsBadTokens) {
  const Model m = Model::init(tiny_config(), 8);
  const TokenSeq bad = {0, 1, 99};
  EXPECT_THROW(model_forward(m, bad), Error);
  EXPECT_THROW(model_forward(m, TokenSeq{}), Error);
}

TEST(Forward, IsCausal) {
  // Changing a future token must not change earlier logits.
  const Model m = Model::init(tiny_config(), 9);
  TokenSeq tokens = ramp_tokens(8, 12);
  const Matrix base = model_forward(m, tokens);
  tokens[7] = (tokens[7] + 1) % 12;
  const Matrix perturbed = model_forward(m, tokens);
  for (std::size_t t = 0; t < 7; ++t) {
    for (std::size_t v = 0; v < 12; ++v) {
      EXPECT_FLOAT_EQ(base(t, v), perturbed(t, v)) << "t=" << t;
    }
  }
  // And the last position does change.
  double diff = 0.0;
  for (std::size_t v = 0; v < 12; ++v) {
    diff += std::fabs(base(7, v) - perturbed(7, v));
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(Forward, PrefixConsistency) {
  // Running a prefix alone gives the same logits as the prefix inside a
  // longer sequence (pure causal decoding invariant).
  const Model m = Model::init(tiny_config(), 10);
  const TokenSeq full = ramp_tokens(10, 12);
  const TokenSeq prefix(full.begin(), full.begin() + 6);
  const Matrix lf = model_forward(m, full);
  const Matrix lp = model_forward(m, prefix);
  for (std::size_t t = 0; t < 6; ++t) {
    for (std::size_t v = 0; v < 12; ++v) {
      EXPECT_NEAR(lf(t, v), lp(t, v), 1e-5f);
    }
  }
}

TEST(Forward, CacheCapturesLayerInputs) {
  const Model m = Model::init(tiny_config(), 11);
  const TokenSeq tokens = ramp_tokens(7, 12);
  ForwardCache cache;
  model_forward(m, tokens, cache);
  ASSERT_EQ(cache.blocks.size(), 2u);
  EXPECT_EQ(cache.seq_len, 7u);
  for (const auto& bc : cache.blocks) {
    EXPECT_EQ(bc.normed1.rows(), 7u);
    EXPECT_EQ(bc.normed1.cols(), 8u);
    EXPECT_EQ(bc.attn_cat.rows(), 7u);
    EXPECT_EQ(bc.act.cols(), 16u);
    ASSERT_EQ(bc.probs.size(), 2u);
    // Attention rows are probability distributions.
    for (const auto& p : bc.probs) {
      for (std::size_t r = 0; r < p.rows(); ++r) {
        double sum = 0.0;
        for (const float v : p.row(r)) {
          sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
      }
    }
  }
  EXPECT_EQ(cache.normed_final.rows(), 7u);
}

TEST(Forward, ResidualStreamIsConsistent) {
  const Model m = Model::init(tiny_config(), 12);
  const TokenSeq tokens = ramp_tokens(5, 12);
  ForwardCache cache;
  model_forward(m, tokens, cache);
  // x_out of block 0 must equal x_in of block 1.
  EXPECT_TRUE(cache.blocks[0].x_out == cache.blocks[1].x_in);
  EXPECT_TRUE(cache.blocks[0].x_in == cache.x0);
}

TEST(Forward, ActQuantChangesLogitsSlightly) {
  const Model m = Model::init(tiny_config(), 13);
  const TokenSeq tokens = ramp_tokens(6, 12);
  const Matrix exact = model_forward(m, tokens);
  ForwardOptions opt;
  opt.act_quant_bits = 8;
  const Matrix quant8 = model_forward(m, tokens, opt);
  const double d8 = frobenius_distance(exact, quant8);
  EXPECT_GT(d8, 0.0);
  EXPECT_LT(d8, 0.5);
  opt.act_quant_bits = 3;
  const Matrix quant3 = model_forward(m, tokens, opt);
  EXPECT_GT(frobenius_distance(exact, quant3), d8);
}

TEST(FakeQuantRows, RoundsToGrid) {
  Matrix m(1, 4);
  m(0, 0) = 1.0f;
  m(0, 1) = -0.33f;
  m(0, 2) = 0.5f;
  m(0, 3) = 0.0f;
  fake_quant_rows(m, 8);
  EXPECT_FLOAT_EQ(m(0, 0), 1.0f);  // max element is exactly representable
  const float scale = 1.0f / 127.0f;
  EXPECT_NEAR(m(0, 1), std::round(-0.33f / scale) * scale, 1e-6f);
  Matrix zeros(2, 3);
  EXPECT_NO_THROW(fake_quant_rows(zeros, 4));  // all-zero rows are a no-op
  EXPECT_EQ(zeros(1, 2), 0.0f);
  EXPECT_THROW(fake_quant_rows(m, 1), Error);
}

TEST(HeadSlicing, ExtractAccumulateRoundTrip) {
  Rng rng(14);
  const Matrix x = Matrix::randn(5, 8, rng);
  Matrix rebuilt(5, 8);
  for (std::size_t h = 0; h < 2; ++h) {
    accumulate_head(rebuilt, extract_head(x, h, 4), h, 4);
  }
  EXPECT_TRUE(rebuilt == x);
  EXPECT_THROW(extract_head(x, 2, 4), Error);
}

class CheckpointTest : public ::testing::Test {
 protected:
  const ScopedTempFile file_{"aptq_ckpt_test"};
  const std::string& path_ = file_.path();
};

TEST_F(CheckpointTest, RoundTripsExactly) {
  const Model m = Model::init(tiny_config(), 15);
  save_checkpoint(m, path_);
  const Model loaded = load_checkpoint(path_);
  EXPECT_TRUE(loaded.config == m.config);
  EXPECT_TRUE(loaded.tok_embed == m.tok_embed);
  EXPECT_TRUE(loaded.lm_head == m.lm_head);
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    EXPECT_TRUE(loaded.blocks[i].wq == m.blocks[i].wq);
    EXPECT_TRUE(loaded.blocks[i].w_down == m.blocks[i].w_down);
    EXPECT_EQ(loaded.blocks[i].attn_norm, m.blocks[i].attn_norm);
  }
  // Functional equivalence.
  const TokenSeq tokens = ramp_tokens(6, 12);
  EXPECT_TRUE(model_forward(m, tokens) == model_forward(loaded, tokens));
}

TEST_F(CheckpointTest, RejectsCorruptedMagic) {
  const Model m = Model::init(tiny_config(), 16);
  save_checkpoint(m, path_);
  {
    std::ofstream f(path_, std::ios::binary | std::ios::in);
    f.seekp(0);
    const std::uint32_t bad = 0x12345678u;
    f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  }
  EXPECT_THROW(load_checkpoint(path_), Error);
}

TEST(Gradients, ZerosLikeMatchesShapes) {
  const Model m = Model::init(tiny_config(), 17);
  Gradients g = Gradients::zeros_like(m);
  std::size_t total = 0;
  visit_params(g, [&total](std::span<float> s) { total += s.size(); });
  EXPECT_EQ(total, m.parameter_count());
  EXPECT_DOUBLE_EQ(g.l2_norm(), 0.0);
}

TEST(Gradients, ScaleAndNorm) {
  const Model m = Model::init(tiny_config(), 18);
  Gradients g = Gradients::zeros_like(m);
  g.blocks[0].wq(0, 0) = 3.0f;
  g.lm_head(1, 1) = 4.0f;
  EXPECT_NEAR(g.l2_norm(), 5.0, 1e-6);
  g.scale_all(2.0f);
  EXPECT_NEAR(g.l2_norm(), 10.0, 1e-6);
  g.set_zero();
  EXPECT_DOUBLE_EQ(g.l2_norm(), 0.0);
}

}  // namespace
}  // namespace aptq
