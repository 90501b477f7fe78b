// Grouped-query attention (GQA) extension tests: configuration rules,
// forward structure, full finite-difference gradient checks through the
// shared-kv paths, decoder equivalence, checkpointing, and the quantization
// pipeline end-to-end on a GQA model.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "model/backward.hpp"
#include "model/decode.hpp"
#include "model/forward.hpp"
#include "quant/packed_model.hpp"
#include "tensor/ops.hpp"
#include "train/loss.hpp"
#include "train/trainer.hpp"
#include "temp_file.hpp"

namespace aptq {
namespace {

ModelConfig gqa_config() {
  ModelConfig c;
  c.vocab_size = 12;
  c.dim = 16;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;  // two query heads share each kv head
  c.ffn_dim = 20;
  return c;
}

TokenSeq tokens_for(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TokenSeq t(n);
  for (auto& v : t) {
    v = static_cast<TokenId>(rng.index(12));
  }
  return t;
}

TEST(GqaConfig, Validation) {
  EXPECT_NO_THROW(gqa_config().validate());
  auto c = gqa_config();
  EXPECT_EQ(c.kv_heads(), 2u);
  EXPECT_EQ(c.kv_dim(), 8u);
  EXPECT_EQ(c.group_factor(), 2u);
  c.n_kv_heads = 3;  // 4 % 3 != 0
  EXPECT_THROW(c.validate(), Error);
  c.n_kv_heads = 8;  // more kv heads than query heads
  EXPECT_THROW(c.validate(), Error);
  c.n_kv_heads = 0;  // MHA fallback
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.kv_dim(), c.dim);
}

TEST(GqaModel, ProjectionShapes) {
  const Model m = Model::init(gqa_config(), 1);
  EXPECT_EQ(m.blocks[0].wq.cols(), 16u);
  EXPECT_EQ(m.blocks[0].wk.cols(), 8u);
  EXPECT_EQ(m.blocks[0].wv.cols(), 8u);
  EXPECT_EQ(m.blocks[0].wo.rows(), 16u);
  // Parameter registry covers the narrow projections too.
  Model mutable_m = m;
  const auto linears = collect_linears(mutable_m);
  EXPECT_EQ(linears[1].weight->cols(), 8u);  // k_proj
}

TEST(GqaForward, ProducesFiniteCausalLogits) {
  const Model m = Model::init(gqa_config(), 2);
  TokenSeq tokens = tokens_for(8, 3);
  const Matrix base = model_forward(m, tokens);
  for (const float v : base.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  tokens[7] = (tokens[7] + 1) % 12;
  const Matrix perturbed = model_forward(m, tokens);
  for (std::size_t t = 0; t < 7; ++t) {
    for (std::size_t v = 0; v < 12; ++v) {
      EXPECT_FLOAT_EQ(base(t, v), perturbed(t, v));
    }
  }
}

TEST(GqaForward, KvHeadsAreActuallyShared) {
  // With n_kv_heads == 1 every query head attends over the same k/v slice;
  // check the cache shapes reflect the narrow projection.
  auto cfg = gqa_config();
  cfg.n_kv_heads = 1;
  const Model m = Model::init(cfg, 4);
  ForwardCache cache;
  model_forward(m, tokens_for(6, 5), cache);
  EXPECT_EQ(cache.blocks[0].k_rot.cols(), 4u);  // head_dim
  EXPECT_EQ(cache.blocks[0].v.cols(), 4u);
  ASSERT_EQ(cache.blocks[0].probs.size(), 4u);  // still 4 query heads
}

TEST(GqaGradcheck, FullBackwardMatchesFiniteDifferences) {
  Model model = Model::init(gqa_config(), 6);
  const TokenSeq tokens = tokens_for(7, 7);
  ForwardCache cache;
  const Matrix logits = model_forward(model, tokens, cache);
  CrossEntropyResult ce = cross_entropy_next_token(logits, tokens);
  Gradients grads = Gradients::zeros_like(model);
  model_backward(model, tokens, cache, ce.grad_logits, grads);

  const auto loss_of = [&tokens](Model& m) {
    return cross_entropy_next_token(model_forward(m, tokens), tokens, false)
        .loss;
  };
  const auto check = [&](Matrix& param, const Matrix& grad,
                         std::uint64_t seed) {
    Rng rng(seed);
    for (int s = 0; s < 8; ++s) {
      const std::size_t i = rng.index(param.size());
      const float saved = param.flat()[i];
      const float eps = 5e-3f;
      param.flat()[i] = saved + eps;
      const double lp = loss_of(model);
      param.flat()[i] = saved - eps;
      const double lm = loss_of(model);
      param.flat()[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = grad.flat()[i];
      const double denom =
          std::max({1e-3, std::fabs(analytic), std::fabs(numeric)});
      EXPECT_LT(std::fabs(analytic - numeric) / denom, 0.05)
          << "entry " << i;
    }
  };
  // The GQA-specific paths: shared k/v projections in both blocks.
  check(model.blocks[0].wk, grads.blocks[0].wk, 1);
  check(model.blocks[0].wv, grads.blocks[0].wv, 2);
  check(model.blocks[1].wk, grads.blocks[1].wk, 3);
  check(model.blocks[1].wv, grads.blocks[1].wv, 4);
  // And the untouched paths still hold.
  check(model.blocks[0].wq, grads.blocks[0].wq, 5);
  check(model.blocks[1].wo, grads.blocks[1].wo, 6);
}

TEST(GqaDecoder, MatchesFullForward) {
  const Model m = Model::init(gqa_config(), 8);
  const TokenSeq tokens = tokens_for(10, 9);
  const Matrix full = model_forward(m, tokens);
  DecodeState state(m.config, 12);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const auto logits = decode_step(m, tokens[t], state);
    for (std::size_t v = 0; v < logits.size(); ++v) {
      EXPECT_NEAR(logits[v], full(t, v), 5e-4f) << "t=" << t;
    }
  }
}

TEST(GqaCheckpoint, RoundTripsWithKvHeads) {
  const Model m = Model::init(gqa_config(), 10);
  const ScopedTempFile file("aptq_gqa_ckpt");
  save_checkpoint(m, file.path());
  const Model loaded = load_checkpoint(file.path());
  EXPECT_EQ(loaded.config.n_kv_heads, 2u);
  EXPECT_TRUE(loaded.blocks[0].wk == m.blocks[0].wk);
  const TokenSeq tokens = tokens_for(6, 11);
  EXPECT_TRUE(model_forward(m, tokens) == model_forward(loaded, tokens));
}

TEST(GqaTraining, LearnsOnGqaArchitecture) {
  MarkovSpec spec;
  spec.seed = 12;
  spec.vocab_size = 12;
  spec.topics = 1;
  spec.branching = 3;
  const Corpus corpus("t", spec, 4000, 400, 13);
  Model m = Model::init(gqa_config(), 14);
  Rng rng(15);
  const TokenSeq probe = corpus.sample_train_segment(24, rng);
  const double before =
      cross_entropy_next_token(model_forward(m, probe), probe, false).loss;
  TrainConfig tc;
  tc.steps = 200;
  tc.batch_size = 4;
  tc.seq_len = 24;
  tc.peak_lr = 8e-3f;
  train_model(m, corpus, tc);
  const double after =
      cross_entropy_next_token(model_forward(m, probe), probe, false).loss;
  EXPECT_LT(after, before - 0.3);
}

TEST(GqaPipeline, AptqQuantizesGqaModel) {
  MarkovSpec spec;
  spec.seed = 16;
  spec.vocab_size = 12;
  const Corpus corpus("t", spec, 3000, 300, 17);
  const Model fp = Model::init(gqa_config(), 18);
  PipelineConfig cfg;
  cfg.calib_segments = 6;
  cfg.calib_seq_len = 12;
  cfg.group_size = 4;
  cfg.ratio_high = 0.5;
  const QuantizedModel qm =
      quantize_model(fp, corpus, Method::aptq_mixed, cfg);
  EXPECT_EQ(qm.layers.size(), 14u);
  EXPECT_NEAR(qm.average_bits(), 3.0, 0.5);
  for (const float v : qm.model.blocks[1].wk.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // Packed round trip on GQA shapes.
  const PackedModel pm = PackedModel::pack(qm, cfg.group_size);
  const TokenSeq tokens = tokens_for(8, 19);
  const Matrix a = pm.forward(tokens);
  const Matrix b = model_forward(pm.unpack(), tokens);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], 5e-4f);
  }
}

}  // namespace
}  // namespace aptq
