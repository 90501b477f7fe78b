// Unit tests for the core pipeline: method dispatch, per-method invariants,
// bookkeeping (average bits, packed sizes), and the model zoo.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/model_zoo.hpp"
#include "core/pipeline.hpp"
#include "eval/perplexity.hpp"
#include "tensor/ops.hpp"
#include "temp_file.hpp"

namespace aptq {
namespace {

ModelConfig small_config() {
  ModelConfig c;
  c.vocab_size = 16;
  c.dim = 12;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 16;
  return c;
}

// Shared fixture: one small corpus + random-init model; quantization
// mechanics don't need trained weights.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : corpus_("calib",
                [] {
                  MarkovSpec s;
                  s.seed = 41;
                  s.vocab_size = 16;
                  s.topics = 2;
                  s.branching = 3;
                  return s;
                }(),
                4000, 500, 42),
        model_(Model::init(small_config(), 43)) {
    config_.calib_segments = 8;
    config_.calib_seq_len = 16;
    config_.group_size = 4;
    config_.qat.steps = 5;
    config_.qat.pool_sequences = 4;
    config_.qat.seq_len = 8;
  }

  Corpus corpus_;
  Model model_;
  PipelineConfig config_;
};

TEST_F(PipelineTest, MethodNames) {
  PipelineConfig c;
  EXPECT_EQ(method_name(Method::fp, c), "FP32");
  EXPECT_EQ(method_name(Method::gptq, c), "GPTQ");
  c.ratio_high = 0.75;
  EXPECT_EQ(method_name(Method::aptq_mixed, c), "APTQ-75%");
  EXPECT_EQ(method_name(Method::blockwise_mixed, c), "Blockwise-75%");
  c.pbllm_salient_fraction = 0.1;
  EXPECT_EQ(method_name(Method::pbllm, c), "PB-LLM-10%");
}

TEST_F(PipelineTest, FpPassThroughIsExact) {
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::fp, config_);
  EXPECT_TRUE(qm.model.blocks[0].wq == model_.blocks[0].wq);
  EXPECT_DOUBLE_EQ(qm.average_bits(), 32.0);
  EXPECT_EQ(qm.layers.size(), 14u);
}

TEST_F(PipelineTest, RtnQuantizesEveryLinear) {
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::rtn, config_);
  EXPECT_DOUBLE_EQ(qm.average_bits(), 4.0);
  // All weights moved (4-bit lossy), embeddings untouched.
  EXPECT_GT(frobenius_distance(qm.model.blocks[0].wq, model_.blocks[0].wq),
            0.0);
  EXPECT_TRUE(qm.model.tok_embed == model_.tok_embed);
  EXPECT_GT(qm.packed_bytes(), 0u);
  EXPECT_LT(qm.packed_bytes(), 14u * 12u * 16u * 4u);  // well below fp32
}

TEST_F(PipelineTest, GptqProducesFiniteQuantizedModel) {
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::gptq, config_);
  EXPECT_DOUBLE_EQ(qm.average_bits(), 4.0);
  EXPECT_EQ(qm.layers.size(), 14u);
  for (const auto& layer : qm.layers) {
    EXPECT_GE(layer.proxy_loss, 0.0) << layer.name;
    EXPECT_GE(layer.recon_error, -1e-6) << layer.name;
  }
  for (const float v : qm.model.blocks[1].w_down.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(PipelineTest, AptqDiffersFromGptq) {
  const QuantizedModel g =
      quantize_model(model_, corpus_, Method::gptq, config_);
  const QuantizedModel a =
      quantize_model(model_, corpus_, Method::aptq, config_);
  // Attention-aware Hessians change at least the attention projections.
  EXPECT_GT(frobenius_distance(g.model.blocks[0].wv, a.model.blocks[0].wv),
            0.0);
  EXPECT_EQ(a.method, "APTQ");
}

TEST_F(PipelineTest, MixedPrecisionHitsTargetBits) {
  for (const double r : {0.25, 0.5, 0.75}) {
    PipelineConfig cfg = config_;
    cfg.ratio_high = r;
    const QuantizedModel qm =
        quantize_model(model_, corpus_, Method::aptq_mixed, cfg);
    const double expected = 4.0 * r + 2.0 * (1.0 - r);
    EXPECT_NEAR(qm.average_bits(), expected, 0.45) << "R=" << r;
    // Both bit widths actually present.
    bool has2 = false, has4 = false;
    for (const auto& layer : qm.layers) {
      has2 |= layer.bits == 2.0;
      has4 |= layer.bits == 4.0;
    }
    EXPECT_TRUE(has2);
    EXPECT_TRUE(has4);
  }
}

TEST_F(PipelineTest, BlockwiseAssignsUniformBitsPerBlock) {
  PipelineConfig cfg = config_;
  cfg.ratio_high = 0.5;
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::blockwise_mixed, cfg);
  std::map<std::string, double> bits;
  for (const auto& layer : qm.layers) {
    bits[layer.name] = layer.bits;
  }
  // Every layer of block 0 shares one width; same for block 1.
  for (const char* suffix :
       {"self_attn.q_proj", "self_attn.o_proj", "mlp.down_proj"}) {
    EXPECT_EQ(bits[std::string("layers.0.") + suffix],
              bits["layers.0.self_attn.k_proj"]);
    EXPECT_EQ(bits[std::string("layers.1.") + suffix],
              bits["layers.1.self_attn.k_proj"]);
  }
  EXPECT_NE(bits["layers.0.self_attn.q_proj"],
            bits["layers.1.self_attn.q_proj"]);
}

TEST_F(PipelineTest, PbLlmReportsFractionalBits) {
  PipelineConfig cfg = config_;
  cfg.pbllm_salient_fraction = 0.2;
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::pbllm, cfg);
  EXPECT_NEAR(qm.average_bits(), 16 * 0.2 + 0.8, 0.1);
}

TEST_F(PipelineTest, OwqBitsAboveNominal) {
  PipelineConfig cfg = config_;
  cfg.owq_fp_column_fraction = 0.1;
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::owq, cfg);
  EXPECT_GT(qm.average_bits(), 4.0);
  EXPECT_LT(qm.average_bits(), 6.5);
}

TEST_F(PipelineTest, SmoothQuantSetsActOptions) {
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::smoothquant, config_);
  EXPECT_EQ(qm.forward_options.act_quant_bits, 8);
  EXPECT_DOUBLE_EQ(qm.average_bits(), 4.0);
}

TEST_F(PipelineTest, FpqUsesFp4Grid) {
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::fpq, config_);
  EXPECT_DOUBLE_EQ(qm.average_bits(), 4.0);
  // FP4 values: every weight/scale ratio lands on an E2M1 magnitude. Spot
  // check: weights differ from the int-grid RTN result.
  const QuantizedModel rtn =
      quantize_model(model_, corpus_, Method::rtn, config_);
  EXPECT_GT(
      frobenius_distance(qm.model.blocks[0].wq, rtn.model.blocks[0].wq), 0.0);
}

TEST_F(PipelineTest, LlmQatRunsAndQuantizes) {
  const QuantizedModel qm =
      quantize_model(model_, corpus_, Method::llm_qat, config_);
  EXPECT_DOUBLE_EQ(qm.average_bits(), 4.0);
  // Weights are on the 4-bit grid (re-snapping is a fixed point).
  Model snapped = qm.model;
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = config_.group_size;
  quantize_model_weights_rtn(snapped, spec);
  EXPECT_LT(
      frobenius_distance(snapped.blocks[0].wq, qm.model.blocks[0].wq), 1e-5);
}

TEST_F(PipelineTest, SequentialAndOneShotBothWork) {
  PipelineConfig one_shot = config_;
  one_shot.sequential = false;
  const QuantizedModel a =
      quantize_model(model_, corpus_, Method::gptq, config_);
  const QuantizedModel b =
      quantize_model(model_, corpus_, Method::gptq, one_shot);
  // Both valid quantized models; sequential re-calibration makes them
  // differ beyond the first block.
  EXPECT_LT(frobenius_distance(a.model.blocks[0].wq, b.model.blocks[0].wq),
            1e-6);
  EXPECT_GT(frobenius_distance(a.model.blocks[1].wq, b.model.blocks[1].wq),
            0.0);
}

TEST_F(PipelineTest, ExplicitSegmentsOverload) {
  const auto segs = sample_calibration_set(corpus_, 4, 12, 99);
  const QuantizedModel qm = quantize_model_with_segments(
      model_, segs, Method::gptq, config_);
  EXPECT_EQ(qm.layers.size(), 14u);
}

TEST(ZooSpecs, ModelSizesOrdered) {
  const ZooSpec small = llama7b_sim();
  const ZooSpec large = llama13b_sim();
  EXPECT_LT(small.config.dim, large.config.dim);
  EXPECT_LT(small.config.n_layers, large.config.n_layers);
  const auto params = [](const ZooSpec& s) {
    return Model::init(s.config, 1).parameter_count();
  };
  EXPECT_LT(params(small), params(large));
  EXPECT_NO_THROW(small.config.validate());
  EXPECT_NO_THROW(large.config.validate());
}

TEST(Zoo, CachesAcrossInstances) {
  // The zoo creates its cache directory in place of the placeholder file.
  const ScopedTempFile cache("aptq_zoo_test_cache");
  const std::string& dir = cache.path();
  std::filesystem::remove_all(dir);
  ZooSpec micro;
  micro.name = "micro-test";
  micro.config = small_config();
  micro.train.steps = 10;
  micro.train.batch_size = 2;
  micro.train.seq_len = 12;

  // Micro corpora for speed.
  MarkovSpec ms;
  ms.seed = 77;
  ms.vocab_size = 16;
  auto corpora = std::unique_ptr<StandardCorpora>(new StandardCorpora{
      Corpus("c4", ms, 2000, 200, 1),
      Corpus("wiki", ms, 2000, 200, 2),
  });

  ModelZoo zoo(dir);
  const Model a = zoo.get(micro, *corpora, /*verbose=*/false);
  EXPECT_TRUE(std::filesystem::exists(dir + "/micro-test.ckpt"));
  ModelZoo zoo2(dir);
  const Model b = zoo2.get(micro, *corpora, /*verbose=*/false);
  EXPECT_TRUE(a.blocks[0].wq == b.blocks[0].wq);

  // Stale config detection.
  micro.config.ffn_dim = 24;
  EXPECT_THROW(zoo2.get(micro, *corpora, false), Error);
}

TEST(Corpora, StandardCorporaAreWellFormed) {
  const auto corpora = make_standard_corpora();
  EXPECT_EQ(corpora->c4.name(), "c4sim");
  EXPECT_EQ(corpora->wiki.name(), "wikisim");
  EXPECT_GE(corpora->c4.train_tokens().size(), 100000u);
  EXPECT_LT(corpora->wiki.oracle_eval_nll(), corpora->c4.oracle_eval_nll());
}

}  // namespace
}  // namespace aptq
