// Unit tests for the packed deploy artifact: QuantizedLinear serialization,
// PackedModel pack/unpack/forward equivalence, per-layer mixed-bit packing,
// storage accounting, and the save/load round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/pipeline.hpp"
#include "model/forward.hpp"
#include "quant/packed_model.hpp"
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

TokenSeq tokens_for(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TokenSeq t(n);
  for (auto& v : t) {
    v = static_cast<TokenId>(rng.index(16));
  }
  return t;
}

TEST(QuantizedLinearIo, SerializeRoundTrips) {
  Rng rng(1);
  const Matrix w = Matrix::randn(6, 20, rng);
  QuantSpec spec;
  spec.bits = 3;
  spec.group_size = 8;
  const QuantizedLinear original(w, spec);
  const ScopedTempFile path_file("aptq_qlin_test");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    original.serialize(writer);
  }
  BinaryReader reader(path);
  const QuantizedLinear loaded = QuantizedLinear::deserialize(reader);
  EXPECT_TRUE(loaded == original);
  EXPECT_TRUE(loaded.dequantize() == original.dequantize());
}

TEST(QuantizedLinearIo, DetectsCorruption) {
  Rng rng(2);
  const Matrix w = Matrix::randn(4, 8, rng);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const ScopedTempFile path_file("aptq_qlin_corrupt");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    QuantizedLinear(w, spec).serialize(writer);
  }
  // Truncate the file.
  std::filesystem::resize_file(path, 24);
  BinaryReader reader(path);
  EXPECT_THROW(QuantizedLinear::deserialize(reader), Error);
}

TEST(QuantizedLinearIo, PreservesClipSearchFlag) {
  Rng rng(21);
  const Matrix w = Matrix::randn(4, 16, rng);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 8;
  spec.mse_clip_search = true;
  const QuantizedLinear original(w, spec);
  const ScopedTempFile path_file("aptq_qlin_clip");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    original.serialize(writer);
  }
  BinaryReader reader(path);
  const QuantizedLinear loaded = QuantizedLinear::deserialize(reader);
  EXPECT_TRUE(loaded.spec().mse_clip_search);
  EXPECT_TRUE(loaded == original);
}

TEST(QuantizedLinearIo, RejectsUnknownFormatCode) {
  const ScopedTempFile path_file("aptq_qlin_badformat");
  const std::string& path = path_file.path();
  {
    // Header prefix as serialize() writes it, with an undefined format code.
    BinaryWriter writer(path);
    writer.write_u32(4u);   // bits
    writer.write_u64(16u);  // group_size
    writer.write_u32(7u);   // format: no such QFormat
  }
  BinaryReader reader(path);
  EXPECT_THROW(QuantizedLinear::deserialize(reader), Error);
}

TEST(PackedModel, UniformPackUnpackPreservesQuantizedWeights) {
  const Model m = Model::init(small_config(), 3);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const PackedModel pm = PackedModel::pack_uniform(m, spec);
  const Model unpacked = pm.unpack();
  // Unpacked weights are the 4-bit snapped weights.
  Matrix expect_wq = m.blocks[0].wq.transposed();
  quantize_dequantize_matrix(expect_wq, spec);
  EXPECT_LT(frobenius_distance(unpacked.blocks[0].wq,
                               expect_wq.transposed()),
            1e-6);
  // Non-linear tensors pass through untouched.
  EXPECT_TRUE(unpacked.tok_embed == m.tok_embed);
  EXPECT_EQ(unpacked.blocks[1].ffn_norm, m.blocks[1].ffn_norm);
}

TEST(PackedModel, ForwardMatchesUnpackedModel) {
  const Model m = Model::init(small_config(), 4);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const PackedModel pm = PackedModel::pack_uniform(m, spec);
  const Model unpacked = pm.unpack();
  const TokenSeq tokens = tokens_for(9, 5);
  const Matrix packed_logits = pm.forward(tokens);
  const Matrix dense_logits = model_forward(unpacked, tokens);
  ASSERT_EQ(packed_logits.rows(), 9u);
  for (std::size_t i = 0; i < packed_logits.size(); ++i) {
    EXPECT_NEAR(packed_logits.flat()[i], dense_logits.flat()[i], 5e-4f);
  }
}

TEST(PackedModel, PacksPipelineOutputWithMixedBits) {
  MarkovSpec ms;
  ms.seed = 6;
  ms.vocab_size = 16;
  const Corpus corpus("c", ms, 3000, 300, 7);
  const Model fp = Model::init(small_config(), 8);
  PipelineConfig cfg;
  cfg.calib_segments = 6;
  cfg.calib_seq_len = 12;
  cfg.group_size = 4;
  cfg.ratio_high = 0.5;
  const QuantizedModel qm =
      quantize_model(fp, corpus, Method::aptq_mixed, cfg);
  const PackedModel pm = PackedModel::pack(qm, cfg.group_size);
  ASSERT_EQ(pm.linears().size(), 14u);
  // Mixed bit widths survived into the packed specs.
  bool has2 = false, has4 = false;
  for (const auto& q : pm.linears()) {
    has2 |= q.spec().bits == 2;
    has4 |= q.spec().bits == 4;
  }
  EXPECT_TRUE(has2);
  EXPECT_TRUE(has4);
  // Re-snapping at pack time moves values by at most half a step: the
  // packed forward must stay close to the fake-quant model's forward.
  const TokenSeq tokens = tokens_for(8, 9);
  const Matrix a = pm.forward(tokens);
  const Matrix b = model_forward(qm.model, tokens);
  // Half-step re-snap at 2 bits dominates the drift on this random-weight
  // model; the bound is loose but still excludes any structural error.
  EXPECT_LT(frobenius_distance(a, b) / std::sqrt(sum_squares(b) + 1e-9),
            0.12);
}

TEST(PackedModel, RejectsFractionalBits) {
  MarkovSpec ms;
  ms.seed = 10;
  ms.vocab_size = 16;
  const Corpus corpus("c", ms, 3000, 300, 11);
  const Model fp = Model::init(small_config(), 12);
  PipelineConfig cfg;
  cfg.calib_segments = 4;
  cfg.calib_seq_len = 12;
  cfg.pbllm_salient_fraction = 0.2;
  const QuantizedModel qm = quantize_model(fp, corpus, Method::pbllm, cfg);
  EXPECT_THROW(PackedModel::pack(qm, 4), Error);
}

TEST(PackedModel, StorageAccounting) {
  const Model m = Model::init(small_config(), 13);
  QuantSpec s2, s4;
  s2.bits = 2;
  s2.group_size = 4;
  s4.bits = 4;
  s4.group_size = 4;
  const PackedModel p2 = PackedModel::pack_uniform(m, s2);
  const PackedModel p4 = PackedModel::pack_uniform(m, s4);
  EXPECT_LT(p2.linear_storage_bytes(), p4.linear_storage_bytes());
  EXPECT_GT(p2.total_storage_bytes(), p2.linear_storage_bytes());
  // Linears alone are far below their fp32 footprint.
  std::size_t linear_f32 = 0;
  for (const auto& q : p4.linears()) {
    linear_f32 += q.rows() * q.cols() * sizeof(float);
  }
  // Group size 4 carries heavy per-group overhead (8 bytes per 4 weights =
  // 16 bits/weight); even so 4-bit codes + overhead = 20 bits/weight stays
  // well under the 32-bit fp32 footprint.
  EXPECT_LT(p4.linear_storage_bytes(), linear_f32 * 3 / 4);
}

TEST(PackedModel, SaveLoadRoundTrip) {
  const Model m = Model::init(small_config(), 14);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const PackedModel pm = PackedModel::pack_uniform(m, spec);
  const ScopedTempFile path_file("aptq_packed_test");
  const std::string& path = path_file.path();
  pm.save(path);
  const PackedModel loaded = PackedModel::load(path);
  EXPECT_TRUE(loaded.config() == pm.config());
  const TokenSeq tokens = tokens_for(7, 15);
  const Matrix a = pm.forward(tokens);
  const Matrix b = loaded.forward(tokens);
  EXPECT_TRUE(a == b);
}

TEST(PackedModel, LoadRejectsBadMagic) {
  const ScopedTempFile path_file("aptq_packed_bad");
  const std::string& path = path_file.path();
  {
    BinaryWriter w(path);
    w.write_u32(0x12345678u);
    w.write_u32(1u);
  }
  EXPECT_THROW(PackedModel::load(path), Error);
}

TEST(PackedModel, GoldenRoundTripPreservesEveryLinear) {
  const Model m = Model::init(small_config(), 31);
  QuantSpec spec;
  spec.bits = 3;
  spec.group_size = 8;
  spec.symmetric = true;
  const PackedModel pm = PackedModel::pack_uniform(m, spec);
  const ScopedTempFile path_file("aptq_packed_golden");
  const std::string& path = path_file.path();
  pm.save(path);
  const PackedModel loaded = PackedModel::load(path);
  EXPECT_TRUE(loaded.config() == pm.config());
  ASSERT_EQ(loaded.linears().size(), pm.linears().size());
  for (std::size_t i = 0; i < pm.linears().size(); ++i) {
    EXPECT_TRUE(loaded.linears()[i] == pm.linears()[i]) << "linear " << i;
  }
  EXPECT_EQ(loaded.total_storage_bytes(), pm.total_storage_bytes());
}

TEST(PackedModel, CorruptedHeaderThrowsInsteadOfCrashing) {
  const Model m = Model::init(small_config(), 32);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const ScopedTempFile path_file("aptq_packed_corrupt");
  const std::string& path = path_file.path();
  PackedModel::pack_uniform(m, spec).save(path);

  // Version field stomped: load must throw, not misparse the remainder.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const std::uint32_t bogus = 0xffffffffu;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW(PackedModel::load(path), Error);

  // Truncated mid-payload: the reader must throw at EOF.
  PackedModel::pack_uniform(m, spec).save(path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(PackedModel::load(path), Error);
}

TEST(PackedModel, FileSizeMatchesStorageAccounting) {
  const Model m = Model::init(small_config(), 33);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 8;
  const PackedModel pm = PackedModel::pack_uniform(m, spec);
  const ScopedTempFile path_file("aptq_packed_size");
  const std::string& path = path_file.path();
  pm.save(path);
  const std::uintmax_t file_size = std::filesystem::file_size(path);
  // The file is the accounted payload plus fixed framing: the model header
  // plus per-tensor shape/spec fields and vector length prefixes.
  const std::size_t framing_allowance =
      256 + pm.linears().size() * 96 +
      (2 * pm.config().n_layers + 2) * 16 + 64;
  EXPECT_GE(file_size, pm.total_storage_bytes());
  EXPECT_LE(file_size, pm.total_storage_bytes() + framing_allowance);
}

}  // namespace
}  // namespace aptq
