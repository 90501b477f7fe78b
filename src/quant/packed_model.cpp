#include "quant/packed_model.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace aptq {

namespace {

constexpr std::uint32_t kPackedMagic = 0x41505150u;  // "APQP"
// v1: f32 scale + i64 zero-point per group, no clip-search flag.
// v2: i32 zero-points and the mse_clip_search flag in QuantizedLinear
//     records; row-major packed codes.
// v3: blocked QuantizedLinear records — per-group byte-aligned code blocks
//     (split-nibble order, stride bytes_per_group) the dequant-dot kernels
//     read directly. v2 checkpoints still load: the codes are repacked on
//     read, value-identical (see QuantizedLinear::deserialize_v2).
constexpr std::uint32_t kPackedVersionV2 = 2u;
constexpr std::uint32_t kPackedVersion = 3u;

void write_matrix(BinaryWriter& w, const Matrix& m) {
  w.write_u64(m.rows());
  w.write_u64(m.cols());
  std::vector<float> flat(m.flat().begin(), m.flat().end());
  w.write_f32_vector(flat);
}

Matrix read_matrix(BinaryReader& r) {
  const std::size_t rows = r.read_u64();
  const std::size_t cols = r.read_u64();
  const std::vector<float> flat = r.read_f32_vector();
  // Division form so a stomped dimension pair cannot overflow rows * cols
  // into coincidentally matching the payload length.
  APTQ_CHECK((rows == 0 && flat.empty()) ||
                 (rows > 0 && cols == flat.size() / rows &&
                  rows * cols == flat.size()),
             "packed model: matrix corrupt");
  Matrix m(rows, cols);
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

// Weight access over packed linears for the shared decode engine (see the
// adapter contract in model/decode.hpp).
class PackedDecodeAdapter {
 public:
  explicit PackedDecodeAdapter(const PackedModel& model) : model_(model) {}

  const ModelConfig& config() const { return model_.config(); }
  std::span<const float> embedding(std::size_t token) const {
    return model_.tok_embed().row(token);
  }
  std::span<const float> attn_norm(std::size_t layer) const {
    return model_.attn_norm(layer);
  }
  std::span<const float> ffn_norm(std::size_t layer) const {
    return model_.ffn_norm(layer);
  }
  std::span<const float> final_norm() const { return model_.final_norm(); }

  Matrix project(std::size_t layer, LinearKind kind, const Matrix& x) const {
    APTQ_CHECK(kind != LinearKind::lm_head,
               "PackedDecodeAdapter: unexpected projection kind");
    // collect_linears order (q,k,v,o,gate,up,down) is LinearKind order.
    return model_.linears()[layer * 7 + static_cast<std::size_t>(kind)]
        .matmul_transposed(x);
  }

  Matrix head(const Matrix& x) const {
    return matmul_rowwise(x, model_.lm_head());
  }

 private:
  const PackedModel& model_;
};

}  // namespace

PackedModel PackedModel::pack_impl(
    const Model& model, const std::map<std::string, QuantSpec>& specs) {
  obs::TraceSpan span("pack.model", "quant");
  PackedModel pm;
  pm.config_ = model.config;
  pm.tok_embed_ = model.tok_embed;
  pm.final_norm_ = model.final_norm;
  pm.lm_head_ = model.lm_head;
  for (const auto& block : model.blocks) {
    pm.attn_norms_.push_back(block.attn_norm);
    pm.ffn_norms_.push_back(block.ffn_norm);
  }
  for (const auto& ref : collect_linears(model)) {
    const auto it = specs.find(ref.name);
    APTQ_CHECK(it != specs.end(),
               "PackedModel: no spec for layer " + ref.name);
    // Pack in the out-major orientation (groups along the input dim).
    pm.linears_.emplace_back(ref.weight->transposed(), it->second);
    if (obs::telemetry_enabled()) {
      static auto& bytes = obs::counter("pack.bytes");
      bytes.add(pm.linears_.back().storage_bytes());
    }
  }
  return pm;
}

PackedModel PackedModel::pack(const QuantizedModel& qm,
                              std::size_t group_size) {
  std::map<std::string, QuantSpec> specs;
  for (const auto& layer : qm.layers) {
    const double rounded = std::round(layer.bits);
    APTQ_CHECK(layer.bits == rounded && rounded >= 1 && rounded <= 8,
               "PackedModel: layer " + layer.name +
                   " has non-packable bit width");
    QuantSpec spec;
    spec.bits = static_cast<int>(rounded);
    spec.group_size = group_size;
    specs[layer.name] = spec;
  }
  return pack_impl(qm.model, specs);
}

PackedModel PackedModel::pack_uniform(const Model& model,
                                      const QuantSpec& spec) {
  std::map<std::string, QuantSpec> specs;
  for (const auto& ref : collect_linears(model)) {
    specs[ref.name] = spec;
  }
  return pack_impl(model, specs);
}

Model PackedModel::unpack() const {
  Model m;
  m.config = config_;
  m.tok_embed = tok_embed_;
  m.final_norm = final_norm_;
  m.lm_head = lm_head_;
  m.blocks.resize(config_.n_layers);
  for (std::size_t b = 0; b < config_.n_layers; ++b) {
    auto& blk = m.blocks[b];
    blk.attn_norm = attn_norms_[b];
    blk.ffn_norm = ffn_norms_[b];
    const std::size_t base = b * 7;
    blk.wq = linears_[base + 0].dequantize().transposed();
    blk.wk = linears_[base + 1].dequantize().transposed();
    blk.wv = linears_[base + 2].dequantize().transposed();
    blk.wo = linears_[base + 3].dequantize().transposed();
    blk.w_gate = linears_[base + 4].dequantize().transposed();
    blk.w_up = linears_[base + 5].dequantize().transposed();
    blk.w_down = linears_[base + 6].dequantize().transposed();
  }
  return m;
}

Matrix PackedModel::forward(std::span<const TokenId> tokens) const {
  APTQ_CHECK(linears_.size() == config_.n_layers * 7,
             "PackedModel: not initialized");
  APTQ_CHECK(!tokens.empty(), "PackedModel::forward: empty input");
  // One prefill over a throwaway state reproduces the full causal pass.
  DecodeState state(config_, tokens.size());
  return decode_prefill(*this, tokens, state);
}

std::size_t PackedModel::linear_storage_bytes() const {
  std::size_t total = 0;
  for (const auto& q : linears_) {
    total += q.storage_bytes();
  }
  return total;
}

std::size_t PackedModel::total_storage_bytes() const {
  std::size_t total = linear_storage_bytes();
  total += tok_embed_.size() * sizeof(float);
  total += lm_head_.size() * sizeof(float);
  total += final_norm_.size() * sizeof(float);
  for (const auto& v : attn_norms_) {
    total += v.size() * sizeof(float);
  }
  for (const auto& v : ffn_norms_) {
    total += v.size() * sizeof(float);
  }
  return total;
}

PackedModel PackedModel::assemble(const ModelConfig& config, Matrix tok_embed,
                                  std::vector<std::vector<float>> attn_norms,
                                  std::vector<std::vector<float>> ffn_norms,
                                  std::vector<float> final_norm,
                                  Matrix lm_head,
                                  std::vector<QuantizedLinear> linears) {
  config.validate();
  APTQ_CHECK(tok_embed.rows() == config.vocab_size &&
                 tok_embed.cols() == config.dim,
             "PackedModel::assemble: tok_embed shape mismatch");
  APTQ_CHECK(attn_norms.size() == config.n_layers &&
                 ffn_norms.size() == config.n_layers,
             "PackedModel::assemble: one norm pair per layer required");
  APTQ_CHECK(final_norm.size() == config.dim,
             "PackedModel::assemble: final_norm size mismatch");
  APTQ_CHECK(lm_head.rows() == config.dim &&
                 lm_head.cols() == config.vocab_size,
             "PackedModel::assemble: lm_head shape mismatch");
  APTQ_CHECK(linears.size() == config.n_layers * 7,
             "PackedModel::assemble: expected 7 linears per layer");
  PackedModel pm;
  pm.config_ = config;
  pm.tok_embed_ = std::move(tok_embed);
  pm.attn_norms_ = std::move(attn_norms);
  pm.ffn_norms_ = std::move(ffn_norms);
  pm.final_norm_ = std::move(final_norm);
  pm.lm_head_ = std::move(lm_head);
  pm.linears_ = std::move(linears);
  return pm;
}

void PackedModel::save(const std::string& path) const {
  BinaryWriter w(path);
  w.write_u32(kPackedMagic);
  w.write_u32(kPackedVersion);
  w.write_u64(config_.vocab_size);
  w.write_u64(config_.dim);
  w.write_u64(config_.n_layers);
  w.write_u64(config_.n_heads);
  w.write_u64(config_.ffn_dim);
  w.write_u64(config_.n_kv_heads);
  w.write_f32(config_.rope_theta);
  w.write_f32(config_.norm_eps);
  write_matrix(w, tok_embed_);
  for (std::size_t b = 0; b < config_.n_layers; ++b) {
    w.write_f32_vector(attn_norms_[b]);
    w.write_f32_vector(ffn_norms_[b]);
  }
  w.write_f32_vector(final_norm_);
  write_matrix(w, lm_head_);
  w.write_u64(linears_.size());
  for (const auto& q : linears_) {
    q.serialize(w);
  }
}

PackedModel PackedModel::load(const std::string& path) {
  BinaryReader r(path);
  APTQ_CHECK(r.read_u32() == kPackedMagic, "packed model: bad magic " + path);
  const std::uint32_t version = r.read_u32();
  APTQ_CHECK(version == kPackedVersion || version == kPackedVersionV2,
             "packed model: unsupported version " + std::to_string(version) +
                 " in " + path);
  PackedModel pm;
  pm.config_.vocab_size = r.read_u64();
  pm.config_.dim = r.read_u64();
  pm.config_.n_layers = r.read_u64();
  pm.config_.n_heads = r.read_u64();
  pm.config_.ffn_dim = r.read_u64();
  pm.config_.n_kv_heads = r.read_u64();
  pm.config_.rope_theta = r.read_f32();
  pm.config_.norm_eps = r.read_f32();
  pm.config_.validate();
  pm.tok_embed_ = read_matrix(r);
  for (std::size_t b = 0; b < pm.config_.n_layers; ++b) {
    pm.attn_norms_.push_back(r.read_f32_vector());
    pm.ffn_norms_.push_back(r.read_f32_vector());
  }
  pm.final_norm_ = r.read_f32_vector();
  pm.lm_head_ = read_matrix(r);
  const std::uint64_t n = r.read_u64();
  APTQ_CHECK(n == pm.config_.n_layers * 7, "packed model: layer count");
  for (std::uint64_t i = 0; i < n; ++i) {
    pm.linears_.push_back(version == kPackedVersionV2
                              ? QuantizedLinear::deserialize_v2(r)
                              : QuantizedLinear::deserialize(r));
  }
  return pm;
}

Matrix decode_prefill(const PackedModel& model, std::span<const TokenId> tokens,
                      DecodeState& state) {
  APTQ_CHECK(model.linears().size() == model.config().n_layers * 7,
             "decode: packed model not initialized");
  const DecodeSegment segment{&state, tokens};
  return detail::decode_forward(PackedDecodeAdapter(model), {&segment, 1});
}

std::vector<float> decode_step(const PackedModel& model, TokenId token,
                               DecodeState& state) {
  return detail::first_row(decode_prefill(model, {&token, 1}, state));
}

Matrix decode_step_batch(const PackedModel& model,
                         std::span<const TokenId> tokens,
                         std::span<DecodeState* const> states) {
  APTQ_CHECK(model.linears().size() == model.config().n_layers * 7,
             "decode: packed model not initialized");
  return detail::decode_forward(PackedDecodeAdapter(model),
                                detail::step_segments(tokens, states));
}

TokenSeq sample_from_packed(const PackedModel& model, std::size_t length,
                            Rng& rng, const SampleConfig& config,
                            const TokenSeq& prompt) {
  DecodeState state(model.config(), length);
  return sample_with_engine(
      model.config().vocab_size, length, rng, config, prompt,
      [&](std::span<const TokenId> tokens) {
        const Matrix logits = decode_prefill(model, tokens, state);
        const auto last = logits.row(logits.rows() - 1);
        return std::vector<float>(last.begin(), last.end());
      },
      [&](TokenId token) { return decode_step(model, token, state); });
}

}  // namespace aptq
