#include "net/shard.hpp"

#include <cstring>
#include <sstream>

#include "tensor/ops.hpp"

namespace aptq::net {

namespace {

// Same record as packed_model.cpp's file-local write_matrix/read_matrix
// (u64 rows, u64 cols, length-prefixed f32 payload) so shard files reuse
// the loader's corruption discipline.
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
             "shard: matrix corrupt");
  Matrix m(rows, cols);
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

void write_config(BinaryWriter& w, const ModelConfig& c) {
  w.write_u64(c.vocab_size);
  w.write_u64(c.dim);
  w.write_u64(c.n_layers);
  w.write_u64(c.n_heads);
  w.write_u64(c.ffn_dim);
  w.write_u64(c.n_kv_heads);
  w.write_f32(c.rope_theta);
  w.write_f32(c.norm_eps);
}

ModelConfig read_config(BinaryReader& r) {
  ModelConfig c;
  c.vocab_size = r.read_u64();
  c.dim = r.read_u64();
  c.n_layers = r.read_u64();
  c.n_heads = r.read_u64();
  c.ffn_dim = r.read_u64();
  c.n_kv_heads = r.read_u64();
  c.rope_theta = r.read_f32();
  c.norm_eps = r.read_f32();
  c.validate();
  return c;
}

/// Columns [range) of an input-major (d_in × d_out) weight.
Matrix col_slice(const Matrix& m, const ShardRange& range) {
  APTQ_CHECK(range.end <= m.cols(), "col_slice: range out of bounds");
  Matrix out(m.rows(), range.size());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* src = m.data() + r * m.cols() + range.begin;
    std::copy(src, src + range.size(), out.row(r).begin());
  }
  return out;
}

/// Stitch column slices back together (inverse of col_slice over a full
/// worker set).
Matrix col_concat(const std::vector<const Matrix*>& parts) {
  APTQ_CHECK(!parts.empty(), "col_concat: no parts");
  const std::size_t rows = parts.front()->rows();
  std::size_t cols = 0;
  for (const Matrix* p : parts) {
    APTQ_CHECK(p->rows() == rows, "col_concat: row count mismatch");
    cols += p->cols();
  }
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    float* dst = out.data() + r * cols;
    for (const Matrix* p : parts) {
      const float* src = p->data() + r * p->cols();
      dst = std::copy(src, src + p->cols(), dst);
    }
  }
  return out;
}

const Matrix& dense_weight(const BlockWeights& b, std::size_t idx) {
  switch (idx) {
    case 0: return b.wq;
    case 1: return b.wk;
    case 2: return b.wv;
    case 3: return b.wo;
    case 4: return b.w_gate;
    case 5: return b.w_up;
    case 6: return b.w_down;
    default: break;
  }
  APTQ_FAIL("dense_weight: bad linear index");
}

constexpr LinearKind kBlockKinds[7] = {
    LinearKind::q_proj,  LinearKind::k_proj, LinearKind::v_proj,
    LinearKind::o_proj,  LinearKind::gate_proj, LinearKind::up_proj,
    LinearKind::down_proj};

void check_workers(std::size_t worker, std::size_t n_workers) {
  APTQ_CHECK(n_workers >= 1, "make_shard: need at least one worker");
  APTQ_CHECK(worker < n_workers, "make_shard: worker index out of range");
}

void copy_root_tensors(ModelShard& shard, const Matrix& tok_embed,
                       std::span<const std::vector<float>> attn,
                       std::span<const std::vector<float>> ffn,
                       std::span<const float> final_norm) {
  shard.has_root_tensors = true;
  shard.tok_embed = tok_embed;
  shard.attn_norms.assign(attn.begin(), attn.end());
  shard.ffn_norms.assign(ffn.begin(), ffn.end());
  shard.final_norm.assign(final_norm.begin(), final_norm.end());
}

/// Validate a reassembly set: one shard per worker of a single split,
/// same kind/config, worker 0 carrying the root tensors. Returns the
/// shards sorted by worker index.
std::vector<const ModelShard*> order_shards(
    std::span<const ModelShard> shards, ShardKind kind) {
  APTQ_CHECK(!shards.empty(), "reassemble: no shards");
  const std::size_t n = shards.front().n_workers;
  APTQ_CHECK(shards.size() == n,
             "reassemble: expected " + std::to_string(n) + " shards, got " +
                 std::to_string(shards.size()));
  std::vector<const ModelShard*> ordered(n, nullptr);
  for (const ModelShard& s : shards) {
    APTQ_CHECK(s.kind == kind, "reassemble: shard kind mismatch");
    APTQ_CHECK(s.n_workers == n && s.config == shards.front().config,
               "reassemble: shards from different splits");
    APTQ_CHECK(s.worker < n && ordered[s.worker] == nullptr,
               "reassemble: duplicate or out-of-range worker index");
    ordered[s.worker] = &s;
  }
  APTQ_CHECK(ordered.front()->has_root_tensors,
             "reassemble: worker 0 shard lacks the root tensors");
  return ordered;
}

}  // namespace

ShardRange shard_range(std::size_t n, std::size_t worker,
                       std::size_t n_workers) {
  check_workers(worker, n_workers);
  return {n * worker / n_workers, n * (worker + 1) / n_workers};
}

std::size_t linear_out_features(const ModelConfig& config, LinearKind kind) {
  switch (kind) {
    case LinearKind::q_proj:
    case LinearKind::o_proj:
    case LinearKind::down_proj:
      return config.dim;
    case LinearKind::k_proj:
    case LinearKind::v_proj:
      return config.kv_dim();
    case LinearKind::gate_proj:
    case LinearKind::up_proj:
      return config.ffn_dim;
    case LinearKind::lm_head:
      return config.vocab_size;
  }
  APTQ_FAIL("linear_out_features: bad kind");
}

std::size_t ModelShard::weight_bytes() const {
  std::size_t bytes = lm_head.size() * sizeof(float);
  for (const Matrix& m : dense) {
    bytes += m.size() * sizeof(float);
  }
  for (const QuantizedLinear& q : packed) {
    bytes += q.storage_bytes();
  }
  return bytes;
}

ModelShard make_shard(const Model& model, std::size_t worker,
                      std::size_t n_workers) {
  check_workers(worker, n_workers);
  model.config.validate();
  ModelShard shard;
  shard.kind = ShardKind::dense;
  shard.worker = static_cast<std::uint32_t>(worker);
  shard.n_workers = static_cast<std::uint32_t>(n_workers);
  shard.config = model.config;
  shard.dense.reserve(model.config.n_layers * 7);
  for (const BlockWeights& b : model.blocks) {
    for (std::size_t i = 0; i < 7; ++i) {
      const std::size_t out =
          linear_out_features(model.config, kBlockKinds[i]);
      shard.dense.push_back(
          col_slice(dense_weight(b, i), shard_range(out, worker, n_workers)));
    }
  }
  shard.lm_head = col_slice(
      model.lm_head,
      shard_range(model.config.vocab_size, worker, n_workers));
  if (worker == 0) {
    std::vector<std::vector<float>> attn, ffn;
    for (const BlockWeights& b : model.blocks) {
      attn.push_back(b.attn_norm);
      ffn.push_back(b.ffn_norm);
    }
    copy_root_tensors(shard, model.tok_embed, attn, ffn, model.final_norm);
  }
  return shard;
}

ModelShard make_shard(const PackedModel& model, std::size_t worker,
                      std::size_t n_workers) {
  check_workers(worker, n_workers);
  const ModelConfig& cfg = model.config();
  APTQ_CHECK(model.linears().size() == cfg.n_layers * 7,
             "make_shard: packed model not initialized");
  ModelShard shard;
  shard.kind = ShardKind::packed;
  shard.worker = static_cast<std::uint32_t>(worker);
  shard.n_workers = static_cast<std::uint32_t>(n_workers);
  shard.config = cfg;
  shard.packed.reserve(cfg.n_layers * 7);
  for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
    for (std::size_t i = 0; i < 7; ++i) {
      const QuantizedLinear& lin = model.linears()[layer * 7 + i];
      const ShardRange r = shard_range(lin.rows(), worker, n_workers);
      shard.packed.push_back(lin.row_slice(r.begin, r.end));
    }
  }
  shard.lm_head = col_slice(
      model.lm_head(), shard_range(cfg.vocab_size, worker, n_workers));
  if (worker == 0) {
    std::vector<std::vector<float>> attn, ffn;
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
      attn.emplace_back(model.attn_norm(l).begin(), model.attn_norm(l).end());
      ffn.emplace_back(model.ffn_norm(l).begin(), model.ffn_norm(l).end());
    }
    copy_root_tensors(shard, model.tok_embed(), attn, ffn,
                      model.final_norm());
  }
  return shard;
}

void ModelShard::serialize(BinaryWriter& writer) const {
  writer.write_u32(kShardMagic);
  writer.write_u32(kShardVersion);
  writer.write_u32(static_cast<std::uint32_t>(kind));
  writer.write_u32(worker);
  writer.write_u32(n_workers);
  write_config(writer, config);
  writer.write_u32(has_root_tensors ? 1u : 0u);
  if (has_root_tensors) {
    write_matrix(writer, tok_embed);
    for (std::size_t l = 0; l < config.n_layers; ++l) {
      writer.write_f32_vector(attn_norms[l]);
      writer.write_f32_vector(ffn_norms[l]);
    }
    writer.write_f32_vector(final_norm);
  }
  write_matrix(writer, lm_head);
  if (kind == ShardKind::dense) {
    writer.write_u64(dense.size());
    for (const Matrix& m : dense) {
      write_matrix(writer, m);
    }
  } else {
    writer.write_u64(packed.size());
    for (const QuantizedLinear& q : packed) {
      q.serialize(writer);
    }
  }
}

ModelShard ModelShard::deserialize(BinaryReader& reader) {
  APTQ_CHECK(reader.read_u32() == kShardMagic, "shard: bad magic");
  const std::uint32_t version = reader.read_u32();
  APTQ_CHECK(version == kShardVersion,
             "shard: unsupported version " + std::to_string(version));
  ModelShard shard;
  const std::uint32_t kind_code = reader.read_u32();
  APTQ_CHECK(kind_code <= static_cast<std::uint32_t>(ShardKind::packed),
             "shard: unknown kind " + std::to_string(kind_code));
  shard.kind = static_cast<ShardKind>(kind_code);
  shard.worker = reader.read_u32();
  shard.n_workers = reader.read_u32();
  APTQ_CHECK(shard.n_workers >= 1 && shard.worker < shard.n_workers,
             "shard: corrupt worker index");
  shard.config = read_config(reader);
  shard.has_root_tensors = reader.read_u32() != 0;
  if (shard.has_root_tensors) {
    shard.tok_embed = read_matrix(reader);
    for (std::size_t l = 0; l < shard.config.n_layers; ++l) {
      shard.attn_norms.push_back(reader.read_f32_vector());
      shard.ffn_norms.push_back(reader.read_f32_vector());
    }
    shard.final_norm = reader.read_f32_vector();
  }
  shard.lm_head = read_matrix(reader);
  const std::uint64_t count = reader.read_u64();
  APTQ_CHECK(count == shard.config.n_layers * 7,
             "shard: expected 7 linears per layer, got " +
                 std::to_string(count));
  if (shard.kind == ShardKind::dense) {
    for (std::uint64_t i = 0; i < count; ++i) {
      shard.dense.push_back(read_matrix(reader));
    }
  } else {
    for (std::uint64_t i = 0; i < count; ++i) {
      shard.packed.push_back(QuantizedLinear::deserialize(reader));
    }
  }
  // Geometry cross-checks: every slice must match its shard_range under
  // the declared config, so a stomped header cannot smuggle in weights of
  // the wrong shape.
  for (std::size_t l = 0; l < shard.config.n_layers; ++l) {
    for (std::size_t i = 0; i < 7; ++i) {
      const std::size_t out =
          linear_out_features(shard.config, kBlockKinds[i]);
      const ShardRange r = shard_range(out, shard.worker, shard.n_workers);
      if (shard.kind == ShardKind::dense) {
        const Matrix& m = shard.dense[l * 7 + i];
        APTQ_CHECK(m.cols() == r.size(), "shard: dense slice width mismatch");
      } else {
        const QuantizedLinear& q = shard.packed[l * 7 + i];
        APTQ_CHECK(q.rows() == r.size(), "shard: packed slice height mismatch");
      }
    }
  }
  const ShardRange head =
      shard_range(shard.config.vocab_size, shard.worker, shard.n_workers);
  APTQ_CHECK(shard.lm_head.rows() == shard.config.dim &&
                 shard.lm_head.cols() == head.size(),
             "shard: lm head slice shape mismatch");
  return shard;
}

void save_shard(const ModelShard& shard, const std::string& path) {
  BinaryWriter w(path);
  shard.serialize(w);
}

ModelShard load_shard(const std::string& path) {
  BinaryReader r(path);
  return ModelShard::deserialize(r);
}

std::vector<std::uint8_t> shard_to_bytes(const ModelShard& shard) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os, "<shard>");
  shard.serialize(w);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

ModelShard shard_from_bytes(std::span<const std::uint8_t> bytes) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
      std::ios::binary);
  BinaryReader r(is, bytes.size(), "<shard>");
  return ModelShard::deserialize(r);
}

Model reassemble_dense(std::span<const ModelShard> shards) {
  const auto ordered = order_shards(shards, ShardKind::dense);
  const ModelShard& root = *ordered.front();
  Model model;
  model.config = root.config;
  model.tok_embed = root.tok_embed;
  model.final_norm = root.final_norm;
  model.blocks.resize(root.config.n_layers);
  for (std::size_t l = 0; l < root.config.n_layers; ++l) {
    BlockWeights& b = model.blocks[l];
    b.attn_norm = root.attn_norms[l];
    b.ffn_norm = root.ffn_norms[l];
    Matrix* dst[7] = {&b.wq, &b.wk, &b.wv, &b.wo,
                      &b.w_gate, &b.w_up, &b.w_down};
    for (std::size_t i = 0; i < 7; ++i) {
      std::vector<const Matrix*> parts;
      for (const ModelShard* s : ordered) {
        parts.push_back(&s->dense[l * 7 + i]);
      }
      *dst[i] = col_concat(parts);
    }
  }
  std::vector<const Matrix*> head_parts;
  for (const ModelShard* s : ordered) {
    head_parts.push_back(&s->lm_head);
  }
  model.lm_head = col_concat(head_parts);
  return model;
}

PackedModel reassemble_packed(std::span<const ModelShard> shards) {
  const auto ordered = order_shards(shards, ShardKind::packed);
  const ModelShard& root = *ordered.front();
  std::vector<QuantizedLinear> linears;
  linears.reserve(root.config.n_layers * 7);
  for (std::size_t l = 0; l < root.config.n_layers; ++l) {
    for (std::size_t i = 0; i < 7; ++i) {
      std::vector<QuantizedLinear> parts;
      for (const ModelShard* s : ordered) {
        parts.push_back(s->packed[l * 7 + i]);
      }
      linears.push_back(QuantizedLinear::row_concat(parts));
    }
  }
  std::vector<const Matrix*> head_parts;
  for (const ModelShard* s : ordered) {
    head_parts.push_back(&s->lm_head);
  }
  return PackedModel::assemble(root.config, root.tok_embed, root.attn_norms,
                               root.ffn_norms, root.final_norm,
                               col_concat(head_parts), linears);
}

std::vector<std::uint8_t> encode_project(std::uint32_t layer,
                                         LinearKind kind, const Matrix& x,
                                         std::uint64_t trace_id,
                                         std::uint64_t parent_span_id) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os, "<project>");
  w.write_u32(layer);
  w.write_u32(static_cast<std::uint32_t>(kind));
  w.write_u64(trace_id);
  w.write_u64(parent_span_id);
  write_matrix(w, x);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

ProjectRequest decode_project(std::span<const std::uint8_t> bytes) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
      std::ios::binary);
  BinaryReader r(is, bytes.size(), "<project>");
  ProjectRequest req;
  req.layer = r.read_u32();
  const std::uint32_t kind = r.read_u32();
  APTQ_CHECK(kind <= static_cast<std::uint32_t>(LinearKind::lm_head),
             "project: unknown linear kind " + std::to_string(kind));
  req.kind = static_cast<LinearKind>(kind);
  req.trace_id = r.read_u64();
  req.parent_span_id = r.read_u64();
  // A parent span without a trace (or vice versa) means a stomped context
  // field; reject rather than attribute spans to trace 0.
  APTQ_CHECK((req.trace_id == 0) == (req.parent_span_id == 0),
             "project: inconsistent trace context");
  req.x = read_matrix(r);
  APTQ_CHECK(req.x.rows() >= 1, "project: empty input");
  return req;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack) {
  std::vector<std::uint8_t> out(12);
  std::memcpy(out.data(), &ack.version, 4);
  std::memcpy(out.data() + 4, &ack.clock_ns, 8);
  return out;
}

HelloAck decode_hello_ack(std::span<const std::uint8_t> bytes) {
  HelloAck ack;
  if (bytes.size() == 4) {  // v1 peer: bare version, no clock
    std::memcpy(&ack.version, bytes.data(), 4);
    return ack;
  }
  APTQ_CHECK(bytes.size() == 12,
             "hello_ack payload must be 12 bytes (or legacy 4)");
  std::memcpy(&ack.version, bytes.data(), 4);
  std::memcpy(&ack.clock_ns, bytes.data() + 4, 8);
  return ack;
}

const char* span_name_str(SpanName name) {
  switch (name) {
    case SpanName::recv: return "worker.recv";
    case SpanName::compute: return "worker.compute";
    case SpanName::send: return "worker.send";
  }
  return "worker.?";
}

namespace {
constexpr std::size_t kSpanRecordBytes = 44;  // u32 name + 5 × u64
}  // namespace

std::vector<std::uint8_t> encode_trace_spans(
    std::span<const WorkerSpan> spans) {
  APTQ_CHECK(spans.size() <= kMaxTraceSpans,
             "trace_data: too many spans to encode");
  std::vector<std::uint8_t> out(8 + spans.size() * kSpanRecordBytes);
  const std::uint64_t count = spans.size();
  std::memcpy(out.data(), &count, 8);
  std::uint8_t* p = out.data() + 8;
  for (const WorkerSpan& s : spans) {
    const std::uint32_t code = static_cast<std::uint32_t>(s.name);
    std::memcpy(p, &code, 4);
    std::memcpy(p + 4, &s.start_ns, 8);
    std::memcpy(p + 12, &s.dur_ns, 8);
    std::memcpy(p + 20, &s.trace_id, 8);
    std::memcpy(p + 28, &s.span_id, 8);
    std::memcpy(p + 36, &s.parent_span_id, 8);
    p += kSpanRecordBytes;
  }
  return out;
}

std::vector<WorkerSpan> decode_trace_spans(
    std::span<const std::uint8_t> bytes) {
  APTQ_CHECK(bytes.size() >= 8, "trace_data: truncated count");
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data(), 8);
  APTQ_CHECK(count <= kMaxTraceSpans,
             "trace_data: span count " + std::to_string(count) +
                 " exceeds the " + std::to_string(kMaxTraceSpans) + " cap");
  // Division form so a stomped count cannot overflow count · record_size
  // into coincidentally matching the payload length.
  APTQ_CHECK((bytes.size() - 8) / kSpanRecordBytes == count &&
                 (bytes.size() - 8) % kSpanRecordBytes == 0,
             "trace_data: payload length does not match span count");
  std::vector<WorkerSpan> spans(count);
  const std::uint8_t* p = bytes.data() + 8;
  for (WorkerSpan& s : spans) {
    std::uint32_t code = 0;
    std::memcpy(&code, p, 4);
    APTQ_CHECK(code <= static_cast<std::uint32_t>(SpanName::send),
               "trace_data: unknown span name code " + std::to_string(code));
    s.name = static_cast<SpanName>(code);
    std::memcpy(&s.start_ns, p + 4, 8);
    std::memcpy(&s.dur_ns, p + 12, 8);
    std::memcpy(&s.trace_id, p + 20, 8);
    std::memcpy(&s.span_id, p + 28, 8);
    std::memcpy(&s.parent_span_id, p + 36, 8);
    p += kSpanRecordBytes;
  }
  return spans;
}

Matrix shard_project(const ModelShard& shard, const ProjectRequest& req) {
  const ModelConfig& cfg = shard.config;
  // The solo adapters' kernels: every per-element fold reads only its own
  // output column (dense) or weight row (packed), so a slice's results are
  // bit-identical to the matching columns of the single-process run
  // (docs/SHARDING.md). Both validate the input width.
  if (req.layer == kLmHeadLayer) {
    APTQ_CHECK(req.kind == LinearKind::lm_head,
               "project: head frame must carry lm_head kind");
    return matmul_rowwise(req.x, shard.lm_head);
  }
  APTQ_CHECK(req.layer < cfg.n_layers, "project: layer out of range");
  APTQ_CHECK(req.kind != LinearKind::lm_head,
             "project: lm_head must address kLmHeadLayer");
  const std::size_t slot =
      static_cast<std::size_t>(req.layer) * 7 +
      static_cast<std::size_t>(req.kind);
  if (shard.kind == ShardKind::dense) {
    return matmul_rowwise(req.x, shard.dense[slot]);
  }
  const QuantizedLinear& lin = shard.packed[slot];
  APTQ_CHECK(req.x.cols() == lin.cols(), "project: input width mismatch");
  return lin.matmul_transposed(req.x);
}

std::vector<std::uint8_t> encode_matrix(const Matrix& m) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os, "<matrix>");
  write_matrix(w, m);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

Matrix decode_matrix(std::span<const std::uint8_t> bytes) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
      std::ios::binary);
  BinaryReader r(is, bytes.size(), "<matrix>");
  return read_matrix(r);
}

}  // namespace aptq::net
