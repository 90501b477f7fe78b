// Tensor-parallel model shards and the projection RPC payloads.
//
// Split scheme: every linear — q/k/v/o/gate/up/down and the lm head — is
// split by OUTPUT features across N workers, worker w owning the
// contiguous range shard_range(out_features, w, N). For the dense model
// (input-major d_in × d_out matrices) that is a column slice; for the
// packed model (out-major QuantizedLinear) it is a row slice, which is a
// pure byte copy of the blocked storage. The root broadcasts the full
// input activation of each projection and concatenates the returned
// output slices positionally — no arithmetic happens across shard
// boundaries, so N-worker results are bitwise identical to solo decode
// for any N. This deviates from distributed-llama's row-split/all-reduce
// for o/down on purpose: summing partial products reassociates f32
// addition and breaks the byte-identity gate. Cost model and the
// measured scaling live in docs/SHARDING.md.
//
// Shard files (save_shard/load_shard) use magic "APQS" v1 and carry the
// same per-linear records as packed format v3, so split → serialize →
// load → reassemble round-trips bit-for-bit (tests/shard_test.cpp). The
// root-only f32 tensors (embeddings, norms) ride on worker 0's shard;
// workers never touch them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "quant/packed_model.hpp"
#include "quant/qformat.hpp"
#include "tensor/matrix.hpp"

namespace aptq::net {

// v2: hello_ack carries the worker's clock (for cross-process trace
// merging), project frames carry a (trace_id, parent_span_id) context,
// and trace_flush/trace_data ship worker span buffers to the root.
// v3: project frames lose their op word — every projection runs the
// batched kernel family, so there is nothing left to choose. Older peers
// are rejected at the handshake with a clean error_report in both
// directions (docs/SHARDING.md).
inline constexpr std::uint32_t kProtoVersion = 3;
inline constexpr std::uint32_t kShardMagic = 0x41505153u;  // "APQS"
inline constexpr std::uint32_t kShardVersion = 1;
/// `layer` value addressing the lm head instead of a block projection.
inline constexpr std::uint32_t kLmHeadLayer = 0xffffffffu;

/// Contiguous output-feature range [begin, end) owned by one worker.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Worker w's slice of n output features: [n·w/N, n·(w+1)/N). Covers
/// [0, n) exactly across workers, sizes differing by at most one.
ShardRange shard_range(std::size_t n, std::size_t worker,
                       std::size_t n_workers);

/// Output features of one linear kind under `config` (q/o/down: dim,
/// k/v: kv_dim, gate/up: ffn_dim, lm_head: vocab_size).
std::size_t linear_out_features(const ModelConfig& config, LinearKind kind);

enum class ShardKind : std::uint32_t { dense = 0, packed = 1 };

/// One worker's share of a model: per-layer output slices of the seven
/// block projections plus the lm head, and (worker 0 only) the root-side
/// f32 tensors the decode loop keeps local.
struct ModelShard {
  ShardKind kind = ShardKind::dense;
  std::uint32_t worker = 0;
  std::uint32_t n_workers = 1;
  ModelConfig config;

  /// dense: 7·n_layers column slices in (q,k,v,o,gate,up,down) layer
  /// order, each (d_in × slice).
  std::vector<Matrix> dense;
  /// packed: 7·n_layers row slices in the same order.
  std::vector<QuantizedLinear> packed;
  /// Column slice of the f32 lm head (both kinds).
  Matrix lm_head;

  /// Root tensors (tok_embed, norms), carried by worker 0's shard only.
  bool has_root_tensors = false;
  Matrix tok_embed;
  std::vector<std::vector<float>> attn_norms;
  std::vector<std::vector<float>> ffn_norms;
  std::vector<float> final_norm;

  /// Bytes of weight payload this worker streams per decode step
  /// (sliced linears + lm head slice; excludes root tensors).
  std::size_t weight_bytes() const;

  void serialize(BinaryWriter& writer) const;
  static ModelShard deserialize(BinaryReader& reader);
};

/// Worker w's shard of a dense / packed model.
ModelShard make_shard(const Model& model, std::size_t worker,
                      std::size_t n_workers);
ModelShard make_shard(const PackedModel& model, std::size_t worker,
                      std::size_t n_workers);

/// Shard-file round trip (magic "APQS" v1).
void save_shard(const ModelShard& shard, const std::string& path);
ModelShard load_shard(const std::string& path);

/// Wire form of a shard (the load_shard frame payload).
std::vector<std::uint8_t> shard_to_bytes(const ModelShard& shard);
ModelShard shard_from_bytes(std::span<const std::uint8_t> bytes);

/// Stitch a complete shard set (one per worker, any order) back into the
/// model it was carved from; bitwise identical to the original, including
/// its saved file bytes. Throws if the set is incomplete or mixed.
Model reassemble_dense(std::span<const ModelShard> shards);
PackedModel reassemble_packed(std::span<const ModelShard> shards);

/// One projection request: run (layer, kind) on input x and return the
/// worker's output slice. trace_id/parent_span_id propagate the root's
/// trace context; trace_id == 0 means tracing is off and the worker
/// records nothing.
struct ProjectRequest {
  std::uint32_t layer = 0;  ///< block index, or kLmHeadLayer
  LinearKind kind = LinearKind::q_proj;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  Matrix x;
};

std::vector<std::uint8_t> encode_project(std::uint32_t layer,
                                         LinearKind kind, const Matrix& x,
                                         std::uint64_t trace_id = 0,
                                         std::uint64_t parent_span_id = 0);
ProjectRequest decode_project(std::span<const std::uint8_t> bytes);

/// hello_ack payload (proto v2 and up): the accepted version plus the
/// worker's observability clock at ack time, which the root pairs with its own
/// send/recv clocks to estimate the worker's clock offset (the midpoint
/// method; see docs/OBSERVABILITY.md).
struct HelloAck {
  std::uint32_t version = kProtoVersion;
  std::uint64_t clock_ns = 0;
};

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack);
/// Accepts a legacy 4-byte (v1) payload so a version mismatch surfaces as
/// "worker speaks protocol 1" rather than a length error.
HelloAck decode_hello_ack(std::span<const std::uint8_t> bytes);

/// One completed worker-side span, timestamps in the worker's local
/// clock. Names travel as codes so records stay fixed-size.
enum class SpanName : std::uint32_t { recv = 0, compute = 1, send = 2 };
const char* span_name_str(SpanName name);

struct WorkerSpan {
  SpanName name = SpanName::recv;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Span-record cap per trace_data frame; workers drop (and count) spans
/// beyond it rather than grow without bound on long sessions.
inline constexpr std::uint64_t kMaxTraceSpans = 1u << 16;

/// trace_data payload: u64 count then `count` fixed 44-byte records.
/// decode validates the count against both kMaxTraceSpans and the exact
/// byte length before allocating.
std::vector<std::uint8_t> encode_trace_spans(
    std::span<const WorkerSpan> spans);
std::vector<WorkerSpan> decode_trace_spans(
    std::span<const std::uint8_t> bytes);

/// Run one projection request against a shard through the same batched
/// kernels the solo decode adapters use (worker side of the RPC).
Matrix shard_project(const ModelShard& shard, const ProjectRequest& req);

/// Matrix payloads (project_out frames).
std::vector<std::uint8_t> encode_matrix(const Matrix& m);
Matrix decode_matrix(std::span<const std::uint8_t> bytes);

}  // namespace aptq::net
