// Root side of tensor-parallel decode: a model whose projections run on N
// remote workers while everything else — embeddings, norms, rope,
// attention over the KV cache, sampling — stays local. ShardedModel
// satisfies the decode adapter contract of model/decode.hpp, so the
// shared decode forward (and therefore ServeEngine) runs on it unchanged; every projection is a broadcast of the full input to
// all workers followed by a positional gather of output slices, which
// keeps N-worker token streams byte-identical to solo decode
// (docs/SHARDING.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/shard.hpp"
#include "net/stream.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace aptq::net {

/// Per-worker transport accounting, kept root-side (workers stay
/// stateless). rtt_ns and clock_offset_ns come from the hello/hello_ack
/// exchange: offset = midpoint(send, recv) − worker_clock, the classic
/// symmetric-delay estimate, so worker span timestamps rebase into the
/// root's clock to within ±rtt/2.
struct LinkStats {
  std::uint64_t rtt_ns = 0;
  std::int64_t clock_offset_ns = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t projections = 0;
};

/// Root handle over N connected workers. Construction performs the full
/// session setup on every stream: hello/hello_ack, then each worker's
/// shard (worker i gets make_shard(model, i, N)), then shard_ready.
/// Streams are owned; the destructor ends the sessions best-effort.
class ShardedModel {
 public:
  ShardedModel(const Model& model,
               std::vector<std::unique_ptr<Stream>> workers);
  ShardedModel(const PackedModel& model,
               std::vector<std::unique_ptr<Stream>> workers);
  ShardedModel(const ShardedModel&) = delete;
  ShardedModel& operator=(const ShardedModel&) = delete;
  ~ShardedModel();

  const ModelConfig& config() const { return config_; }
  std::size_t n_workers() const { return workers_.size(); }
  /// "dense" / "packed" — which solo backend this mirrors.
  const std::string& base_name() const { return base_name_; }
  /// Weight bytes resident per worker, as reported by shard_ready.
  const std::vector<std::uint64_t>& worker_weight_bytes() const {
    return weight_bytes_;
  }

  /// Per-worker handshake RTT / clock offset and running byte counts
  /// (for /statz and the merged trace's clock rebasing).
  const std::vector<LinkStats>& link_stats() const { return links_; }

  /// Worker span lanes collected at shutdown (one RemoteProcess per
  /// worker, timestamps rebased into the root clock). Empty until
  /// shutdown() runs, and empty if no projection was traced. Pass to
  /// obs::write_trace(path, remote_trace()) for the merged trace.
  const std::vector<obs::RemoteProcess>& remote_trace() const {
    return remote_trace_;
  }

  /// Graceful session end: when any projection was traced, first a
  /// trace_flush/trace_data sweep collects worker spans, then
  /// shutdown/bye per worker. Idempotent; called by the destructor.
  /// Further projections throw.
  void shutdown();

  // --- decode adapter surface (model/decode.hpp contract) ---------------
  std::span<const float> embedding(std::size_t token) const {
    return tok_embed_.row(token);
  }
  std::span<const float> attn_norm(std::size_t layer) const {
    return attn_norms_[layer];
  }
  std::span<const float> ffn_norm(std::size_t layer) const {
    return ffn_norms_[layer];
  }
  std::span<const float> final_norm() const { return final_norm_; }

  Matrix project(std::size_t layer, LinearKind kind, const Matrix& x);
  Matrix head(const Matrix& x);

 private:
  void attach(std::vector<std::unique_ptr<Stream>> workers,
              const std::function<ModelShard(std::size_t, std::size_t)>&
                  shard_for);
  /// Broadcast one request to every worker, then gather the output
  /// slices in worker order into the full (rows × out_features) result.
  Matrix broadcast(std::uint32_t layer, LinearKind kind, const Matrix& x);

  ModelConfig config_;
  std::string base_name_;
  Matrix tok_embed_;
  std::vector<std::vector<float>> attn_norms_;
  std::vector<std::vector<float>> ffn_norms_;
  std::vector<float> final_norm_;
  std::vector<std::unique_ptr<Stream>> workers_;
  std::vector<std::uint64_t> weight_bytes_;
  std::vector<LinkStats> links_;
  std::vector<obs::RemoteProcess> remote_trace_;
  std::uint64_t next_trace_id_ = 1;  // deterministic per-session counter
  bool traced_ = false;              // any projection carried a context
  bool live_ = false;
};

/// Decode entry points mirroring the Model/PackedModel overloads; the
/// shared engine supplies the non-projection math, so results are bitwise
/// identical to the solo overloads for any worker count.
Matrix decode_prefill(ShardedModel& model, std::span<const TokenId> tokens,
                      DecodeState& state);
std::vector<float> decode_step(ShardedModel& model, TokenId token,
                               DecodeState& state);
Matrix decode_step_batch(ShardedModel& model,
                         std::span<const TokenId> tokens,
                         std::span<DecodeState* const> states);

/// ServeEngine backend over a sharded model (name "sharded_dense" /
/// "sharded_packed"). The model must outlive the backend.
serve::Backend make_backend(ShardedModel& model);

}  // namespace aptq::net
