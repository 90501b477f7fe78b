#include "net/sharded_model.hpp"

#include <utility>

#include "model/decode.hpp"
#include "net/frame.hpp"
#include "obs/control.hpp"

namespace aptq::net {

namespace {

constexpr std::uint64_t kFrameHeaderBytes = 16;

const char* rpc_span_name(std::uint32_t layer, LinearKind kind) {
  if (layer == kLmHeadLayer) {
    return "rpc.lm_head";
  }
  switch (kind) {
    case LinearKind::q_proj: return "rpc.q_proj";
    case LinearKind::k_proj: return "rpc.k_proj";
    case LinearKind::v_proj: return "rpc.v_proj";
    case LinearKind::o_proj: return "rpc.o_proj";
    case LinearKind::gate_proj: return "rpc.gate_proj";
    case LinearKind::up_proj: return "rpc.up_proj";
    case LinearKind::down_proj: return "rpc.down_proj";
    case LinearKind::lm_head: return "rpc.lm_head";
  }
  return "rpc.project";
}

}  // namespace

ShardedModel::ShardedModel(const Model& model,
                           std::vector<std::unique_ptr<Stream>> workers) {
  model.config.validate();
  config_ = model.config;
  base_name_ = "dense";
  attach(std::move(workers), [&model](std::size_t w, std::size_t n) {
    return make_shard(model, w, n);
  });
}

ShardedModel::ShardedModel(const PackedModel& model,
                           std::vector<std::unique_ptr<Stream>> workers) {
  config_ = model.config();
  base_name_ = "packed";
  attach(std::move(workers), [&model](std::size_t w, std::size_t n) {
    return make_shard(model, w, n);
  });
}

ShardedModel::~ShardedModel() {
  try {
    shutdown();
  } catch (...) {
    // Destructor cleanup is best-effort; a dead connection already told
    // the worker the session is over.
  }
}

void ShardedModel::attach(
    std::vector<std::unique_ptr<Stream>> workers,
    const std::function<ModelShard(std::size_t, std::size_t)>& shard_for) {
  APTQ_CHECK(!workers.empty(), "sharded model: at least one worker required");
  for (const auto& w : workers) {
    APTQ_CHECK(w != nullptr, "sharded model: null worker stream");
  }
  workers_ = std::move(workers);
  const std::size_t n = workers_.size();
  weight_bytes_.resize(n);
  links_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    Stream& stream = *workers_[w];
    const ModelShard shard = shard_for(w, n);
    if (w == 0) {
      // Worker 0's shard carries the root-side tensors; keep a copy local
      // — the decode loop reads them every step, the worker never does.
      tok_embed_ = shard.tok_embed;
      attn_norms_ = shard.attn_norms;
      ffn_norms_ = shard.ffn_norms;
      final_norm_ = shard.final_norm;
    }
    // Timestamp the hello round trip: the ack carries the worker's clock,
    // and under symmetric delay that clock was read at our midpoint.
    const std::uint64_t t_send = obs::now_ns();
    send_frame(stream, MsgType::hello, encode_u32(kProtoVersion));
    const Frame ack = expect_frame(stream, MsgType::hello_ack,
                                   kMaxControlPayload);
    const std::uint64_t t_recv = obs::now_ns();
    const HelloAck hello_ack = decode_hello_ack(ack.payload);
    APTQ_CHECK(hello_ack.version == kProtoVersion,
               "sharded model: worker " + stream.name() +
                   " speaks protocol version " +
                   std::to_string(hello_ack.version) + ", root speaks " +
                   std::to_string(kProtoVersion));
    LinkStats& link = links_[w];
    link.rtt_ns = t_recv - t_send;
    link.clock_offset_ns =
        static_cast<std::int64_t>((t_send + t_recv) / 2) -
        static_cast<std::int64_t>(hello_ack.clock_ns);
    link.bytes_sent += kFrameHeaderBytes + 4;
    link.bytes_recv += kFrameHeaderBytes + ack.payload.size();
    const std::vector<std::uint8_t> shard_bytes = shard_to_bytes(shard);
    link.bytes_sent += kFrameHeaderBytes + shard_bytes.size();
    send_frame(stream, MsgType::load_shard, shard_bytes);
    const Frame ready = expect_frame(stream, MsgType::shard_ready,
                                     kMaxShardPayload);
    link.bytes_recv += kFrameHeaderBytes + ready.payload.size();
    weight_bytes_[w] = decode_u64(ready.payload);
  }
  live_ = true;
}

void ShardedModel::shutdown() {
  if (!live_) {
    return;
  }
  live_ = false;
  if (traced_) {
    // Pull each worker's span buffer before ending the session, rebasing
    // its worker-local timestamps into the root clock via the handshake
    // offset estimate.
    remote_trace_.clear();
    remote_trace_.reserve(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      Stream& stream = *workers_[w];
      send_frame(stream, MsgType::trace_flush, {});
      const Frame data =
          expect_frame(stream, MsgType::trace_data, kMaxTracePayload);
      links_[w].bytes_sent += kFrameHeaderBytes;
      links_[w].bytes_recv += kFrameHeaderBytes + data.payload.size();
      obs::RemoteProcess proc;
      proc.pid = static_cast<int>(w) + 2;  // pid 1 is the root process
      proc.name = "worker-" + std::to_string(w) + " (" + stream.name() + ")";
      const std::int64_t offset = links_[w].clock_offset_ns;
      for (const WorkerSpan& s : decode_trace_spans(data.payload)) {
        obs::RemoteSpan out;
        out.name = span_name_str(s.name);
        const std::int64_t rebased =
            static_cast<std::int64_t>(s.start_ns) + offset;
        out.start_ns = rebased > 0 ? static_cast<std::uint64_t>(rebased) : 0;
        out.dur_ns = s.dur_ns;
        out.trace_id = s.trace_id;
        out.span_id = s.span_id;
        out.parent_span_id = s.parent_span_id;
        proc.spans.push_back(std::move(out));
      }
      remote_trace_.push_back(std::move(proc));
    }
  }
  for (auto& worker : workers_) {
    send_frame(*worker, MsgType::shutdown, {});
    expect_frame(*worker, MsgType::bye, kMaxControlPayload);
  }
}

Matrix ShardedModel::broadcast(std::uint32_t layer, LinearKind kind,
                               const Matrix& x) {
  APTQ_CHECK(live_, "sharded model: session is shut down");
  // When tracing, this broadcast becomes one trace: the root-side span is
  // both trace root and parent of every worker's recv/compute/send. Ids
  // come from a session-local counter, so repeated identical sessions
  // produce identical ids (the merged-trace determinism test relies on
  // this).
  std::uint64_t trace_id = 0;
  if (obs::tracing_enabled()) {
    trace_id = next_trace_id_++;
    traced_ = true;
  }
  obs::TraceSpan span(rpc_span_name(layer, kind), "rpc");
  // One encode serves every worker: all shards see the full input.
  const std::vector<std::uint8_t> payload =
      encode_project(layer, kind, x, trace_id, trace_id);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    send_frame(*workers_[w], MsgType::project, payload);
    links_[w].bytes_sent += kFrameHeaderBytes + payload.size();
    ++links_[w].projections;
  }
  const std::size_t full = linear_out_features(config_, kind);
  const std::size_t n = workers_.size();
  Matrix out(x.rows(), full);
  for (std::size_t w = 0; w < n; ++w) {
    const Frame f = expect_frame(*workers_[w], MsgType::project_out,
                                 kMaxProjectPayload);
    links_[w].bytes_recv += kFrameHeaderBytes + f.payload.size();
    const Matrix slice = decode_matrix(f.payload);
    const ShardRange range = shard_range(full, w, n);
    APTQ_CHECK(slice.rows() == x.rows() && slice.cols() == range.size(),
               "sharded model: worker " + workers_[w]->name() +
                   " returned a " + std::to_string(slice.rows()) + "x" +
                   std::to_string(slice.cols()) + " slice, expected " +
                   std::to_string(x.rows()) + "x" +
                   std::to_string(range.size()));
    for (std::size_t r = 0; r < slice.rows(); ++r) {
      const auto src = slice.row(r);
      std::copy(src.begin(), src.end(), out.row(r).begin() + range.begin);
    }
  }
  return out;
}

Matrix ShardedModel::project(std::size_t layer, LinearKind kind,
                             const Matrix& x) {
  return broadcast(static_cast<std::uint32_t>(layer), kind, x);
}

Matrix ShardedModel::head(const Matrix& x) {
  return broadcast(kLmHeadLayer, LinearKind::lm_head, x);
}

namespace {

// Plugs ShardedModel into the shared decode engine. The engine takes the
// adapter by const reference, but projections mutate transport state, so
// the adapter holds a mutable handle.
struct ShardedDecodeAdapter {
  ShardedModel* model;

  const ModelConfig& config() const { return model->config(); }
  std::span<const float> embedding(std::size_t token) const {
    return model->embedding(token);
  }
  std::span<const float> attn_norm(std::size_t layer) const {
    return model->attn_norm(layer);
  }
  std::span<const float> ffn_norm(std::size_t layer) const {
    return model->ffn_norm(layer);
  }
  std::span<const float> final_norm() const { return model->final_norm(); }
  Matrix project(std::size_t layer, LinearKind kind, const Matrix& x) const {
    return model->project(layer, kind, x);
  }
  Matrix head(const Matrix& x) const { return model->head(x); }
};

}  // namespace

Matrix decode_prefill(ShardedModel& model, std::span<const TokenId> tokens,
                      DecodeState& state) {
  const DecodeSegment segment{&state, tokens};
  return detail::decode_forward(ShardedDecodeAdapter{&model}, {&segment, 1});
}

std::vector<float> decode_step(ShardedModel& model, TokenId token,
                               DecodeState& state) {
  return detail::first_row(decode_prefill(model, {&token, 1}, state));
}

Matrix decode_step_batch(ShardedModel& model,
                         std::span<const TokenId> tokens,
                         std::span<DecodeState* const> states) {
  return detail::decode_forward(ShardedDecodeAdapter{&model},
                                detail::step_segments(tokens, states));
}

serve::Backend make_backend(ShardedModel& model) {
  serve::Backend b;
  b.name = "sharded_" + model.base_name();
  b.config = model.config();
  b.prefill = [&model](std::span<const TokenId> tokens, DecodeState& state) {
    return decode_prefill(model, tokens, state);
  };
  b.step_batch = [&model](std::span<const TokenId> tokens,
                          std::span<DecodeState* const> states) {
    return decode_step_batch(model, tokens, states);
  };
  return b;
}

}  // namespace aptq::net
