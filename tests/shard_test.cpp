// Tensor-parallel equivalence suite: sharded decode over real localhost
// sockets must be byte-identical to solo decode — workers {1,2,4} ×
// threads {1,4} × dense/packed, across prefill, incremental steps, and
// batched steps, plus the serving engine's full token streams. Also the
// shard-file round trip (split → serialize → load → reassemble →
// bit-identical saved bytes) and per-worker weight-byte accounting.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <thread>

#include "net/sharded_model.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "obs/control.hpp"
#include "obs/trace.hpp"
#include "quant/packed_model.hpp"
#include "serve/engine.hpp"
#include "util/threadpool.hpp"
#include "packed_fixtures.hpp"
#include "temp_file.hpp"

namespace aptq::net {
namespace {

ModelConfig shard_config() {
  ModelConfig c;
  c.vocab_size = 26;   // odd split under 4 workers
  c.dim = 16;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;    // GQA: kv_dim 8, so 4-way splits get width-2 slices
  c.ffn_dim = 24;
  return c;
}

PackedModel packed_for(const Model& m) {
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 8;
  return PackedModel::pack_uniform(m, spec);
}

/// N worker threads, each serving one session over a localhost socket.
/// take_streams() yields the root-side connections; the destructor joins
/// (workers return after the root's shutdown/bye).
class Cluster {
 public:
  explicit Cluster(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto listener = std::make_shared<Listener>(0);
      const std::uint16_t port = listener->port();
      threads_.emplace_back([listener] {
        Socket conn = listener->accept();
        serve_worker(conn);
      });
      streams_.push_back(
          std::make_unique<Socket>(Socket::connect("127.0.0.1", port)));
    }
  }
  ~Cluster() {
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  std::vector<std::unique_ptr<Stream>> take_streams() {
    return std::move(streams_);
  }

 private:
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

TokenSeq tokens_for(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  TokenSeq t(n);
  for (auto& v : t) {
    v = static_cast<TokenId>(rng.index(vocab));
  }
  return t;
}

/// Prefill + solo steps + a batched step, solo vs sharded, and prefill vs
/// sequential steps: exact equality.
template <typename ModelT>
void check_decode_equivalence(const ModelT& model, std::size_t n_workers) {
  const ModelConfig& cfg = shard_config();
  Cluster cluster(n_workers);
  ShardedModel sharded(model, cluster.take_streams());
  EXPECT_EQ(sharded.n_workers(), n_workers);

  const TokenSeq prompt = tokens_for(6, 42, cfg.vocab_size);
  DecodeState solo_state(cfg, 64);
  DecodeState shard_state(cfg, 64);
  const Matrix solo_prefill = decode_prefill(model, prompt, solo_state);
  const Matrix shard_prefill = decode_prefill(sharded, prompt, shard_state);
  EXPECT_EQ(solo_prefill, shard_prefill);
  // Prefill row t == the t-th of sequential solo steps over the prompt.
  DecodeState seq_state(cfg, 64);
  for (std::size_t t = 0; t < prompt.size(); ++t) {
    const std::vector<float> step = decode_step(model, prompt[t], seq_state);
    for (std::size_t v = 0; v < step.size(); ++v) {
      ASSERT_EQ(shard_prefill(t, v), step[v]) << "position " << t;
    }
  }

  for (TokenId t : tokens_for(4, 7, cfg.vocab_size)) {
    const std::vector<float> solo = decode_step(model, t, solo_state);
    const std::vector<float> shard = decode_step(sharded, t, shard_state);
    EXPECT_EQ(solo, shard);
  }

  // Batched step over three fresh sessions with different depths.
  std::vector<DecodeState> solo_states;
  std::vector<DecodeState> shard_states;
  for (std::size_t i = 0; i < 3; ++i) {
    solo_states.emplace_back(cfg, 64);
    shard_states.emplace_back(cfg, 64);
    const TokenSeq p = tokens_for(2 + i, 50 + i, cfg.vocab_size);
    decode_prefill(model, p, solo_states[i]);
    decode_prefill(sharded, p, shard_states[i]);
  }
  const TokenSeq batch = tokens_for(3, 77, cfg.vocab_size);
  std::vector<DecodeState*> solo_ptrs{&solo_states[0], &solo_states[1],
                                      &solo_states[2]};
  std::vector<DecodeState*> shard_ptrs{&shard_states[0], &shard_states[1],
                                       &shard_states[2]};
  const Matrix solo_batch = decode_step_batch(model, batch, solo_ptrs);
  const Matrix shard_batch = decode_step_batch(sharded, batch, shard_ptrs);
  EXPECT_EQ(solo_batch, shard_batch);

  sharded.shutdown();
}

class ShardEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  ~ShardEquivalenceTest() override { ThreadPool::set_global_threads(1); }
};

TEST_P(ShardEquivalenceTest, DenseMatchesSoloBitwise) {
  const auto [n_workers, threads] = GetParam();
  ThreadPool::set_global_threads(threads);
  const Model model = Model::init(shard_config(), 3);
  check_decode_equivalence(model, n_workers);
}

TEST_P(ShardEquivalenceTest, PackedMatchesSoloBitwise) {
  const auto [n_workers, threads] = GetParam();
  ThreadPool::set_global_threads(threads);
  const Model model = Model::init(shard_config(), 3);
  const PackedModel packed = packed_for(model);
  check_decode_equivalence(packed, n_workers);
}

TEST_P(ShardEquivalenceTest, MixedPackedMatchesSoloBitwise) {
  const auto [n_workers, threads] = GetParam();
  ThreadPool::set_global_threads(threads);
  const PackedModel packed = mixed_2_4_packed(Model::init(shard_config(), 3));
  check_decode_equivalence(packed, n_workers);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByThreads, ShardEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return "workers" + std::to_string(std::get<0>(info.param)) +
             "_threads" + std::to_string(std::get<1>(info.param));
    });

// The serving engine's whole token streams, solo backend vs sharded
// backend, same requests: identical tokens and finish reasons.
TEST(ShardServeTest, EngineTokenStreamsMatchSolo) {
  const Model model = Model::init(shard_config(), 11);
  const PackedModel packed = packed_for(model);

  serve::ServeConfig scfg;
  scfg.max_batch = 3;
  scfg.max_context = 48;

  const auto submit_all = [&](serve::ServeEngine& engine) {
    for (std::size_t i = 0; i < 4; ++i) {
      serve::Request r;
      r.prompt = tokens_for(3 + i, 100 + i, shard_config().vocab_size);
      r.max_new_tokens = 6;
      r.seed = i;
      r.sampling.temperature = 0.8f;
      r.sampling.top_k = 5;
      engine.submit(std::move(r));
    }
    return engine.run();
  };

  serve::ServeEngine solo(serve::make_backend(packed), scfg);
  const auto solo_results = submit_all(solo);

  Cluster cluster(2);
  ShardedModel sharded(packed, cluster.take_streams());
  serve::ServeEngine dist(make_backend(sharded), scfg);
  EXPECT_EQ(dist.config().max_batch, 3u);
  const auto dist_results = submit_all(dist);
  sharded.shutdown();

  ASSERT_EQ(solo_results.size(), dist_results.size());
  for (std::size_t i = 0; i < solo_results.size(); ++i) {
    EXPECT_EQ(solo_results[i].id, dist_results[i].id);
    EXPECT_EQ(solo_results[i].tokens, dist_results[i].tokens);
    EXPECT_EQ(solo_results[i].finish, dist_results[i].finish);
  }
}

TEST(ShardServeTest, BackendNameTagsTheBase) {
  const Model model = Model::init(shard_config(), 11);
  Cluster cluster(1);
  ShardedModel sharded(model, cluster.take_streams());
  EXPECT_EQ(make_backend(sharded).name, "sharded_dense");
  sharded.shutdown();
}

TEST(ShardServeTest, ProjectionAfterShutdownThrows) {
  const Model model = Model::init(shard_config(), 11);
  Cluster cluster(2);
  ShardedModel sharded(model, cluster.take_streams());
  sharded.shutdown();
  sharded.shutdown();  // idempotent
  Matrix x(1, shard_config().dim);
  EXPECT_THROW(sharded.project(0, LinearKind::q_proj, x), Error);
}

// --- cross-shard tracing ---------------------------------------------------

std::uint64_t fixed_clock() { return 1'000'000; }

// One traced sharded session: prefill + two solo steps over 2 workers,
// returning the merged root+worker trace JSON.
std::string traced_session_json() {
  obs::reset_trace_events();
  const ModelConfig& cfg = shard_config();
  const Model model = Model::init(cfg, 3);
  Cluster cluster(2);
  ShardedModel sharded(model, cluster.take_streams());
  DecodeState shard_state(cfg, 64);
  decode_prefill(sharded, tokens_for(4, 42, cfg.vocab_size), shard_state);
  decode_step(sharded, 1, shard_state);
  decode_step(sharded, 2, shard_state);
  sharded.shutdown();
  EXPECT_EQ(sharded.remote_trace().size(), 2u);
  return obs::trace_json(sharded.remote_trace());
}

TEST(ShardTraceTest, MergedTraceHasRootAndWorkerSpans) {
  obs::set_clock_for_testing(&fixed_clock);
  obs::set_tracing(true);
  const std::string json = traced_session_json();
  obs::set_tracing(false);
  obs::set_clock_for_testing(nullptr);
  obs::reset_trace_events();

  // Root-side rpc spans and both workers' lanes land in ONE document.
  EXPECT_NE(json.find("\"rpc.q_proj\""), std::string::npos);
  EXPECT_NE(json.find("\"rpc.lm_head\""), std::string::npos);
  EXPECT_NE(json.find("\"worker.recv\""), std::string::npos);
  EXPECT_NE(json.find("\"worker.compute\""), std::string::npos);
  EXPECT_NE(json.find("\"worker.send\""), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
  EXPECT_NE(json.find("worker-1"), std::string::npos);
  // Worker events carry the propagated trace context.
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":"), std::string::npos);
}

// The only run-varying bytes in a pinned-clock trace are the workers'
// ephemeral localhost ports inside the process names; scrub them so the
// rest of the document can be compared bytewise.
std::string scrub_ports(std::string json) {
  std::size_t at = 0;
  const std::string host = "127.0.0.1:";
  while ((at = json.find(host, at)) != std::string::npos) {
    std::size_t end = at + host.size();
    while (end < json.size() && std::isdigit(json[end]) != 0) {
      ++end;
    }
    json.replace(at, end - at, "127.0.0.1:PORT");
    at += host.size();
  }
  return json;
}

TEST(ShardTraceTest, MergedTraceByteDeterministicUnderPinnedClock) {
  // With the observability clock pinned, trace/span ids come from
  // session-local counters and clock offsets collapse to zero, so two
  // identical sessions serialize identically — byte for byte once the
  // ephemeral worker ports in the lane names are normalized.
  obs::set_clock_for_testing(&fixed_clock);
  obs::set_tracing(true);
  const std::string first = traced_session_json();
  const std::string second = traced_session_json();
  obs::set_tracing(false);
  obs::set_clock_for_testing(nullptr);
  obs::reset_trace_events();
  EXPECT_EQ(scrub_ports(first), scrub_ports(second));
}

TEST(ShardTraceTest, TracingOffShipsNoSpans) {
  // Untraced sessions must not pay for span collection: no trace context
  // on the wire, no trace_flush at shutdown, empty remote trace.
  const ModelConfig& cfg = shard_config();
  const Model model = Model::init(cfg, 3);
  Cluster cluster(2);
  ShardedModel sharded(model, cluster.take_streams());
  DecodeState state(cfg, 64);
  decode_prefill(sharded, tokens_for(4, 42, cfg.vocab_size), state);
  sharded.shutdown();
  EXPECT_TRUE(sharded.remote_trace().empty());
}

TEST(ShardTraceTest, LinkStatsCountTrafficPerWorker) {
  const ModelConfig& cfg = shard_config();
  const Model model = Model::init(cfg, 3);
  Cluster cluster(2);
  ShardedModel sharded(model, cluster.take_streams());
  DecodeState state(cfg, 64);
  decode_prefill(sharded, tokens_for(4, 42, cfg.vocab_size), state);
  sharded.shutdown();
  ASSERT_EQ(sharded.link_stats().size(), 2u);
  for (const LinkStats& link : sharded.link_stats()) {
    EXPECT_GT(link.projections, 0u);
    EXPECT_GT(link.bytes_sent, 0u);
    EXPECT_GT(link.bytes_recv, 0u);
    // Both directions at least paid the hello/ack frame headers.
    EXPECT_GE(link.rtt_ns, 0u);
  }
  // Every worker sees the same projection fan-out count.
  EXPECT_EQ(sharded.link_stats()[0].projections,
            sharded.link_stats()[1].projections);
}

// --- shard files and reassembly --------------------------------------------

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ShardFileTest, PackedSplitSerializeLoadReassembleBitwise) {
  const Model model = Model::init(shard_config(), 23);
  const PackedModel packed = packed_for(model);
  const ScopedTempFile original("aptq_shard_orig");
  packed.save(original.path());

  const std::size_t n = 4;
  std::vector<ModelShard> loaded;
  for (std::size_t w = 0; w < n; ++w) {
    const ScopedTempFile shard("aptq_shard_" + std::to_string(w));
    save_shard(make_shard(packed, w, n), shard.path());
    loaded.push_back(load_shard(shard.path()));
  }
  // Reassembled model saves to the exact bytes of the unsharded file.
  const PackedModel rebuilt = reassemble_packed(loaded);
  const ScopedTempFile roundtrip("aptq_shard_rt");
  rebuilt.save(roundtrip.path());
  EXPECT_EQ(file_bytes(original.path()), file_bytes(roundtrip.path()));
}

TEST(ShardFileTest, DenseReassemblyRestoresEveryWeight) {
  const Model model = Model::init(shard_config(), 29);
  std::vector<ModelShard> shards;
  for (std::size_t w = 0; w < 3; ++w) {
    // Through the wire codec, not just in-memory structs.
    shards.push_back(shard_from_bytes(shard_to_bytes(make_shard(model, w, 3))));
  }
  const Model rebuilt = reassemble_dense(shards);
  EXPECT_EQ(rebuilt.config, model.config);
  EXPECT_EQ(rebuilt.tok_embed, model.tok_embed);
  EXPECT_EQ(rebuilt.lm_head, model.lm_head);
  EXPECT_EQ(rebuilt.final_norm, model.final_norm);
  ASSERT_EQ(rebuilt.blocks.size(), model.blocks.size());
  for (std::size_t b = 0; b < model.blocks.size(); ++b) {
    EXPECT_EQ(rebuilt.blocks[b].wq, model.blocks[b].wq);
    EXPECT_EQ(rebuilt.blocks[b].wk, model.blocks[b].wk);
    EXPECT_EQ(rebuilt.blocks[b].wv, model.blocks[b].wv);
    EXPECT_EQ(rebuilt.blocks[b].wo, model.blocks[b].wo);
    EXPECT_EQ(rebuilt.blocks[b].w_gate, model.blocks[b].w_gate);
    EXPECT_EQ(rebuilt.blocks[b].w_up, model.blocks[b].w_up);
    EXPECT_EQ(rebuilt.blocks[b].w_down, model.blocks[b].w_down);
    EXPECT_EQ(rebuilt.blocks[b].attn_norm, model.blocks[b].attn_norm);
    EXPECT_EQ(rebuilt.blocks[b].ffn_norm, model.blocks[b].ffn_norm);
  }
}

TEST(ShardFileTest, ReassemblyRejectsIncompleteSets) {
  const Model model = Model::init(shard_config(), 29);
  std::vector<ModelShard> shards;
  shards.push_back(make_shard(model, 0, 3));
  shards.push_back(make_shard(model, 2, 3));  // worker 1 missing
  EXPECT_THROW(reassemble_dense(shards), Error);
}

// Per-worker weight bytes must shrink ~1/N — the point of sharding: each
// worker streams only its slice per decode step.
TEST(ShardWeightTest, PerWorkerBytesShrinkWithWorkerCount) {
  const Model model = Model::init(shard_config(), 31);
  const PackedModel packed = packed_for(model);
  const std::size_t solo_bytes = make_shard(packed, 0, 1).weight_bytes();
  ASSERT_GT(solo_bytes, 0u);
  for (const std::size_t n : {2u, 4u}) {
    std::size_t total = 0;
    std::size_t largest = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const std::size_t b = make_shard(packed, w, n).weight_bytes();
      total += b;
      largest = std::max(largest, b);
    }
    // Slices partition the weights exactly; per-group quant params make
    // the packed sum match the solo model exactly as well.
    EXPECT_EQ(total, solo_bytes);
    // Largest shard stays near 1/N (+ slack for rounding to group rows).
    EXPECT_LE(largest, solo_bytes / n + solo_bytes / (4 * n));
  }

  // The root's handshake records what each worker reported.
  Cluster cluster(2);
  ShardedModel sharded(packed, cluster.take_streams());
  ASSERT_EQ(sharded.worker_weight_bytes().size(), 2u);
  EXPECT_EQ(sharded.worker_weight_bytes()[0] +
                sharded.worker_weight_bytes()[1],
            solo_bytes);
  sharded.shutdown();
}

}  // namespace
}  // namespace aptq::net
