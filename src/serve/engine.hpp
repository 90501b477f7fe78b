// Continuous-batching serving engine over the shared KV-cache decode
// engine (model/decode.hpp).
//
// The engine multiplexes many concurrent generation requests over one
// model. Each scheduler step
//
//   1. admits queued requests (highest priority first, FIFO within a
//      level) while a batch seat, a KvPool slot, and enough KV pages for
//      the prompt are all free,
//   2. prefills freshly admitted requests (each a batched decode_prefill
//      over the whole prompt), then advances every older request one
//      token through a single decode_step_batch forward pass — the
//      in-flight activations are stacked into one (batch × dim) matrix so
//      the batched kernels stream each weight row once per step and the
//      global ThreadPool parallelizes inside the GEMMs,
//   3. samples each request's next token from its private RNG stream
//      (Rng::for_stream(seed, request_id)) with its own temperature/top_k,
//   4. retires finished requests (eos / max_new_tokens / KV capacity) and
//      recycles their KV slot.
//
// Determinism contract: a request's token stream is a pure function of
// (model, prompt, sampling, seed, request id) — byte-identical to running
// it alone through decode_prefill/decode_step + sample_token — regardless
// of batch composition, arrival order, or thread count. Enforced by
// tests/serve_test.cpp; design notes in docs/SERVING.md.
//
// The engine is single-submitter: submit()/step()/run() are called from
// one thread; parallelism lives inside step(). Instrumentation (spans,
// serve.* metrics, the run-report serving section) activates with the
// usual obs switches and costs one relaxed load when off.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "serve/backend.hpp"
#include "serve/kv_pool.hpp"
#include "serve/request.hpp"
#include "serve/spec.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace aptq::obs {
class RunReport;
}

namespace aptq::serve {

class ServeEngine {
 public:
  ServeEngine(Backend backend, const ServeConfig& config);

  /// Engine with speculative decoding available: requests that set
  /// Request::speculative decode through draft-propose / batched-verify
  /// cycles (emitting the exact same token streams, usually in fewer
  /// target passes; the verify pass is the target's prefill); other
  /// requests are served as usual.
  ServeEngine(Backend backend, const ServeConfig& config, SpecConfig spec);

  /// Enqueue one request; returns its id. Throws aptq::Error on invalid
  /// requests (empty prompt, out-of-vocab token, zero max_new_tokens,
  /// non-positive temperature) or when the queue is at max_queue.
  RequestId submit(Request request);

  /// One scheduler iteration (admission + one prefill-or-step per active
  /// request + retirement). Returns the number of tokens sampled; 0 means
  /// the engine is idle.
  std::size_t step();

  /// Cancel a request by id, from the submitter thread. Queued requests
  /// leave immediately; in-flight requests retire with the tokens
  /// generated so far. Either way the result carries
  /// FinishReason::cancelled. Returns false when the id is unknown or the
  /// request already finished.
  bool cancel(RequestId id);

  /// Drive step() until queue and batch are empty, then return every
  /// result accumulated since construction (or the last run()), sorted by
  /// request id.
  std::vector<GenerationResult> run();

  bool idle() const { return queue_.empty() && active_.empty(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t active_count() const { return active_.size(); }
  const KvPool& pool() const { return pool_; }
  const ServeConfig& config() const { return config_; }
  /// The backend's model geometry (vocab for workload generation, dims
  /// for sizing heuristics).
  const ModelConfig& model_config() const { return backend_.config; }
  /// Backend label ("dense", "packed", "sharded_packed", ...).
  const std::string& backend_name() const { return backend_.name; }
  const ServeStats& stats() const { return stats_; }
  /// Speculation counters; nullptr when the engine was built without a
  /// SpecConfig.
  const SpecStats* spec_stats() const {
    return spec_ != nullptr ? &spec_->stats() : nullptr;
  }

  /// Adds the engine's aggregate stats to the report's "serving" section
  /// (keys prefixed "<backend>.", e.g. "packed.tokens_per_sec").
  void fill_report(obs::RunReport& report) const;

  /// Streaming hook: fires once per sampled token, right after the stopping
  /// rules run — `finish` is FinishReason::none while the request keeps
  /// going, else the reason it stopped on this token. Called inline from
  /// step()'s thread between forward passes, so the callback must be cheap
  /// relative to a decode step (the HTTP front-end writes one chunk). Does
  /// not alter scheduling or sampling: token streams are byte-identical
  /// with or without a callback installed.
  using TokenCallback =
      std::function<void(RequestId, TokenId, FinishReason)>;
  void set_token_callback(TokenCallback cb) { on_token_ = std::move(cb); }

 private:
  struct Pending {
    RequestId id = 0;
    Request request;
    Timer since_submit;
  };
  struct Active {
    RequestId id = 0;
    Request request;
    Rng rng;
    DecodeState* state = nullptr;
    TokenSeq generated;
    TokenId next_input = 0;      ///< token to feed the next decode_step
    bool needs_prefill = true;
    bool evicted_by_pages = false;  ///< context_full cause: arena, not pos
    FinishReason finish = FinishReason::none;
    double ttft_ms = 0.0;
    double queue_wait_ms = 0.0;  ///< submit -> admission
    double prefill_ms = 0.0;     ///< prompt forward pass
    double decode_ms = 0.0;      ///< accumulated step_batch/verify time
    std::size_t spec_cycles = 0;
    std::size_t spec_proposed = 0;
    std::size_t spec_accepted = 0;
    double spec_draft_ms = 0.0;
    double spec_verify_ms = 0.0;
    Timer since_submit;
  };

  void admit();
  void prefill_one(Active& a);
  /// Sample from `logits` into `a` and run the stopping rules as if the
  /// sampled token's decode step had advanced the context to `ctx_pos`
  /// consumed positions (== a.state->pos() on the plain path; spec cycles
  /// pass the solo-equivalent position of each verify row).
  TokenId sample_and_stop(Active& a, std::vector<float> logits,
                          std::size_t ctx_pos);
  /// One draft-propose / batched-verify / accept-reject cycle; returns
  /// the number of tokens emitted (>= 1 unless evicted for pages).
  std::size_t spec_cycle(Active& a);
  void retire_finished();
  void update_gauges();

  Backend backend_;
  std::unique_ptr<SpecDecoder> spec_;
  TokenCallback on_token_;
  ServeConfig config_;
  KvPool pool_;
  RequestId next_id_ = 0;
  std::vector<Pending> queue_;
  std::vector<Active> active_;
  std::vector<GenerationResult> results_;
  ServeStats stats_;
};

}  // namespace aptq::serve
