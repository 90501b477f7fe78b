// Request/response types and configuration for the continuous-batching
// serving engine (serve/engine.hpp).
//
// A Request carries everything that makes one generation independent of
// every other: the prompt, the stopping rules, the per-request sampling
// parameters, and the seed of its private RNG stream
// (Rng::for_stream(seed, request_id)). The engine's determinism contract —
// each request's token stream is byte-identical to decoding it alone —
// rests on requests never sharing mutable state; see docs/SERVING.md.
#pragma once

#include <cstdint>
#include <string>

#include "data/vocab.hpp"
#include "model/sampler.hpp"

namespace aptq::serve {

/// Engine-assigned request identity (dense, starting at 0 per engine).
using RequestId = std::uint64_t;

/// Why a request left the engine.
enum class FinishReason {
  none,          ///< still queued or in flight
  eos,           ///< sampled the request's eos_token
  max_tokens,    ///< generated max_new_tokens
  context_full,  ///< KV capacity reached before the other limits (evicted)
  rejected,      ///< never admitted (e.g. prompt longer than max_context)
  cancelled,     ///< caller cancelled via ServeEngine::cancel()
};

const char* to_string(FinishReason reason);

/// One generation request. Validated at submit(): non-empty prompt, every
/// token in vocab, max_new_tokens >= 1, temperature > 0.
struct Request {
  TokenSeq prompt;
  std::size_t max_new_tokens = 16;
  SampleConfig sampling;        ///< per-request temperature / top_k
  std::uint64_t seed = 0;       ///< per-request RNG stream seed
  int priority = 0;             ///< higher admits first; FIFO within a level
  TokenId eos_token = -1;       ///< stop when sampled; -1 disables
  /// Opt into speculative decoding (requires the engine to be constructed
  /// with a SpecConfig whose draft shares the target's vocab — both are
  /// validated at submit()). The token stream is bitwise identical either
  /// way; only latency changes.
  bool speculative = false;
};

/// Completed (or rejected) request. The latency breakdown decomposes
/// total_ms: queue_wait (submit → admission) + prefill (the prompt's
/// forward pass) + decode (all step_batch passes this request rode in);
/// the remainder is scheduler time spent on co-batched requests.
struct GenerationResult {
  RequestId id = 0;
  TokenSeq tokens;              ///< generated tokens (prompt excluded)
  FinishReason finish = FinishReason::none;
  std::string error;            ///< set when finish == rejected
  double ttft_ms = 0.0;         ///< submit -> first sampled token
  double total_ms = 0.0;        ///< submit -> completion
  double queue_wait_ms = 0.0;   ///< submit -> admitted into the batch
  double prefill_ms = 0.0;      ///< prompt forward pass
  double decode_ms = 0.0;       ///< sum of this request's decode passes
  double tpot_ms = 0.0;  ///< decode_ms per post-first token; 0 when the
                         ///< request produced <= 1 token (no decode pass
                         ///< ran — aggregations must skip, not average, it)
  std::size_t prompt_tokens = 0;
  std::size_t completion_step = 0;  ///< engine step() count at completion
  // Speculative-decoding breakdown (all zero for non-speculative requests).
  std::size_t spec_cycles = 0;     ///< verify passes with >= 1 proposal
  std::size_t spec_proposed = 0;   ///< draft tokens offered
  std::size_t spec_accepted = 0;   ///< draft tokens accepted
  double spec_draft_ms = 0.0;      ///< time in draft propose()
  double spec_verify_ms = 0.0;     ///< time in verify (prefill) passes
};

/// Engine sizing. Defaults suit the sim-scale models; production values
/// scale max_context / slots with available memory.
struct ServeConfig {
  std::size_t max_batch = 8;    ///< requests decoded per engine step
  std::size_t max_context = 256;  ///< KV capacity per pooled DecodeState
  std::size_t kv_slots = 0;     ///< pooled DecodeStates; 0 = max_batch
  std::size_t max_queue = 0;    ///< submit() throws past this; 0 = unbounded
  /// Positions per KV page in the shared paged arena; must be a power of
  /// two. 0 = kKvPagePositions (decode.hpp).
  std::size_t kv_page_positions = 0;
  /// Total pages in the shared arena. 0 = enough for every slot to reach
  /// max_context (the historical fully-provisioned bound). Smaller values
  /// oversubscribe: admission waits for pages, and a request that cannot
  /// map its next position mid-flight is evicted as context_full.
  std::size_t kv_pages = 0;
};

/// Aggregate counters for one engine lifetime (reported via
/// RunReport::add_serving; see ServeEngine::fill_report).
struct ServeStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;   ///< includes evictions and in-flight
                               ///< cancellations, excludes rejections and
                               ///< queue cancellations
  std::size_t rejected = 0;
  std::size_t cancelled = 0;   ///< via ServeEngine::cancel(), any stage
  std::uint64_t prefill_tokens = 0;
  std::uint64_t generated_tokens = 0;
  std::size_t engine_steps = 0;
  std::size_t peak_active = 0;
  double busy_seconds = 0.0;   ///< wall time spent inside step()
  // Latency breakdown + pressure causes (schema_version 2 of the report's
  // serving section).
  double queue_wait_ms_sum = 0.0;   ///< across admitted requests
  double queue_wait_ms_max = 0.0;
  std::size_t evicted_capacity = 0;  ///< context_full: pos hit max_context
  std::size_t evicted_pages = 0;     ///< context_full: KV arena exhausted
  std::size_t backpressure_slots = 0;  ///< admission stalls: no KV slot
  std::size_t backpressure_pages = 0;  ///< admission stalls: no KV pages

  double tokens_per_sec() const {
    return busy_seconds > 0.0
               ? static_cast<double>(generated_tokens) / busy_seconds
               : 0.0;
  }
};

}  // namespace aptq::serve
