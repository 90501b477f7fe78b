#include "serve/engine.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "quant/packed_model.hpp"

namespace aptq::serve {

const char* to_string(FinishReason reason) {
  switch (reason) {
    case FinishReason::none: return "none";
    case FinishReason::eos: return "eos";
    case FinishReason::max_tokens: return "max_tokens";
    case FinishReason::context_full: return "context_full";
    case FinishReason::rejected: return "rejected";
    case FinishReason::cancelled: return "cancelled";
  }
  return "unknown";
}

Backend make_backend(const Model& model) {
  model.config.validate();
  Backend b;
  b.name = "dense";
  b.config = model.config;
  b.prefill = [&model](std::span<const TokenId> tokens, DecodeState& state) {
    return decode_prefill(model, tokens, state);
  };
  b.step_batch = [&model](std::span<const TokenId> tokens,
                          std::span<DecodeState* const> states) {
    return decode_step_batch(model, tokens, states);
  };
  return b;
}

Backend make_backend(const PackedModel& model) {
  Backend b;
  b.name = "packed";
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

ServeEngine::ServeEngine(Backend backend, const ServeConfig& config)
    : backend_(std::move(backend)),
      config_(config),
      pool_(backend_.config, config.max_context,
            config.kv_slots == 0 ? config.max_batch : config.kv_slots,
            config.kv_page_positions, config.kv_pages) {
  APTQ_CHECK(config_.max_batch >= 1, "ServeEngine: max_batch must be >= 1");
  APTQ_CHECK(backend_.prefill && backend_.step_batch,
             "ServeEngine: backend missing prefill/step_batch");
}

ServeEngine::ServeEngine(Backend backend, const ServeConfig& config,
                         SpecConfig spec)
    : ServeEngine(std::move(backend), config) {
  spec_ = std::make_unique<SpecDecoder>(std::move(spec), config_.max_context);
}

RequestId ServeEngine::submit(Request request) {
  APTQ_CHECK(config_.max_queue == 0 || queue_.size() < config_.max_queue,
             "ServeEngine: queue full (max_queue " +
                 std::to_string(config_.max_queue) + "); admission refused");
  APTQ_CHECK(!request.prompt.empty(), "ServeEngine: empty prompt");
  APTQ_CHECK(request.max_new_tokens >= 1,
             "ServeEngine: max_new_tokens must be >= 1");
  APTQ_CHECK(request.sampling.temperature > 0.0f,
             "ServeEngine: temperature must be positive");
  if (request.speculative) {
    // Reject at submit so a bad pairing never throws mid-flight from a
    // verify pass with co-batched requests in the engine.
    APTQ_CHECK(spec_ != nullptr,
               "ServeEngine: speculative request on an engine with no draft "
               "configured (construct with a SpecConfig)");
    APTQ_CHECK(
        spec_->config().draft.config.vocab_size == backend_.config.vocab_size,
        "ServeEngine: draft vocab " +
            std::to_string(spec_->config().draft.config.vocab_size) +
            " != target vocab " +
            std::to_string(backend_.config.vocab_size) +
            "; speculative verification requires a shared vocabulary");
  }
  for (const TokenId t : request.prompt) {
    APTQ_CHECK(t >= 0 && static_cast<std::size_t>(t) <
                             backend_.config.vocab_size,
               "ServeEngine: prompt token " + std::to_string(t) +
                   " out of vocab range");
  }
  Pending p;
  p.id = next_id_++;
  p.request = std::move(request);
  queue_.push_back(std::move(p));
  ++stats_.submitted;
  if (obs::telemetry_enabled()) {
    static auto& submitted = obs::counter("serve.requests_submitted");
    submitted.add(1);
  }
  update_gauges();
  return queue_.back().id;
}

void ServeEngine::admit() {
  while (active_.size() < config_.max_batch && !queue_.empty()) {
    // Highest priority first; FIFO (smallest id) within a level.
    auto best = queue_.begin();
    for (auto it = queue_.begin() + 1; it != queue_.end(); ++it) {
      if (it->request.priority > best->request.priority ||
          (it->request.priority == best->request.priority &&
           it->id < best->id)) {
        best = it;
      }
    }
    if (best->request.prompt.size() > config_.max_context) {
      // Can never prefill: fail the request, keep serving the rest.
      GenerationResult r;
      r.id = best->id;
      r.finish = FinishReason::rejected;
      r.error = "prompt of " + std::to_string(best->request.prompt.size()) +
                " tokens exceeds max_context " +
                std::to_string(config_.max_context);
      r.prompt_tokens = best->request.prompt.size();
      r.total_ms = best->since_submit.millis();
      r.completion_step = stats_.engine_steps;
      results_.push_back(std::move(r));
      ++stats_.rejected;
      if (obs::telemetry_enabled()) {
        static auto& rejected = obs::counter("serve.requests_rejected");
        rejected.add(1);
      }
      queue_.erase(best);
      continue;
    }
    DecodeState* state = pool_.acquire();
    if (state == nullptr) {
      // No KV slot free: stays queued. Counted once per stalled step so
      // the counter reads "steps spent blocked on slots".
      ++stats_.backpressure_slots;
      if (obs::telemetry_enabled()) {
        static auto& stalls = obs::counter("serve.backpressure_slots");
        stalls.add(1);
      }
      break;
    }
    // Reserve pages for the whole prompt plus the first decode position up
    // front, so prefill cannot die mid-flight on an exhausted arena. When
    // pages are oversubscribed (kv_pages below the full bound) this is the
    // backpressure point: the request stays queued until retirements
    // return enough pages.
    const std::size_t want =
        std::min(best->request.prompt.size() + 1, config_.max_context);
    if (!state->try_reserve(want)) {
      pool_.release(state);  // also returns any partially acquired pages
      ++stats_.backpressure_pages;
      if (obs::telemetry_enabled()) {
        static auto& stalls = obs::counter("serve.backpressure_pages");
        stalls.add(1);
      }
      break;
    }
    Active a;
    a.id = best->id;
    a.request = std::move(best->request);
    a.rng = Rng::for_stream(a.request.seed, a.id);
    a.state = state;
    a.since_submit = best->since_submit;
    a.queue_wait_ms = a.since_submit.millis();
    stats_.queue_wait_ms_sum += a.queue_wait_ms;
    stats_.queue_wait_ms_max =
        std::max(stats_.queue_wait_ms_max, a.queue_wait_ms);
    if (obs::telemetry_enabled()) {
      static auto& wait = obs::histogram("serve.queue_wait_ms");
      wait.record(a.queue_wait_ms);
    }
    queue_.erase(best);
    active_.push_back(std::move(a));
    stats_.peak_active = std::max(stats_.peak_active, active_.size());
  }
}

// Prefill a freshly admitted request's whole prompt (internally parallel
// across the pool), then sample its first token from the prefill logits.
void ServeEngine::prefill_one(Active& a) {
  // Per-request span; the dynamic name is only built when tracing is on so
  // the disabled path stays allocation-free.
  std::optional<obs::TraceSpan> span;
  if (obs::tracing_enabled()) {
    span.emplace("serve.request." + std::to_string(a.id), "serve");
  }
  const Timer prefill_timer;
  const Matrix all = backend_.prefill(a.request.prompt, *a.state);
  a.prefill_ms = prefill_timer.millis();
  const auto last = all.row(all.rows() - 1);
  a.needs_prefill = false;
  a.ttft_ms = a.since_submit.millis();
  if (obs::telemetry_enabled()) {
    static auto& prefill = obs::histogram("serve.prefill_ms");
    prefill.record(a.prefill_ms);
  }
  sample_and_stop(a, std::vector<float>(last.begin(), last.end()),
                  a.state->pos());
}

// Sample the next token from the request's private stream and evaluate the
// stopping rules against `ctx_pos`, the number of positions a solo decode
// would have consumed after this token's step.
TokenId ServeEngine::sample_and_stop(Active& a, std::vector<float> logits,
                                     std::size_t ctx_pos) {
  const TokenId token = sample_token(logits, a.request.sampling, a.rng);
  a.generated.push_back(token);
  a.next_input = token;
  // Stopping rules, in contract order (eos beats max_tokens beats KV
  // capacity; see docs/SERVING.md).
  if (a.request.eos_token >= 0 && token == a.request.eos_token) {
    a.finish = FinishReason::eos;
  } else if (a.generated.size() >= a.request.max_new_tokens) {
    a.finish = FinishReason::max_tokens;
  } else if (ctx_pos >= a.state->max_context()) {
    // decode_step would throw "context capacity exceeded": evict instead.
    a.finish = FinishReason::context_full;
  }
  if (on_token_) {
    on_token_(a.id, token, a.finish);
  }
  return token;
}

// One speculative cycle: the draft proposes up to k tokens continuing the
// request's stream, a single prefill pass scores the pending input
// plus every proposal, and the accept loop samples those rows in order with
// the request's RNG — draw-for-draw the sequence solo decoding would have
// drawn — until a stop rule fires or a proposal is contradicted (the
// sampled token then IS the corrected emission). Rejected positions are
// rolled back, pages and all. Returns the number of tokens emitted.
std::size_t ServeEngine::spec_cycle(Active& a) {
  const std::size_t pos0 = a.state->pos();
  const std::size_t cap = a.state->max_context();
  // k_eff counts proposals; the verify pass consumes k_eff + 1 positions
  // (the pending input plus the proposals). Clamp so the cycle can never
  // emit past max_new_tokens nor consume past max_context.
  const std::size_t remaining = a.request.max_new_tokens - a.generated.size();
  std::size_t k_eff = std::min(spec_->config().k, remaining - 1);
  k_eff = std::min(k_eff, cap - pos0 - 1);
  // Degrade instead of evicting when the paged arena is tight: a shorter
  // cycle needs fewer pages, and at k_eff == 0 the verify pass is exactly
  // a solo step. Any pages over-acquired by a failed attempt are released
  // by the rewind below.
  while (k_eff > 0 && !a.state->try_reserve(k_eff + 1)) {
    --k_eff;
  }
  if (k_eff == 0 && !a.state->try_reserve(1)) {
    // Arena exhausted even for a plain step: evict, same as the batch path.
    a.finish = FinishReason::context_full;
    a.evicted_by_pages = true;
    return 0;
  }

  std::vector<TokenId> inputs;
  inputs.reserve(k_eff + 1);
  inputs.push_back(a.next_input);
  double cycle_draft_ms = 0.0;
  if (k_eff > 0) {
    const Timer draft_timer;
    const std::vector<TokenId> proposals =
        spec_->propose(a.id, a.request.prompt, a.generated, k_eff);
    cycle_draft_ms = draft_timer.millis();
    a.spec_draft_ms += cycle_draft_ms;
    inputs.insert(inputs.end(), proposals.begin(), proposals.end());
  }

  const Timer verify_timer;
  const Matrix logits = backend_.prefill(inputs, *a.state);
  const double verify_ms = verify_timer.millis();
  a.decode_ms += verify_ms;
  a.spec_verify_ms += verify_ms;

  // Row j is bitwise identical to the logits of the solo decode step that
  // consumed inputs[j]; its solo-equivalent context is pos0 + j + 1.
  std::size_t emitted = 0;
  std::size_t accepted = 0;
  for (std::size_t j = 0; j <= k_eff; ++j) {
    const auto row = logits.row(j);
    const TokenId t = sample_and_stop(
        a, std::vector<float>(row.begin(), row.end()), pos0 + j + 1);
    ++emitted;
    if (a.finish != FinishReason::none) {
      break;
    }
    if (j < k_eff) {
      if (t != inputs[j + 1]) {
        break;  // mismatch: t is the correction, rest of the cycle dies
      }
      ++accepted;  // draft guessed the target's own next token
    }
  }
  // Solo decoding would have consumed exactly pos0 + emitted positions;
  // roll the target back there, releasing the rejected rows' KV pages.
  a.state->rewind(pos0 + emitted);

  if (k_eff > 0) {
    spec_->commit(a.id, k_eff, accepted, emitted, verify_ms);
    ++a.spec_cycles;
    a.spec_proposed += k_eff;
    a.spec_accepted += accepted;
    if (obs::telemetry_enabled()) {
      static auto& cycles = obs::counter("spec.cycles");
      static auto& proposed = obs::counter("spec.proposed");
      static auto& acc = obs::counter("spec.accepted");
      static auto& rate = obs::histogram("spec.accept_rate");
      static auto& draft = obs::histogram("spec.draft_ms");
      static auto& verify = obs::histogram("spec.verify_ms");
      cycles.add(1);
      proposed.add(k_eff);
      acc.add(accepted);
      rate.record(static_cast<double>(accepted) / static_cast<double>(k_eff));
      draft.record(cycle_draft_ms);
      verify.record(verify_ms);
    }
  }
  return emitted;
}

bool ServeEngine::cancel(RequestId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) {
      continue;
    }
    // Never admitted: synthesize the result directly (no KV slot to free).
    GenerationResult r;
    r.id = id;
    r.finish = FinishReason::cancelled;
    r.prompt_tokens = it->request.prompt.size();
    r.total_ms = it->since_submit.millis();
    r.completion_step = stats_.engine_steps;
    results_.push_back(std::move(r));
    queue_.erase(it);
    ++stats_.cancelled;
    if (obs::telemetry_enabled()) {
      static auto& cancelled = obs::counter("serve.requests_cancelled");
      cancelled.add(1);
    }
    update_gauges();
    return true;
  }
  for (Active& a : active_) {
    if (a.id != id || a.finish != FinishReason::none) {
      continue;
    }
    a.finish = FinishReason::cancelled;
    ++stats_.cancelled;
    if (obs::telemetry_enabled()) {
      static auto& cancelled = obs::counter("serve.requests_cancelled");
      cancelled.add(1);
    }
    // Retire immediately so the KV slot frees without waiting for the next
    // step(); the result keeps the tokens generated so far.
    retire_finished();
    update_gauges();
    return true;
  }
  return false;
}

void ServeEngine::retire_finished() {
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->finish == FinishReason::none) {
      ++it;
      continue;
    }
    GenerationResult r;
    r.id = it->id;
    r.tokens = std::move(it->generated);
    r.finish = it->finish;
    r.ttft_ms = it->ttft_ms;
    r.total_ms = it->since_submit.millis();
    r.queue_wait_ms = it->queue_wait_ms;
    r.prefill_ms = it->prefill_ms;
    r.decode_ms = it->decode_ms;
    if (r.tokens.size() > 1) {
      r.tpot_ms = r.decode_ms / static_cast<double>(r.tokens.size() - 1);
    }
    r.prompt_tokens = it->request.prompt.size();
    r.completion_step = stats_.engine_steps;
    r.spec_cycles = it->spec_cycles;
    r.spec_proposed = it->spec_proposed;
    r.spec_accepted = it->spec_accepted;
    r.spec_draft_ms = it->spec_draft_ms;
    r.spec_verify_ms = it->spec_verify_ms;
    if (spec_ != nullptr && it->request.speculative) {
      spec_->detach(it->id);
    }
    if (it->finish == FinishReason::context_full) {
      if (it->evicted_by_pages) {
        ++stats_.evicted_pages;
      } else {
        ++stats_.evicted_capacity;
      }
    }
    pool_.release(it->state);
    ++stats_.completed;
    stats_.prefill_tokens += r.prompt_tokens;
    if (obs::telemetry_enabled()) {
      static auto& completed = obs::counter("serve.requests_completed");
      static auto& ttft = obs::histogram("serve.ttft_ms");
      static auto& e2e = obs::histogram("serve.e2e_ms");
      static auto& rate = obs::histogram("serve.request_tokens_per_sec");
      completed.add(1);
      ttft.record(r.ttft_ms);
      e2e.record(r.total_ms);
      if (r.total_ms > 0.0) {
        rate.record(static_cast<double>(r.tokens.size()) * 1e3 / r.total_ms);
      }
      if (it->finish == FinishReason::context_full) {
        static auto& ev_pages = obs::counter("serve.evicted_pages");
        static auto& ev_cap = obs::counter("serve.evicted_capacity");
        (it->evicted_by_pages ? ev_pages : ev_cap).add(1);
      }
    }
    results_.push_back(std::move(r));
    it = active_.erase(it);
  }
}

void ServeEngine::update_gauges() {
  if (!obs::telemetry_enabled()) {
    return;
  }
  static auto& depth = obs::gauge("serve.queue_depth");
  static auto& active = obs::gauge("serve.active_requests");
  static auto& slots = obs::gauge("serve.kv_slots_in_use");
  static auto& pages = obs::gauge("serve.kv_pages_in_use");
  static auto& mapped = obs::gauge("serve.kv_mapped_bytes");
  depth.set(static_cast<double>(queue_.size()));
  active.set(static_cast<double>(active_.size()));
  slots.set(static_cast<double>(pool_.in_use()));
  pages.set(static_cast<double>(pool_.pages_in_use()));
  mapped.set(static_cast<double>(pool_.mapped_bytes()));
}

std::size_t ServeEngine::step() {
  obs::TraceSpan span("serve.step", "serve");
  const Timer step_timer;
  admit();
  if (active_.empty()) {
    update_gauges();
    return 0;
  }
  // Requests already in flight before this step decode together through
  // one step_batch forward pass: their activations stack into a
  // (batch × dim) matrix, so the batched kernels stream each weight row
  // once per step and the ThreadPool parallelizes inside the GEMMs rather
  // than across requests (which pinned each request's math to one worker
  // and left threads idle whenever batch < threads). Row i of the batched
  // logits is bitwise identical to stepping request i alone — the
  // determinism contract is unchanged. Collect the batch before the
  // prefills run so a request admitted this step is not double-advanced.
  std::vector<Active*> batch;
  std::vector<TokenId> batch_tokens;
  std::vector<DecodeState*> batch_states;
  std::vector<Active*> spec_batch;
  batch.reserve(active_.size());
  for (Active& a : active_) {
    if (a.needs_prefill || a.finish != FinishReason::none) {
      continue;
    }
    if (a.request.speculative) {
      // Speculative requests advance through private propose/verify cycles
      // (variable positions per step) rather than the one-token shared
      // batch; submit() guarantees spec_ is configured.
      spec_batch.push_back(&a);
      continue;
    }
    if (!a.state->try_reserve(1)) {
      // Arena exhausted mid-flight (oversubscribed kv_pages): evict with
      // the tokens generated so far instead of letting decode throw. The
      // co-scheduled requests keep their already-mapped pages and are
      // unaffected.
      a.finish = FinishReason::context_full;
      a.evicted_by_pages = true;
      continue;
    }
    batch.push_back(&a);
    batch_tokens.push_back(a.next_input);
    batch_states.push_back(a.state);
  }
  std::size_t produced = 0;
  for (Active& a : active_) {
    if (a.needs_prefill) {
      prefill_one(a);
      ++produced;
    }
  }
  for (Active* a : spec_batch) {
    produced += spec_cycle(*a);
  }
  if (!batch.empty()) {
    const Timer decode_timer;
    const Matrix logits = backend_.step_batch(batch_tokens, batch_states);
    // The shared forward pass IS each rider's per-token latency: every
    // batch member waited the full pass for its one token.
    const double pass_ms = decode_timer.millis();
    const bool telemetry = obs::telemetry_enabled();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i]->decode_ms += pass_ms;
      if (telemetry) {
        static auto& tpot = obs::histogram("serve.tpot_ms");
        tpot.record(pass_ms);
      }
      const auto row = logits.row(i);
      sample_and_stop(*batch[i], std::vector<float>(row.begin(), row.end()),
                      batch[i]->state->pos());
      ++produced;
    }
  }
  ++stats_.engine_steps;
  stats_.generated_tokens += produced;
  retire_finished();
  stats_.busy_seconds += step_timer.seconds();
  if (obs::telemetry_enabled()) {
    static auto& tokens = obs::counter("serve.tokens_generated");
    static auto& steps = obs::counter("serve.engine_steps");
    static auto& batch = obs::histogram("serve.batch_size");
    tokens.add(produced);
    steps.add(1);
    batch.record(static_cast<double>(produced));
  }
  update_gauges();
  return produced;
}

std::vector<GenerationResult> ServeEngine::run() {
  obs::PhaseSpan phase("serve.run");
  while (!idle()) {
    step();
  }
  std::sort(results_.begin(), results_.end(),
            [](const GenerationResult& a, const GenerationResult& b) {
              return a.id < b.id;
            });
  return std::exchange(results_, {});
}

void ServeEngine::fill_report(obs::RunReport& report) const {
  const std::string p = backend_.name + ".";
  report.add_serving(p + "requests_submitted",
                     static_cast<std::uint64_t>(stats_.submitted));
  report.add_serving(p + "requests_completed",
                     static_cast<std::uint64_t>(stats_.completed));
  report.add_serving(p + "requests_rejected",
                     static_cast<std::uint64_t>(stats_.rejected));
  report.add_serving(p + "requests_cancelled",
                     static_cast<std::uint64_t>(stats_.cancelled));
  report.add_serving(p + "prefill_tokens", stats_.prefill_tokens);
  report.add_serving(p + "generated_tokens", stats_.generated_tokens);
  report.add_serving(p + "engine_steps",
                     static_cast<std::uint64_t>(stats_.engine_steps));
  report.add_serving(p + "peak_active",
                     static_cast<std::uint64_t>(stats_.peak_active));
  report.add_serving(p + "kv_slots", static_cast<std::uint64_t>(pool_.slots()));
  report.add_serving(p + "kv_pages", static_cast<std::uint64_t>(pool_.pages()));
  report.add_serving(p + "kv_page_positions",
                     static_cast<std::uint64_t>(pool_.page_positions()));
  report.add_serving(p + "kv_bytes", static_cast<std::uint64_t>(pool_.bytes()));
  report.add_serving(p + "kv_mapped_bytes",
                     static_cast<std::uint64_t>(pool_.mapped_bytes()));
  report.add_serving(p + "busy_seconds", stats_.busy_seconds);
  report.add_serving(p + "tokens_per_sec", stats_.tokens_per_sec());
  report.add_serving(p + "queue_wait_ms_sum", stats_.queue_wait_ms_sum);
  report.add_serving(p + "queue_wait_ms_max", stats_.queue_wait_ms_max);
  report.add_serving(
      p + "queue_wait_ms_avg",
      stats_.completed > 0
          ? stats_.queue_wait_ms_sum / static_cast<double>(stats_.completed)
          : 0.0);
  report.add_serving(p + "evicted_capacity",
                     static_cast<std::uint64_t>(stats_.evicted_capacity));
  report.add_serving(p + "evicted_pages",
                     static_cast<std::uint64_t>(stats_.evicted_pages));
  report.add_serving(p + "backpressure_slots",
                     static_cast<std::uint64_t>(stats_.backpressure_slots));
  report.add_serving(p + "backpressure_pages",
                     static_cast<std::uint64_t>(stats_.backpressure_pages));
  if (spec_ != nullptr) {
    const SpecStats& s = spec_->stats();
    report.add_serving(p + "spec.cycles",
                       static_cast<std::uint64_t>(s.cycles));
    report.add_serving(p + "spec.proposed", s.proposed);
    report.add_serving(p + "spec.accepted", s.accepted);
    report.add_serving(p + "spec.accept_rate", s.accept_rate());
    report.add_serving(p + "spec.emitted_per_cycle", s.emitted_per_cycle());
    report.add_serving(p + "spec.draft_ms", s.draft_ms);
    report.add_serving(p + "spec.verify_ms", s.verify_ms);
  }
}

}  // namespace aptq::serve
