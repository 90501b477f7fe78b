// Local serving workloads (chat_shared_prefix, batch_decode, and the
// serving phase of quantize_aptq): the benchmark's own driver over
// ServeEngine::submit / step / set_token_callback.
//
// Every request is timed from its *scheduled* send time, so a long step
// that delays later submissions shows in their TTFT (driver.late_p99_ms
// reports how late submissions ran). Inter-token latency is the gap
// between per-token callback timestamps, so it includes the time a token
// waits while co-batched requests prefill.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "obs/control.hpp"
#include "obs/trace.hpp"
#include "serve_driver.hpp"
#include "util/rng.hpp"

namespace e2e {

using aptq::serve::FinishReason;
using aptq::serve::Request;
using aptq::serve::RequestId;
using aptq::serve::ServeEngine;

aptq::serve::ServeConfig engine_config(std::size_t max_batch) {
  aptq::serve::ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_context = kMaxContext;
  return cfg;
}

aptq::TokenSeq random_tokens(aptq::Rng& rng, std::size_t n,
                             std::size_t vocab) {
  aptq::TokenSeq out(n);
  for (auto& t : out) {
    t = static_cast<aptq::TokenId>(rng.index(vocab));
  }
  return out;
}

Request make_request(aptq::Rng& rng, aptq::TokenSeq prompt,
                     std::size_t max_new_tokens) {
  Request r;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new_tokens;
  // Mixed sampling: greedy, and two seeded temperature/top-k settings.
  switch (rng.index(3)) {
    case 0:
      r.sampling.top_k = 1;
      break;
    case 1:
      r.sampling.temperature = 0.8f;
      r.sampling.top_k = 16;
      break;
    default:
      r.sampling.temperature = 1.0f;
      break;
  }
  r.seed = rng.next_u64();
  return r;
}

std::size_t uniform_in(aptq::Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + rng.index(hi - lo + 1);
}

// --- recorder / driver ------------------------------------------------

void Recorder::attach(ServeEngine& engine) {
  engine.set_token_callback(
      [this](RequestId id, aptq::TokenId token, FinishReason finish) {
        RequestTrace& tr = traces.at(id);
        if (tr.tokens.empty()) {
          step_had_prefill = true;  // a first token comes from prefill
        }
        tr.token_at.push_back(now_s());
        tr.tokens.push_back(token);
        tr.finish = finish;
      });
}

RequestId Recorder::submit(ServeEngine& engine, const Request& request,
                           double due) {
  const RequestId id = engine.submit(request);
  if (traces.size() <= id) {
    traces.resize(id + 1);
    requests.resize(id + 1);
  }
  traces[id].due = due;
  traces[id].sent = now_s();
  requests[id] = request;
  return id;
}

namespace {

constexpr double kSpinSeconds = 2e-3;

}  // namespace

void drive(ServeEngine& engine, const std::vector<Request>& requests,
           const std::vector<double>& due, Recorder& rec) {
  std::size_t next = 0;
  for (;;) {
    const double now = now_s();
    while (next < requests.size() && due[next] <= now) {
      aptq::obs::TraceSpan span("bench.engine.submit", "bench");
      rec.submit(engine, requests[next], due[next]);
      ++next;
    }
    if (engine.idle()) {
      if (next == requests.size()) {
        return;
      }
      // Sleep until shortly before the next arrival, then spin, so timer
      // wake-up jitter does not make submissions late.
      const double wait = due[next] - now_s() - kSpinSeconds;
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      continue;
    }
    rec.step_had_prefill = false;
    const double s0 = now_s();
    std::size_t rows = 0;
    {
      aptq::obs::TraceSpan span("bench.engine.step", "bench");
      rows = engine.step();
    }
    const double ms = (now_s() - s0) * 1e3;
    rec.busy_s += ms * 1e-3;
    if (rows > 0) {
      rec.step_ms.push_back(ms);
      rec.step_rows.push_back(static_cast<double>(rows));
      rec.prefill_steps += rec.step_had_prefill ? 1 : 0;
    }
  }
}

aptq::serve::Backend KvSampler::wrap(aptq::serve::Backend inner) {
  auto prefill = inner.prefill;
  inner.prefill = [this, prefill](std::span<const aptq::TokenId> tokens,
                                  aptq::DecodeState& state) {
    aptq::Matrix out = prefill(tokens, state);
    sample();
    return out;
  };
  auto step_batch = inner.step_batch;
  inner.step_batch = [this, step_batch](
                         std::span<const aptq::TokenId> tokens,
                         std::span<aptq::DecodeState* const> states) {
    aptq::Matrix out = step_batch(tokens, states);
    sample();
    return out;
  };
  return inner;
}

void KvSampler::sample() {
  if (engine == nullptr) {
    return;
  }
  const aptq::serve::KvPool& pool = engine->pool();
  const double mapped = static_cast<double>(pool.mapped_bytes());
  share.push_back(mapped / static_cast<double>(pool.bytes()));
  peak_bytes = std::max(peak_bytes, mapped);
}

// --- reporting ----------------------------------------------------------

std::size_t count_failed(const Recorder& rec) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < rec.traces.size(); ++i) {
    const RequestTrace& tr = rec.traces[i];
    failed += tr.failed || tr.finish != FinishReason::max_tokens ||
                      tr.tokens.size() != rec.requests[i].max_new_tokens
                  ? 1
                  : 0;
  }
  return failed;
}

void report_latency(const std::vector<RequestTrace>& traces, const Slo& slo,
                    double wall_s, Result& result) {
  std::vector<double> ttft;
  std::vector<double> itl;
  std::size_t met = 0;
  double tokens = 0.0;
  for (const RequestTrace& tr : traces) {
    tokens += static_cast<double>(tr.tokens.size());
    if (tr.failed || tr.token_at.empty()) {
      continue;  // counts as a miss
    }
    const double first_ms = (tr.token_at.front() - tr.due) * 1e3;
    ttft.push_back(first_ms);
    for (std::size_t i = 1; i < tr.token_at.size(); ++i) {
      itl.push_back((tr.token_at[i] - tr.token_at[i - 1]) * 1e3);
    }
    const double gaps = static_cast<double>(tr.token_at.size() - 1);
    const double mean_gap_ms =
        gaps > 0 ? (tr.token_at.back() - tr.token_at.front()) * 1e3 / gaps
                 : 0.0;
    met += first_ms <= slo.ttft_ms && mean_gap_ms <= slo.itl_ms ? 1 : 0;
  }
  result.set("ttft_p50_ms", quantile(ttft, 0.50), "ms");
  result.set("ttft_p95_ms", quantile(ttft, 0.95), "ms");
  result.set("itl_p50_ms", quantile(itl, 0.50), "ms");
  result.set("itl_p99_ms", quantile(itl, 0.99), "ms");
  result.set("slo_attainment",
             traces.empty() ? 0.0
                            : static_cast<double>(met) /
                                  static_cast<double>(traces.size()),
             "share");
  result.set("tokens_per_s", wall_s > 0.0 ? tokens / wall_s : 0.0, "1/s");
  // Sample counts behind the percentiles (ten must lie beyond each).
  result.set("requests_sent", static_cast<double>(traces.size()), "count");
  result.set("itl_samples", static_cast<double>(itl.size()), "count");
}

void report_serving_layers(const Recorder& rec, const KvSampler& kv,
                           const std::vector<aptq::serve::GenerationResult>&
                               results,
                           const aptq::serve::ServeStats& stats,
                           double wall_s, Result& result) {
  std::vector<double> queue_wait;
  std::vector<double> prefill;
  for (const auto& r : results) {
    if (r.finish != FinishReason::rejected) {
      queue_wait.push_back(r.queue_wait_ms);
      prefill.push_back(r.prefill_ms);
    }
  }
  std::vector<double> late;
  double prompt_tokens = 0.0;
  for (std::size_t i = 0; i < rec.traces.size(); ++i) {
    late.push_back((rec.traces[i].sent - rec.traces[i].due) * 1e3);
    prompt_tokens += static_cast<double>(rec.requests[i].prompt.size());
  }
  result.set("serve.queue_wait_p50_ms", median(queue_wait), "ms");
  result.set("serve.prefill_ms_p50", median(prefill), "ms");
  result.set("serve.step_ms_p50", quantile(rec.step_ms, 0.50), "ms");
  result.set("serve.step_ms_p99", quantile(rec.step_ms, 0.99), "ms");
  result.set("serve.prefill_step_share",
             rec.step_ms.empty()
                 ? 0.0
                 : static_cast<double>(rec.prefill_steps) /
                       static_cast<double>(rec.step_ms.size()),
             "share");
  result.set("serve.batch_rows_mean", mean(rec.step_rows), "rows");
  result.set("serve.busy_share", wall_s > 0.0 ? rec.busy_s / wall_s : 0.0,
             "share");
  result.set("serve.evicted",
             static_cast<double>(stats.evicted_capacity + stats.evicted_pages),
             "count");
  result.set("serve.backpressure_steps",
             static_cast<double>(stats.backpressure_slots +
                                 stats.backpressure_pages),
             "count");
  result.set("kv.mapped_share_mean", mean(kv.share), "share");
  result.set("kv.peak_mapped_mib", kv.peak_bytes / kMiB, "MiB");
  result.set("prompt.shared_token_share",
             prompt_tokens > 0.0
                 ? static_cast<double>(rec.shared_prompt_tokens) /
                       prompt_tokens
                 : 0.0,
             "share");
  result.set("driver.late_p99_ms", quantile(late, 0.99), "ms");
}

// --- output check --------------------------------------------------------

std::vector<std::size_t> pick_checked(std::size_t n, std::size_t limit,
                                      std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i] = i;
  }
  if (n <= limit) {
    return all;
  }
  aptq::Rng rng(seed ^ 0xC4EC4EDull);
  for (std::size_t i = 0; i < limit; ++i) {  // partial Fisher-Yates
    std::swap(all[i], all[i + rng.index(n - i)]);
  }
  all.resize(limit);
  std::sort(all.begin(), all.end());
  return all;
}

std::size_t check_against_solo(const aptq::serve::Backend& oracle,
                               const std::vector<Request>& requests,
                               const std::vector<aptq::TokenSeq>& observed,
                               const std::vector<std::size_t>& checked) {
  ServeEngine engine(oracle, engine_config(1));
  std::vector<bool> keep(requests.size(), false);
  for (const std::size_t i : checked) {
    keep[i] = true;
  }
  // Ids are assigned in submission order, and each request's sampling
  // stream is keyed by its id, so every request is submitted and the
  // unchecked ones are cancelled while still queued.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestId id = engine.submit(requests[i]);
    APTQ_CHECK(id == i, "oracle ids out of step");
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!keep[i]) {
      engine.cancel(i);
    }
  }
  const auto results = engine.run();
  std::size_t mismatches = 0;
  for (const auto& r : results) {
    if (keep[r.id] && r.tokens != observed[r.id]) {
      ++mismatches;
    }
  }
  return mismatches;
}

void check_phase(const Recorder& rec, const aptq::serve::Backend& oracle,
                 std::size_t limit, std::uint64_t seed, Result& result) {
  std::vector<aptq::TokenSeq> observed;
  observed.reserve(rec.traces.size());
  for (const RequestTrace& tr : rec.traces) {
    observed.push_back(tr.tokens);
  }
  const auto checked = pick_checked(rec.requests.size(), limit, seed);
  const std::size_t bad =
      check_against_solo(oracle, rec.requests, observed, checked);
  if (bad > 0) {
    result.fail_check(std::to_string(bad) + " of " +
                      std::to_string(checked.size()) +
                      " token streams differ from the max_batch 1 oracle");
  }
  result.attempted += rec.requests.size();
  result.failed += count_failed(rec);
}

// --- local phases -------------------------------------------------------

namespace {

/// Sends one local workload's requests through `engine` for about
/// `seconds`, recording them in `rec`; the seed draws the requests.
using Traffic = void (*)(ServeEngine& engine, Recorder& rec,
                         std::uint64_t seed, double seconds);

PhaseOutcome run_local_phase(const aptq::PackedModel& model, Traffic traffic,
                             std::uint64_t seed, double seconds,
                             bool traced) {
  PhaseOutcome out;
  KvSampler& kv = out.kv;
  aptq::serve::Backend backend = aptq::serve::make_backend(model);
  if (traced) {
    backend = kv.wrap(std::move(backend));
  }
  ServeEngine engine(std::move(backend), engine_config(kMaxBatch));
  kv.engine = &engine;
  out.rec.attach(engine);
  if (traced) {
    reset_observability();
    aptq::obs::set_tracing(true);
    aptq::obs::set_telemetry(true);
  }
  const double t0 = now_s();
  traffic(engine, out.rec, seed, seconds);
  out.wall_s = now_s() - t0;
  aptq::obs::set_tracing(false);
  aptq::obs::set_telemetry(false);
  out.results = engine.run();  // idle: collects the finished results
  out.stats = engine.stats();
  engine.set_token_callback({});
  kv.engine = nullptr;
  return out;
}

double busy_per_token(const PhaseOutcome& phase) {
  double tokens = 0.0;
  for (const RequestTrace& tr : phase.rec.traces) {
    tokens += static_cast<double>(tr.tokens.size());
  }
  return tokens > 0.0 ? phase.rec.busy_s / tokens : 0.0;
}

void measure_local(const Options& opt, const aptq::PackedModel& model,
                   Traffic traffic, const Slo& slo, std::size_t check_limit,
                   Result& result) {
  const aptq::serve::Backend oracle = aptq::serve::make_backend(model);
  if (!opt.trace) {
    const PhaseOutcome phase = run_local_phase(model, traffic, opt.seed,
                                               opt.seconds, /*traced=*/false);
    report_latency(phase.rec.traces, slo, phase.wall_s, result);
    check_phase(phase.rec, oracle, check_limit, opt.seed, result);
    return;
  }
  // Traced run: the same traffic untraced, then traced, each over half the
  // window (and at least kMinRequests); per-layer numbers come from the
  // traced half.
  const PhaseOutcome plain = run_local_phase(model, traffic, opt.seed,
                                             opt.seconds / 2, false);
  const PhaseOutcome traced = run_local_phase(model, traffic, opt.seed,
                                              opt.seconds / 2, true);
  report_serving_layers(traced.rec, traced.kv, traced.results, traced.stats,
                        traced.wall_s, result);
  const double base = busy_per_token(plain);
  result.set("obs.trace_overhead_share",
             base > 0.0 ? busy_per_token(traced) / base : 0.0, "ratio");
  check_phase(plain.rec, oracle, check_limit, opt.seed, result);
  check_phase(traced.rec, oracle, check_limit, opt.seed, result);
}

}  // namespace

// --- set-up shared by the serving workloads ----------------------------

void prepare_serving(const Options& opt, Artifact& artifact,
                     const std::function<double()>& build_stack,
                     Result& result) {
  std::vector<double> load_s = {load_inputs(artifact)};
  // Quantized once; a traced run quantizes again with the spans on. The
  // repeat-is-identical check and the quantize_s median of several runs
  // belong to quantize_aptq, which measures the quantizer.
  const aptq::PipelineConfig cfg =
      aptq75_config(aptq::PipelineConfig{}.calib_seed);
  std::vector<double> quantize_s;
  quantize_once(artifact, cfg, quantize_s, result);
  if (opt.trace) {
    quantize_traced(artifact, cfg, quantize_s, result);
    probe_kernels(artifact.packed, result);
  }
  artifact.quantize_s = median(quantize_s);
  artifact.ppl_c4 = packed_perplexity(artifact);
  report_artifact(artifact, result);

  // Set-up = load the inputs + build the serving stack, kSetups times.
  for (std::size_t rep = 1; rep < kSetups; ++rep) {
    Artifact again;
    load_s.push_back(load_inputs(again));
  }
  std::vector<double> setup_s;
  for (const double load : load_s) {
    setup_s.push_back(load + build_stack());
  }
  result.set("setup_s", median(setup_s), "s");
}

// --- workloads --------------------------------------------------------

namespace {

double build_local_stack(const aptq::PackedModel& model) {
  const double t0 = now_s();
  ServeEngine engine(aptq::serve::make_backend(model),
                     engine_config(kMaxBatch));
  return now_s() - t0;
}

constexpr std::size_t kVocab = 64;

// chat_shared_prefix: open-loop Poisson arrivals at a fixed rate, a little
// over half of what the engine sustains on this arrival path (at pool 2 on
// a 4-core x86 VM, ttft_p95 is 35-50 ms up to 20 requests/s and jumps past
// 200 ms at 22). Each prompt is one of four shared 64-token system
// prefixes plus 8-24 unique tokens; outputs are 8-16 tokens.
//
// Step times come in modes: a one-row decode step, a two-row step about
// 1.5x as long (2-bit layers get no batching benefit), and a step that
// runs a prefill, ten times as long. The rate puts each reported ITL
// percentile inside one mode: at 12/s one-row steps carry 55-60% of the
// gaps, so the median is a one-row gap, and prefill steps carry 3-5%, so
// p99 is a prefill gap. From 8 to 10/s the one-row share is no higher; at
// 16/s it falls below one half, and at 18/s p99 moves onto the jump
// between prefill steps with one and with several decode rows. Where a
// percentile lands also depends on how the arrivals cluster, so the
// arrival times are one Poisson sample path drawn once and shared by every
// seed; the seed draws the prompts, lengths and sampling.
constexpr double kChatRps = 12.0;
constexpr std::uint64_t kChatArrivalSeed = 0xA77195;
constexpr std::size_t kChatPrefixes = 4;
constexpr std::size_t kChatPrefixTokens = 64;
constexpr Slo kChatSlo = {/*ttft_ms=*/200.0, /*itl_ms=*/25.0};

void chat_traffic(ServeEngine& engine, Recorder& rec, std::uint64_t seed,
                  double seconds) {
  aptq::Rng rng(seed);
  std::vector<aptq::TokenSeq> prefixes;
  for (std::size_t i = 0; i < kChatPrefixes; ++i) {
    prefixes.push_back(random_tokens(rng, kChatPrefixTokens, kVocab));
  }
  // A Poisson process given its count: n arrival times drawn uniformly
  // over the window, which stretches to fit kMinRequests.
  const std::size_t n = std::max(
      kMinRequests, static_cast<std::size_t>(std::lround(kChatRps * seconds)));
  const double t0 = now_s();
  aptq::Rng arrivals(kChatArrivalSeed);
  std::vector<double> due(n);
  for (double& at : due) {
    at = t0 + arrivals.uniform() * static_cast<double>(n) / kChatRps;
  }
  std::sort(due.begin(), due.end());
  std::vector<Request> requests;
  for (std::size_t i = 0; i < n; ++i) {
    aptq::TokenSeq prompt = prefixes[rng.index(kChatPrefixes)];
    const aptq::TokenSeq tail =
        random_tokens(rng, uniform_in(rng, 8, 24), kVocab);
    prompt.insert(prompt.end(), tail.begin(), tail.end());
    requests.push_back(
        make_request(rng, std::move(prompt), uniform_in(rng, 8, 16)));
    rec.shared_prompt_tokens += kChatPrefixTokens;
  }
  drive(engine, requests, due, rec);
}

// batch_decode: offline batches, every request of a batch submitted at
// once; short unique prompts (4-8 tokens), long outputs (96-112 tokens).
// Batches repeat until the window closes and kMinRequests were sent.
constexpr std::size_t kBatchRequests = 24;
// TTFT is mostly the position in the batch; both limits sit several times
// above what a quiet 4-core host measures.
constexpr Slo kBatchSlo = {/*ttft_ms=*/10000.0, /*itl_ms=*/30.0};

void batch_traffic(ServeEngine& engine, Recorder& rec, std::uint64_t seed,
                   double seconds) {
  aptq::Rng rng(seed);
  const double deadline = now_s() + seconds;
  while (now_s() < deadline || rec.requests.size() < kMinRequests) {
    std::vector<Request> requests;
    for (std::size_t i = 0; i < kBatchRequests; ++i) {
      requests.push_back(make_request(
          rng, random_tokens(rng, uniform_in(rng, 4, 8), kVocab),
          uniform_in(rng, 96, 112)));
    }
    const std::vector<double> due(requests.size(), now_s());
    drive(engine, requests, due, rec);
  }
}

// The serving phase of quantize_aptq: one offline batch of short requests
// over the freshly quantized artifact, half of it checked against the solo
// oracle. Every run reports every end-to-end metric, so this batch also
// gives quantize_aptq its serving metrics.
constexpr std::size_t kCheckRequests = kMinRequests;
// Every request is queued at once, so TTFT is mostly queue position; both
// limits sit several times above what a quiet 4-core host measures.
constexpr Slo kCheckSlo = {/*ttft_ms=*/10000.0, /*itl_ms=*/50.0};

void check_traffic(ServeEngine& engine, Recorder& rec, std::uint64_t seed,
                   double /*seconds: one fixed batch*/) {
  aptq::Rng rng(seed ^ 0x5EC0ull);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < kCheckRequests; ++i) {
    requests.push_back(make_request(
        rng, random_tokens(rng, uniform_in(rng, 8, 16), kVocab), 8));
  }
  const std::vector<double> due(requests.size(), now_s());
  drive(engine, requests, due, rec);
}

void run_local_workload(const Options& opt, Traffic traffic,
                        std::size_t pool_threads, const Slo& slo,
                        std::size_t check_limit, Result& result) {
  set_pool_threads(pool_threads);
  Artifact artifact;
  prepare_serving(
      opt, artifact,
      [&] { return build_local_stack(artifact.packed); },
      result);
  measure_local(opt, artifact.packed, traffic, slo, check_limit, result);
  if (opt.trace) {
    report_idle_net(result);
  }
}

}  // namespace

void serve_check_batch(const Options& opt, const aptq::PackedModel& model,
                       Result& result) {
  const PhaseOutcome phase = run_local_phase(model, check_traffic, opt.seed,
                                             0.0, /*traced=*/opt.trace);
  if (opt.trace) {
    report_serving_layers(phase.rec, phase.kv, phase.results, phase.stats,
                          phase.wall_s, result);
    probe_kernels(model, result);
    report_idle_net(result);
  } else {
    report_latency(phase.rec.traces, kCheckSlo, phase.wall_s, result);
  }
  check_phase(phase.rec, aptq::serve::make_backend(model), kCheckRequests / 2,
              opt.seed, result);
}

void run_chat_shared_prefix(const Options& opt, Result& result) {
  run_local_workload(opt, chat_traffic, /*pool_threads=*/2, kChatSlo,
                     /*check_limit=*/64, result);
}

void run_batch_decode(const Options& opt, Result& result) {
  run_local_workload(opt, batch_traffic, /*pool_threads=*/2, kBatchSlo,
                     /*check_limit=*/12, result);
}

}  // namespace e2e
