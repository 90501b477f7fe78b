// Serving-side pieces shared by the local workloads (serving.cpp) and the
// HTTP workload (tp2_http.cpp).
#pragma once

#include <functional>
#include <vector>

#include "bench.hpp"
#include "util/rng.hpp"

namespace e2e {

constexpr std::size_t kMaxContext = 256;
constexpr std::size_t kMaxBatch = 8;  ///< every served engine's batch size

aptq::serve::ServeConfig engine_config(std::size_t max_batch);
aptq::TokenSeq random_tokens(aptq::Rng& rng, std::size_t n,
                             std::size_t vocab);
/// A request with one of three sampling settings (greedy, or seeded
/// temperature/top-k) and its own RNG seed, all drawn from `rng`.
aptq::serve::Request make_request(aptq::Rng& rng, aptq::TokenSeq prompt,
                                  std::size_t max_new_tokens);
std::size_t uniform_in(aptq::Rng& rng, std::size_t lo, std::size_t hi);

/// Everything the benchmark observes about the requests it sent, indexed
/// by engine request id.
struct Recorder {
  std::vector<RequestTrace> traces;
  std::vector<aptq::serve::Request> requests;
  std::vector<double> step_ms;    ///< around ServeEngine::step, non-idle
  std::vector<double> step_rows;  ///< step()'s return, non-idle
  std::size_t prefill_steps = 0;  ///< non-idle steps that ran a prefill
  double busy_s = 0.0;            ///< wall time inside step()
  std::size_t shared_prompt_tokens = 0;
  bool step_had_prefill = false;

  /// Installs the per-token callback; the recorder must outlive the
  /// engine's use of it.
  void attach(aptq::serve::ServeEngine& engine);
  aptq::serve::RequestId submit(aptq::serve::ServeEngine& engine,
                                const aptq::serve::Request& request,
                                double due);
};

/// Submits each request at its due time (steady-clock seconds) and steps
/// the engine until every request has finished.
void drive(aptq::serve::ServeEngine& engine,
           const std::vector<aptq::serve::Request>& requests,
           const std::vector<double>& due, Recorder& rec);

/// Samples KvPool residency after every forward pass of the engine it
/// wraps (traced runs only).
struct KvSampler {
  const aptq::serve::ServeEngine* engine = nullptr;
  std::vector<double> share;  ///< mapped_bytes() / bytes()
  double peak_bytes = 0.0;

  /// `inner` with prefill/step_batch sampling after each call. The
  /// sampler must outlive the returned backend.
  aptq::serve::Backend wrap(aptq::serve::Backend inner);
  void sample();
};

/// Requests a run sends at least, so that ten TTFT samples lie beyond the
/// reported p95.
constexpr std::size_t kMinRequests = 200;

struct PhaseOutcome {
  Recorder rec;
  KvSampler kv;
  std::vector<aptq::serve::GenerationResult> results;
  aptq::serve::ServeStats stats;
  double wall_s = 0.0;
};

std::size_t count_failed(const Recorder& rec);
void report_serving_layers(
    const Recorder& rec, const KvSampler& kv,
    const std::vector<aptq::serve::GenerationResult>& results,
    const aptq::serve::ServeStats& stats, double wall_s, Result& result);
/// Replays up to `limit` of the recorded requests through the solo oracle
/// and counts requests sent / failed.
void check_phase(const Recorder& rec, const aptq::serve::Backend& oracle,
                 std::size_t limit, std::uint64_t seed, Result& result);

/// Loads the inputs, quantizes and packs the served model (traced in a
/// traced run, followed by the kernel probe), measures its perplexity, and
/// reports setup_s as the median of kSetups (load + build_stack) set-ups.
void prepare_serving(const Options& opt, Artifact& artifact,
                     const std::function<double()>& build_stack,
                     Result& result);

}  // namespace e2e
