// Per-token generation latency: full-prefix forward pass vs KV-cached
// decode_step, for the dense model and the bit-packed model (whose steps run
// the fused dequantize GEMV), at several context lengths, plus the prefill
// throughput (prompt tokens/s) of decode_prefill at each length. Writes
// BENCH_decode.json. Flags: `--threads N` (pool size, default 1),
// `--out PATH`.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "model/decode.hpp"
#include "model/forward.hpp"
#include "quant/packed_model.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace aptq {
namespace {

struct Row {
  std::string model;
  std::size_t context = 0;
  double full_forward_s = 0.0;  // one full-prefix forward at this context
  double decode_step_s = 0.0;   // one KV-cached step at this context
  double speedup = 0.0;
  double prefill_tok_per_s = 0.0;  // decode_prefill of the whole context
};

ModelConfig bench_config() {
  ModelConfig c;
  c.vocab_size = 256;
  c.dim = 128;
  c.n_layers = 4;
  c.n_heads = 4;
  c.ffn_dim = 256;
  return c;
}

TokenSeq random_tokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  TokenSeq t(n);
  for (auto& v : t) {
    v = static_cast<TokenId>(rng.index(vocab));
  }
  return t;
}

template <typename Fn>
double best_of(std::size_t repeats, Fn&& fn) {
  double best = 1e30;
  for (std::size_t i = 0; i < repeats; ++i) {
    Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

// One row: per-token cost without a cache (forward over the whole prefix)
// vs with one (prefill the prefix, then time `steps` decode steps), and the
// prefill's own throughput (best of 3; `prefill` starts from an empty
// state).
template <typename FullFn, typename PrefillFn, typename StepFn>
Row measure(const std::string& name, std::size_t context, FullFn&& full,
            PrefillFn&& prefill, StepFn&& step) {
  constexpr std::size_t kSteps = 16;
  Row row;
  row.model = name;
  row.context = context;
  row.full_forward_s = best_of(3, full);
  row.prefill_tok_per_s =
      static_cast<double>(context) / best_of(3, prefill);
  const Timer timer;
  for (std::size_t i = 0; i < kSteps; ++i) {
    step();
  }
  row.decode_step_s = timer.seconds() / static_cast<double>(kSteps);
  row.speedup = row.decode_step_s > 0.0
                    ? row.full_forward_s / row.decode_step_s
                    : 0.0;
  return row;
}

// Batched decode (decode_step_batch): per-token cost when `batch` requests
// step together in one forward pass, vs stepping each alone.
struct BatchedRow {
  std::string model;
  std::size_t context = 0;
  std::size_t batch = 0;
  double per_token_s = 0.0;
  double vs_solo_speedup = 0.0;  // solo per-token / batched per-token
};

template <typename ModelT>
BatchedRow measure_batched(const std::string& name, const ModelT& model,
                           const ModelConfig& cfg, std::size_t context,
                           std::size_t batch, double solo_per_token_s) {
  constexpr std::size_t kSteps = 16;
  const TokenSeq tokens = random_tokens(context, context, cfg.vocab_size);
  std::vector<DecodeState> states;
  states.reserve(batch);
  std::vector<DecodeState*> ptrs;
  for (std::size_t i = 0; i < batch; ++i) {
    states.emplace_back(cfg, context + kSteps);
    decode_prefill(model, tokens, states.back());
  }
  for (std::size_t i = 0; i < batch; ++i) {
    ptrs.push_back(&states[i]);
  }
  const std::vector<TokenId> next(batch, tokens.front());
  const Timer timer;
  for (std::size_t i = 0; i < kSteps; ++i) {
    decode_step_batch(model, next, ptrs);
  }
  BatchedRow row;
  row.model = name;
  row.context = context;
  row.batch = batch;
  row.per_token_s =
      timer.seconds() / static_cast<double>(kSteps * batch);
  row.vs_solo_speedup = row.per_token_s > 0.0
                            ? solo_per_token_s / row.per_token_s
                            : 0.0;
  return row;
}

bool write_json(const std::vector<Row>& rows,
                const std::vector<BatchedRow>& batched, std::size_t threads,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "decode_latency: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"pool_threads\": " << threads << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"context\": " << r.context
        << ", \"full_forward_s\": " << r.full_forward_s
        << ", \"decode_step_s\": " << r.decode_step_s
        << ", \"speedup\": " << r.speedup
        << ", \"prefill_tok_per_s\": " << r.prefill_tok_per_s << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"batched_results\": [\n";
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const BatchedRow& r = batched[i];
    out << "    {\"model\": \"" << r.model << "\", \"context\": " << r.context
        << ", \"batch\": " << r.batch
        << ", \"per_token_s\": " << r.per_token_s
        << ", \"vs_solo_speedup\": " << r.vs_solo_speedup << "}"
        << (i + 1 < batched.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.good();
}

int run(std::size_t threads, const std::string& out_path) {
  ThreadPool::set_global_threads(threads);
  const ModelConfig cfg = bench_config();
  const Model model = Model::init(cfg, 42);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 16;
  const PackedModel packed = PackedModel::pack_uniform(model, spec);

  const std::vector<std::size_t> contexts = {16, 32, 64, 128};
  constexpr std::size_t kSteps = 16;
  std::vector<Row> rows;
  for (const std::size_t context : contexts) {
    const TokenSeq tokens = random_tokens(context, context, cfg.vocab_size);
    const TokenId next = tokens.front();
    {
      DecodeState state(cfg, context + kSteps);
      rows.push_back(measure(
          "dense", context,
          [&] { model_forward(model, tokens); },
          [&] {
            state.reset();
            decode_prefill(model, tokens, state);
          },
          [&] { decode_step(model, next, state); }));
    }
    {
      DecodeState state(cfg, context + kSteps);
      rows.push_back(measure(
          "packed_w4g16", context,
          [&] { packed.forward(tokens); },
          [&] {
            state.reset();
            decode_prefill(packed, tokens, state);
          },
          [&] { decode_step(packed, next, state); }));
    }
  }

  // Batched decode at one representative context: per-token amortization
  // from stacking requests into a single forward pass.
  std::vector<BatchedRow> batched;
  {
    const std::size_t context = 64;
    double dense_solo = 0.0;
    double packed_solo = 0.0;
    for (const Row& r : rows) {
      if (r.context == context) {
        (r.model == "dense" ? dense_solo : packed_solo) = r.decode_step_s;
      }
    }
    for (const std::size_t batch : {2ul, 8ul}) {
      batched.push_back(measure_batched("dense", model, cfg, context, batch,
                                        dense_solo));
      batched.push_back(measure_batched("packed_w4g16", packed, cfg, context,
                                        batch, packed_solo));
    }
  }

  std::printf("%-14s %8s %16s %16s %9s %18s\n", "model", "context",
              "full_forward_s", "decode_step_s", "speedup",
              "prefill_tok_per_s");
  for (const Row& r : rows) {
    std::printf("%-14s %8zu %16.6f %16.6f %8.1fx %18.0f\n", r.model.c_str(),
                r.context, r.full_forward_s, r.decode_step_s, r.speedup,
                r.prefill_tok_per_s);
  }
  std::printf("%-14s %8s %6s %16s %14s\n", "model", "context", "batch",
              "per_token_s", "vs_solo");
  for (const BatchedRow& r : batched) {
    std::printf("%-14s %8zu %6zu %16.6f %13.2fx\n", r.model.c_str(),
                r.context, r.batch, r.per_token_s, r.vs_solo_speedup);
  }
  if (write_json(rows, batched, threads, out_path)) {
    std::printf("decode latency results written to %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace aptq

int main(int argc, char** argv) {
  std::size_t threads = 1;
  std::string out_path = "BENCH_decode.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: decode_latency [--threads N] [--out PATH]\n");
      return 1;
    }
  }
  return aptq::run(threads == 0 ? 1 : threads, out_path);
}
