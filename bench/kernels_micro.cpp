// google-benchmark microbenches for the compute kernels underlying the
// pipeline: GEMM variants, softmax, RMSNorm, Cholesky/GPTQ factor, RTN vs
// GPTQ solver cost, bit-packing and the fused dequantize-matmul.
//
// Before the google-benchmark suite runs, a threads sweep times the hot
// kernels (matmul, Hessian accumulation, GPTQ solve, and the blocked
// dequant-GEMV behind packed decode) at 1/2/4 threads plus any
// `--threads N`, for both the naive reference (aptq::ref) and the
// vectorized production path, and writes seconds / GFLOP/s /
// speedup-vs-serial / speedup-vs-naive to BENCH_kernels.json. Each timing
// is min-of-5 after 2 warmup runs. Flags: `--threads N` (pool size for the
// gbench suite and an extra sweep point), `--sweep-out PATH`, `--no-sweep`,
// `--sweep-only` (skip the gbench suite), `--smoke` (reduced sizes/reps —
// the CI bench-smoke configuration is `--smoke --sweep-only`).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "model/forward.hpp"
#include "quant/gptq.hpp"
#include "quant/hessian.hpp"
#include "quant/qformat.hpp"
#include "tensor/cholesky.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace aptq {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::randn(r, c, rng);
}

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(a, Trans::no, b, Trans::no, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNN)->Arg(48)->Arg(128)->Arg(256);

// Same GEMM at a fixed 256³ problem across pool sizes — the quick in-suite
// view of the threading win (the standalone sweep below covers 512³).
void BM_GemmNNThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool::set_global_threads(threads);
  const std::size_t n = 256;
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(a, Trans::no, b, Trans::no, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  ThreadPool::set_global_threads(1);
}
BENCHMARK(BM_GemmNNThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Matrix b = random_matrix(n, n, 4);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(a, Trans::no, b, Trans::yes, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNT)->Arg(48)->Arg(128)->Arg(256);

void BM_SoftmaxCausal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix src = random_matrix(n, n, 5);
  for (auto _ : state) {
    Matrix m = src;
    softmax_rows(m, 0);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_SoftmaxCausal)->Arg(48)->Arg(128);

void BM_RmsNorm(benchmark::State& state) {
  const Matrix in = random_matrix(128, 64, 6);
  const std::vector<float> gain(64, 1.0f);
  Matrix out;
  std::vector<float> inv_rms;
  for (auto _ : state) {
    rmsnorm_forward(in, gain, 1e-5f, out, inv_rms);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RmsNorm);

void BM_CholeskyGptqFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_matrix(4 * n, n, 7);
  HessianAccumulator acc(n);
  acc.add_matrix(x);
  const Matrix h = acc.finalized_damped(0.01);
  for (auto _ : state) {
    const Matrix u = gptq_inverse_factor(h);
    benchmark::DoNotOptimize(u.data());
  }
}
BENCHMARK(BM_CholeskyGptqFactor)->Arg(48)->Arg(128)->Arg(192);

void BM_HessianAccumulate(benchmark::State& state) {
  const Matrix x = random_matrix(48, 64, 8);
  for (auto _ : state) {
    HessianAccumulator acc(64);
    acc.add_matrix(x);
    benchmark::DoNotOptimize(acc.tokens_seen());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 48);
}
BENCHMARK(BM_HessianAccumulate);

void BM_RtnQuantize(benchmark::State& state) {
  const Matrix w = random_matrix(64, 192, 9);
  QuantSpec spec;
  spec.bits = static_cast<int>(state.range(0));
  spec.group_size = 16;
  for (auto _ : state) {
    const Matrix q = rtn_quantize(w, spec);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_RtnQuantize)->Arg(2)->Arg(4);

void BM_GptqSolve(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const Matrix w = random_matrix(d, d, 10);
  const Matrix x = random_matrix(4 * d, d, 11);
  HessianAccumulator acc(d);
  acc.add_matrix(x);
  const Matrix h = acc.finalized();
  GptqConfig cfg;
  cfg.spec.bits = 4;
  cfg.spec.group_size = 16;
  for (auto _ : state) {
    const GptqResult res = gptq_quantize(w, h, cfg);
    benchmark::DoNotOptimize(res.weight.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_GptqSolve)->Arg(48)->Arg(128);

void BM_PackWeights(benchmark::State& state) {
  const Matrix w = random_matrix(128, 128, 12);
  QuantSpec spec;
  spec.bits = static_cast<int>(state.range(0));
  spec.group_size = 16;
  for (auto _ : state) {
    const QuantizedLinear packed(w, spec);
    benchmark::DoNotOptimize(packed.storage_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_PackWeights)->Arg(2)->Arg(4);

void BM_DequantizeWeights(benchmark::State& state) {
  const Matrix w = random_matrix(128, 128, 13);
  QuantSpec spec;
  spec.bits = static_cast<int>(state.range(0));
  spec.group_size = 16;
  const QuantizedLinear packed(w, spec);
  for (auto _ : state) {
    const Matrix dq = packed.dequantize();
    benchmark::DoNotOptimize(dq.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_DequantizeWeights)->Arg(2)->Arg(4);

void BM_FusedDequantMatmul(benchmark::State& state) {
  const Matrix w = random_matrix(128, 128, 14);
  const Matrix x = random_matrix(48, 128, 15);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 16;
  const QuantizedLinear packed(w, spec);
  for (auto _ : state) {
    const Matrix y = packed.matmul_transposed(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * x.rows() * w.rows() * w.cols()));
}
BENCHMARK(BM_FusedDequantMatmul);

void BM_ModelForward(benchmark::State& state) {
  ModelConfig mc;
  mc.vocab_size = 64;
  mc.dim = 48;
  mc.n_layers = 4;
  mc.n_heads = 4;
  mc.ffn_dim = 128;
  const Model m = Model::init(mc, 16);
  Rng rng(17);
  TokenSeq tokens(48);
  for (auto& t : tokens) {
    t = static_cast<TokenId>(rng.index(64));
  }
  ForwardCache cache;
  for (auto _ : state) {
    const Matrix logits = model_forward(m, tokens, cache);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 48);
}
BENCHMARK(BM_ModelForward);

// ---- standalone naive-vs-tiled / serial-vs-parallel sweep -----------------

// Best-of-`reps` wall time of `fn` after `warmup` untimed runs (the warmups
// fault in the pages and settle the pool so min-of-N measures steady state).
double best_seconds(int warmup, int reps, const std::function<void()>& fn) {
  for (int i = 0; i < warmup; ++i) {
    fn();
  }
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct SweepRow {
  std::string kernel;
  std::string impl;  // "naive" (aptq::ref) or "tiled" (production path)
  std::size_t threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_1 = 1.0;
  double speedup_vs_naive = 0.0;  // 0 = no naive baseline for this kernel
};

// Time each hot kernel at each pool size, both as the retained naive
// reference and as the register-tiled production path. The thread counts
// sweep the pool, never the problem: every timing runs the identical
// deterministic computation, so the numbers isolate scheduling cost/win;
// the naive-vs-tiled pairs at equal thread count isolate the kernel win.
// `smoke` shrinks every problem and the rep count for the CI bench-smoke
// step: same kernels and labels, a few seconds total instead of a minute.
std::vector<SweepRow> run_threads_sweep(
    const std::vector<std::size_t>& thread_counts, bool smoke) {
  const std::size_t gemm_n = smoke ? 192 : 512;
  const std::size_t hess_t = smoke ? 256 : 768;
  const std::size_t hess_d = smoke ? 128 : 256;
  const std::size_t gptq_d = smoke ? 96 : 192;
  const std::size_t qg_d = smoke ? 256 : 768;
  const int warmup = smoke ? 1 : 2;
  const int reps = smoke ? 3 : 5;
  // matmul: the acceptance-criterion 512x512x512 problem.
  const Matrix ga = random_matrix(gemm_n, gemm_n, 21);
  const Matrix gb = random_matrix(gemm_n, gemm_n, 22);
  Matrix gc(gemm_n, gemm_n);
  // Hessian accumulation: one large calibration batch.
  const Matrix hx = random_matrix(hess_t, hess_d, 23);
  // GPTQ solve: a 192-wide layer.
  const Matrix qw = random_matrix(gptq_d, gptq_d, 24);
  HessianAccumulator qacc(gptq_d);
  qacc.add_matrix(random_matrix(4 * gptq_d, gptq_d, 25));
  const Matrix qh = qacc.finalized();
  GptqConfig qcfg;
  qcfg.spec.bits = 4;
  qcfg.spec.group_size = 16;
  // Quantized decode GEMV: one w4g16 and one w2g16 layer in the blocked
  // format (the two widths an APTQ mixed-precision model serves), dotted
  // with a single activation row (the packed decode hot path) and with a
  // batch of 8 rows (batched decode). The naive side is aptq::ref's
  // per-element unpack-dequantize-accumulate loop over the identical
  // blocks, once per row; both sides repeat the GEMV so each timed run is
  // comfortably above clock resolution.
  const auto qg_layer = [&](int bits) {
    QuantSpec spec;
    spec.bits = bits;
    spec.group_size = 16;
    return QuantizedLinear(random_matrix(qg_d, qg_d, 26), spec);
  };
  const QuantizedLinear qglin4 = qg_layer(4);
  const QuantizedLinear qglin2 = qg_layer(2);
  constexpr std::size_t kQgBatch = 8;
  const Matrix qgx = random_matrix(kQgBatch, qg_d, 27);
  Matrix qgy(kQgBatch, qg_d);
  const std::size_t qg_iters = 64;
  // Effective flop counts: 2mnk for GEMM, tokens·d·(d+1) for the
  // upper-triangle SYRK (both impls do the same useful work), a nominal
  // 2·d³ for the GPTQ solve (dominated by its panel updates), and
  // iters·2·d² for the repeated dequant-GEMV.
  const auto dn = [](std::size_t n) { return static_cast<double>(n); };
  const double gemm_flops = 2.0 * dn(gemm_n) * dn(gemm_n) * dn(gemm_n);
  const double syrk_flops = dn(hess_t) * dn(hess_d) * dn(hess_d + 1);
  const double gptq_flops = 2.0 * dn(gptq_d) * dn(gptq_d) * dn(gptq_d);
  const double qgemv_flops = dn(qg_iters) * 2.0 * dn(qg_d) * dn(qg_d);
  const double qgemv8_flops = dn(kQgBatch) * qgemv_flops;

  struct KernelCase {
    std::string kernel;
    const char* impl;
    double flops;
    std::function<void()> fn;
  };
  std::vector<KernelCase> cases = {
      {"matmul_512", "naive", gemm_flops,
       [&] { ref::gemm(ga, Trans::no, gb, Trans::no, gc); }},
      {"matmul_512", "tiled", gemm_flops,
       [&] { gemm(ga, Trans::no, gb, Trans::no, gc); }},
      {"hessian_accumulate_768x256", "naive", syrk_flops,
       [&] {
         Matrix h(hess_d, hess_d);
         ref::syrk_upper(hx, {}, 1.0f, h);
         benchmark::DoNotOptimize(h.data());
       }},
      {"hessian_accumulate_768x256", "tiled", syrk_flops,
       [&] {
         HessianAccumulator acc(hess_d);
         acc.add_matrix(hx);
         benchmark::DoNotOptimize(acc.tokens_seen());
       }},
      {"gptq_solve_192", "tiled", gptq_flops,
       [&] { benchmark::DoNotOptimize(gptq_quantize(qw, qh, qcfg).weight); }},
  };
  for (const QuantizedLinear* lin : {&qglin4, &qglin2}) {
    const QBlock q = lin->block_view();
    const std::string w = "_w" + std::to_string(lin->spec().bits) + "g16";
    cases.push_back({"quantized_gemv" + w, "naive", qgemv_flops, [&, q] {
                     for (std::size_t i = 0; i < qg_iters; ++i) {
                       ref::qgemv(q, qgx.data(), qgy.data());
                     }
                     benchmark::DoNotOptimize(qgy.data());
                   }});
    cases.push_back({"quantized_gemv" + w, "tiled", qgemv_flops, [&, q] {
                     for (std::size_t i = 0; i < qg_iters; ++i) {
                       kern::qgemv(q, qgx.data(), qgy.data());
                     }
                     benchmark::DoNotOptimize(qgy.data());
                   }});
    cases.push_back({"quantized_gemv8" + w, "naive", qgemv8_flops, [&, q] {
                     for (std::size_t i = 0; i < qg_iters; ++i) {
                       for (std::size_t b = 0; b < kQgBatch; ++b) {
                         ref::qgemv(q, qgx.data() + b * qg_d,
                                    qgy.data() + b * qg_d);
                       }
                     }
                     benchmark::DoNotOptimize(qgy.data());
                   }});
    cases.push_back({"quantized_gemv8" + w, "tiled", qgemv8_flops, [&, q] {
                     for (std::size_t i = 0; i < qg_iters; ++i) {
                       kern::qgemv_batch(q, qgx.data(), kQgBatch, qgy.data());
                     }
                     benchmark::DoNotOptimize(qgy.data());
                   }});
  }

  std::vector<SweepRow> rows;
  for (const auto& c : cases) {
    double serial_seconds = 0.0;
    for (const std::size_t threads : thread_counts) {
      ThreadPool::set_global_threads(threads);
      SweepRow row;
      row.kernel = c.kernel;
      row.impl = c.impl;
      row.threads = threads;
      row.seconds = best_seconds(warmup, reps, c.fn);
      row.gflops = row.seconds > 0.0 ? c.flops / row.seconds / 1e9 : 0.0;
      if (threads == 1) {
        serial_seconds = row.seconds;
      }
      row.speedup_vs_1 =
          serial_seconds > 0.0 ? serial_seconds / row.seconds : 1.0;
      rows.push_back(row);
    }
  }
  // Pair up naive/tiled rows at equal thread count.
  for (auto& tiled : rows) {
    if (tiled.impl != "tiled") {
      continue;
    }
    for (const auto& naive : rows) {
      if (naive.impl == "naive" && naive.kernel == tiled.kernel &&
          naive.threads == tiled.threads && tiled.seconds > 0.0) {
        tiled.speedup_vs_naive = naive.seconds / tiled.seconds;
      }
    }
  }
  ThreadPool::set_global_threads(1);
  return rows;
}

bool write_sweep_json(const std::vector<SweepRow>& rows,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "kernels_micro: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"build\": \""
#if defined(__AVX2__)
      << "APTQ_NATIVE (AVX2)"
#elif defined(__AVX__)
      << "APTQ_NATIVE (AVX)"
#else
      << "baseline (SSE2)"
#endif
      << "\",\n";
  out << "  \"timing\": \"min of 5 reps after 2 warmup runs\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"impl\": \"" << r.impl
        << "\", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"gflops\": " << r.gflops
        << ", \"speedup_vs_1\": " << r.speedup_vs_1
        << ", \"speedup_vs_naive\": ";
    if (r.speedup_vs_naive > 0.0) {
      out << r.speedup_vs_naive;
    } else {
      out << "null";
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.good();
}

}  // namespace
}  // namespace aptq

int main(int argc, char** argv) {
  std::size_t requested_threads = 0;  // 0 = hardware concurrency
  bool run_sweep = true;
  bool sweep_only = false;  // skip the gbench suite (CI bench-smoke)
  bool smoke = false;       // reduced problem sizes and rep counts
  std::string sweep_out = "BENCH_kernels.json";
  // Peel our flags off before google-benchmark parses the rest.
  std::vector<char*> gbench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      requested_threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--no-sweep") {
      run_sweep = false;
    } else if (arg == "--sweep-only") {
      sweep_only = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--sweep-out" && i + 1 < argc) {
      sweep_out = argv[++i];
    } else {
      gbench_args.push_back(argv[i]);
    }
  }

  if (run_sweep) {
    std::vector<std::size_t> counts =
        smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2, 4};
    if (requested_threads != 0 &&
        std::find(counts.begin(), counts.end(), requested_threads) ==
            counts.end()) {
      counts.push_back(requested_threads);
    }
    const auto rows = aptq::run_threads_sweep(counts, smoke);
    if (aptq::write_sweep_json(rows, sweep_out)) {
      std::printf("threads sweep written to %s\n", sweep_out.c_str());
    }
    for (const auto& r : rows) {
      std::printf("  %-28s %-5s threads=%zu  %.6fs  %7.2f GF/s  vs1=%.2fx",
                  r.kernel.c_str(), r.impl.c_str(), r.threads, r.seconds,
                  r.gflops, r.speedup_vs_1);
      if (r.speedup_vs_naive > 0.0) {
        std::printf("  vs_naive=%.2fx", r.speedup_vs_naive);
      }
      std::printf("\n");
    }
  }
  if (sweep_only) {
    return 0;
  }

  aptq::ThreadPool::set_global_threads(requested_threads == 0
                                           ? 1
                                           : requested_threads);
  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
