// Serial-equivalence suite for the parallelized hot paths: matmul, Hessian
// accumulation, the GPTQ solver and the whole quantizer (calibration fanned
// out over segments) must produce bitwise-identical results
// at 2, 4, and 7 threads compared to the fully serial 1-thread path, on the
// same seeded inputs. Shapes are deliberately not divisible by the chunk
// grains to exercise chunk-boundary handling. With the register-tiled
// kernels (tensor/kernels.hpp) the guarantee is unchanged: tile and chunk
// boundaries depend only on the operand shapes, never the thread count, so
// both the naive-reference and tiled/SYRK dispatch arms stay bitwise
// thread-count invariant (see docs/KERNELS.md).
#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.hpp"
#include "quant/gptq.hpp"
#include "quant/hessian.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

namespace aptq {
namespace {

const std::size_t kThreadSweep[] = {2, 4, 7};

// Restore the serial pool when a test exits, pass or fail.
class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  ~ParallelEquivalenceTest() override { ThreadPool::set_global_threads(1); }
};

TEST_F(ParallelEquivalenceTest, MatmulAllTransposeVariants) {
  Rng rng(501);
  // 37 output rows: not divisible by any power-of-two grain.
  const Matrix a = Matrix::randn(37, 23, rng);
  const Matrix b = Matrix::randn(23, 41, rng);
  const Matrix at = a.transposed();
  const Matrix bt = b.transposed();

  ThreadPool::set_global_threads(1);
  const Matrix nn = matmul(a, b);
  const Matrix nt = matmul(a, bt, Trans::no, Trans::yes);
  const Matrix tn = matmul(at, b, Trans::yes, Trans::no);
  const Matrix tt = matmul(at, bt, Trans::yes, Trans::yes);

  for (const std::size_t threads : kThreadSweep) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(matmul(a, b) == nn) << "nn, threads=" << threads;
    EXPECT_TRUE(matmul(a, bt, Trans::no, Trans::yes) == nt)
        << "nt, threads=" << threads;
    EXPECT_TRUE(matmul(at, b, Trans::yes, Trans::no) == tn)
        << "tn, threads=" << threads;
    EXPECT_TRUE(matmul(at, bt, Trans::yes, Trans::yes) == tt)
        << "tt, threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, MatmulLargeEnoughToActuallyChunk) {
  // Large enough to route through the tiled kernel with several MR-row tile
  // chunks, so all pool threads genuinely participate.
  Rng rng(502);
  const Matrix a = Matrix::randn(130, 160, rng);
  const Matrix b = Matrix::randn(160, 150, rng);
  ThreadPool::set_global_threads(1);
  const Matrix serial = matmul(a, b);
  for (const std::size_t threads : kThreadSweep) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(matmul(a, b) == serial) << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, GemmAccumulateWithBeta) {
  Rng rng(503);
  const Matrix a = Matrix::randn(29, 31, rng);
  const Matrix b = Matrix::randn(31, 27, rng);
  const Matrix c0 = Matrix::randn(29, 27, rng);

  ThreadPool::set_global_threads(1);
  Matrix serial = c0;
  gemm(a, Trans::no, b, Trans::no, serial, 0.7f, 0.3f);
  for (const std::size_t threads : kThreadSweep) {
    ThreadPool::set_global_threads(threads);
    Matrix c = c0;
    gemm(a, Trans::no, b, Trans::no, c, 0.7f, 0.3f);
    EXPECT_TRUE(c == serial) << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, HessianAccumulation) {
  Rng rng(504);
  // dim 19 with grain 4 leaves a 3-row tail chunk; 33 tokens.
  const std::size_t d = 19;
  const Matrix x1 = Matrix::randn(33, d, rng);
  const Matrix x2 = Matrix::randn(12, d, rng);
  std::vector<float> gamma(x1.rows());
  for (auto& g : gamma) {
    g = rng.uniform(0.0f, 2.0f);
  }
  gamma[5] = 0.0f;  // zero-weight token rides the multiply path in SYRK

  const auto accumulate = [&] {
    HessianAccumulator acc(d);
    acc.add_matrix(x1, gamma);
    acc.add_matrix(x2);  // γ ≡ 1 batch on top, same accumulator
    return acc;
  };

  ThreadPool::set_global_threads(1);
  const HessianAccumulator serial_acc = accumulate();
  const Matrix serial_h = serial_acc.finalized();
  const Matrix serial_damped = serial_acc.finalized_damped(0.01);
  const double serial_trace = serial_acc.average_trace();

  for (const std::size_t threads : kThreadSweep) {
    ThreadPool::set_global_threads(threads);
    const HessianAccumulator acc = accumulate();
    EXPECT_EQ(acc.tokens_seen(), serial_acc.tokens_seen());
    EXPECT_TRUE(acc.finalized() == serial_h) << "threads=" << threads;
    EXPECT_TRUE(acc.finalized_damped(0.01) == serial_damped)
        << "threads=" << threads;
    EXPECT_EQ(acc.average_trace(), serial_trace) << "threads=" << threads;
  }
}

GptqResult run_gptq(const Matrix& w, const Matrix& h,
                    const GptqConfig& cfg) {
  return gptq_quantize(w, h, cfg);
}

TEST_F(ParallelEquivalenceTest, GptqQuantizeFull) {
  Rng rng(505);
  // 13 output rows (odd, forces uneven row chunks), 29 inputs with group 8
  // (tail group of 5) and solver block 16 (tail block of 13).
  const std::size_t d_out = 13;
  const std::size_t d_in = 29;
  const Matrix w = Matrix::randn(d_out, d_in, rng);
  const Matrix x = Matrix::randn(96, d_in, rng);
  HessianAccumulator acc(d_in);
  acc.add_matrix(x);
  const Matrix h = acc.finalized();

  for (const bool act_order : {false, true}) {
    GptqConfig cfg;
    cfg.spec.bits = 3;
    cfg.spec.group_size = 8;
    cfg.block_size = 16;
    cfg.act_order = act_order;
    cfg.fp_columns = {2, 17};  // OWQ-style weak columns

    ThreadPool::set_global_threads(1);
    const GptqResult serial = run_gptq(w, h, cfg);
    for (const std::size_t threads : kThreadSweep) {
      ThreadPool::set_global_threads(threads);
      const GptqResult parallel = run_gptq(w, h, cfg);
      EXPECT_TRUE(parallel.weight == serial.weight)
          << "act_order=" << act_order << " threads=" << threads;
      EXPECT_EQ(parallel.proxy_loss, serial.proxy_loss)
          << "act_order=" << act_order << " threads=" << threads;
      EXPECT_EQ(parallel.recon_error, serial.recon_error)
          << "act_order=" << act_order << " threads=" << threads;
    }
  }
}

TEST_F(ParallelEquivalenceTest, GptqRepeatedRunsAreStable) {
  // Same thread count, repeated runs: the solver must be a pure function —
  // no run-to-run scheduling sensitivity.
  Rng rng(506);
  const Matrix w = Matrix::randn(21, 24, rng);
  const Matrix x = Matrix::randn(64, 24, rng);
  HessianAccumulator acc(24);
  acc.add_matrix(x);
  const Matrix h = acc.finalized();
  GptqConfig cfg;
  cfg.spec.bits = 4;
  cfg.spec.group_size = 8;

  ThreadPool::set_global_threads(4);
  const GptqResult first = run_gptq(w, h, cfg);
  for (int run = 0; run < 5; ++run) {
    const GptqResult again = run_gptq(w, h, cfg);
    EXPECT_TRUE(again.weight == first.weight) << "run " << run;
    EXPECT_EQ(again.proxy_loss, first.proxy_loss) << "run " << run;
  }
}

TEST_F(ParallelEquivalenceTest, QuantizeModelWeights) {
  // End to end: sequential calibration fans out over segments (20 segments
  // span a full chunk plus a partial one), carries block inputs forward, and
  // quantizes each block's layers concurrently. The weights must not depend
  // on the pool size.
  MarkovSpec spec;
  spec.seed = 507;
  spec.vocab_size = 16;
  spec.topics = 2;
  spec.branching = 3;
  const Corpus corpus("calib", spec, 3000, 300, 508);
  ModelConfig mc;
  mc.vocab_size = 16;
  mc.dim = 16;
  mc.n_layers = 3;
  mc.n_heads = 2;
  mc.ffn_dim = 24;
  const Model fp = Model::init(mc, 509);
  PipelineConfig pc;
  pc.calib_segments = 20;
  pc.calib_seq_len = 12;
  pc.group_size = 8;
  pc.ratio_high = 0.5;

  const auto weights = [&](Method method) {
    const QuantizedModel qm = quantize_model(fp, corpus, method, pc);
    std::vector<Matrix> out;
    for (const auto& ref : collect_linears(qm.model)) {
      out.push_back(*ref.weight);
    }
    return out;
  };
  for (const Method method : {Method::aptq_mixed, Method::gptq}) {
    ThreadPool::set_global_threads(1);
    const auto serial = weights(method);
    for (const std::size_t threads : {2, 4}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(weights(method) == serial)
          << method_name(method, pc) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace aptq
