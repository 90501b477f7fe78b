// Equivalence tests for the incremental decoding engine (model/decode.hpp):
// prefill, steps and batched steps run one forward, so prefill rows must
// equal sequential steps bitwise (whole, chunked, dense and packed), and
// both must reproduce the full forward pass up to rounding — serially and
// multi-threaded — plus state lifecycle checks (capacity, reset, config
// mismatch, bad tokens, page mapping on rejected calls) and the samplers.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "model/decode.hpp"
#include "model/forward.hpp"
#include "model/sampler.hpp"
#include "quant/packed_model.hpp"
#include "util/threadpool.hpp"
#include "packed_fixtures.hpp"

namespace aptq {
namespace {

// model_forward's GEMM attention reassociates f32 sums differently from the
// decode engine's per-row fold.
constexpr float kTol = 2e-4f;

ModelConfig test_config() {
  ModelConfig c;
  c.vocab_size = 24;
  c.dim = 16;
  c.n_layers = 3;
  c.n_heads = 2;
  c.ffn_dim = 24;
  return c;
}

TokenSeq tokens_for(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  TokenSeq t(n);
  for (auto& v : t) {
    v = static_cast<TokenId>(rng.index(vocab));
  }
  return t;
}

PackedModel packed_for(const Model& m) {
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 8;
  return PackedModel::pack_uniform(m, spec);
}

const ModelConfig& config_of(const Model& m) { return m.config; }
const ModelConfig& config_of(const PackedModel& m) { return m.config(); }

// Prefill rows against the same tokens fed one decode_step at a time, on
// fresh states: exact equality, the engine's central contract.
template <typename ModelT>
void expect_prefill_matches_steps(const ModelT& model, const TokenSeq& tokens) {
  DecodeState pre_state(config_of(model), tokens.size());
  DecodeState step_state(config_of(model), tokens.size());
  const Matrix pre = decode_prefill(model, tokens, pre_state);
  ASSERT_EQ(pre.rows(), tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const std::vector<float> step = decode_step(model, tokens[t], step_state);
    ASSERT_EQ(step.size(), pre.cols());
    for (std::size_t v = 0; v < step.size(); ++v) {
      ASSERT_EQ(pre(t, v), step[v]) << "position " << t << " vocab " << v;
    }
  }
  EXPECT_EQ(pre_state.pos(), step_state.pos());
}

// Feeds `tokens` in chunks of the given sizes (summing to tokens.size()) and
// checks logits and every cached K/V row against one whole-prompt prefill.
template <typename ModelT>
void expect_chunked_prefill_matches_whole(
    const ModelT& model, const TokenSeq& tokens,
    const std::vector<std::size_t>& chunks) {
  const ModelConfig& cfg = config_of(model);
  DecodeState whole_state(cfg, tokens.size());
  DecodeState chunk_state(cfg, tokens.size());
  const Matrix whole = decode_prefill(model, tokens, whole_state);
  std::size_t at = 0;
  for (const std::size_t n : chunks) {
    const Matrix part = decode_prefill(
        model, std::span<const TokenId>(tokens.data() + at, n), chunk_state);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t v = 0; v < cfg.vocab_size; ++v) {
        ASSERT_EQ(part(r, v), whole(at + r, v))
            << "position " << at + r << " vocab " << v;
      }
    }
    at += n;
  }
  ASSERT_EQ(at, tokens.size());
  ASSERT_EQ(chunk_state.pos(), whole_state.pos());
  for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      for (std::size_t c = 0; c < cfg.kv_dim(); ++c) {
        ASSERT_EQ(chunk_state.k_row(layer, t)[c],
                  whole_state.k_row(layer, t)[c])
            << "K layer " << layer << " position " << t;
        ASSERT_EQ(chunk_state.v_row(layer, t)[c],
                  whole_state.v_row(layer, t)[c])
            << "V layer " << layer << " position " << t;
      }
    }
  }
}

// Parameterized over the global thread count: the engine must agree with
// the full forward pass serially and with work split across the pool.
class DecodeEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  DecodeEquivalence() { ThreadPool::set_global_threads(GetParam()); }
  ~DecodeEquivalence() override { ThreadPool::set_global_threads(1); }
};

TEST_P(DecodeEquivalence, DensePrefillAndStepsMatchFullForward) {
  const Model m = Model::init(test_config(), 21);
  const TokenSeq tokens = tokens_for(12, 5, m.config.vocab_size);
  const Matrix full = model_forward(m, tokens);

  DecodeState state(m.config, tokens.size());
  const std::size_t split = 8;
  const Matrix pre = decode_prefill(
      m, std::span<const TokenId>(tokens.data(), split), state);
  ASSERT_EQ(pre.rows(), split);
  ASSERT_EQ(pre.cols(), m.config.vocab_size);
  for (std::size_t t = 0; t < split; ++t) {
    for (std::size_t v = 0; v < m.config.vocab_size; ++v) {
      EXPECT_NEAR(pre(t, v), full(t, v), kTol)
          << "prefill position " << t << " vocab " << v;
    }
  }
  for (std::size_t t = split; t < tokens.size(); ++t) {
    const std::vector<float> logits = decode_step(m, tokens[t], state);
    ASSERT_EQ(logits.size(), m.config.vocab_size);
    for (std::size_t v = 0; v < logits.size(); ++v) {
      EXPECT_NEAR(logits[v], full(t, v), kTol)
          << "step position " << t << " vocab " << v;
    }
  }
  EXPECT_EQ(state.pos(), tokens.size());
  expect_prefill_matches_steps(m, tokens);
}

TEST_P(DecodeEquivalence, PackedPrefillAndStepsMatchPackedForward) {
  const Model m = Model::init(test_config(), 22);
  const PackedModel pm = packed_for(m);
  const TokenSeq tokens = tokens_for(10, 6, m.config.vocab_size);
  const Matrix full = pm.forward(tokens);

  DecodeState state(pm.config(), tokens.size());
  const std::size_t split = 6;
  const Matrix pre = decode_prefill(
      pm, std::span<const TokenId>(tokens.data(), split), state);
  for (std::size_t t = 0; t < split; ++t) {
    for (std::size_t v = 0; v < pm.config().vocab_size; ++v) {
      EXPECT_EQ(pre(t, v), full(t, v))
          << "prefill position " << t << " vocab " << v;
    }
  }
  for (std::size_t t = split; t < tokens.size(); ++t) {
    const std::vector<float> logits = decode_step(pm, tokens[t], state);
    ASSERT_EQ(logits.size(), pm.config().vocab_size);
    for (std::size_t v = 0; v < logits.size(); ++v) {
      EXPECT_EQ(logits[v], full(t, v))
          << "step position " << t << " vocab " << v;
    }
  }
  expect_prefill_matches_steps(pm, tokens);
}

TEST_P(DecodeEquivalence, MixedPackedPrefillMatchesSteps) {
  const PackedModel pm = mixed_2_4_packed(Model::init(test_config(), 23));
  expect_prefill_matches_steps(pm, tokens_for(11, 7, pm.config().vocab_size));
}

// A prompt fed in any split is the same prompt: chunked prefill is a
// scheduling choice, not a numerical one. 19 tokens cross a 16-position
// KV page inside a chunk.
TEST_P(DecodeEquivalence, ChunkedPrefillMatchesWholePrompt) {
  const Model m = Model::init(test_config(), 24);
  const TokenSeq tokens = tokens_for(19, 8, m.config.vocab_size);
  const PackedModel mixed = mixed_2_4_packed(m);
  for (const std::vector<std::size_t>& chunks :
       {std::vector<std::size_t>{1, 3, 5, 2, 1, 7},
        std::vector<std::size_t>{12, 7}, std::vector<std::size_t>(19, 1)}) {
    expect_chunked_prefill_matches_whole(m, tokens, chunks);
    expect_chunked_prefill_matches_whole(mixed, tokens, chunks);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// ---- the incremental decoder over a DecodeState ----------------------------

// Step logits at every position against the full forward pass.
void expect_steps_match_full_forward(const Model& m, const TokenSeq& tokens,
                                     float tol) {
  const Matrix full = model_forward(m, tokens);
  DecodeState state(m.config, tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const std::vector<float> logits = decode_step(m, tokens[t], state);
    ASSERT_EQ(logits.size(), m.config.vocab_size);
    for (std::size_t v = 0; v < logits.size(); ++v) {
      EXPECT_NEAR(logits[v], full(t, v), tol)
          << "position " << t << " vocab " << v;
    }
  }
}

TEST(Decoder, StepMatchesFullForward) {
  const Model m = Model::init(test_config(), 1);
  expect_steps_match_full_forward(m, tokens_for(9, 2, 24), 2e-4f);
}

TEST(Decoder, SingleTokenContext) {
  const Model m = Model::init(test_config(), 3);
  expect_steps_match_full_forward(m, tokens_for(1, 4, 24), 2e-4f);
}

TEST(Decoder, LongerContext) {
  // 24 positions: the steps cross a 16-position KV page.
  const Model m = Model::init(test_config(), 5);
  expect_steps_match_full_forward(m, tokens_for(24, 6, 24), 5e-4f);
}

TEST(Decoder, PrefillEqualsStepByStep) {
  const Model m = Model::init(test_config(), 9);
  expect_prefill_matches_steps(m, tokens_for(10, 10, 24));
}

TEST(Decoder, ContinuesAfterPrefill) {
  // prefill(prefix) then steps must equal the full forward on the whole.
  const Model m = Model::init(test_config(), 11);
  const TokenSeq tokens = tokens_for(12, 12, 24);
  const Matrix full = model_forward(m, tokens);
  DecodeState state(m.config, 16);
  decode_prefill(m, std::span<const TokenId>(tokens.data(), 8), state);
  std::vector<float> logits;
  for (std::size_t t = 8; t < 12; ++t) {
    logits = decode_step(m, tokens[t], state);
  }
  for (std::size_t v = 0; v < logits.size(); ++v) {
    EXPECT_NEAR(logits[v], full(11, v), 5e-4f);
  }
}

TEST(Decoder, CapacityEnforced) {
  const Model m = Model::init(test_config(), 13);
  DecodeState state(m.config, 3);
  decode_step(m, 1, state);
  decode_step(m, 2, state);
  decode_step(m, 3, state);
  EXPECT_THROW(decode_step(m, 4, state), Error);
  EXPECT_EQ(state.pos(), 3u);
  DecodeState two(m.config, 3);
  decode_step(m, 1, two);
  const TokenId three[3] = {2, 3, 4};
  EXPECT_THROW(decode_prefill(m, three, two), Error);  // 1 + 3 > 3
  EXPECT_EQ(two.pos(), 1u);
}

TEST(Decoder, ResetRestartsCleanly) {
  const Model m = Model::init(test_config(), 14);
  const TokenSeq tokens = tokens_for(6, 15, 24);
  DecodeState state(m.config, 8);
  const Matrix first = decode_prefill(m, tokens, state);
  state.reset();
  EXPECT_EQ(state.pos(), 0u);
  EXPECT_TRUE(decode_prefill(m, tokens, state) == first);
}

TEST(Decoder, RejectsBadTokens) {
  const Model m = Model::init(test_config(), 16);
  DecodeState state(m.config, 4);
  EXPECT_THROW(decode_step(m, 99, state), Error);
  EXPECT_THROW(decode_step(m, -1, state), Error);
  EXPECT_THROW(decode_prefill(m, {}, state), Error);
  const TokenId tail_bad[3] = {1, 2, 24};
  EXPECT_THROW(decode_prefill(m, tail_bad, state), Error);
  EXPECT_EQ(state.pos(), 0u);
}

// A rejected call must not map pages: every row is checked before the
// first try_reserve, so a bad token in the last row of a batch (or the
// last token of a prompt) leaves every state exactly as it was — here with
// row 0 sitting at a page boundary, where a reservation would map a page.
TEST(Decoder, RejectedCallMapsNoPages) {
  const ModelConfig cfg = test_config();
  const Model m = Model::init(cfg, 17);
  KvArena arena(cfg, 4, 8);
  DecodeState a(cfg, 32, arena);
  DecodeState b(cfg, 32, arena);
  decode_prefill(m, tokens_for(4, 18, cfg.vocab_size), a);  // page boundary
  decode_prefill(m, tokens_for(2, 19, cfg.vocab_size), b);
  ASSERT_EQ(a.pages_held(), 1u);
  ASSERT_EQ(b.pages_held(), 1u);
  const std::size_t free_before = arena.free_pages();

  const TokenId toks[2] = {1, static_cast<TokenId>(cfg.vocab_size)};
  DecodeState* sts[2] = {&a, &b};
  EXPECT_THROW(decode_step_batch(m, toks, sts), Error);
  const TokenId prompt[3] = {1, 2, -1};
  EXPECT_THROW(decode_prefill(m, prompt, a), Error);

  EXPECT_EQ(a.pos(), 4u);
  EXPECT_EQ(b.pos(), 2u);
  EXPECT_EQ(a.pages_held(), 1u);
  EXPECT_EQ(b.pages_held(), 1u);
  EXPECT_EQ(arena.free_pages(), free_before);
}

TEST(DecodeSample, GreedyPathsAgreeWithFullForward) {
  // Near-greedy sampling through the decode engine (sample_from_model)
  // follows the same argmax path as the sampling loop driven by full-prefix
  // recomputation.
  const Model m = Model::init(test_config(), 17);
  SampleConfig cfg;
  cfg.temperature = 0.01f;
  const TokenSeq prompt = {3, 5};
  Rng a(18), b(18);
  const TokenSeq fast = sample_from_model(m, 14, a, cfg, prompt);
  TokenSeq context;
  const auto last_row = [&] {
    const Matrix logits = model_forward(m, context);
    const auto last = logits.row(logits.rows() - 1);
    return std::vector<float>(last.begin(), last.end());
  };
  const TokenSeq slow = sample_with_engine(
      m.config.vocab_size, 14, b, cfg, prompt,
      [&](std::span<const TokenId> tokens) {
        context.assign(tokens.begin(), tokens.end());
        return last_row();
      },
      [&](TokenId token) {
        context.push_back(token);
        return last_row();
      });
  EXPECT_EQ(fast, slow);
}

TEST(DecodeState, CapacityEnforcedAndReusableAfterReset) {
  const Model m = Model::init(test_config(), 23);
  const TokenSeq tokens = tokens_for(6, 7, m.config.vocab_size);
  DecodeState state(m.config, tokens.size());
  const Matrix first = decode_prefill(m, tokens, state);
  EXPECT_EQ(state.pos(), tokens.size());
  EXPECT_THROW(decode_step(m, tokens[0], state), Error);

  state.reset();
  EXPECT_EQ(state.pos(), 0u);
  // Same engine, same inputs, same thread layout: bitwise identical.
  const Matrix second = decode_prefill(m, tokens, state);
  EXPECT_TRUE(first == second);
}

// ---- batched decode: per-row bitwise equality with solo steps -------------
//
// decode_step_batch is the serving engine's hot path: it stacks the
// in-flight requests' activations into one (batch × dim) forward pass. The
// determinism contract requires row i of the batched logits to be bitwise
// identical to decode_step on request i alone — across thread counts,
// mixed context depths, and both backends.
class BatchedDecode : public ::testing::TestWithParam<std::size_t> {
 protected:
  BatchedDecode() { ThreadPool::set_global_threads(GetParam()); }
  ~BatchedDecode() override { ThreadPool::set_global_threads(1); }
};

TEST_P(BatchedDecode, DenseRowsBitwiseMatchSoloSteps) {
  const Model m = Model::init(test_config(), 31);
  const std::size_t n = 4, max_ctx = 24, steps = 5;
  std::vector<DecodeState> solo;
  std::vector<DecodeState> batched;
  solo.reserve(n);
  batched.reserve(n);
  std::vector<DecodeState*> ptrs;
  std::vector<TokenSeq> feeds;
  for (std::size_t i = 0; i < n; ++i) {
    // Staggered prompt lengths: every batch row decodes at a different
    // context depth, exercising the per-row rope positions.
    const TokenSeq prompt = tokens_for(3 + 2 * i, 40 + i, m.config.vocab_size);
    solo.emplace_back(m.config, max_ctx);
    batched.emplace_back(m.config, max_ctx);
    decode_prefill(m, prompt, solo.back());
    decode_prefill(m, prompt, batched.back());
    feeds.push_back(tokens_for(steps, 60 + i, m.config.vocab_size));
  }
  for (std::size_t i = 0; i < n; ++i) {
    ptrs.push_back(&batched[i]);
  }
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<TokenId> toks(n);
    for (std::size_t i = 0; i < n; ++i) {
      toks[i] = feeds[i][s];
    }
    const Matrix logits = decode_step_batch(m, toks, ptrs);
    ASSERT_EQ(logits.rows(), n);
    ASSERT_EQ(logits.cols(), m.config.vocab_size);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float> want = decode_step(m, toks[i], solo[i]);
      for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_EQ(logits(i, v), want[v])
            << "step " << s << " request " << i << " vocab " << v;
      }
      EXPECT_EQ(batched[i].pos(), solo[i].pos());
    }
  }
}

void expect_packed_batch_matches_solo(const PackedModel& pm) {
  const std::size_t n = 3, max_ctx = 20, steps = 4;
  std::vector<DecodeState> solo;
  std::vector<DecodeState> batched;
  solo.reserve(n);
  batched.reserve(n);
  std::vector<DecodeState*> ptrs;
  std::vector<TokenSeq> feeds;
  for (std::size_t i = 0; i < n; ++i) {
    const TokenSeq prompt =
        tokens_for(2 + 3 * i, 70 + i, pm.config().vocab_size);
    solo.emplace_back(pm.config(), max_ctx);
    batched.emplace_back(pm.config(), max_ctx);
    decode_prefill(pm, prompt, solo.back());
    decode_prefill(pm, prompt, batched.back());
    feeds.push_back(tokens_for(steps, 80 + i, pm.config().vocab_size));
  }
  for (std::size_t i = 0; i < n; ++i) {
    ptrs.push_back(&batched[i]);
  }
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<TokenId> toks(n);
    for (std::size_t i = 0; i < n; ++i) {
      toks[i] = feeds[i][s];
    }
    const Matrix logits = decode_step_batch(pm, toks, ptrs);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float> want = decode_step(pm, toks[i], solo[i]);
      for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_EQ(logits(i, v), want[v])
            << "step " << s << " request " << i << " vocab " << v;
      }
    }
  }
}

TEST_P(BatchedDecode, PackedRowsBitwiseMatchSoloSteps) {
  expect_packed_batch_matches_solo(
      packed_for(Model::init(test_config(), 32)));
}

TEST_P(BatchedDecode, MixedPackedRowsBitwiseMatchSoloSteps) {
  expect_packed_batch_matches_solo(
      mixed_2_4_packed(Model::init(test_config(), 32)));
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedDecode,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(BatchedDecodeValidation, RejectsBadBatches) {
  const Model m = Model::init(test_config(), 33);
  DecodeState a(m.config, 8);
  DecodeState b(m.config, 8);
  const TokenId tok = 1;
  {
    // Empty batch.
    EXPECT_THROW(decode_step_batch(m, {}, {}), Error);
  }
  {
    // tokens/states size mismatch.
    const TokenId toks[2] = {tok, tok};
    DecodeState* sts[1] = {&a};
    EXPECT_THROW(decode_step_batch(m, toks, sts), Error);
  }
  {
    // The same state twice would interleave two writers on one KV cache.
    const TokenId toks[2] = {tok, tok};
    DecodeState* sts[2] = {&a, &a};
    EXPECT_THROW(decode_step_batch(m, toks, sts), Error);
  }
  {
    const TokenId toks[2] = {tok, tok};
    DecodeState* sts[2] = {&a, &b};
    EXPECT_NO_THROW(decode_step_batch(m, toks, sts));
  }
}

// ---- paged KV storage ------------------------------------------------------

TEST(KvArena, PageLifecycleAndExhaustion) {
  const ModelConfig cfg = test_config();
  KvArena arena(cfg, 8, 3);
  EXPECT_EQ(arena.pages(), 3u);
  EXPECT_EQ(arena.page_positions(), 8u);
  EXPECT_EQ(arena.free_pages(), 3u);
  EXPECT_EQ(arena.bytes(), 3 * arena.page_stride() * sizeof(float));
  const std::uint32_t p0 = arena.acquire_page();
  const std::uint32_t p1 = arena.acquire_page();
  const std::uint32_t p2 = arena.acquire_page();
  EXPECT_EQ(arena.free_pages(), 0u);
  EXPECT_EQ(arena.acquire_page(), KvArena::kNoPage);  // exhausted, no throw
  arena.release_page(p1);
  EXPECT_EQ(arena.free_pages(), 1u);
  EXPECT_EQ(arena.acquire_page(), p1);  // recycled
  EXPECT_THROW(arena.release_page(KvArena::kNoPage), Error);
  arena.release_page(p0);
  EXPECT_THROW(arena.release_page(p0), Error);  // double release
  (void)p2;
}

TEST(KvArena, RejectsNonPowerOfTwoPageSize) {
  EXPECT_THROW(KvArena(test_config(), 12, 2), Error);
  EXPECT_THROW(KvArena(test_config(), 0, 2), Error);
  EXPECT_THROW(KvArena(test_config(), 16, 0), Error);
}

TEST(PagedDecodeState, SharedArenaBitwiseMatchesPrivateArena) {
  const Model m = Model::init(test_config(), 34);
  // max_context spans several pages so steps cross page boundaries.
  const std::size_t max_ctx = 40, pp = 16;
  KvArena arena(m.config, pp, (max_ctx + pp - 1) / pp);
  DecodeState shared(m.config, max_ctx, arena);
  DecodeState priv(m.config, max_ctx);
  ASSERT_TRUE(shared.try_reserve(max_ctx));
  const TokenSeq prompt = tokens_for(12, 90, m.config.vocab_size);
  const Matrix pre_shared = decode_prefill(m, prompt, shared);
  const Matrix pre_priv = decode_prefill(m, prompt, priv);
  EXPECT_TRUE(pre_shared == pre_priv);
  const TokenSeq feed = tokens_for(max_ctx - prompt.size(), 91,
                                   m.config.vocab_size);
  for (const TokenId t : feed) {
    const std::vector<float> a = decode_step(m, t, shared);
    const std::vector<float> b = decode_step(m, t, priv);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(shared.pos(), static_cast<std::size_t>(max_ctx));
}

TEST(PagedDecodeState, LazyReservationAndRelease) {
  const ModelConfig cfg = test_config();
  KvArena arena(cfg, 4, 3);  // 12 positions total
  DecodeState a(cfg, 12, arena);
  DecodeState b(cfg, 12, arena);
  EXPECT_EQ(a.pages_held(), 0u);  // shared states map pages on demand
  ASSERT_TRUE(a.try_reserve(5));  // 2 pages of 4
  EXPECT_EQ(a.pages_held(), 2u);
  EXPECT_EQ(arena.free_pages(), 1u);
  ASSERT_TRUE(b.try_reserve(4));
  EXPECT_EQ(arena.free_pages(), 0u);
  EXPECT_FALSE(b.try_reserve(5));   // arena dry; b keeps its mapped page
  EXPECT_EQ(b.pages_held(), 1u);
  a.reset();                        // returns a's pages
  EXPECT_EQ(arena.free_pages(), 2u);
  EXPECT_TRUE(b.try_reserve(5));
  EXPECT_GT(a.footprint_bytes(), 0u);  // page-table bookkeeping
}

TEST(PagedDecodeState, DestructorReturnsPagesToArena) {
  const ModelConfig cfg = test_config();
  KvArena arena(cfg, 4, 2);
  {
    DecodeState s(cfg, 8, arena);
    ASSERT_TRUE(s.try_reserve(8));
    EXPECT_EQ(arena.free_pages(), 0u);
  }
  EXPECT_EQ(arena.free_pages(), 2u);
}

TEST(DecodeState, RejectsMismatchedConfig) {
  const Model m = Model::init(test_config(), 24);
  ModelConfig other = test_config();
  other.n_layers = 1;
  DecodeState state(other, 8);
  const TokenSeq tokens = tokens_for(4, 8, m.config.vocab_size);
  EXPECT_THROW(decode_prefill(m, tokens, state), Error);
  EXPECT_THROW(decode_step(m, tokens[0], state), Error);
}

TEST(DecodeState, RejectsZeroCapacity) {
  EXPECT_THROW(DecodeState(test_config(), 0), Error);
}

// The committed packed-format-v2 fixture and a fresh format-v3 pack of the
// same model hold bit-identical codes and group parameters, so decode must
// agree to the last bit: same kernels, same fixed parallel grains. The
// prefill width covers both the single-row qgemv path (batch 1) and the
// prescaled-panel qgemv_batch path (batch 8), for every quantized matmul in
// the stack.
class PackedV2Oracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedV2Oracle, DecodeMatchesFreshV3PackBitwise) {
  const std::string fixture =
      std::string(APTQ_GOLDEN_DIR) + "/packed_v2_fixture.bin";
  ASSERT_TRUE(std::filesystem::exists(fixture))
      << "missing fixture " << fixture;
  const PackedModel v2 = PackedModel::load(fixture);
  // The fixture was packed from Model::init(seed 11) at w4g4; see
  // tests/loader_fuzz_test.cpp for the byte-level comparison.
  ModelConfig c;
  c.vocab_size = 16;
  c.dim = 12;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 16;
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const PackedModel v3 = PackedModel::pack_uniform(Model::init(c, 11), spec);

  const std::size_t prefill = GetParam();
  const TokenSeq tokens = tokens_for(prefill + 4, 4, c.vocab_size);
  DecodeState s2(v2.config(), tokens.size());
  DecodeState s3(v3.config(), tokens.size());
  const Matrix pre2 = decode_prefill(
      v2, std::span<const TokenId>(tokens.data(), prefill), s2);
  const Matrix pre3 = decode_prefill(
      v3, std::span<const TokenId>(tokens.data(), prefill), s3);
  EXPECT_TRUE(pre2 == pre3) << "prefill width " << prefill;
  for (std::size_t t = prefill; t < tokens.size(); ++t) {
    const std::vector<float> l2 = decode_step(v2, tokens[t], s2);
    const std::vector<float> l3 = decode_step(v3, tokens[t], s3);
    EXPECT_EQ(l2, l3) << "step position " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(PrefillBatch, PackedV2Oracle,
                         ::testing::Values(std::size_t{1}, std::size_t{8}));

TEST(PackedSampling, MatchesFullForwardSamplingNearGreedy) {
  const Model m = Model::init(test_config(), 25);
  const PackedModel pm = packed_for(m);
  SampleConfig cfg;
  cfg.temperature = 0.01f;  // near-greedy: rounding noise cannot flip draws
  const TokenSeq prompt = tokens_for(3, 9, m.config.vocab_size);

  Rng rng_a(77);
  const TokenSeq via_engine = sample_from_packed(pm, 12, rng_a, cfg, prompt);

  // Reference: the same sampling loop driven by full-prefix recomputation.
  Rng rng_b(77);
  TokenSeq context = prompt;
  const TokenSeq via_forward = sample_with_engine(
      pm.config().vocab_size, 12, rng_b, cfg, prompt,
      [&](std::span<const TokenId> tokens) {
        context.assign(tokens.begin(), tokens.end());
        const Matrix logits = pm.forward(context);
        const auto last = logits.row(logits.rows() - 1);
        return std::vector<float>(last.begin(), last.end());
      },
      [&](TokenId token) {
        context.push_back(token);
        const Matrix logits = pm.forward(context);
        const auto last = logits.row(logits.rows() - 1);
        return std::vector<float>(last.begin(), last.end());
      });

  EXPECT_EQ(via_engine, via_forward);
}

}  // namespace
}  // namespace aptq
