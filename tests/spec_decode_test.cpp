// Output-equivalence suite for exact speculative decoding (serve/spec.hpp,
// decode_prefill as the verifier, DecodeState::rewind).
//
// The contract under test: a speculative request's token stream is BITWISE
// IDENTICAL to the same request decoded without speculation — across draft
// models (high- and low-agreement), k values, batch sizes, thread counts,
// and mid-stream rejections — and the paged-KV footprint between cycles
// matches what solo decoding would have mapped (rejected positions'
// pages go back to the arena, not just the cursor).
//
// Layers covered:
//   1. decode_prefill row j == decode_step j's logits, float for float,
//      for dense, packed, and after partial-accept rewinds.
//   2. DecodeState::rewind releases shared-arena pages and a re-decode
//      over the rewound span reproduces the original logits.
//   3. ServeEngine speculative streams == the sequential oracle == the
//      non-speculative engine, with real drafts (packed twin, unrelated
//      random model) over k × batch × threads.
//   4. Scripted one-hot drafts drive exact accept/reject schedules:
//      accept-all (bonus tokens), reject-all, reject at a page boundary,
//      context-full eviction mid-speculation, page-exhaustion eviction —
//      with mapped_bytes checked against the solo-footprint formula after
//      every engine step.
//   5. submit()-time validation: speculative requests need a configured
//      draft with a matching vocabulary.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "quant/packed_model.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/threadpool.hpp"
#include "packed_fixtures.hpp"

namespace aptq::serve {
namespace {

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

// The sequential oracle: one request, alone, on a fresh DecodeState, with
// the engine's stopping rules. Identical to serve_test's — it defines the
// determinism contract speculative decoding must preserve.
struct ReferenceRun {
  TokenSeq tokens;
  FinishReason finish = FinishReason::none;
};

template <typename ModelT>
ReferenceRun reference_run(const ModelT& model, const Request& req,
                           RequestId id, std::size_t max_context) {
  Rng rng = Rng::for_stream(req.seed, id);
  DecodeState state(config_of(model), max_context);
  const Matrix pre = decode_prefill(model, req.prompt, state);
  const auto last = pre.row(pre.rows() - 1);
  std::vector<float> logits(last.begin(), last.end());
  ReferenceRun out;
  while (true) {
    const TokenId tok = sample_token(logits, req.sampling, rng);
    out.tokens.push_back(tok);
    if (req.eos_token >= 0 && tok == req.eos_token) {
      out.finish = FinishReason::eos;
      break;
    }
    if (out.tokens.size() >= req.max_new_tokens) {
      out.finish = FinishReason::max_tokens;
      break;
    }
    if (state.pos() >= state.max_context()) {
      out.finish = FinishReason::context_full;
      break;
    }
    logits = decode_step(model, tok, state);
  }
  return out;
}

std::size_t pages_for(std::size_t positions, std::size_t page_positions) {
  return (positions + page_positions - 1) / page_positions;
}

// Bytes of one KV arena page (KvArena's stride × sizeof(float)).
std::size_t page_bytes(const ModelConfig& c, std::size_t page_positions) {
  return c.n_layers * 2 * page_positions * c.kv_dim() * sizeof(float);
}

// Solo decoding's mapped footprint for a request with prompt P and n
// generated tokens: admission reserves P+1 positions, then each decode
// step reserves one more (pos = P + n - 1). Speculation must match this
// between cycles — over-reserved verify positions are rolled back.
std::size_t solo_mapped_bytes(const ModelConfig& c, std::size_t page_positions,
                              std::size_t prompt, std::size_t generated) {
  const std::size_t positions =
      std::max(prompt + 1, prompt + generated - 1);
  return pages_for(positions, page_positions) * page_bytes(c, page_positions);
}

// ---------------------------------------------------------------------------
// 1. decode_prefill (the verify pass) == sequential decode_step, bitwise.
// ---------------------------------------------------------------------------

template <typename ModelT>
void expect_verify_bitwise(const ModelT& model, std::size_t m,
                           const char* label) {
  const std::size_t vocab = config_of(model).vocab_size;
  const TokenSeq prompt = tokens_for(5, 7, vocab);
  const TokenSeq cont = tokens_for(m, 8, vocab);
  DecodeState solo(config_of(model), 64);
  DecodeState ver(config_of(model), 64);
  decode_prefill(model, prompt, solo);
  decode_prefill(model, prompt, ver);

  std::vector<std::vector<float>> expected;
  for (const TokenId t : cont) {
    expected.push_back(decode_step(model, t, solo));
  }
  const Matrix got = decode_prefill(model, cont, ver);
  ASSERT_EQ(got.rows(), m);
  ASSERT_EQ(got.cols(), vocab);
  EXPECT_EQ(ver.pos(), prompt.size() + m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t v = 0; v < vocab; ++v) {
      ASSERT_EQ(got.at(j, v), expected[j][v])
          << label << " m=" << m << " row " << j << " vocab " << v;
    }
  }
}

class DecodeVerify : public ::testing::TestWithParam<std::size_t> {
 protected:
  DecodeVerify() { ThreadPool::set_global_threads(GetParam()); }
  ~DecodeVerify() override { ThreadPool::set_global_threads(1); }
};

TEST_P(DecodeVerify, DenseRowsMatchSequentialSteps) {
  const Model m = Model::init(test_config(), 41);
  for (const std::size_t rows : {1, 2, 5, 9}) {
    expect_verify_bitwise(m, rows, "dense");
  }
}

TEST_P(DecodeVerify, PackedRowsMatchSequentialSteps) {
  const Model m = Model::init(test_config(), 42);
  const PackedModel pm = packed_for(m);
  for (const std::size_t rows : {1, 2, 5, 9}) {
    expect_verify_bitwise(pm, rows, "packed");
  }
}

TEST_P(DecodeVerify, MixedPackedRowsMatchSequentialSteps) {
  const PackedModel pm = mixed_2_4_packed(Model::init(test_config(), 42));
  for (const std::size_t rows : {1, 2, 5, 9}) {
    expect_verify_bitwise(pm, rows, "mixed packed");
  }
}

// Partial accept: verify m rows, rewind to an accepted prefix, continue
// with solo steps — the continuation must match a state that never saw the
// rejected positions.
TEST_P(DecodeVerify, RewindAfterVerifyResumesExactly) {
  const Model m = Model::init(test_config(), 43);
  const std::size_t vocab = test_config().vocab_size;
  const TokenSeq prompt = tokens_for(6, 9, vocab);
  const TokenSeq cont = tokens_for(5, 10, vocab);

  DecodeState spec(test_config(), 64);
  decode_prefill(m, prompt, spec);
  decode_prefill(m, cont, spec);
  const std::size_t accept = 2;
  spec.rewind(prompt.size() + accept);

  DecodeState solo(test_config(), 64);
  decode_prefill(m, prompt, solo);
  for (std::size_t j = 0; j < accept; ++j) {
    decode_step(m, cont[j], solo);
  }
  const TokenId next = static_cast<TokenId>(3);
  const std::vector<float> a = decode_step(m, next, spec);
  const std::vector<float> b = decode_step(m, next, solo);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeVerify,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(DecodeVerifyLimits, ThrowsPastMaxContext) {
  const Model m = Model::init(test_config(), 44);
  DecodeState state(test_config(), 8);
  decode_prefill(m, tokens_for(6, 11, test_config().vocab_size), state);
  const TokenSeq three = tokens_for(3, 12, test_config().vocab_size);
  EXPECT_THROW(decode_prefill(m, three, state), Error);
  EXPECT_EQ(state.pos(), 6u);
}

// ---------------------------------------------------------------------------
// 2. DecodeState::rewind semantics.
// ---------------------------------------------------------------------------

TEST(Rewind, SoloStateReproducesLogitsOverRewoundSpan) {
  const Model m = Model::init(test_config(), 51);
  const std::size_t vocab = test_config().vocab_size;
  const TokenSeq prompt = tokens_for(4, 13, vocab);
  const TokenSeq cont = tokens_for(4, 14, vocab);

  DecodeState state(test_config(), 64);
  decode_prefill(m, prompt, state);
  std::vector<std::vector<float>> first;
  for (const TokenId t : cont) {
    first.push_back(decode_step(m, t, state));
  }
  state.rewind(prompt.size());
  for (std::size_t j = 0; j < cont.size(); ++j) {
    EXPECT_EQ(decode_step(m, cont[j], state), first[j]) << "step " << j;
  }
}

TEST(Rewind, SharedArenaReleasesPages) {
  const ModelConfig cfg = test_config();
  const std::size_t pp = 4;
  KvPool pool(cfg, 64, 1, pp);
  const Model m = Model::init(cfg, 52);
  DecodeState* state = pool.acquire();
  ASSERT_NE(state, nullptr);

  decode_prefill(m, tokens_for(6, 15, cfg.vocab_size), *state);
  for (const TokenId t : tokens_for(5, 16, cfg.vocab_size)) {
    decode_step(m, t, *state);
  }
  ASSERT_EQ(state->pos(), 11u);
  EXPECT_EQ(pool.mapped_bytes(), pages_for(11, pp) * page_bytes(cfg, pp));

  state->rewind(5);
  EXPECT_EQ(state->pos(), 5u);
  EXPECT_EQ(pool.mapped_bytes(), pages_for(5, pp) * page_bytes(cfg, pp));
  EXPECT_EQ(pool.free_pages(), pool.pages() - pages_for(5, pp));

  // Rewind to zero returns everything; the state remains usable.
  state->rewind(0);
  EXPECT_EQ(pool.mapped_bytes(), 0u);
  pool.release(state);
}

TEST(Rewind, ForwardRewindThrows) {
  DecodeState state(test_config(), 16);
  const Model m = Model::init(test_config(), 53);
  decode_prefill(m, tokens_for(3, 17, test_config().vocab_size), state);
  EXPECT_THROW(state.rewind(4), Error);
  EXPECT_NO_THROW(state.rewind(3));  // no-op
  EXPECT_EQ(state.pos(), 3u);
}

// ---------------------------------------------------------------------------
// 3. Engine equivalence with real drafts, k × batch × threads.
// ---------------------------------------------------------------------------

// Mixed request bag; every third request stays non-speculative so spec
// cycles and the shared decode batch interleave in one engine.
std::vector<Request> make_requests(std::size_t vocab) {
  std::vector<Request> reqs;
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.prompt = tokens_for(3 + rng.index(8), 100 + static_cast<std::uint64_t>(i),
                          vocab);
    r.max_new_tokens = 4 + rng.index(9);
    r.sampling.temperature = (i % 3 == 0) ? 0.7f : 1.1f;
    r.sampling.top_k = (i % 2 == 0) ? 0 : 5;
    r.seed = 1000 + static_cast<std::uint64_t>(i);
    r.priority = static_cast<int>(rng.index(3));
    if (i == 4 || i == 7) {
      r.eos_token = static_cast<TokenId>(rng.index(vocab));
    }
    r.speculative = (i % 3 != 2);
    reqs.push_back(r);
  }
  return reqs;
}

template <typename TargetT>
void expect_spec_equivalence(const TargetT& target, Backend draft,
                             std::size_t k, std::size_t max_batch,
                             const char* label) {
  SpecConfig sc;
  sc.draft = std::move(draft);
  sc.k = k;
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_context = 48;
  ServeEngine engine(make_backend(target), cfg, std::move(sc));
  const std::vector<Request> reqs =
      make_requests(config_of(target).vocab_size);
  for (const Request& r : reqs) {
    engine.submit(r);
  }
  const std::vector<GenerationResult> results = engine.run();
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReferenceRun ref =
        reference_run(target, reqs[i], results[i].id, cfg.max_context);
    EXPECT_EQ(results[i].tokens, ref.tokens)
        << label << " k=" << k << " batch=" << max_batch << " request "
        << results[i].id << (reqs[i].speculative ? " (spec)" : " (plain)");
    EXPECT_EQ(results[i].finish, ref.finish)
        << label << " k=" << k << " batch=" << max_batch << " request "
        << results[i].id;
    if (!reqs[i].speculative) {
      EXPECT_EQ(results[i].spec_cycles, 0u);
      EXPECT_EQ(results[i].spec_proposed, 0u);
    }
  }
  // Speculation actually ran, and its counters are internally consistent.
  const SpecStats* s = engine.spec_stats();
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->proposed, 0u) << label;
  EXPECT_LE(s->accepted, s->proposed);
  EXPECT_GE(s->emitted, static_cast<std::uint64_t>(s->cycles));
  // After the drain every page is back in the arena.
  EXPECT_EQ(engine.pool().mapped_bytes(), 0u);
}

class SpecEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  SpecEquivalence() {
    ThreadPool::set_global_threads(std::get<1>(GetParam()));
  }
  ~SpecEquivalence() override { ThreadPool::set_global_threads(1); }
};

// High-agreement draft: the 4-bit packed twin of the target.
TEST_P(SpecEquivalence, DenseTargetPackedTwinDraft) {
  const Model m = Model::init(test_config(), 61);
  const PackedModel twin = packed_for(m);
  for (const std::size_t k : {2, 4, 8}) {
    expect_spec_equivalence(m, make_backend(twin), k, std::get<0>(GetParam()),
                            "dense+twin");
  }
}

// Low-agreement draft: an unrelated random model — near-chance agreement,
// so almost every cycle ends in a mid-stream rejection.
TEST_P(SpecEquivalence, DenseTargetUnrelatedDraft) {
  const Model m = Model::init(test_config(), 61);
  const Model stranger = Model::init(test_config(), 62);
  for (const std::size_t k : {2, 4, 8}) {
    expect_spec_equivalence(m, make_backend(stranger), k,
                            std::get<0>(GetParam()), "dense+stranger");
  }
}

// Packed verifier: the quantized model is the serving target, drafted by
// its own dense original (and k=4 by an unrelated model).
TEST_P(SpecEquivalence, PackedTargetDenseDraft) {
  const Model m = Model::init(test_config(), 63);
  const PackedModel pm = packed_for(m);
  for (const std::size_t k : {2, 4, 8}) {
    expect_spec_equivalence(pm, make_backend(m), k, std::get<0>(GetParam()),
                            "packed+dense");
  }
  const Model stranger = Model::init(test_config(), 64);
  expect_spec_equivalence(pm, make_backend(stranger), 4,
                          std::get<0>(GetParam()), "packed+stranger");
}

INSTANTIATE_TEST_SUITE_P(
    BatchByThreads, SpecEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{8}),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

// ---------------------------------------------------------------------------
// 4. Scripted drafts: exact accept/reject schedules + KV residency.
// ---------------------------------------------------------------------------

// A draft backend that plays a script instead of running a model: the
// proposal after consuming global stream position g-1 is script(g),
// returned as one-hot logits. It keeps honest DecodeState bookkeeping
// (reserve/advance), so SpecDecoder's rewind-and-refeed paths run for real.
Backend scripted_draft(const ModelConfig& config,
                       std::function<TokenId(std::size_t)> script) {
  Backend b;
  b.name = "scripted";
  b.config = config;
  const std::size_t vocab = config.vocab_size;
  auto one_hot = [vocab](std::span<float> row, TokenId t) {
    std::fill(row.begin(), row.end(), 0.0f);
    row[static_cast<std::size_t>(t)] = 1.0f;
  };
  b.prefill = [script, vocab, one_hot](std::span<const TokenId> tokens,
                                       DecodeState& state) {
    APTQ_CHECK(state.try_reserve(tokens.size()), "scripted draft: no pages");
    const std::size_t pos0 = state.pos();
    state.advance(tokens.size());
    Matrix out(tokens.size(), vocab);
    for (std::size_t r = 0; r < tokens.size(); ++r) {
      one_hot(out.row(r), script(pos0 + r + 1));
    }
    return out;
  };
  return b;
}

// Greedy single-request harness: drives one speculative request through a
// spec engine built from a scripted draft, asserting the solo residency
// formula after every engine step, and returns the result + stats.
struct ScriptedOutcome {
  GenerationResult result;
  SpecStats spec;
  ServeStats stats;
};

ScriptedOutcome run_scripted(const Model& target, const Request& req,
                             std::function<TokenId(std::size_t)> script,
                             std::size_t k, std::size_t max_context,
                             std::size_t kv_pages = 0,
                             bool check_residency = true) {
  const ModelConfig cfg = config_of(target);
  SpecConfig sc;
  sc.draft = scripted_draft(cfg, std::move(script));
  sc.k = k;
  ServeConfig scfg;
  scfg.max_batch = 1;
  scfg.max_context = max_context;
  scfg.kv_page_positions = 4;
  scfg.kv_pages = kv_pages;
  ServeEngine engine(make_backend(target), scfg, std::move(sc));

  std::size_t emitted = 0;
  engine.set_token_callback(
      [&emitted](RequestId, TokenId, FinishReason) { ++emitted; });
  engine.submit(req);
  const std::size_t P = req.prompt.size();
  while (!engine.idle()) {
    engine.step();
    if (check_residency) {
      if (engine.active_count() == 1) {
        // Between cycles the speculative footprint must equal solo
        // decoding's: rejected verify rows returned their pages.
        EXPECT_EQ(engine.pool().mapped_bytes(),
                  solo_mapped_bytes(cfg, engine.pool().page_positions(), P,
                                    emitted))
            << "after emitting " << emitted << " tokens";
      } else {
        EXPECT_EQ(engine.pool().mapped_bytes(), 0u);
      }
    }
  }
  std::vector<GenerationResult> results = engine.run();
  EXPECT_EQ(results.size(), 1u);
  ScriptedOutcome out;
  out.result = std::move(results.front());
  out.spec = *engine.spec_stats();
  out.stats = engine.stats();
  EXPECT_EQ(engine.pool().mapped_bytes(), 0u);
  return out;
}

// One greedy request (top_k = 1 makes the stream a pure argmax walk, so a
// script built from the oracle controls accept/reject exactly).
Request greedy_request(std::size_t vocab, std::size_t max_new) {
  Request r;
  r.prompt = tokens_for(6, 21, vocab);
  r.max_new_tokens = max_new;
  r.sampling.top_k = 1;
  r.seed = 7;
  r.speculative = true;
  return r;
}

// full[g]: the whole solo stream (prompt then oracle tokens) by global
// index; the scripts below are built from it.
TokenSeq full_stream(const Request& req, const ReferenceRun& ref) {
  TokenSeq full = req.prompt;
  full.insert(full.end(), ref.tokens.begin(), ref.tokens.end());
  return full;
}

TEST(SpecScripted, AcceptAllEveryProposalLands) {
  const Model target = Model::init(test_config(), 71);
  const Request req = greedy_request(test_config().vocab_size, 12);
  const ReferenceRun ref = reference_run(target, req, 0, 48);
  ASSERT_EQ(ref.finish, FinishReason::max_tokens);
  const TokenSeq full = full_stream(req, ref);
  const auto out = run_scripted(
      target, req,
      [full](std::size_t g) {
        return g < full.size() ? full[g] : TokenId{0};
      },
      4, 48);
  EXPECT_EQ(out.result.tokens, ref.tokens);
  EXPECT_EQ(out.result.finish, ref.finish);
  EXPECT_GT(out.spec.proposed, 0u);
  // A perfect draft never gets rejected, and every all-accept cycle emits
  // its bonus token on top of the k accepts.
  EXPECT_EQ(out.spec.accepted, out.spec.proposed);
  EXPECT_EQ(out.spec.emitted, out.spec.accepted + out.spec.cycles);
  EXPECT_EQ(out.result.spec_accepted, out.result.spec_proposed);
}

TEST(SpecScripted, RejectAllEveryCycleEmitsOneCorrection) {
  const Model target = Model::init(test_config(), 71);
  const std::size_t vocab = test_config().vocab_size;
  const Request req = greedy_request(vocab, 12);
  const ReferenceRun ref = reference_run(target, req, 0, 48);
  const TokenSeq full = full_stream(req, ref);
  const auto out = run_scripted(
      target, req,
      [full, vocab](std::size_t g) {
        // Always wrong: one past the true token, mod vocab.
        const TokenId t = g < full.size() ? full[g] : TokenId{0};
        return static_cast<TokenId>((t + 1) % static_cast<TokenId>(vocab));
      },
      4, 48);
  EXPECT_EQ(out.result.tokens, ref.tokens);
  EXPECT_EQ(out.result.finish, ref.finish);
  EXPECT_GT(out.spec.proposed, 0u);
  EXPECT_EQ(out.spec.accepted, 0u);
  // Every committed cycle rejected its first proposal: one correction out.
  EXPECT_EQ(out.spec.emitted, static_cast<std::uint64_t>(out.spec.cycles));
}

TEST(SpecScripted, RejectAtPageBoundaryReleasesTheNewPage) {
  const Model target = Model::init(test_config(), 71);
  const std::size_t vocab = test_config().vocab_size;
  const Request req = greedy_request(vocab, 12);  // prompt 6, pages of 4
  const ReferenceRun ref = reference_run(target, req, 0, 48);
  const TokenSeq full = full_stream(req, ref);
  // First cycle: pos0 = 6, verify reaches position 11 (3 pages mapped);
  // corrupting g = 8 rejects there, so the rewind to position 8 must give
  // the third page back. run_scripted's per-step residency oracle is what
  // actually catches a leak.
  const auto out = run_scripted(
      target, req,
      [full, vocab](std::size_t g) {
        const TokenId t = g < full.size() ? full[g] : TokenId{0};
        if (g == 8) {
          return static_cast<TokenId>((t + 1) % static_cast<TokenId>(vocab));
        }
        return t;
      },
      4, 48);
  EXPECT_EQ(out.result.tokens, ref.tokens);
  EXPECT_EQ(out.result.finish, ref.finish);
  EXPECT_LT(out.spec.accepted, out.spec.proposed);  // the reject happened
}

TEST(SpecScripted, AcceptAllIntoContextFullEviction) {
  const Model target = Model::init(test_config(), 71);
  // max_context 16 with prompt 6: the request dies on KV capacity long
  // before max_new_tokens, mid-speculation — the cycle's k_eff clamp and
  // the per-row context_full stopping rule must fire exactly where solo
  // decoding's would.
  Request req = greedy_request(test_config().vocab_size, 40);
  const ReferenceRun ref = reference_run(target, req, 0, 16);
  ASSERT_EQ(ref.finish, FinishReason::context_full);
  const TokenSeq full = full_stream(req, ref);
  const auto out = run_scripted(
      target, req,
      [full](std::size_t g) {
        return g < full.size() ? full[g] : TokenId{0};
      },
      4, 16);
  EXPECT_EQ(out.result.tokens, ref.tokens);
  EXPECT_EQ(out.result.finish, FinishReason::context_full);
  EXPECT_EQ(out.stats.evicted_capacity, 1u);
}

TEST(SpecScripted, ArenaExhaustionDegradesThenEvicts) {
  const Model target = Model::init(test_config(), 71);
  Request req = greedy_request(test_config().vocab_size, 40);
  const ReferenceRun ref = reference_run(target, req, 0, 64);
  const TokenSeq full = full_stream(req, ref);
  // Prompt 6 on 4-position pages: admission maps 2 pages; with only 3 in
  // the arena the spec cycles degrade k_eff as pages run dry and the
  // request is finally evicted by pages, like the batch path. The emitted
  // prefix must still be exact. (Residency check off: over-reserve from
  // failed degradation attempts is released on retirement, not per step.)
  const auto out = run_scripted(
      target, req,
      [full](std::size_t g) {
        return g < full.size() ? full[g] : TokenId{0};
      },
      4, 64, /*kv_pages=*/3, /*check_residency=*/false);
  EXPECT_EQ(out.result.finish, FinishReason::context_full);
  EXPECT_EQ(out.stats.evicted_pages, 1u);
  ASSERT_LE(out.result.tokens.size(), ref.tokens.size());
  EXPECT_TRUE(std::equal(out.result.tokens.begin(), out.result.tokens.end(),
                         ref.tokens.begin()));
  // 3 pages cover 12 positions, so the stream ends with pos = 12:
  // tokens = pos - prompt + 1.
  EXPECT_EQ(out.result.tokens.size(), 12 - req.prompt.size() + 1);
}

// A speculative request sharing the engine with plain neighbours must not
// disturb them (and vice versa): the oracle equality of SpecEquivalence
// covers tokens; this pins the footprint — after the speculative request
// retires early, only the plain request's pages stay mapped.
TEST(SpecScripted, BatchNeighbourPagesUntouchedByRollback) {
  const Model target = Model::init(test_config(), 71);
  const ModelConfig cfg = test_config();
  SpecConfig sc;
  const Request spec_req = greedy_request(cfg.vocab_size, 4);
  const ReferenceRun spec_ref = reference_run(target, spec_req, 0, 48);
  const TokenSeq full = full_stream(spec_req, spec_ref);
  sc.draft = scripted_draft(cfg, [full, cfg](std::size_t g) {
    const TokenId t = g < full.size() ? full[g] : TokenId{0};
    return static_cast<TokenId>((t + 1) %
                                static_cast<TokenId>(cfg.vocab_size));
  });
  sc.k = 4;
  ServeConfig scfg;
  scfg.max_batch = 2;
  scfg.max_context = 48;
  scfg.kv_page_positions = 4;
  ServeEngine engine(make_backend(target), scfg, std::move(sc));

  Request plain = spec_req;
  plain.speculative = false;
  plain.max_new_tokens = 24;
  engine.submit(spec_req);
  engine.submit(plain);
  const std::vector<GenerationResult> results = engine.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].tokens, spec_ref.tokens);
  const ReferenceRun plain_ref = reference_run(target, plain, 1, 48);
  EXPECT_EQ(results[1].tokens, plain_ref.tokens);
  EXPECT_EQ(engine.pool().mapped_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// 5. submit()-time validation.
// ---------------------------------------------------------------------------

TEST(SpecValidation, SpeculativeWithoutDraftRejectedAtSubmit) {
  const Model m = Model::init(test_config(), 81);
  ServeConfig cfg;
  ServeEngine engine(make_backend(m), cfg);
  EXPECT_EQ(engine.spec_stats(), nullptr);
  Request r;
  r.prompt = tokens_for(3, 23, test_config().vocab_size);
  r.speculative = true;
  EXPECT_THROW(engine.submit(r), Error);
  r.speculative = false;
  EXPECT_NO_THROW(engine.submit(r));
  engine.run();
}

TEST(SpecValidation, VocabMismatchRejectedAtSubmitWithClearError) {
  const Model target = Model::init(test_config(), 82);
  ModelConfig small = test_config();
  small.vocab_size = 16;  // draft disagrees with the target's 24
  const Model draft = Model::init(small, 83);
  SpecConfig sc;
  sc.draft = make_backend(draft);
  ServeConfig cfg;
  ServeEngine engine(make_backend(target), cfg, std::move(sc));
  Request r;
  r.prompt = tokens_for(3, 24, test_config().vocab_size);
  r.speculative = true;
  try {
    engine.submit(r);
    FAIL() << "vocab-mismatched speculative request accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("vocab"), std::string::npos)
        << e.what();
  }
  // Same engine still serves both non-speculative work (any vocab overlap
  // question is moot — the draft is never consulted) without mid-flight
  // surprises.
  r.speculative = false;
  EXPECT_NO_THROW(engine.submit(r));
  const std::vector<GenerationResult> results = engine.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].finish, FinishReason::max_tokens);
}

TEST(SpecValidation, EngineWithoutVerifyBackendRefusesSpecConfig) {
  // The verify pass is the target's prefill.
  const Model draft = Model::init(test_config(), 84);
  const Model target = Model::init(test_config(), 85);
  Backend no_verify = make_backend(target);
  no_verify.prefill = nullptr;
  SpecConfig sc;
  sc.draft = make_backend(draft);
  ServeConfig cfg;
  EXPECT_THROW(ServeEngine(std::move(no_verify), cfg, std::move(sc)), Error);
}

}  // namespace
}  // namespace aptq::serve
