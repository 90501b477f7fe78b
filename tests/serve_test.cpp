// Equivalence and correctness suite for the continuous-batching serving
// engine (serve/engine.hpp).
//
// The core contract: every request's token stream under continuous
// batching is byte-identical to decoding that request alone through
// decode_prefill / decode_step + sample_token with its private RNG stream
// (Rng::for_stream(seed, id)) — across batch sizes, thread counts, dense
// and packed backends, and staggered arrival orders. Plus scheduler
// behavior (priority, admission, rejection), KV-pool lifecycle,
// context-overflow eviction, and the serve.* telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>

#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "quant/packed_model.hpp"
#include "serve/engine.hpp"
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
// the same stopping rules the engine applies. This is the definition of
// the determinism contract (docs/SERVING.md).
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

// A mixed bag of requests: varying prompt lengths (so prefills of
// different shapes fold into in-flight decode steps), temperatures, top-k,
// seeds, priorities, and a couple of eos-terminated ones.
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
    reqs.push_back(r);
  }
  return reqs;
}

template <typename ModelT>
void expect_equivalence(const ModelT& model, std::size_t max_batch,
                        const char* label) {
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_context = 48;
  ServeEngine engine(make_backend(model), cfg);
  const std::vector<Request> reqs = make_requests(config_of(model).vocab_size);
  for (const Request& r : reqs) {
    engine.submit(r);
  }
  const std::vector<GenerationResult> results = engine.run();
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReferenceRun ref =
        reference_run(model, reqs[i], results[i].id, cfg.max_context);
    EXPECT_EQ(results[i].tokens, ref.tokens)
        << label << " batch=" << max_batch << " request " << results[i].id;
    EXPECT_EQ(results[i].finish, ref.finish)
        << label << " batch=" << max_batch << " request " << results[i].id;
    EXPECT_EQ(results[i].prompt_tokens, reqs[i].prompt.size());
  }
}

// (batch size, thread count) grid: tokens must be identical to the solo
// decode in every cell, for both backends.
class ServeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  ServeEquivalence() {
    ThreadPool::set_global_threads(std::get<1>(GetParam()));
  }
  ~ServeEquivalence() override { ThreadPool::set_global_threads(1); }
};

TEST_P(ServeEquivalence, DenseMatchesSequentialDecode) {
  const Model m = Model::init(test_config(), 21);
  expect_equivalence(m, std::get<0>(GetParam()), "dense");
}

TEST_P(ServeEquivalence, PackedMatchesSequentialDecode) {
  const Model m = Model::init(test_config(), 22);
  const PackedModel pm = packed_for(m);
  expect_equivalence(pm, std::get<0>(GetParam()), "packed");
}

TEST_P(ServeEquivalence, MixedPackedMatchesSequentialDecode) {
  const PackedModel pm = mixed_2_4_packed(Model::init(test_config(), 22));
  expect_equivalence(pm, std::get<0>(GetParam()), "mixed packed");
}

INSTANTIATE_TEST_SUITE_P(
    BatchByThreads, ServeEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

// Serving from the committed packed-format-v2 fixture must produce the
// exact token streams of a fresh format-v3 pack of the same model: the
// back-compat reader reproduces codes and group parameters bit-for-bit,
// and the engine is deterministic, so there is no tolerance here. Dense
// backends at the same batch sizes are pinned to the sequential oracle by
// ServeEquivalence above.
class ServeV2Oracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServeV2Oracle, PackedV3StreamsMatchV2FixtureStreams) {
  const std::string fixture =
      std::string(APTQ_GOLDEN_DIR) + "/packed_v2_fixture.bin";
  ASSERT_TRUE(std::filesystem::exists(fixture))
      << "missing fixture " << fixture;
  const PackedModel v2 = PackedModel::load(fixture);
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

  ServeConfig cfg;
  cfg.max_batch = GetParam();
  cfg.max_context = 48;
  ServeEngine a(make_backend(v2), cfg);
  ServeEngine b(make_backend(v3), cfg);
  const std::vector<Request> reqs = make_requests(c.vocab_size);
  for (const Request& r : reqs) {
    a.submit(r);
    b.submit(r);
  }
  const std::vector<GenerationResult> ra = a.run();
  const std::vector<GenerationResult> rb = b.run();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << ra[i].id;
    EXPECT_EQ(ra[i].finish, rb[i].finish) << "request " << ra[i].id;
  }
}

INSTANTIATE_TEST_SUITE_P(Batch, ServeV2Oracle,
                         ::testing::Values(std::size_t{1}, std::size_t{8}));

// Arrival order must not matter: requests submitted mid-flight (folded
// into in-progress decode batches) still produce their solo streams.
TEST(ServeStaggeredArrivals, TokensIndependentOfArrivalOrder) {
  ThreadPool::set_global_threads(4);
  const Model m = Model::init(test_config(), 21);
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_context = 48;
  ServeEngine engine(make_backend(m), cfg);
  const std::vector<Request> reqs = make_requests(m.config.vocab_size);

  std::vector<RequestId> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    ids.push_back(engine.submit(reqs[i]));
  }
  engine.step();
  engine.step();
  for (std::size_t i = 3; i < 7; ++i) {
    ids.push_back(engine.submit(reqs[i]));
  }
  engine.step();
  for (std::size_t i = 7; i < reqs.size(); ++i) {
    ids.push_back(engine.submit(reqs[i]));
  }
  const std::vector<GenerationResult> results = engine.run();
  ThreadPool::set_global_threads(1);

  ASSERT_EQ(results.size(), reqs.size());
  std::map<RequestId, const GenerationResult*> by_id;
  for (const auto& r : results) {
    by_id[r.id] = &r;
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReferenceRun ref =
        reference_run(m, reqs[i], ids[i], cfg.max_context);
    ASSERT_TRUE(by_id.count(ids[i]));
    EXPECT_EQ(by_id[ids[i]]->tokens, ref.tokens) << "request " << ids[i];
  }
}

TEST(ServeScheduler, PriorityBeatsFifoAndFifoBreaksTies) {
  const Model m = Model::init(test_config(), 23);
  ServeConfig cfg;
  cfg.max_batch = 1;  // serialize so completion order mirrors admission
  cfg.max_context = 32;
  ServeEngine engine(make_backend(m), cfg);
  Request base;
  base.prompt = tokens_for(4, 1, m.config.vocab_size);
  base.max_new_tokens = 3;

  Request low = base;
  low.priority = 0;
  Request high_a = base;
  high_a.priority = 5;
  Request high_b = base;
  high_b.priority = 5;
  const RequestId id_low = engine.submit(low);
  const RequestId id_high_a = engine.submit(high_a);
  const RequestId id_high_b = engine.submit(high_b);

  std::map<RequestId, std::size_t> done_step;
  for (const auto& r : engine.run()) {
    done_step[r.id] = r.completion_step;
  }
  EXPECT_LT(done_step[id_high_a], done_step[id_high_b]);
  EXPECT_LT(done_step[id_high_b], done_step[id_low]);
}

TEST(ServeScheduler, ContextOverflowEvictsInsteadOfThrowing) {
  const Model m = Model::init(test_config(), 24);
  ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_context = 8;
  ServeEngine engine(make_backend(m), cfg);

  Request big;
  big.prompt = tokens_for(6, 2, m.config.vocab_size);
  big.max_new_tokens = 50;  // cannot fit: 6 prompt + 2 steps of headroom
  Request small;
  small.prompt = tokens_for(3, 3, m.config.vocab_size);
  small.max_new_tokens = 2;
  const RequestId id_big = engine.submit(big);
  const RequestId id_small = engine.submit(small);

  const auto results = engine.run();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    if (r.id == id_big) {
      EXPECT_EQ(r.finish, FinishReason::context_full);
      // Prefill fills 6 positions; one token from the prefill logits, then
      // steps until the cache is full: 1 + (8 - 6) = 3 tokens.
      EXPECT_EQ(r.tokens.size(), 3u);
    } else {
      EXPECT_EQ(r.id, id_small);
      EXPECT_EQ(r.finish, FinishReason::max_tokens);
      EXPECT_EQ(r.tokens.size(), 2u);
    }
  }
  // The evicted slot was recycled: the pool is fully free again.
  EXPECT_EQ(engine.pool().in_use(), 0u);
}

// Eviction must be surgical: when one request hits context_full mid-batch,
// every co-scheduled request's stream must still match its solo oracle —
// the eviction may not perturb neighbours sharing the paged arena.
TEST(ServeScheduler, EvictionAtBatchGreaterThanOneDoesNotPerturbNeighbors) {
  const Model m = Model::init(test_config(), 29);
  ServeConfig cfg;
  cfg.max_batch = 3;
  cfg.max_context = 10;
  ServeEngine engine(make_backend(m), cfg);

  Request evicted;  // overruns the context mid-flight
  evicted.prompt = tokens_for(7, 10, m.config.vocab_size);
  evicted.max_new_tokens = 50;
  evicted.seed = 41;
  Request neighbor_a;  // co-scheduled, finishes normally
  neighbor_a.prompt = tokens_for(3, 11, m.config.vocab_size);
  neighbor_a.max_new_tokens = 6;
  neighbor_a.seed = 42;
  Request neighbor_b;  // still decoding when the eviction happens
  neighbor_b.prompt = tokens_for(2, 12, m.config.vocab_size);
  neighbor_b.max_new_tokens = 7;
  neighbor_b.seed = 43;
  const std::vector<Request> reqs = {evicted, neighbor_a, neighbor_b};
  std::vector<RequestId> ids;
  for (const Request& r : reqs) {
    ids.push_back(engine.submit(r));
  }
  const auto results = engine.run();
  ASSERT_EQ(results.size(), 3u);
  bool saw_eviction = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReferenceRun ref =
        reference_run(m, reqs[i], ids[i], cfg.max_context);
    EXPECT_EQ(results[i].tokens, ref.tokens) << "request " << ids[i];
    EXPECT_EQ(results[i].finish, ref.finish) << "request " << ids[i];
    saw_eviction |= results[i].finish == FinishReason::context_full;
  }
  ASSERT_TRUE(saw_eviction) << "workload no longer exercises eviction";
  EXPECT_EQ(engine.pool().in_use(), 0u);
  EXPECT_EQ(engine.pool().pages_in_use(), 0u);  // evicted pages returned
}

// Oversubscribed arena: fewer pages than every slot needs at max_context.
// Admission must wait for pages (backpressure), not throw mid-decode, and
// every request must still complete.
TEST(ServeScheduler, PageExhaustionAppliesBackpressureAtAdmission) {
  const Model m = Model::init(test_config(), 30);
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_context = 32;
  cfg.kv_page_positions = 8;
  // Each request's whole lifetime (5 prompt + 2 step positions = 7) fits
  // one 8-position page, and 4 concurrent requests would want 4 pages.
  // Grant 3: at most three requests hold pages at once, the rest queue
  // until a retirement returns a page.
  cfg.kv_pages = 3;
  ServeEngine engine(make_backend(m), cfg);
  std::vector<Request> reqs;
  std::vector<RequestId> ids;
  for (int i = 0; i < 6; ++i) {
    Request r;
    r.prompt = tokens_for(5, 20 + i, m.config.vocab_size);
    r.max_new_tokens = 3;
    r.seed = 500 + static_cast<std::uint64_t>(i);
    reqs.push_back(r);
    ids.push_back(engine.submit(r));
  }
  const auto results = engine.run();
  ASSERT_EQ(results.size(), reqs.size());
  // Backpressure really engaged: the batch never reached max_batch because
  // the arena could not map four working sets at once.
  EXPECT_LT(engine.stats().peak_active, cfg.max_batch);
  EXPECT_GE(engine.stats().peak_active, 1u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReferenceRun ref =
        reference_run(m, reqs[i], ids[i], cfg.max_context);
    EXPECT_EQ(results[i].tokens, ref.tokens) << "request " << ids[i];
    EXPECT_EQ(results[i].finish, ref.finish) << "request " << ids[i];
  }
  EXPECT_EQ(engine.pool().pages_in_use(), 0u);
}

TEST(ServeScheduler, OverlongPromptIsRejectedNotFatal) {
  const Model m = Model::init(test_config(), 25);
  ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_context = 8;
  ServeEngine engine(make_backend(m), cfg);

  Request too_long;
  too_long.prompt = tokens_for(9, 4, m.config.vocab_size);
  Request fine;
  fine.prompt = tokens_for(3, 5, m.config.vocab_size);
  fine.max_new_tokens = 2;
  const RequestId id_long = engine.submit(too_long);
  const RequestId id_fine = engine.submit(fine);

  const auto results = engine.run();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    if (r.id == id_long) {
      EXPECT_EQ(r.finish, FinishReason::rejected);
      EXPECT_NE(r.error.find("max_context"), std::string::npos);
      EXPECT_TRUE(r.tokens.empty());
    } else {
      EXPECT_EQ(r.id, id_fine);
      EXPECT_EQ(r.finish, FinishReason::max_tokens);
    }
  }
}

TEST(ServeScheduler, AdmissionRefusesPastMaxQueue) {
  const Model m = Model::init(test_config(), 26);
  ServeConfig cfg;
  cfg.max_queue = 2;
  ServeEngine engine(make_backend(m), cfg);
  Request r;
  r.prompt = tokens_for(3, 6, m.config.vocab_size);
  engine.submit(r);
  engine.submit(r);
  EXPECT_THROW(engine.submit(r), Error);
}

TEST(ServeScheduler, SubmitValidatesRequests) {
  const Model m = Model::init(test_config(), 27);
  ServeEngine engine(make_backend(m), ServeConfig{});
  Request r;
  EXPECT_THROW(engine.submit(r), Error);  // empty prompt
  r.prompt = tokens_for(3, 7, m.config.vocab_size);
  r.max_new_tokens = 0;
  EXPECT_THROW(engine.submit(r), Error);
  r.max_new_tokens = 4;
  r.sampling.temperature = 0.0f;
  EXPECT_THROW(engine.submit(r), Error);
  r.sampling.temperature = 1.0f;
  r.prompt[1] = static_cast<TokenId>(m.config.vocab_size);  // out of vocab
  EXPECT_THROW(engine.submit(r), Error);
}

TEST(ServeRng, StreamsAreKeyedAndDecorrelated) {
  Rng a = Rng::for_stream(7, 1);
  Rng a_again = Rng::for_stream(7, 1);
  Rng b = Rng::for_stream(7, 2);
  Rng c = Rng::for_stream(8, 1);
  EXPECT_EQ(a.next_u64(), a_again.next_u64());
  Rng a2 = Rng::for_stream(7, 1);
  EXPECT_NE(a2.next_u64(), b.next_u64());
  Rng a3 = Rng::for_stream(7, 1);
  EXPECT_NE(a3.next_u64(), c.next_u64());
}

TEST(KvPoolTest, AcquireReleaseLifecycle) {
  const ModelConfig cfg = test_config();
  KvPool pool(cfg, 16, 2);
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_GT(pool.bytes(), 0u);
  DecodeState* a = pool.acquire();
  DecodeState* b = pool.acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.available(), 1u);
  DecodeState* again = pool.acquire();
  EXPECT_EQ(again, a);       // recycled, not reallocated
  EXPECT_EQ(again->pos(), 0u);  // and reset
  pool.release(again);
  pool.release(b);
  EXPECT_THROW(pool.release(b), Error);  // double release
  DecodeState foreign(cfg, 16);
  EXPECT_THROW(pool.release(&foreign), Error);
}

TEST(KvPoolTest, PagedAccountingTracksMappedPages) {
  const ModelConfig cfg = test_config();
  // 2 slots × max_context 16 at 8 positions/page → 4 pages auto-sized.
  KvPool pool(cfg, 16, 2, 8);
  EXPECT_EQ(pool.page_positions(), 8u);
  EXPECT_EQ(pool.pages(), 4u);
  EXPECT_EQ(pool.free_pages(), 4u);
  // bytes() covers the whole slab up front; nothing is mapped yet.
  const std::size_t row = cfg.kv_dim() * sizeof(float);
  EXPECT_GE(pool.bytes(), 4u * cfg.n_layers * 2 * 8 * row);
  EXPECT_EQ(pool.mapped_bytes(), 0u);

  DecodeState* a = pool.acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->try_reserve(10));  // 2 pages of 8
  EXPECT_EQ(pool.pages_in_use(), 2u);
  EXPECT_EQ(a->pages_held(), 2u);
  EXPECT_GE(pool.mapped_bytes(), 2u * cfg.n_layers * 2 * 8 * row);
  pool.release(a);  // pages return with the slot, not at next acquire
  EXPECT_EQ(pool.pages_in_use(), 0u);
  EXPECT_EQ(pool.free_pages(), 4u);
}

TEST(KvPoolTest, ExplicitPageBudgetBoundsConcurrentReservations) {
  const ModelConfig cfg = test_config();
  KvPool pool(cfg, 16, 2, 8, 3);  // oversubscribed: 2 slots want 4 pages
  DecodeState* a = pool.acquire();
  DecodeState* b = pool.acquire();
  ASSERT_TRUE(a->try_reserve(16));   // 2 pages
  EXPECT_FALSE(b->try_reserve(16));  // only 1 left
  EXPECT_TRUE(b->try_reserve(8));    // which is enough for one page
  EXPECT_EQ(pool.free_pages(), 0u);
  pool.release(a);
  EXPECT_TRUE(pool.acquire()->try_reserve(16));
  pool.release(b);
}

TEST(ServeTelemetry, CountsTokensAndFillsReport) {
  obs::reset_observability();
  obs::set_telemetry(true);
  const Model m = Model::init(test_config(), 28);
  ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_context = 32;
  ServeEngine engine(make_backend(m), cfg);
  Request r;
  r.prompt = tokens_for(4, 8, m.config.vocab_size);
  r.max_new_tokens = 5;
  engine.submit(r);
  engine.submit(r);
  const auto results = engine.run();
  obs::set_telemetry(false);

  std::uint64_t generated = 0;
  for (const auto& res : results) {
    generated += res.tokens.size();
  }
  EXPECT_EQ(generated, 10u);
  EXPECT_EQ(obs::counter("serve.tokens_generated").value(), generated);
  EXPECT_EQ(obs::counter("serve.requests_completed").value(), 2u);
  EXPECT_EQ(engine.stats().generated_tokens, generated);
  EXPECT_EQ(engine.stats().completed, 2u);
  EXPECT_EQ(engine.stats().peak_active, 2u);

  obs::RunReport report;
  engine.fill_report(report);
  const std::string json = report.json();
  EXPECT_NE(json.find("\"serving\": {"), std::string::npos);
  EXPECT_NE(json.find("\"dense.generated_tokens\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dense.requests_completed\": 2"), std::string::npos);
  obs::reset_observability();
}

// --- latency breakdown -----------------------------------------------------

TEST(ServeLatency, BreakdownFieldsPopulated) {
  obs::reset_observability();
  obs::set_telemetry(true);
  const Model m = Model::init(test_config(), 28);
  ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_context = 32;
  ServeEngine engine(make_backend(m), cfg);
  Request r;
  r.prompt = tokens_for(4, 8, m.config.vocab_size);
  r.max_new_tokens = 5;
  engine.submit(r);
  engine.submit(r);
  const auto results = engine.run();
  obs::set_telemetry(false);

  ASSERT_EQ(results.size(), 2u);
  for (const auto& res : results) {
    EXPECT_GE(res.queue_wait_ms, 0.0);
    EXPECT_GT(res.prefill_ms, 0.0);
    EXPECT_GT(res.decode_ms, 0.0);  // 4 decode passes beyond the prefill
    // 5 tokens: TPOT averages decode_ms over the 4 post-first tokens.
    EXPECT_GT(res.tpot_ms, 0.0);
    EXPECT_NEAR(res.tpot_ms, res.decode_ms / 4.0, 1e-9);
  }
  EXPECT_GE(engine.stats().queue_wait_ms_max,
            results[0].queue_wait_ms);
  EXPECT_GE(engine.stats().queue_wait_ms_sum,
            results[0].queue_wait_ms + results[1].queue_wait_ms - 1e-9);

  // The histograms saw one sample per admission / prefill and one TPOT
  // sample per (request, decode pass).
  EXPECT_EQ(obs::histogram("serve.queue_wait_ms").snapshot().count, 2u);
  EXPECT_EQ(obs::histogram("serve.prefill_ms").snapshot().count, 2u);
  EXPECT_GT(obs::histogram("serve.tpot_ms").snapshot().count, 0u);

  obs::RunReport report;
  engine.fill_report(report);
  const std::string json = report.json();
  EXPECT_NE(json.find("\"serving\": {\"schema_version\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("dense.queue_wait_ms_avg"), std::string::npos);
  obs::reset_observability();
}

TEST(ServeLatency, EvictionAndBackpressureCausesAreAttributed) {
  obs::reset_observability();
  obs::set_telemetry(true);
  // Capacity eviction: a request that outruns max_context.
  {
    const Model m = Model::init(test_config(), 24);
    ServeConfig cfg;
    cfg.max_batch = 2;
    cfg.max_context = 8;
    ServeEngine engine(make_backend(m), cfg);
    Request big;
    big.prompt = tokens_for(6, 2, m.config.vocab_size);
    big.max_new_tokens = 50;
    engine.submit(big);
    engine.run();
    EXPECT_EQ(engine.stats().evicted_capacity, 1u);
    EXPECT_EQ(engine.stats().evicted_pages, 0u);
  }
  // Page backpressure: more concurrent requests than the arena can map.
  {
    const Model m = Model::init(test_config(), 30);
    ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.max_context = 32;
    cfg.kv_page_positions = 8;
    cfg.kv_pages = 3;
    ServeEngine engine(make_backend(m), cfg);
    for (int i = 0; i < 6; ++i) {
      Request r;
      r.prompt = tokens_for(5, 20 + i, m.config.vocab_size);
      r.max_new_tokens = 3;
      engine.submit(r);
    }
    engine.run();
    EXPECT_GT(engine.stats().backpressure_pages, 0u);
    EXPECT_EQ(obs::counter("serve.backpressure_pages").value(),
              engine.stats().backpressure_pages);
  }
  obs::set_telemetry(false);
  obs::reset_observability();
}

// A 1-token generation never rode a decode pass, so tpot_ms is 0 — the
// documented "undefined, skip it" sentinel — not decode_ms over zero
// post-first tokens.
TEST(ServeLatency, SingleTokenGenerationHasZeroTpot) {
  const Model m = Model::init(test_config(), 29);
  ServeConfig cfg;
  cfg.max_context = 32;
  ServeEngine engine(make_backend(m), cfg);
  Request r;
  r.prompt = tokens_for(4, 9, m.config.vocab_size);
  r.max_new_tokens = 1;
  engine.submit(r);
  const auto results = engine.run();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].tokens.size(), 1u);
  EXPECT_EQ(results[0].finish, FinishReason::max_tokens);
  EXPECT_EQ(results[0].decode_ms, 0.0);
  EXPECT_EQ(results[0].tpot_ms, 0.0);
  EXPECT_GT(results[0].prefill_ms, 0.0);
}

TEST(ServeCancel, QueuedRequestLeavesWithoutTokens) {
  const Model m = Model::init(test_config(), 30);
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_context = 32;
  ServeEngine engine(make_backend(m), cfg);
  Request r;
  r.prompt = tokens_for(4, 10, m.config.vocab_size);
  r.max_new_tokens = 3;
  const RequestId keep = engine.submit(r);
  const RequestId drop = engine.submit(r);
  ASSERT_TRUE(engine.cancel(drop));
  EXPECT_FALSE(engine.cancel(drop));       // already gone
  EXPECT_FALSE(engine.cancel(keep + 99));  // unknown id
  const auto results = engine.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, keep);
  EXPECT_EQ(results[0].finish, FinishReason::max_tokens);
  EXPECT_EQ(results[1].id, drop);
  EXPECT_EQ(results[1].finish, FinishReason::cancelled);
  EXPECT_TRUE(results[1].tokens.empty());
  // Queue cancellations never count as completions.
  EXPECT_EQ(engine.stats().completed, 1u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(ServeCancel, InFlightRequestRetiresWithExactPartialStream) {
  const Model m = Model::init(test_config(), 31);
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_context = 32;
  ServeEngine engine(make_backend(m), cfg);
  Request r;
  r.prompt = tokens_for(4, 11, m.config.vocab_size);
  r.max_new_tokens = 10;
  const RequestId id = engine.submit(r);
  engine.step();  // prefill + first token
  engine.step();  // second token
  ASSERT_EQ(engine.active_count(), 1u);
  ASSERT_TRUE(engine.cancel(id));
  // Retired immediately: slot and pages free, engine idle.
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.pool().in_use(), 0u);
  EXPECT_FALSE(engine.cancel(id));
  const auto results = engine.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].finish, FinishReason::cancelled);
  ASSERT_EQ(results[0].tokens.size(), 2u);
  // The partial stream is an exact prefix of the uncancelled one.
  const ReferenceRun ref = reference_run(m, r, id, cfg.max_context);
  EXPECT_TRUE(std::equal(results[0].tokens.begin(), results[0].tokens.end(),
                         ref.tokens.begin()));
  // In-flight cancellations DO count as completions (they held a slot).
  EXPECT_EQ(engine.stats().completed, 1u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

}  // namespace
}  // namespace aptq::serve
