// Incremental decoding engine with per-layer KV caches, shared by the
// dense Model, the bit-packed PackedModel (via an adapter instantiated in
// src/quant) and the tensor-parallel ShardedModel (src/net).
//
// model_forward() recomputes the whole prefix at every step — fine for
// training and calibration, quadratic waste for generation. The engine
// keeps the rotated keys and raw values of every processed position per
// layer in a DecodeState, and runs every entry point through ONE forward
// pass, detail::decode_forward, over segments of (state, tokens):
//
//   decode_prefill(model, tokens, state)       — 1 segment × T tokens;
//   decode_step(model, token, state)           — 1 segment × 1 token;
//   decode_step_batch(model, tokens, states)   — n segments × 1 token.
//
// Every row attends over its own cached context with the same per-head
// fold, so the three agree bitwise: prefill row j equals the j-th of T
// sequential steps, a prompt fed in any split equals one whole-prompt
// prefill, and batched row i equals a solo step. Logits agree with the
// full forward pass up to f32 rounding (model_forward reassociates its
// GEMM attention). tests/decode_test.cpp enforces both.
//
// The forward is a template over a small weight-access adapter (config /
// embedding / norms / per-layer projections / lm head), so the packed
// overloads can live in src/quant without aptq_model depending on
// aptq_quant. See docs/DECODING.md for the design.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/vocab.hpp"
#include "model/model.hpp"
#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

namespace aptq {

/// Default positions per KV page (must be a power of two).
inline constexpr std::size_t kKvPagePositions = 16;

/// Slab of fixed-size KV pages with a free list — the backing store for
/// paged DecodeStates (vLLM-style paged attention, CPU edition). One page
/// holds `page_positions` consecutive context positions of *every* layer's
/// K and V rows, so a request's page table is a single flat array and
/// mapping one page extends all layers at once. Within a page, the row of
/// (layer, K|V, local position p) sits at
///   ((layer·2 + kind) · page_positions + p) · kv_dim
/// — consecutive positions of one layer stay contiguous for the attention
/// sweep. The slab is allocated once; acquire/release only touch the free
/// list, so page churn is O(1) and allocation-free.
class KvArena {
 public:
  /// Sentinel for "no page".
  static constexpr std::uint32_t kNoPage = 0xffffffffu;

  KvArena() = default;

  /// `pages` pages of `page_positions` positions each, shaped for
  /// `config`'s layers. page_positions must be a power of two >= 1.
  KvArena(const ModelConfig& config, std::size_t page_positions,
          std::size_t pages);

  std::size_t page_positions() const { return page_positions_; }
  std::size_t pages() const { return pages_; }
  std::size_t free_pages() const { return free_.size(); }
  /// Floats per page.
  std::size_t page_stride() const { return stride_; }
  /// Resident slab bytes (allocated once, independent of occupancy).
  std::size_t bytes() const { return slab_.size() * sizeof(float); }
  /// Pages needed to hold `positions` context positions.
  std::size_t pages_for(std::size_t positions) const {
    return (positions + page_positions_ - 1) / page_positions_;
  }

  /// Pop a free page, or kNoPage when the slab is exhausted.
  std::uint32_t acquire_page();
  /// Push a page back. Throws on out-of-range or double release.
  void release_page(std::uint32_t page);

  float* page_data(std::uint32_t page) {
    return slab_.data() + static_cast<std::size_t>(page) * stride_;
  }
  const float* page_data(std::uint32_t page) const {
    return slab_.data() + static_cast<std::size_t>(page) * stride_;
  }

 private:
  std::size_t page_positions_ = 0;
  std::size_t pages_ = 0;
  std::size_t stride_ = 0;  // floats per page
  std::vector<float> slab_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint8_t> in_use_;  // O(1) double-release guard
};

/// One decoding session's KV cache: a cursor plus a page table into a
/// KvArena. Attention reads go through k_row()/v_row() page indirection;
/// pages are mapped on demand by try_reserve(), so a pool of sessions
/// shares a bounded slab and bytes held track actual context depth, not
/// the max_context worst case.
///
/// The solo constructor (config, max_context) keeps the historical
/// semantics — it owns a private, fully mapped arena, so try_reserve never
/// fails and no sharing is involved. The arena-backed constructor borrows
/// a shared slab (the serve pool's); reset() then returns its pages.
class DecodeState {
 public:
  DecodeState() = default;

  /// Self-contained state holding up to `max_context` positions (private
  /// arena, fully mapped). Throws if max_context is zero.
  DecodeState(const ModelConfig& config, std::size_t max_context);

  /// State over a shared arena; pages are mapped lazily by try_reserve()
  /// and returned by reset()/destruction. `arena` must outlive this state.
  DecodeState(const ModelConfig& config, std::size_t max_context,
              KvArena& arena);

  DecodeState(DecodeState&&) = default;
  DecodeState& operator=(DecodeState&&) = default;
  ~DecodeState();

  /// Number of tokens consumed so far.
  std::size_t pos() const { return pos_; }
  /// Cache capacity in positions.
  std::size_t max_context() const { return max_context_; }
  const ModelConfig& config() const { return config_; }

  /// Drop all cached state and restart from an empty context (shared-arena
  /// states also return their pages to the arena).
  void reset();

  /// Ensure pages are mapped for positions [0, pos() + n). Returns false —
  /// leaving already-mapped pages in place — when the arena is exhausted;
  /// always true for solo states and when pos() + n exceeds max_context()
  /// by page rounding (capacity itself is checked by the engine).
  bool try_reserve(std::size_t n);

  /// Rewind the cursor to `new_pos` (<= pos()), discarding the newest
  /// positions — the speculative-decoding rollback. Shared-arena states
  /// release the pages that only held discarded positions, so
  /// mapped-bytes accounting matches a state that never consumed them;
  /// solo states keep their private fully-mapped arena. Rows at or beyond
  /// `new_pos` are overwritten before they are next read, exactly like
  /// reset().
  void rewind(std::size_t new_pos);

  /// Pages currently mapped by this state.
  std::size_t pages_held() const { return table_.size(); }

  /// Bytes this state pins exclusively: the private arena slab for solo
  /// states, the mapped pages for shared-arena states, plus the page
  /// table — the true resident footprint serve.kv_bytes reports.
  std::size_t footprint_bytes() const;

  // Engine internals: the kv_dim-float K/V rows of consumed positions,
  // resolved through the page table. `t` must lie below the reserved
  // position count (the engine try_reserve()s before writing).
  float* k_row(std::size_t layer, std::size_t t) {
    return row_ptr(layer, 0, t);
  }
  float* v_row(std::size_t layer, std::size_t t) {
    return row_ptr(layer, 1, t);
  }
  const float* k_row(std::size_t layer, std::size_t t) const {
    return row_ptr(layer, 0, t);
  }
  const float* v_row(std::size_t layer, std::size_t t) const {
    return row_ptr(layer, 1, t);
  }
  void advance(std::size_t n);

 private:
  DecodeState(const ModelConfig& config, std::size_t max_context,
              KvArena* arena, std::unique_ptr<KvArena> owned);

  float* row_ptr(std::size_t layer, std::size_t kind, std::size_t t) const {
    const std::size_t pp = arena_->page_positions();
    float* page = arena_->page_data(table_[t >> page_shift_]);
    return page + ((layer * 2 + kind) * pp + (t & page_mask_)) * kv_dim_;
  }

  ModelConfig config_;
  std::size_t max_context_ = 0;
  std::size_t pos_ = 0;
  std::size_t kv_dim_ = 0;
  std::size_t page_shift_ = 0;
  std::size_t page_mask_ = 0;
  KvArena* arena_ = nullptr;            // borrowed unless arena_owned_
  std::unique_ptr<KvArena> arena_owned_;
  std::vector<std::uint32_t> table_;    // page id per page-sized span
};

/// One segment of a decode forward: `tokens` appended, in order, to
/// `state`'s context.
struct DecodeSegment {
  DecodeState* state = nullptr;
  std::span<const TokenId> tokens;
};

/// Appends `tokens` to the context and returns their (T × V) logits. Row j
/// is bitwise identical to the logits of the j-th of T sequential
/// decode_step() calls, so a prompt may be fed whole, in chunks, or token
/// by token with the same result — and a speculative verifier scores m
/// candidates with one call, then state.rewind()s to the accepted prefix.
/// Throws, leaving the state untouched, on an empty input, an
/// out-of-range token or a context overflow.
Matrix decode_prefill(const Model& model, std::span<const TokenId> tokens,
                      DecodeState& state);

/// decode_prefill of one token, returned as a vector.
std::vector<float> decode_step(const Model& model, TokenId token,
                               DecodeState& state);

/// One token for each of a batch of distinct sessions in one forward pass:
/// row i is bitwise identical to decode_step(model, tokens[i], *states[i]),
/// but each weight is streamed once per layer for the whole batch.
/// tokens.size() must equal states.size().
Matrix decode_step_batch(const Model& model, std::span<const TokenId> tokens,
                         std::span<DecodeState* const> states);

namespace detail {

// --- the decode forward ---------------------------------------------------
//
// Adapter requirements (duck-typed; see DenseDecodeAdapter in decode.cpp,
// PackedDecodeAdapter in src/quant/packed_model.cpp and ShardedModel):
//   const ModelConfig& config() const;
//   std::span<const float> embedding(std::size_t token) const;
//   std::span<const float> attn_norm(std::size_t layer) const;
//   std::span<const float> ffn_norm(std::size_t layer) const;
//   std::span<const float> final_norm() const;
//   Matrix project(std::size_t layer, LinearKind kind,
//                  const Matrix& x) const;
//   Matrix head(const Matrix& x) const;  // lm_head logits
// Row i of project()/head() must depend on row i of x alone, with the
// same fold at any row count (kern::gemv_batch / kern::qgemv_batch).

/// One segment per session of a batch, one token each (decode_step_batch).
std::vector<DecodeSegment> step_segments(std::span<const TokenId> tokens,
                                         std::span<DecodeState* const> states);

/// The single forward pass behind every decode entry point. The rows of
/// all segments are stacked into one (rows × dim) activation, so each
/// projection streams its weights once per call.
///
/// Exactness: projections, norms, rope and the MLP are row-wise with a
/// fold that does not depend on the row count. Within a layer, the K/V row
/// of a token depends only on that token's layer input, so all K/V rows
/// are written before the attention sweep; each row then attends over
/// [0, its position] of its own state with the per-head dot4 / softmax /
/// accumulate fold. A row's logits are therefore bitwise identical
/// whatever else shares the call — a segment of T tokens equals T
/// one-token calls, and n one-token segments equal n solo steps, at any
/// thread count.
///
/// Every segment is checked (state, config, capacity, tokens) before any
/// page is mapped, so a call rejected for its inputs leaves every state's
/// pos() and pages unchanged. An exhausted arena throws after the pages of
/// earlier segments were mapped (below max_context, as try_reserve does).
template <typename Adapter>
Matrix decode_forward(const Adapter& adapter,
                      std::span<const DecodeSegment> segments) {
  // Per-call timing is gated on telemetry so the default decode path pays
  // one relaxed load, never a clock read.
  const std::uint64_t obs_start =
      obs::telemetry_enabled() ? obs::now_ns() : 0;
  const ModelConfig& cfg = adapter.config();
  APTQ_CHECK(!segments.empty(), "decode: empty batch");
  std::size_t rows = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const DecodeState* st = segments[s].state;
    APTQ_CHECK(st != nullptr, "decode: null state");
    APTQ_CHECK(st->config() == cfg,
               "decode: state built for a different model config");
    for (std::size_t o = 0; o < s; ++o) {
      APTQ_CHECK(segments[o].state != st, "decode: duplicate state in batch");
    }
    const std::size_t n = segments[s].tokens.size();
    APTQ_CHECK(n >= 1, "decode: empty input");
    APTQ_CHECK(st->pos() + n <= st->max_context(),
               "decode: context capacity exceeded (" +
                   std::to_string(st->pos()) + " cached + " +
                   std::to_string(n) + " new > max_context " +
                   std::to_string(st->max_context()) +
                   "); the caller must evict or grow the state");
    for (const TokenId t : segments[s].tokens) {
      APTQ_CHECK(t >= 0 && static_cast<std::size_t>(t) < cfg.vocab_size,
                 "decode: token id out of range");
    }
    rows += n;
  }
  std::vector<DecodeState*> row_state;
  std::vector<std::size_t> row_pos;
  row_state.reserve(rows);
  row_pos.reserve(rows);
  std::size_t max_ctx = 0;
  for (const DecodeSegment& seg : segments) {
    APTQ_CHECK(seg.state->try_reserve(seg.tokens.size()),
               "decode: KV pages exhausted (" +
                   std::to_string(seg.state->pages_held()) +
                   " pages mapped); the caller must evict");
    for (std::size_t j = 0; j < seg.tokens.size(); ++j) {
      row_state.push_back(seg.state);
      row_pos.push_back(seg.state->pos() + j);
    }
    max_ctx = std::max(max_ctx, seg.state->pos() + seg.tokens.size());
  }

  const std::size_t d = cfg.dim;
  const std::size_t hd = cfg.head_dim();
  const std::size_t n_heads = cfg.n_heads;
  const std::size_t group_factor = cfg.group_factor();
  const float inv_sqrt_hd = 1.0f / std::sqrt(static_cast<float>(hd));

  Matrix x(rows, d);
  {
    std::size_t r = 0;
    for (const DecodeSegment& seg : segments) {
      for (const TokenId t : seg.tokens) {
        const auto src = adapter.embedding(static_cast<std::size_t>(t));
        std::copy(src.begin(), src.end(), x.row(r++).begin());
      }
    }
  }

  Matrix normed;
  std::vector<float> inv_rms;
  // One scores row per (row, head) task so concurrent tasks never share a
  // buffer, sized once for the deepest context in the call.
  Matrix scores_ws(rows * n_heads, max_ctx);
  for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
    rmsnorm_forward(x, adapter.attn_norm(layer), cfg.norm_eps, normed,
                    inv_rms);
    Matrix q = adapter.project(layer, LinearKind::q_proj, normed);
    Matrix k = adapter.project(layer, LinearKind::k_proj, normed);
    const Matrix v = adapter.project(layer, LinearKind::v_proj, normed);
    rope_apply_rows(q, hd, row_pos, cfg.rope_theta);
    rope_apply_rows(k, hd, row_pos, cfg.rope_theta);
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(k.row(r).begin(), k.row(r).end(),
                row_state[r]->k_row(layer, row_pos[r]));
      std::copy(v.row(r).begin(), v.row(r).end(),
                row_state[r]->v_row(layer, row_pos[r]));
    }

    Matrix attn_cat(rows, d);
    // Flattened (row × head) sweep: each task reads its own state's paged
    // rows and writes a disjoint attn_cat slice. Chunk boundaries depend
    // only on the shape; the pool is skipped when it cannot help.
    const auto attend = [&](std::size_t tb, std::size_t te) {
      for (std::size_t task = tb; task < te; ++task) {
        const std::size_t r = task / n_heads;
        const std::size_t h = task % n_heads;
        const std::size_t g = h / group_factor;  // shared kv head (GQA)
        const DecodeState& st = *row_state[r];
        const std::size_t ctx = row_pos[r] + 1;
        const float* qh = q.data() + r * d + h * hd;
        float* scores = scores_ws.data() + task * max_ctx;
        float max_s = -1e30f;
        for (std::size_t t = 0; t < ctx; ++t) {
          const float* kh = st.k_row(layer, t) + g * hd;
          scores[t] = kern::dot4(qh, kh, hd) * inv_sqrt_hd;
          max_s = std::max(max_s, scores[t]);
        }
        float sum = 0.0f;
        for (std::size_t t = 0; t < ctx; ++t) {
          scores[t] = std::exp(scores[t] - max_s);
          sum += scores[t];
        }
        const float inv_sum = 1.0f / sum;
        float* out = attn_cat.data() + r * d + h * hd;
        for (std::size_t t = 0; t < ctx; ++t) {
          const float p = scores[t] * inv_sum;
          const float* vh = st.v_row(layer, t) + g * hd;
          for (std::size_t c = 0; c < hd; ++c) {
            out[c] += p * vh[c];
          }
        }
      }
    };
    const std::size_t tasks = rows * n_heads;
    if (tasks > 1 && ThreadPool::effective_global_threads() > 1) {
      parallel_for(0, tasks, 1, attend);
    } else {
      attend(0, tasks);
    }
    axpy(1.0f, adapter.project(layer, LinearKind::o_proj, attn_cat), x);

    rmsnorm_forward(x, adapter.ffn_norm(layer), cfg.norm_eps, normed,
                    inv_rms);
    Matrix gate_pre = adapter.project(layer, LinearKind::gate_proj, normed);
    const Matrix up = adapter.project(layer, LinearKind::up_proj, normed);
    Matrix act;
    silu(gate_pre, act);
    for (std::size_t i = 0; i < act.size(); ++i) {
      act.flat()[i] *= up.flat()[i];
    }
    axpy(1.0f, adapter.project(layer, LinearKind::down_proj, act), x);
  }

  rmsnorm_forward(x, adapter.final_norm(), cfg.norm_eps, normed, inv_rms);
  Matrix logits = adapter.head(normed);
  for (const DecodeSegment& seg : segments) {
    seg.state->advance(seg.tokens.size());
  }
  if (obs_start != 0) {
    static auto& forward_ms = obs::histogram("decode.forward_ms");
    static auto& forward_rows = obs::histogram("decode.forward_rows");
    static auto& tokens = obs::counter("decode.tokens");
    forward_ms.record(static_cast<double>(obs::now_ns() - obs_start) * 1e-6);
    forward_rows.record(static_cast<double>(rows));
    tokens.add(rows);
  }
  return logits;
}

/// Row 0 of a one-row decode result, as decode_step returns it.
std::vector<float> first_row(const Matrix& logits);

}  // namespace detail

}  // namespace aptq
