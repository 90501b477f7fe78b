#include "model/decode.hpp"


namespace aptq {

namespace {

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::size_t log2_of(std::size_t v) {
  std::size_t s = 0;
  while ((std::size_t{1} << s) < v) {
    ++s;
  }
  return s;
}

}  // namespace

KvArena::KvArena(const ModelConfig& config, std::size_t page_positions,
                 std::size_t pages)
    : page_positions_(page_positions), pages_(pages) {
  config.validate();
  APTQ_CHECK(is_pow2(page_positions),
             "KvArena: page_positions must be a power of two (got " +
                 std::to_string(page_positions) + ")");
  APTQ_CHECK(pages >= 1, "KvArena: need at least one page");
  stride_ = config.n_layers * 2 * page_positions * config.kv_dim();
  slab_.assign(pages * stride_, 0.0f);
  in_use_.assign(pages, 0);
  free_.reserve(pages);
  // Free list in reverse so acquire hands out page 0 first (stable page
  // order is convenient when reading traces).
  for (std::size_t i = pages; i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
}

std::uint32_t KvArena::acquire_page() {
  if (free_.empty()) {
    return kNoPage;
  }
  const std::uint32_t page = free_.back();
  free_.pop_back();
  in_use_[page] = 1;
  return page;
}

void KvArena::release_page(std::uint32_t page) {
  APTQ_CHECK(page < pages_, "KvArena: release of out-of-range page");
  APTQ_CHECK(in_use_[page] != 0, "KvArena: page released twice");
  in_use_[page] = 0;
  free_.push_back(page);
}

DecodeState::DecodeState(const ModelConfig& config, std::size_t max_context,
                         KvArena* arena, std::unique_ptr<KvArena> owned)
    : config_(config),
      max_context_(max_context),
      kv_dim_(config.kv_dim()),
      arena_(arena),
      arena_owned_(std::move(owned)) {
  if (arena_ == nullptr) {
    arena_ = arena_owned_.get();
  }
  config.validate();
  APTQ_CHECK(max_context >= 1, "DecodeState: max_context must be positive");
  page_shift_ = log2_of(arena_->page_positions());
  page_mask_ = arena_->page_positions() - 1;
  table_.reserve(arena_->pages_for(max_context));
}

DecodeState::DecodeState(const ModelConfig& config, std::size_t max_context)
    : DecodeState(config, max_context, nullptr,
                  std::make_unique<KvArena>(
                      config, kKvPagePositions,
                      (max_context + kKvPagePositions - 1) /
                          kKvPagePositions)) {
  // Solo states keep the historical always-available semantics: the
  // private arena is exactly big enough and fully mapped up front.
  APTQ_CHECK(try_reserve(max_context_), "DecodeState: private arena sizing");
}

DecodeState::DecodeState(const ModelConfig& config, std::size_t max_context,
                         KvArena& arena)
    : DecodeState(config, max_context, &arena, nullptr) {}

DecodeState::~DecodeState() {
  if (arena_ != nullptr && arena_owned_ == nullptr) {
    for (const std::uint32_t page : table_) {
      arena_->release_page(page);
    }
  }
}

void DecodeState::reset() {
  // The engine only reads rows [0, pos_), so rewinding the cursor suffices;
  // stale rows beyond it are overwritten before they are read. Shared-arena
  // states additionally return their pages so other sessions can map them.
  pos_ = 0;
  if (arena_owned_ == nullptr && arena_ != nullptr) {
    for (const std::uint32_t page : table_) {
      arena_->release_page(page);
    }
    table_.clear();
  }
}

bool DecodeState::try_reserve(std::size_t n) {
  const std::size_t want = std::min(pos_ + n, max_context_);
  const std::size_t need_pages = arena_->pages_for(want);
  while (table_.size() < need_pages) {
    const std::uint32_t page = arena_->acquire_page();
    if (page == KvArena::kNoPage) {
      return false;  // already-mapped pages stay mapped
    }
    table_.push_back(page);
  }
  return true;
}

void DecodeState::rewind(std::size_t new_pos) {
  APTQ_CHECK(new_pos <= pos_,
             "DecodeState: rewind forwards (" + std::to_string(new_pos) +
                 " > " + std::to_string(pos_) + ")");
  pos_ = new_pos;
  if (arena_owned_ == nullptr && arena_ != nullptr) {
    const std::size_t keep = arena_->pages_for(new_pos);
    while (table_.size() > keep) {
      arena_->release_page(table_.back());
      table_.pop_back();
    }
  }
}

std::size_t DecodeState::footprint_bytes() const {
  const std::size_t table_bytes = table_.capacity() * sizeof(std::uint32_t);
  if (arena_owned_ != nullptr) {
    return arena_owned_->bytes() + table_bytes;
  }
  const std::size_t page_bytes =
      arena_ != nullptr ? arena_->page_stride() * sizeof(float) : 0;
  return table_.size() * page_bytes + table_bytes;
}

void DecodeState::advance(std::size_t n) {
  APTQ_CHECK(pos_ + n <= max_context_,
             "DecodeState: advance past capacity (" + std::to_string(pos_) +
                 " + " + std::to_string(n) + " > " +
                 std::to_string(max_context_) + ")");
  APTQ_CHECK(pos_ + n <= table_.size() * arena_->page_positions(),
             "DecodeState: advance past reserved pages");
  pos_ += n;
}

namespace detail {

std::vector<DecodeSegment> step_segments(
    std::span<const TokenId> tokens, std::span<DecodeState* const> states) {
  APTQ_CHECK(states.size() == tokens.size(),
             "decode_step_batch: one state per token required");
  std::vector<DecodeSegment> segments(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    segments[i] = {states[i], tokens.subspan(i, 1)};
  }
  return segments;
}

std::vector<float> first_row(const Matrix& logits) {
  return {logits.row(0).begin(), logits.row(0).end()};
}

}  // namespace detail

namespace {

// Weight access over the dense fp32 model (see the adapter contract in
// decode.hpp).
class DenseDecodeAdapter {
 public:
  explicit DenseDecodeAdapter(const Model& model) : model_(model) {}

  const ModelConfig& config() const { return model_.config; }
  std::span<const float> embedding(std::size_t token) const {
    return model_.tok_embed.row(token);
  }
  std::span<const float> attn_norm(std::size_t layer) const {
    return model_.blocks[layer].attn_norm;
  }
  std::span<const float> ffn_norm(std::size_t layer) const {
    return model_.blocks[layer].ffn_norm;
  }
  std::span<const float> final_norm() const { return model_.final_norm; }

  Matrix project(std::size_t layer, LinearKind kind, const Matrix& x) const {
    const BlockWeights& b = model_.blocks[layer];
    switch (kind) {
      case LinearKind::q_proj: return matmul_rowwise(x, b.wq);
      case LinearKind::k_proj: return matmul_rowwise(x, b.wk);
      case LinearKind::v_proj: return matmul_rowwise(x, b.wv);
      case LinearKind::o_proj: return matmul_rowwise(x, b.wo);
      case LinearKind::gate_proj: return matmul_rowwise(x, b.w_gate);
      case LinearKind::up_proj: return matmul_rowwise(x, b.w_up);
      case LinearKind::down_proj: return matmul_rowwise(x, b.w_down);
      case LinearKind::lm_head: break;
    }
    APTQ_FAIL("DenseDecodeAdapter: unexpected projection kind");
  }

  Matrix head(const Matrix& x) const {
    return matmul_rowwise(x, model_.lm_head);
  }

 private:
  const Model& model_;
};

}  // namespace

Matrix decode_prefill(const Model& model, std::span<const TokenId> tokens,
                      DecodeState& state) {
  const DecodeSegment segment{&state, tokens};
  return detail::decode_forward(DenseDecodeAdapter(model), {&segment, 1});
}

std::vector<float> decode_step(const Model& model, TokenId token,
                               DecodeState& state) {
  return detail::first_row(decode_prefill(model, {&token, 1}, state));
}

Matrix decode_step_batch(const Model& model, std::span<const TokenId> tokens,
                         std::span<DecodeState* const> states) {
  return detail::decode_forward(DenseDecodeAdapter(model),
                                detail::step_segments(tokens, states));
}

}  // namespace aptq
