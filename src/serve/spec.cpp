#include "serve/spec.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace aptq::serve {

namespace {

TokenId argmax_token(std::span<const float> logits) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) {
      best = i;
    }
  }
  return static_cast<TokenId>(best);
}

}  // namespace

SpecDecoder::SpecDecoder(SpecConfig config, std::size_t max_context)
    : config_(std::move(config)), max_context_(max_context) {
  APTQ_CHECK(config_.k >= 1, "SpecDecoder: k must be >= 1");
  APTQ_CHECK(config_.draft.prefill,
             "SpecDecoder: draft backend missing prefill");
  APTQ_CHECK(max_context_ >= 1, "SpecDecoder: max_context must be >= 1");
}

std::vector<TokenId> SpecDecoder::propose(RequestId id,
                                          std::span<const TokenId> prompt,
                                          std::span<const TokenId> generated,
                                          std::size_t k) {
  APTQ_CHECK(k >= 1, "SpecDecoder: propose with k == 0");
  APTQ_CHECK(!generated.empty(),
             "SpecDecoder: propose before the request's first token");
  const Timer draft_timer;
  Session& s = sessions_[id];
  if (s.state == nullptr) {
    s.state = std::make_unique<DecodeState>(config_.draft.config,
                                            max_context_);
  }
  // The true stream is prompt + generated; its last token is the one the
  // target is about to consume, so the draft consumes it too and then
  // chains k greedy steps. `base` = index of that last token.
  const std::size_t total = prompt.size() + generated.size();
  const std::size_t base = total - 1;
  // Roll back proposals a previous cycle rejected: the session keeps only
  // the prefix verified against the true stream.
  if (s.state->pos() > s.consumed) {
    s.state->rewind(s.consumed);
  }
  APTQ_CHECK(s.consumed <= base, "SpecDecoder: draft ahead of true stream");
  // Catch-up feed: everything in (consumed, base] — after a rejection this
  // is the corrected token plus any bonus tokens, on the first cycle it is
  // the whole prompt plus the first sampled token. One batched prefill.
  std::vector<TokenId> feed;
  feed.reserve(base + 1 - s.consumed);
  for (std::size_t i = s.consumed; i <= base; ++i) {
    feed.push_back(i < prompt.size() ? prompt[i]
                                     : generated[i - prompt.size()]);
  }
  const Matrix caught = config_.draft.prefill(feed, *s.state);
  s.consumed = base + 1;
  s.base = base;

  std::vector<TokenId> proposals;
  proposals.reserve(k);
  proposals.push_back(argmax_token(caught.row(caught.rows() - 1)));
  for (std::size_t j = 1; j < k; ++j) {
    // Chain: the draft consumes its own previous proposal. Proposals are
    // tentative context — commit() decides how much of it survives.
    const Matrix logits =
        config_.draft.prefill({&proposals[j - 1], 1}, *s.state);
    proposals.push_back(argmax_token(logits.row(0)));
  }
  stats_.draft_ms += draft_timer.millis();
  return proposals;
}

void SpecDecoder::commit(RequestId id, std::size_t proposed,
                         std::size_t accepted, std::size_t emitted,
                         double verify_ms) {
  const auto it = sessions_.find(id);
  APTQ_CHECK(it != sessions_.end(), "SpecDecoder: commit without propose");
  APTQ_CHECK(proposed >= 1 && accepted <= proposed,
             "SpecDecoder: inconsistent commit");
  Session& s = it->second;
  // The draft consumed the cycle's first input plus proposals d_1..d_{k-1}
  // (the last proposal is never fed back). The first min(accepted, k-1) of
  // those now belong to the true stream; the rest are rolled back on the
  // next propose().
  s.consumed = s.base + 1 + std::min(accepted, proposed - 1);
  ++stats_.cycles;
  stats_.proposed += proposed;
  stats_.accepted += accepted;
  stats_.emitted += emitted;
  stats_.verify_ms += verify_ms;
}

void SpecDecoder::detach(RequestId id) { sessions_.erase(id); }

}  // namespace aptq::serve
