// Speculative decoding for the serving engine: a cheap draft model
// proposes k greedy tokens per cycle, the target backend verifies all of
// them in one batched decode_prefill pass, and exact accept/reject keeps
// the emitted stream bitwise identical to non-speculative decoding.
//
// Exactness argument (docs/SERVING.md has the long form): verify row j is
// bitwise identical to the logits a one-token decode would produce after
// consuming the same prefix, and the engine samples row j with the same
// sample_token call and the same per-request RNG draw order as solo
// decoding. The sampled token t_j either equals proposal d_{j+1} — the
// draft guessed what the target was going to emit anyway — or it doesn't,
// in which case t_j itself is the corrected emitted token and the rest of
// the proposals are discarded. Either way every emitted token is exactly
// the token solo decoding would have emitted; the draft only ever decides
// how many target steps were *skipped*, never what was produced. Rejected
// positions are rolled back with DecodeState::rewind, which also releases
// their KV pages, so paged-arena residency matches solo decoding between
// cycles.
//
// SpecDecoder owns the draft sessions (one private DecodeState per
// speculative request) and tracks the accepted prefix of each request's
// true stream, rewinding and re-feeding the draft after rejections. The
// ServeEngine calls propose() before each verify pass and commit() after,
// and detach() when the request retires.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "model/decode.hpp"
#include "serve/backend.hpp"
#include "serve/request.hpp"

namespace aptq::serve {

/// Speculative-decoding configuration for a ServeEngine tier: the draft
/// backend and the number of tokens it proposes per cycle. The draft must
/// share the target's vocabulary (checked per request at submit()).
struct SpecConfig {
  Backend draft;
  std::size_t k = 4;  ///< proposals per cycle (>= 1); clamped per cycle
};

/// Aggregate speculation counters for one engine lifetime.
struct SpecStats {
  std::size_t cycles = 0;       ///< verify passes with >= 1 proposal
  std::uint64_t proposed = 0;   ///< draft tokens offered for verification
  std::uint64_t accepted = 0;   ///< proposals that matched the target
  std::uint64_t emitted = 0;    ///< tokens emitted by spec cycles
  double draft_ms = 0.0;        ///< total propose() time
  double verify_ms = 0.0;       ///< total verify (target prefill) time

  double accept_rate() const {
    return proposed > 0
               ? static_cast<double>(accepted) / static_cast<double>(proposed)
               : 0.0;
  }
  double emitted_per_cycle() const {
    return cycles > 0
               ? static_cast<double>(emitted) / static_cast<double>(cycles)
               : 0.0;
  }
};

/// Draft-session manager: greedy proposal generation plus the
/// rewind-and-refeed bookkeeping that keeps each draft session consistent
/// with its request's true (verified) token stream.
class SpecDecoder {
 public:
  /// `max_context` bounds each draft session's KV cache; the engine passes
  /// its own max_context (a draft never consumes more positions than the
  /// target, see propose()).
  SpecDecoder(SpecConfig config, std::size_t max_context);

  const SpecConfig& config() const { return config_; }
  const SpecStats& stats() const { return stats_; }
  std::size_t sessions() const { return sessions_.size(); }

  /// Greedy-argmax proposals continuing request `id`'s true stream
  /// (`prompt` + `generated`, the last element of which is the target's
  /// next input). Catches the draft up to the accepted prefix — rewinding
  /// past any proposals a previous cycle rejected — then chains k
  /// argmax steps. Returns exactly k tokens.
  std::vector<TokenId> propose(RequestId id, std::span<const TokenId> prompt,
                               std::span<const TokenId> generated,
                               std::size_t k);

  /// Record the verify outcome of the last propose() on `id`: `proposed`
  /// tokens were offered, the first `accepted` matched, `emitted` tokens
  /// were produced by the cycle (accepted + correction or bonus), and the
  /// verify pass took `verify_ms`. Marks the draft's validated prefix; the
  /// rewind itself happens lazily on the next propose().
  void commit(RequestId id, std::size_t proposed, std::size_t accepted,
              std::size_t emitted, double verify_ms);

  /// Drop request `id`'s draft session (request retired).
  void detach(RequestId id);

 private:
  struct Session {
    std::unique_ptr<DecodeState> state;
    std::size_t consumed = 0;  ///< validated true-stream prefix held
    std::size_t base = 0;      ///< true-stream length - 1 at last propose()
  };

  SpecConfig config_;
  std::size_t max_context_ = 0;
  SpecStats stats_;
  std::unordered_map<RequestId, Session> sessions_;
};

}  // namespace aptq::serve
