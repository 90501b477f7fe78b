// Type-erased decode backend shared by the serving engine (engine.hpp)
// and the speculative decoder (spec.hpp). Split out of engine.hpp so the
// SpecConfig/SpecDecoder types can name a Backend without a circular
// include.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "model/decode.hpp"
#include "tensor/matrix.hpp"

namespace aptq {
class PackedModel;  // full definition only needed by make_backend's impl
}

namespace aptq::serve {

/// Type-erased decode backend: the engine drives any model that offers
/// the two decode entry points over a DecodeState. The callables borrow the
/// model — it must outlive the backend. prefill appends tokens to one
/// session, row j bitwise identical to the j-th of as many one-token
/// calls: the engine prefills prompts with it, the speculative verifier
/// scores its candidates with it, and the draft chains its proposals
/// through it. step_batch advances one token for each of a batch of
/// independent sessions in a single forward pass (row i bitwise identical
/// to a one-token prefill of session i alone), so the batched kernels see
/// every in-flight row at once. See model/decode.hpp.
struct Backend {
  std::string name;  ///< "dense" / "packed" (report + bench labels)
  ModelConfig config;
  std::function<Matrix(std::span<const TokenId>, DecodeState&)> prefill;
  std::function<Matrix(std::span<const TokenId>,
                       std::span<DecodeState* const>)>
      step_batch;
};

/// Backend over the dense fp32 model.
Backend make_backend(const Model& model);
/// Backend over the bit-packed model (the fused dequant-dot kernels).
Backend make_backend(const PackedModel& model);

}  // namespace aptq::serve
