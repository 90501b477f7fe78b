// The mixed-precision packed fixture shared by the bitwise-equivalence
// suites (decode, verify, serve, shard).
#pragma once

#include "quant/packed_model.hpp"
#include "quant/qmodel.hpp"

namespace aptq {

/// `model` packed at group size 8 with every third linear (in
/// collect_linears order) at 2 bits and the rest at 4: the shape of an APTQ
/// mixed-precision artifact, which runs both blocked kernel widths in one
/// forward pass.
inline PackedModel mixed_2_4_packed(const Model& model) {
  QuantizedModel qm;
  qm.model = model;
  std::size_t i = 0;
  for (const ConstLinearRef& ref : collect_linears(model)) {
    QuantizedLayerInfo info;
    info.name = ref.name;
    info.bits = i++ % 3 == 0 ? 2.0 : 4.0;
    qm.layers.push_back(info);
  }
  return PackedModel::pack(qm, 8);
}

}  // namespace aptq
