// Single-rank oracle for the expert FFN block (dispatch -> grouped GEMMs ->
// SwiGLU -> weighted combine, and its manual backward), shared by the EP
// tests. One grouped GEMM over ALL tokens, rows grouped by expert in global
// token order; the combine sums a token's copies in slot order.
#ifndef MSMOE_TESTS_REFERENCE_FFN_H_
#define MSMOE_TESTS_REFERENCE_FFN_H_

#include <cstring>
#include <utility>
#include <vector>

#include "src/model/config.h"
#include "src/model/grouped_gemm.h"
#include "src/model/router.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {

struct RefFfnResult {
  Tensor y;
  Tensor dx;
  Tensor dcombine;
  std::vector<Tensor> dw1, dw3, dw2;
  Tensor ffn_in;                        // dispatched rows, grouped by expert
  std::vector<int64_t> expert_offsets;  // [E + 1] row ranges of ffn_in
};

inline RefFfnResult ReferenceFfn(const ModelConfig& config, const std::vector<Tensor>& w1,
                                 const std::vector<Tensor>& w3,
                                 const std::vector<Tensor>& w2, const Tensor& x,
                                 const RoutingResult& routing, const Tensor& dy) {
  const int64_t tokens = x.dim(0);
  const int64_t h = config.hidden;
  const int64_t k = routing.top_k;
  DispatchPlan plan = BuildDispatchPlan(routing, config.num_experts);
  Tensor ffn_in = GatherRows(x, plan.row_map);
  Tensor fc1 = GroupedGemm(ffn_in, plan.expert_offsets, w1);
  Tensor fc3 = GroupedGemm(ffn_in, plan.expert_offsets, w3);
  Tensor fc2_in = SwiGlu(fc1, fc3);
  Tensor fc2_out = GroupedGemm(fc2_in, plan.expert_offsets, w2);

  RefFfnResult result;
  result.y = Tensor({tokens, h});
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t slot = 0; slot < k; ++slot) {
      const int64_t row = plan.slot_to_row[static_cast<size_t>(t * k + slot)];
      if (row < 0) {
        continue;
      }
      const float weight = routing.combine_weight.At(t, slot);
      for (int64_t c = 0; c < h; ++c) {
        result.y.At(t, c) += weight * fc2_out.At(row, c);
      }
    }
  }

  Tensor dfc2_out({fc2_out.dim(0), h});
  result.dcombine = Tensor({tokens, k});
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t slot = 0; slot < k; ++slot) {
      const int64_t row = plan.slot_to_row[static_cast<size_t>(t * k + slot)];
      if (row < 0) {
        continue;
      }
      const float weight = routing.combine_weight.At(t, slot);
      float dot = 0.0f;
      for (int64_t c = 0; c < h; ++c) {
        dfc2_out.At(row, c) += weight * dy.At(t, c);
        dot += dy.At(t, c) * fc2_out.At(row, c);
      }
      result.dcombine.At(t, slot) = dot;
    }
  }
  GroupedGemmGrads fc2_grads = GroupedGemmBackward(dfc2_out, fc2_in, plan.expert_offsets, w2);
  result.dw2 = std::move(fc2_grads.dweights);
  SwiGluGrads swiglu_grads = SwiGluBackward(fc2_grads.dx, fc1, fc3);
  GroupedGemmGrads fc1_grads =
      GroupedGemmBackward(swiglu_grads.dgate, ffn_in, plan.expert_offsets, w1);
  GroupedGemmGrads fc3_grads =
      GroupedGemmBackward(swiglu_grads.dlinear, ffn_in, plan.expert_offsets, w3);
  result.dw1 = std::move(fc1_grads.dweights);
  result.dw3 = std::move(fc3_grads.dweights);
  Tensor dffn_in = Add(fc1_grads.dx, fc3_grads.dx);
  result.dx = ScatterAddRows(dffn_in, plan.row_map, tokens);
  result.ffn_in = std::move(ffn_in);
  result.expert_offsets = std::move(plan.expert_offsets);
  return result;
}

inline bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   static_cast<size_t>(a.numel()) * sizeof(float)) == 0);
}

}  // namespace msmoe

#endif  // MSMOE_TESTS_REFERENCE_FFN_H_
