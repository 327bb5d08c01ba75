// Grouped GEMM: one matmul per expert over contiguous row ranges of a
// dispatched token tensor (the GroupedGEMM operator of the paper), and the
// expert FFN built on it: GroupedGEMM -> SwiGLU -> GroupedGEMM (§3.2).
// The FFN is the one expert computation of the repo: the single-rank MoE
// layer, both EP dispatch modes (src/parallel/ep_ffn) and the TP FFN
// (src/parallel/tp_ffn, on its f/n weight shards) feed it rows grouped by
// expert; only the dispatch around it differs.
//
// Load balancing: skewed routing concentrates rows on a few hot experts, so
// distributing whole experts across the worker pool serializes on the
// hottest one. Instead the non-empty (expert × row-panel) tiles are
// flattened into a single work queue and that queue is what ParallelFor
// shards — a hot expert contributes many tiles and spreads over the pool.
// Row-panel splits are bitwise safe (each output row's k-accumulation is
// untouched); the one reduction over rows — dW = xᵀ @ dy in the backward —
// stays a whole-expert task inside the same queue.
#ifndef MSMOE_SRC_MODEL_GROUPED_GEMM_H_
#define MSMOE_SRC_MODEL_GROUPED_GEMM_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace msmoe {

// x is [total_rows, in_dim]; rows [offsets[e], offsets[e+1]) belong to expert
// e and are multiplied by weights[e] ([in_dim, out_dim]). Returns
// [total_rows, out_dim]. The span form lets callers pass a window of a
// larger per-expert weight array (e.g. rank-local experts) without copying.
Tensor GroupedGemm(const Tensor& x, const std::vector<int64_t>& offsets,
                   const Tensor* weights, int64_t num_experts);
Tensor GroupedGemm(const Tensor& x, const std::vector<int64_t>& offsets,
                   const std::vector<Tensor>& weights);

struct GroupedGemmGrads {
  Tensor dx;
  std::vector<Tensor> dweights;
};

GroupedGemmGrads GroupedGemmBackward(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const Tensor* weights, int64_t num_experts);
GroupedGemmGrads GroupedGemmBackward(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const std::vector<Tensor>& weights);

// The weights of num_experts consecutive experts: spans into a layer's
// per-expert vectors (all of them, or one rank's window).
struct ExpertWeights {
  const Tensor* w1 = nullptr;  // [h, f] SwiGLU gate projection (FC1)
  const Tensor* w3 = nullptr;  // [h, f] SwiGLU linear projection (FC3)
  const Tensor* w2 = nullptr;  // [f, h] FC2
  int64_t num_experts = 0;
};

// What ExpertFfn keeps for the backward, rows grouped like its input.
struct ExpertFfnActs {
  Tensor fc1_out;  // [R, f]
  Tensor fc3_out;  // [R, f]
  Tensor fc2_in;   // [R, f] SwiGLU output
  Tensor fc2_out;  // [R, h]
};

// FC1 and FC3 grouped GEMMs -> SwiGlu -> FC2 grouped GEMM over x ([R, h],
// rows grouped by expert as in GroupedGemm). Every output row depends on
// its input row alone, so running it on any subset of rows (one pipeline
// chunk's) gives those rows' bits of the whole-tensor call.
ExpertFfnActs ExpertFfn(const Tensor& x, const std::vector<int64_t>& offsets,
                        const ExpertWeights& weights);

struct ExpertFfnGrads {
  Tensor dx;  // [R, h]
  std::vector<Tensor> dw1, dw3, dw2;  // one per expert of `weights`
};

// Backward of ExpertFfn: dy is the gradient w.r.t. acts.fc2_out, x and acts
// the forward's input and activations (fc2_out is not read).
ExpertFfnGrads ExpertFfnBackward(const Tensor& dy, const Tensor& x, const ExpertFfnActs& acts,
                                 const std::vector<int64_t>& offsets,
                                 const ExpertWeights& weights);

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_GROUPED_GEMM_H_
