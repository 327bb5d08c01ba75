// Single-rank reference MoE transformer layer (Fig 2 / Fig 20).
//
// Structure per layer:
//   hidden -> RMSNorm -> QKV projection -> RoPE -> causal GQA attention
//          -> output projection -> +residual
//          -> RMSNorm -> router (top-k) -> dispatch -> FC1/FC3 grouped GEMM
//          -> SwiGLU -> FC2 grouped GEMM -> weighted combine -> +residual
//
// The gating weight multiplies the FC2 *output* (weighted combine), the
// ordering §7 adopts to keep the SwiGLU numerics FP8-friendly.
//
// This module is the numerical ground truth the distributed executions in
// src/parallel must match exactly.
#ifndef MSMOE_SRC_MODEL_MOE_LAYER_H_
#define MSMOE_SRC_MODEL_MOE_LAYER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/model/grouped_gemm.h"
#include "src/model/router.h"
#include "src/tensor/tensor.h"

namespace msmoe {

struct MoeLayerParams {
  Tensor ln1_gain;           // [h]
  Tensor w_qkv;              // [h, h(1 + 2/m)]
  Tensor w_out;              // [h, h]
  Tensor ln2_gain;           // [h]
  Tensor w_gate;             // [h, E]
  std::vector<Tensor> w1;    // per expert [h, f]  (SwiGLU gate proj)
  std::vector<Tensor> w3;    // per expert [h, f]  (SwiGLU linear proj)
  std::vector<Tensor> w2;    // per expert [f, h]

  static MoeLayerParams Init(const ModelConfig& config, Rng& rng);
  static MoeLayerParams ZerosLike(const ModelConfig& config);

  // Visits every parameter tensor with a stable name (for optimizers,
  // gradient sync, and checkpointing).
  void ForEach(const std::function<void(const std::string&, Tensor&)>& fn);
  void ForEachConst(const std::function<void(const std::string&, const Tensor&)>& fn) const;

  int64_t TotalElements() const;
  void Accumulate(const MoeLayerParams& other);  // this += other
};

struct MoeLayerCache {
  Tensor hidden_in;    // layer input [T, h]
  Tensor ln1_out;      // [T, h]
  Tensor ln1_inv_rms;  // [T]
  Tensor q, k, v;      // post-RoPE, [T, Hq*d] / [T, Hkv*d] flattened
  std::vector<AttentionCoreCache> attn;  // per sequence in the batch
  Tensor attn_out;     // attention output before Wo, [T, h]
  Tensor ln2_in;       // first residual sum [T, h]
  Tensor ln2_out;      // [T, h]
  Tensor ln2_inv_rms;  // [T]
  RoutingResult routing;
  DispatchPlan plan;
  Tensor ffn_in;       // dispatched rows [R, h]
  ExpertFfnActs acts;  // expert FFN activations over ffn_in
};

// hidden is [T, h] with T = batch * seq_len tokens (batch sequences of equal
// length). Returns the layer output [T, h]; fills cache for backward.
Tensor MoeLayerForward(const MoeLayerParams& params, const ModelConfig& config,
                       const RouterConfig& router, const Tensor& hidden, int64_t batch,
                       MoeLayerCache* cache);

struct MoeLayerGrads {
  MoeLayerParams dparams;
  Tensor dhidden;  // gradient w.r.t. the layer input
};

// dout is the gradient w.r.t. the layer output; includes the auxiliary
// balance-loss gradient when router.aux_loss_coeff > 0.
MoeLayerGrads MoeLayerBackward(const MoeLayerParams& params, const ModelConfig& config,
                               const RouterConfig& router, const MoeLayerCache& cache,
                               const Tensor& dout, int64_t batch);

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_MOE_LAYER_H_
