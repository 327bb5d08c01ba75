// Distributed execution of one complete MoE layer — the §4.1 "unified macro
// module": the caller hands the layer input and receives the layer output;
// internally the module runs
//   RMSNorm -> SP (Ulysses) attention -> residual -> RMSNorm -> router ->
//   EP expert FFN (either dispatch mode) -> weighted combine -> residual
// over a model-parallel group of thread ranks, with full manual backward.
//
// Selective activation rematerialization (§4.1) is implemented for real:
// with `sar = true` the forward pass DROPS the recomputable activations
// (ln1_out, ln2_out, the dispatched ffn_in, and the SwiGLU output fc2_in)
// and the backward pass re-derives them — re-running RMSNorm, re-gathering
// ffn_in, and re-applying SwiGLU — producing bit-identical gradients while
// holding roughly half the activation bytes (CacheBytes() reports the
// actual footprint so tests can assert the saving).
//
// Weight-gradient completeness matches the underlying strategies: attention
// / norm / router grads are partial sums over local tokens (synchronize
// across the SP group), expert grads are complete on the owner rank.
#ifndef MSMOE_SRC_PARALLEL_PARALLEL_MOE_LAYER_H_
#define MSMOE_SRC_PARALLEL_PARALLEL_MOE_LAYER_H_

#include <cstdint>

#include "src/model/config.h"
#include "src/model/moe_layer.h"
#include "src/model/router.h"
#include "src/parallel/ep_ffn.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor.h"

namespace msmoe {

struct ParallelMoeLayerOptions {
  EpDispatchMode dispatch = EpDispatchMode::kAllToAll;
  bool sar = false;
  EpPipelineConfig pipeline;  // kAllToAll chunking and wire format
};

struct ParallelMoeLayerCache {
  Tensor hidden_in;      // layer input (always kept: the residual source)
  Tensor ln1_out;        // dropped under SAR
  Tensor ln1_inv_rms;    // [t_local] (cheap, always kept)
  SpAttentionCache attn;
  Tensor ln2_in;         // first residual sum (always kept)
  Tensor ln2_out;        // dropped under SAR
  Tensor ln2_inv_rms;
  RoutingResult routing;
  EpFfnCache ffn;

  // Actual bytes held by the cached activations (tensors only).
  int64_t CacheBytes() const;
};

// x_local is [batch * seq_len / n, h], sequence-sharded as in
// SpAttentionForward. params holds the FULL layer parameters (replicated
// attention/norm/router weights; all experts — only the owner's are used).
Tensor ParallelMoeLayerForward(const ShardContext& ctx, const ModelConfig& config,
                               const RouterConfig& router, const MoeLayerParams& params,
                               const Tensor& x_local, int64_t batch, int64_t seq_len,
                               const ParallelMoeLayerOptions& options,
                               ParallelMoeLayerCache* cache);

struct ParallelMoeLayerGrads {
  // Same structure as the reference layer grads. Attention/norm/router
  // entries are partial (local tokens); expert entries are complete for
  // this rank's experts and zero elsewhere.
  MoeLayerParams dparams;
  Tensor dx_local;
};

ParallelMoeLayerGrads ParallelMoeLayerBackward(
    const ShardContext& ctx, const ModelConfig& config, const RouterConfig& router,
    const MoeLayerParams& params, const Tensor& dy_local, int64_t batch, int64_t seq_len,
    const ParallelMoeLayerOptions& options, const ParallelMoeLayerCache& cache);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_PARALLEL_MOE_LAYER_H_
