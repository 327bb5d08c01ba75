// Sequence-parallel (DeepSpeed-Ulysses-style) attention, §3.1.
//
// Each of the n ranks holds s/n contiguous tokens of every sequence and a
// full replica of the attention weights. Forward:
//   local QKV projection -> RoPE (global positions) -> ONE all-to-all that
//   re-partitions q, k and v together from sequence-sharded to
//   head-sharded -> full-sequence attention on Hq/n local heads ->
//   all-to-all back -> local output projection.
// The backward mirrors it: one all-to-all for the attention-output grad,
// one for dq, dk and dv together — one all-to-all per direction, as the
// simulator's layer graph (a2a_in, a2a_dqkv) models it.
// Communication per token is h(1+2/m)/n + h/n activations (Eq 2), vs TP's
// full 2bsh(n-1)/n (Eq 1).
//
// Weight gradients returned are the *partial* sums over local tokens; the
// caller synchronizes them across the SP group (hierarchically with DP in
// real training, see src/comm/hierarchical.h).
#ifndef MSMOE_SRC_PARALLEL_SP_ATTENTION_H_
#define MSMOE_SRC_PARALLEL_SP_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "src/comm/communicator.h"
#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/tensor/tensor.h"

namespace msmoe {

struct SpAttentionCache {
  // Head-sharded, full-sequence, post-RoPE tensors: [b*s, Hq/n*d] etc.
  Tensor q_heads, k_heads, v_heads;
  std::vector<AttentionCoreCache> attn;  // per sequence
  Tensor attn_heads;    // attention output, head-sharded [b*s, Hq/n*d]
  Tensor attn_local;    // after the second A2A, [b*s/n, h]
  Tensor ln_in_local;   // module input (needed for dW_qkv)
};

// x_local: [batch * s_local, h] where rows [b*s_local, (b+1)*s_local) are
// tokens [rank*s_local, (rank+1)*s_local) of sequence b. seq_len is the
// GLOBAL sequence length. Requires Hq % n == 0 and Hkv % n == 0.
// Returns the attention block output (after Wo), same shape as x_local.
Tensor SpAttentionForward(const ShardContext& ctx, const ModelConfig& config,
                          const Tensor& w_qkv, const Tensor& w_out, const Tensor& x_local,
                          int64_t batch, int64_t seq_len, SpAttentionCache* cache);

struct SpAttentionGrads {
  Tensor dx_local;
  Tensor dw_qkv;  // partial (local tokens); sync across SP group to total
  Tensor dw_out;
};

SpAttentionGrads SpAttentionBackward(const ShardContext& ctx, const ModelConfig& config,
                                     const Tensor& w_qkv, const Tensor& w_out,
                                     const Tensor& dy_local, int64_t batch, int64_t seq_len,
                                     const SpAttentionCache& cache);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_SP_ATTENTION_H_
