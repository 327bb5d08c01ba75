#include "src/parallel/parallel_moe_layer.h"

#include <utility>

#include "src/base/logging.h"
#include "src/core/exec_graph.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

int64_t TensorBytes(const Tensor& tensor) {
  return tensor.numel() * static_cast<int64_t>(sizeof(float));
}

}  // namespace

int64_t ParallelMoeLayerCache::CacheBytes() const {
  int64_t total = 0;
  total += TensorBytes(hidden_in) + TensorBytes(ln1_out) + TensorBytes(ln1_inv_rms);
  total += TensorBytes(ln2_in) + TensorBytes(ln2_out) + TensorBytes(ln2_inv_rms);
  total += TensorBytes(routing.combine_weight) + TensorBytes(routing.probs);
  // SP attention cache.
  total += TensorBytes(attn.q_heads) + TensorBytes(attn.k_heads) + TensorBytes(attn.v_heads);
  total += TensorBytes(attn.attn_heads) + TensorBytes(attn.attn_local) +
           TensorBytes(attn.ln_in_local);
  for (const AttentionCoreCache& core : attn.attn) {
    total += TensorBytes(core.probs);
  }
  // EP FFN cache.
  total += TensorBytes(ffn.ffn_in) + TensorBytes(ffn.acts.fc1_out) +
           TensorBytes(ffn.acts.fc3_out) + TensorBytes(ffn.acts.fc2_in) +
           TensorBytes(ffn.acts.fc2_out) + TensorBytes(ffn.returned_rows) +
           TensorBytes(ffn.x_all);
  return total;
}

// The layer is recorded as a macro-op chain graph and run on the runtime
// executor (src/core/exec_graph.h): one compute op per §4.1 macro module,
// sequential deps, all on stream 0 — the caller's thread. A chain admits
// exactly one dependency-respecting schedule, so execution is the eager
// sequence, but the layer now shares the executor's fault path (a CHECK
// inside any module aborts the graph, skips the rest, and rethrows on the
// rank thread) and shows up as per-op events in measured timelines. The
// collectives inside attention/FFN ops stay on the stream-0 FIFO, keeping
// their issue order rank-consistent.
Tensor ParallelMoeLayerForward(const ShardContext& ctx, const ModelConfig& config,
                               const RouterConfig& router, const MoeLayerParams& params,
                               const Tensor& x_local, int64_t batch, int64_t seq_len,
                               const ParallelMoeLayerOptions& options,
                               ParallelMoeLayerCache* cache) {
  cache->hidden_in = x_local;

  Tensor attn_out;
  Tensor y;
  ExecGraph graph;
  int prev = graph.AddCompute("ln1", [&] {
    cache->ln1_out = RmsNorm(x_local, params.ln1_gain, &cache->ln1_inv_rms);
    return Status::Ok();
  });
  prev = graph.AddCompute(
      "sp_attention",
      [&] {
        attn_out = SpAttentionForward(ctx, config, params.w_qkv, params.w_out,
                                      cache->ln1_out, batch, seq_len, &cache->attn);
        return Status::Ok();
      },
      {prev}, "attention");
  prev = graph.AddCompute(
      "residual1+ln2",
      [&] {
        cache->ln2_in = Add(x_local, attn_out);
        cache->ln2_out = RmsNorm(cache->ln2_in, params.ln2_gain, &cache->ln2_inv_rms);
        return Status::Ok();
      },
      {prev});
  prev = graph.AddCompute(
      "router",
      [&] {
        Tensor gate_logits = MatMul(cache->ln2_out, params.w_gate);
        cache->routing = RouteTokens(gate_logits, router);
        return Status::Ok();
      },
      {prev});
  prev = graph.AddCompute(
      "ep_ffn",
      [&] {
        Tensor ffn_out =
            EpFfnForward(ctx, config, options.dispatch, options.pipeline, params.w1,
                         params.w3, params.w2, cache->ln2_out, cache->routing, &cache->ffn);
        y = Add(cache->ln2_in, ffn_out);
        return Status::Ok();
      },
      {prev}, "grouped_gemm");
  ExecResult result = graph.Execute(1);
  MSMOE_CHECK(result.status.ok()) << result.status.ToString();

  if (options.sar) {
    // Drop the recomputable activations (§4.1): the two RMSNorm outputs
    // (SpAttentionCache keeps its own copy of ln1_out as ln_in_local), the
    // dispatched expert input, and the SwiGLU output. Backward re-derives
    // them via ParallelMoeLayerBackward's rematerialization step.
    cache->ln1_out = Tensor();
    cache->attn.ln_in_local = Tensor();
    cache->ln2_out = Tensor();
    cache->ffn.ffn_in = Tensor();
    cache->ffn.acts.fc2_in = Tensor();
    cache->ffn.x_all = Tensor();
  }
  return y;
}

ParallelMoeLayerGrads ParallelMoeLayerBackward(
    const ShardContext& ctx, const ModelConfig& config, const RouterConfig& router,
    const MoeLayerParams& params, const Tensor& dy_local, int64_t batch, int64_t seq_len,
    const ParallelMoeLayerOptions& options, const ParallelMoeLayerCache& cache) {
  const int n = ctx.size();
  const int64_t e_local = config.num_experts / n;

  // Work on a shallow copy so rematerialization can fill dropped fields.
  ParallelMoeLayerCache& mutable_cache = const_cast<ParallelMoeLayerCache&>(cache);

  ParallelMoeLayerGrads grads;
  grads.dparams = MoeLayerParams::ZerosLike(config);

  // Intermediates flowing between the recorded macro ops; the graph executes
  // synchronously below, so plain stack locals captured by reference are the
  // dataflow edges.
  EpFfnGrads ffn_grads;
  Tensor dln2_in;
  SpAttentionGrads attn_grads;

  ExecGraph graph;
  int prev = graph.AddCompute("remat", [&] {
    if (options.sar) {
      // Re-perform RMSNorm (and the dispatch communication) to rebuild the
      // activations the forward pass dropped — Fig 8b's rematerialization.
      if (mutable_cache.ln2_out.empty()) {
        mutable_cache.ln2_out = RmsNorm(mutable_cache.ln2_in, params.ln2_gain, nullptr);
      }
      EpFfnRematerialize(ctx, config, options.dispatch, mutable_cache.ln2_out,
                         &mutable_cache.ffn);
      if (mutable_cache.ln1_out.empty()) {
        mutable_cache.ln1_out = RmsNorm(mutable_cache.hidden_in, params.ln1_gain, nullptr);
      }
      if (mutable_cache.attn.ln_in_local.empty()) {
        mutable_cache.attn.ln_in_local = mutable_cache.ln1_out;
      }
    }
    return Status::Ok();
  });
  prev = graph.AddCompute(
      "ep_ffn_bwd",
      [&] {
        // Expert block backward: dy feeds both the FFN branch and (via the
        // residual) ln2_in directly.
        ffn_grads = EpFfnBackward(ctx, config, options.dispatch, params.w1, params.w3,
                                  params.w2, dy_local, cache.routing, cache.ffn);
        for (int64_t e = 0; e < e_local; ++e) {
          const size_t global = static_cast<size_t>(ctx.rank * e_local + e);
          grads.dparams.w1[global] = std::move(ffn_grads.dw1[static_cast<size_t>(e)]);
          grads.dparams.w3[global] = std::move(ffn_grads.dw3[static_cast<size_t>(e)]);
          grads.dparams.w2[global] = std::move(ffn_grads.dw2[static_cast<size_t>(e)]);
        }
        return Status::Ok();
      },
      {prev}, "grouped_gemm");
  prev = graph.AddCompute(
      "router_bwd+ln2_bwd",
      [&] {
        Tensor dgate_logits = RouterBackward(cache.routing, ffn_grads.dcombine_local, router);
        MatMulGrads gate_grads = MatMulBackward(dgate_logits, cache.ln2_out, params.w_gate);
        grads.dparams.w_gate = std::move(gate_grads.db);
        Tensor dln2_out = std::move(ffn_grads.dx_local);
        dln2_out.AddInPlace(gate_grads.da);

        // Second RMSNorm + residual.
        RmsNormGrads ln2_grads =
            RmsNormBackward(dln2_out, cache.ln2_in, params.ln2_gain, cache.ln2_inv_rms);
        grads.dparams.ln2_gain = std::move(ln2_grads.dgain);
        dln2_in = Add(ln2_grads.dx, dy_local);
        return Status::Ok();
      },
      {prev});
  prev = graph.AddCompute(
      "sp_attention_bwd",
      [&] {
        attn_grads = SpAttentionBackward(ctx, config, params.w_qkv, params.w_out, dln2_in,
                                         batch, seq_len, cache.attn);
        grads.dparams.w_qkv = std::move(attn_grads.dw_qkv);
        grads.dparams.w_out = std::move(attn_grads.dw_out);
        return Status::Ok();
      },
      {prev}, "attention");
  prev = graph.AddCompute(
      "ln1_bwd",
      [&] {
        RmsNormGrads ln1_grads = RmsNormBackward(attn_grads.dx_local, cache.hidden_in,
                                                 params.ln1_gain, cache.ln1_inv_rms);
        grads.dparams.ln1_gain = std::move(ln1_grads.dgain);
        grads.dx_local = Add(ln1_grads.dx, dln2_in);
        return Status::Ok();
      },
      {prev});
  ExecResult result = graph.Execute(1);
  MSMOE_CHECK(result.status.ok()) << result.status.ToString();
  return grads;
}

}  // namespace msmoe
