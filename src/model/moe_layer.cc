#include "src/model/moe_layer.h"

#include <cmath>

#include "src/base/logging.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Initialization stddev following GPT-style 0.02 scaled init.
constexpr float kInitStd = 0.02f;

ExpertWeights AllExperts(const MoeLayerParams& params) {
  return ExpertWeights{params.w1.data(), params.w3.data(), params.w2.data(),
                       static_cast<int64_t>(params.w1.size())};
}

std::vector<int64_t> SequencePositions(int64_t seq_len) {
  std::vector<int64_t> positions(static_cast<size_t>(seq_len));
  for (int64_t i = 0; i < seq_len; ++i) {
    positions[static_cast<size_t>(i)] = i;
  }
  return positions;
}

}  // namespace

MoeLayerParams MoeLayerParams::Init(const ModelConfig& config, Rng& rng) {
  MoeLayerParams params;
  params.ln1_gain = Tensor::Full({config.hidden}, 1.0f);
  params.w_qkv = Tensor::Randn({config.hidden, config.qkv_out_dim()}, rng, 0.0f, kInitStd);
  params.w_out = Tensor::Randn({config.hidden, config.hidden}, rng, 0.0f, kInitStd);
  params.ln2_gain = Tensor::Full({config.hidden}, 1.0f);
  params.w_gate = Tensor::Randn({config.hidden, config.num_experts}, rng, 0.0f, kInitStd);
  for (int64_t e = 0; e < config.num_experts; ++e) {
    params.w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, kInitStd));
    params.w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, kInitStd));
    params.w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, kInitStd));
  }
  return params;
}

MoeLayerParams MoeLayerParams::ZerosLike(const ModelConfig& config) {
  MoeLayerParams params;
  params.ln1_gain = Tensor::Zeros({config.hidden});
  params.w_qkv = Tensor::Zeros({config.hidden, config.qkv_out_dim()});
  params.w_out = Tensor::Zeros({config.hidden, config.hidden});
  params.ln2_gain = Tensor::Zeros({config.hidden});
  params.w_gate = Tensor::Zeros({config.hidden, config.num_experts});
  for (int64_t e = 0; e < config.num_experts; ++e) {
    params.w1.push_back(Tensor::Zeros({config.hidden, config.ffn_hidden}));
    params.w3.push_back(Tensor::Zeros({config.hidden, config.ffn_hidden}));
    params.w2.push_back(Tensor::Zeros({config.ffn_hidden, config.hidden}));
  }
  return params;
}

void MoeLayerParams::ForEach(const std::function<void(const std::string&, Tensor&)>& fn) {
  fn("ln1_gain", ln1_gain);
  fn("w_qkv", w_qkv);
  fn("w_out", w_out);
  fn("ln2_gain", ln2_gain);
  fn("w_gate", w_gate);
  for (size_t e = 0; e < w1.size(); ++e) {
    fn("w1." + std::to_string(e), w1[e]);
    fn("w3." + std::to_string(e), w3[e]);
    fn("w2." + std::to_string(e), w2[e]);
  }
}

void MoeLayerParams::ForEachConst(
    const std::function<void(const std::string&, const Tensor&)>& fn) const {
  const_cast<MoeLayerParams*>(this)->ForEach(
      [&fn](const std::string& name, Tensor& tensor) { fn(name, tensor); });
}

int64_t MoeLayerParams::TotalElements() const {
  int64_t total = 0;
  ForEachConst([&total](const std::string&, const Tensor& tensor) { total += tensor.numel(); });
  return total;
}

void MoeLayerParams::Accumulate(const MoeLayerParams& other) {
  ln1_gain.AddInPlace(other.ln1_gain);
  w_qkv.AddInPlace(other.w_qkv);
  w_out.AddInPlace(other.w_out);
  ln2_gain.AddInPlace(other.ln2_gain);
  w_gate.AddInPlace(other.w_gate);
  for (size_t e = 0; e < w1.size(); ++e) {
    w1[e].AddInPlace(other.w1[e]);
    w3[e].AddInPlace(other.w3[e]);
    w2[e].AddInPlace(other.w2[e]);
  }
}

Tensor MoeLayerForward(const MoeLayerParams& params, const ModelConfig& config,
                       const RouterConfig& router, const Tensor& hidden, int64_t batch,
                       MoeLayerCache* cache) {
  MSMOE_CHECK_EQ(hidden.ndim(), 2);
  MSMOE_CHECK_EQ(hidden.dim(1), config.hidden);
  const int64_t tokens = hidden.dim(0);
  MSMOE_CHECK_EQ(tokens % batch, 0);
  const int64_t seq_len = tokens / batch;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();

  cache->hidden_in = hidden;
  cache->ln1_out = RmsNorm(hidden, params.ln1_gain, &cache->ln1_inv_rms);

  // Fused QKV projection, then split and RoPE.
  Tensor qkv = MatMul(cache->ln1_out, params.w_qkv);
  cache->q = Tensor::Uninit({tokens, hq * d});
  cache->k = Tensor::Uninit({tokens, hkv * d});
  cache->v = Tensor::Uninit({tokens, hkv * d});
  for (int64_t t = 0; t < tokens; ++t) {
    const float* row = qkv.data() + t * config.qkv_out_dim();
    std::copy(row, row + hq * d, cache->q.data() + t * hq * d);
    std::copy(row + hq * d, row + (hq + hkv) * d, cache->k.data() + t * hkv * d);
    std::copy(row + (hq + hkv) * d, row + (hq + 2 * hkv) * d, cache->v.data() + t * hkv * d);
  }
  const std::vector<int64_t> positions = SequencePositions(seq_len);
  cache->attn.assign(static_cast<size_t>(batch), AttentionCoreCache{});
  cache->attn_out = Tensor::Uninit({tokens, config.hidden});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor q_seq = cache->q.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq, d});
    Tensor k_seq = cache->k.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv, d});
    Tensor v_seq = cache->v.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv, d});
    RopeInPlace(q_seq, positions, hq, d);
    RopeInPlace(k_seq, positions, hkv, d);
    // Write the post-RoPE values back so backward can use them directly.
    std::copy(q_seq.data(), q_seq.data() + q_seq.numel(),
              cache->q.data() + b * seq_len * hq * d);
    std::copy(k_seq.data(), k_seq.data() + k_seq.numel(),
              cache->k.data() + b * seq_len * hkv * d);
    Tensor attn = AttentionCore(q_seq, k_seq, v_seq, config.gqa_ratio,
                                &cache->attn[static_cast<size_t>(b)]);
    std::copy(attn.data(), attn.data() + attn.numel(),
              cache->attn_out.data() + b * seq_len * config.hidden);
  }

  Tensor attn_proj = MatMul(cache->attn_out, params.w_out);
  cache->ln2_in = Add(hidden, attn_proj);
  cache->ln2_out = RmsNorm(cache->ln2_in, params.ln2_gain, &cache->ln2_inv_rms);

  // Router + dispatch.
  Tensor gate_logits = MatMul(cache->ln2_out, params.w_gate);
  cache->routing = RouteTokens(gate_logits, router);
  cache->plan = BuildDispatchPlan(cache->routing, config.num_experts);
  cache->ffn_in = GatherRows(cache->ln2_out, cache->plan.row_map);

  // Expert FFN: FC1/FC3 -> SwiGLU -> FC2.
  cache->acts = ExpertFfn(cache->ffn_in, cache->plan.expert_offsets, AllExperts(params));

  // Weighted combine (gating applied after FC2) + residual.
  Tensor out = cache->ln2_in;
  const int64_t k_slots = router.top_k;
  for (int64_t t = 0; t < tokens; ++t) {
    float* out_row = out.data() + t * config.hidden;
    for (int64_t slot = 0; slot < k_slots; ++slot) {
      const int64_t row = cache->plan.slot_to_row[static_cast<size_t>(t * k_slots + slot)];
      if (row < 0) {
        continue;
      }
      const float weight = cache->routing.combine_weight.At(t, slot);
      const float* expert_row = cache->acts.fc2_out.data() + row * config.hidden;
      for (int64_t c = 0; c < config.hidden; ++c) {
        out_row[c] += weight * expert_row[c];
      }
    }
  }
  return out;
}

MoeLayerGrads MoeLayerBackward(const MoeLayerParams& params, const ModelConfig& config,
                               const RouterConfig& router, const MoeLayerCache& cache,
                               const Tensor& dout, int64_t batch) {
  const int64_t tokens = dout.dim(0);
  const int64_t seq_len = tokens / batch;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();
  const int64_t k_slots = router.top_k;

  // Every dparams field is assigned below.
  MoeLayerGrads grads;

  // --- Combine backward: dout -> dfc2_out and dcombine_weight. ---
  // Both stay zero-initialized: dropped slots leave dcombine entries (and,
  // with capacity dropping, dfc2_out rows) untouched.
  Tensor dfc2_out({cache.acts.fc2_out.dim(0), config.hidden});
  Tensor dcombine({tokens, k_slots});
  for (int64_t t = 0; t < tokens; ++t) {
    const float* dout_row = dout.data() + t * config.hidden;
    for (int64_t slot = 0; slot < k_slots; ++slot) {
      const int64_t row = cache.plan.slot_to_row[static_cast<size_t>(t * k_slots + slot)];
      if (row < 0) {
        continue;
      }
      const float weight = cache.routing.combine_weight.At(t, slot);
      float* dfc2_row = dfc2_out.data() + row * config.hidden;
      const float* fc2_row = cache.acts.fc2_out.data() + row * config.hidden;
      float dot = 0.0f;
      for (int64_t c = 0; c < config.hidden; ++c) {
        dfc2_row[c] += weight * dout_row[c];
        dot += dout_row[c] * fc2_row[c];
      }
      dcombine.At(t, slot) = dot;
    }
  }

  // --- Expert FFN backward. ---
  ExpertFfnGrads ffn_grads = ExpertFfnBackward(dfc2_out, cache.ffn_in, cache.acts,
                                               cache.plan.expert_offsets, AllExperts(params));
  grads.dparams.w1 = std::move(ffn_grads.dw1);
  grads.dparams.w3 = std::move(ffn_grads.dw3);
  grads.dparams.w2 = std::move(ffn_grads.dw2);

  // --- Un-dispatch: scatter token-copy grads back to ln2_out rows. ---
  Tensor dln2_out = ScatterAddRows(ffn_grads.dx, cache.plan.row_map, tokens);

  // --- Router backward. ---
  Tensor dgate_logits = RouterBackward(cache.routing, dcombine, router);
  MatMulGrads gate_grads = MatMulBackward(dgate_logits, cache.ln2_out, params.w_gate);
  grads.dparams.w_gate = std::move(gate_grads.db);
  dln2_out.AddInPlace(gate_grads.da);

  // --- Second RMSNorm backward; dout also flows straight to ln2_in via the
  // residual connection. ---
  RmsNormGrads ln2_grads =
      RmsNormBackward(dln2_out, cache.ln2_in, params.ln2_gain, cache.ln2_inv_rms);
  grads.dparams.ln2_gain = std::move(ln2_grads.dgain);
  Tensor dln2_in = Add(ln2_grads.dx, dout);

  // --- Output projection backward. ---
  MatMulGrads out_proj_grads = MatMulBackward(dln2_in, cache.attn_out, params.w_out);
  grads.dparams.w_out = std::move(out_proj_grads.db);
  Tensor dattn_out = std::move(out_proj_grads.da);

  // --- Attention core + RoPE backward, per sequence. ---
  Tensor dq = Tensor::Uninit({tokens, hq * d});
  Tensor dk = Tensor::Uninit({tokens, hkv * d});
  Tensor dv = Tensor::Uninit({tokens, hkv * d});
  const std::vector<int64_t> positions = SequencePositions(seq_len);
  for (int64_t b = 0; b < batch; ++b) {
    Tensor dout_seq = dattn_out.SliceRows(b * seq_len, (b + 1) * seq_len)
                          .Reshaped({seq_len, hq, d});
    Tensor q_seq =
        cache.q.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hq, d});
    Tensor k_seq =
        cache.k.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hkv, d});
    Tensor v_seq =
        cache.v.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hkv, d});
    AttentionCoreGrads attn_grads = AttentionCoreBackward(
        dout_seq, q_seq, k_seq, v_seq, config.gqa_ratio, cache.attn[static_cast<size_t>(b)]);
    RopeBackwardInPlace(attn_grads.dq, positions, hq, d);
    RopeBackwardInPlace(attn_grads.dk, positions, hkv, d);
    std::copy(attn_grads.dq.data(), attn_grads.dq.data() + attn_grads.dq.numel(),
              dq.data() + b * seq_len * hq * d);
    std::copy(attn_grads.dk.data(), attn_grads.dk.data() + attn_grads.dk.numel(),
              dk.data() + b * seq_len * hkv * d);
    std::copy(attn_grads.dv.data(), attn_grads.dv.data() + attn_grads.dv.numel(),
              dv.data() + b * seq_len * hkv * d);
  }

  // --- Reassemble dqkv and run QKV projection backward. ---
  Tensor dqkv = Tensor::Uninit({tokens, config.qkv_out_dim()});
  for (int64_t t = 0; t < tokens; ++t) {
    float* row = dqkv.data() + t * config.qkv_out_dim();
    std::copy(dq.data() + t * hq * d, dq.data() + (t + 1) * hq * d, row);
    std::copy(dk.data() + t * hkv * d, dk.data() + (t + 1) * hkv * d, row + hq * d);
    std::copy(dv.data() + t * hkv * d, dv.data() + (t + 1) * hkv * d, row + (hq + hkv) * d);
  }
  MatMulGrads qkv_grads = MatMulBackward(dqkv, cache.ln1_out, params.w_qkv);
  grads.dparams.w_qkv = std::move(qkv_grads.db);

  // --- First RMSNorm backward + residual. ---
  RmsNormGrads ln1_grads =
      RmsNormBackward(qkv_grads.da, cache.hidden_in, params.ln1_gain, cache.ln1_inv_rms);
  grads.dparams.ln1_gain = std::move(ln1_grads.dgain);
  grads.dhidden = Add(ln1_grads.dx, dln2_in);
  return grads;
}

}  // namespace msmoe
