#include "src/parallel/sp_attention.h"

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// One tensor of a Ulysses exchange. Its sequence-sharded side is `seq`:
// batch*s_local token rows of `heads` heads, `stride` floats apart (a
// column block of a wider row, such as q inside qkv). Its head-sharded
// side is `head`: [batch*s, heads/n*d], the full sequence of this rank's
// head block.
struct UlyssesPart {
  float* seq;
  int64_t stride;
  Tensor* head;
  int64_t heads;
};

// Elements one rank sends each peer for `parts`: every part contributes its
// local head block of every local token.
int64_t UlyssesBlock(std::initializer_list<UlyssesPart> parts, int n, int64_t tokens,
                     int64_t d) {
  int64_t block = 0;
  for (const UlyssesPart& part : parts) {
    block += tokens * (part.heads / n) * d;
  }
  return block;
}

// All-to-all re-partition seq->head for every part in ONE exchange: reads
// part.seq, (re)allocates and fills part.head. Each destination's block is
// the parts' blocks back to back, so every part moves exactly the bytes its
// own all-to-all would. Staged in the rank thread's Workspace.
void SeqToHeadA2A(const ShardContext& ctx, std::initializer_list<UlyssesPart> parts,
                  int64_t batch, int64_t s_local, int64_t d) {
  const int n = ctx.size();
  const int64_t tokens = batch * s_local;
  const int64_t block = UlyssesBlock(parts, n, tokens, d);
  Workspace& ws = ThreadWorkspace();
  float* send = ws.Floats("sp.a2a.send", std::max<int64_t>(block * n, 1));
  float* recv = ws.Floats("sp.a2a.recv", std::max<int64_t>(block * n, 1));
  for (int dst = 0; dst < n; ++dst) {
    float* out = send + static_cast<int64_t>(dst) * block;
    for (const UlyssesPart& part : parts) {
      const int64_t width = part.heads / n * d;
      for (int64_t t = 0; t < tokens; ++t) {
        const float* src = part.seq + t * part.stride + dst * width;
        std::copy(src, src + width, out);
        out += width;
      }
    }
  }
  ctx.comm->AllToAll(ctx.rank, send, recv, block);

  for (const UlyssesPart& part : parts) {
    *part.head = Tensor::Uninit({tokens * n, part.heads / n * d});
  }
  for (int src = 0; src < n; ++src) {
    const float* in = recv + static_cast<int64_t>(src) * block;
    for (const UlyssesPart& part : parts) {
      const int64_t width = part.heads / n * d;
      for (int64_t b = 0; b < batch; ++b) {
        std::copy(in, in + s_local * width,
                  part.head->data() + (b * s_local * n + src * s_local) * width);
        in += s_local * width;
      }
    }
  }
}

// Inverse of SeqToHeadA2A, again one exchange for every part: reads
// part.head, writes part.seq.
void HeadToSeqA2A(const ShardContext& ctx, std::initializer_list<UlyssesPart> parts,
                  int64_t batch, int64_t s_local, int64_t d) {
  const int n = ctx.size();
  const int64_t tokens = batch * s_local;
  const int64_t block = UlyssesBlock(parts, n, tokens, d);
  Workspace& ws = ThreadWorkspace();
  float* send = ws.Floats("sp.a2a.send", std::max<int64_t>(block * n, 1));
  float* recv = ws.Floats("sp.a2a.recv", std::max<int64_t>(block * n, 1));
  for (int dst = 0; dst < n; ++dst) {
    float* out = send + static_cast<int64_t>(dst) * block;
    for (const UlyssesPart& part : parts) {
      const int64_t width = part.heads / n * d;
      for (int64_t b = 0; b < batch; ++b) {
        const float* src = part.head->data() + (b * s_local * n + dst * s_local) * width;
        std::copy(src, src + s_local * width, out);
        out += s_local * width;
      }
    }
  }
  ctx.comm->AllToAll(ctx.rank, send, recv, block);

  for (int src = 0; src < n; ++src) {
    const float* in = recv + static_cast<int64_t>(src) * block;
    for (const UlyssesPart& part : parts) {
      const int64_t width = part.heads / n * d;
      for (int64_t t = 0; t < tokens; ++t) {
        std::copy(in, in + width, part.seq + t * part.stride + src * width);
        in += width;
      }
    }
  }
}

// Head-sharded rows hold whole sequences: row b*s + p is position p.
std::vector<int64_t> SequencePositions(int64_t batch, int64_t seq_len) {
  std::vector<int64_t> positions(static_cast<size_t>(batch * seq_len));
  for (int64_t i = 0; i < batch * seq_len; ++i) {
    positions[static_cast<size_t>(i)] = i % seq_len;
  }
  return positions;
}

}  // namespace

Tensor SpAttentionForward(const ShardContext& ctx, const ModelConfig& config,
                          const Tensor& w_qkv, const Tensor& w_out, const Tensor& x_local,
                          int64_t batch, int64_t seq_len, SpAttentionCache* cache) {
  const int n = ctx.size();
  const int64_t s_local = seq_len / n;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();
  MSMOE_CHECK_EQ(seq_len % n, 0);
  MSMOE_CHECK_EQ(hq % n, 0);
  MSMOE_CHECK_EQ(hkv % n, 0);
  MSMOE_CHECK_EQ(x_local.dim(0), batch * s_local);

  cache->ln_in_local = x_local;
  Tensor qkv = MatMul(x_local, w_qkv);

  // One A2A(q, k, v) straight from the qkv columns: sequence-sharded ->
  // head-sharded. RoPE then rotates the full sequences; it is elementwise
  // in (position, dim), so rotating after the exchange is bitwise rotating
  // before it.
  const int64_t stride = config.qkv_out_dim();
  const int64_t hq_loc = hq / n;
  const int64_t hkv_loc = hkv / n;
  SeqToHeadA2A(ctx,
               {{qkv.data(), stride, &cache->q_heads, hq},
                {qkv.data() + hq * d, stride, &cache->k_heads, hkv},
                {qkv.data() + (hq + hkv) * d, stride, &cache->v_heads, hkv}},
               batch, s_local, d);
  const std::vector<int64_t> positions = SequencePositions(batch, seq_len);
  RopeInPlace(cache->q_heads, positions, hq_loc, d);
  RopeInPlace(cache->k_heads, positions, hkv_loc, d);

  // Full-sequence attention over the local head block.
  cache->attn.assign(static_cast<size_t>(batch), AttentionCoreCache{});
  cache->attn_heads = Tensor({batch * seq_len, hq_loc * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor q_seq = cache->q_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq_loc, d});
    Tensor k_seq = cache->k_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor v_seq = cache->v_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor attn = AttentionCore(q_seq, k_seq, v_seq, config.gqa_ratio,
                                &cache->attn[static_cast<size_t>(b)]);
    std::copy(attn.data(), attn.data() + attn.numel(),
              cache->attn_heads.data() + b * seq_len * hq_loc * d);
  }

  // A2A(attn): head-sharded -> sequence-sharded, then output projection.
  cache->attn_local = Tensor::Uninit({batch * s_local, hq * d});
  HeadToSeqA2A(ctx, {{cache->attn_local.data(), hq * d, &cache->attn_heads, hq}}, batch,
               s_local, d);
  return MatMul(cache->attn_local, w_out);
}

SpAttentionGrads SpAttentionBackward(const ShardContext& ctx, const ModelConfig& config,
                                     const Tensor& w_qkv, const Tensor& w_out,
                                     const Tensor& dy_local, int64_t batch, int64_t seq_len,
                                     const SpAttentionCache& cache) {
  const int n = ctx.size();
  const int64_t s_local = seq_len / n;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();
  const int64_t hq_loc = hq / n;
  const int64_t hkv_loc = hkv / n;

  SpAttentionGrads grads;

  // Output projection backward.
  MatMulGrads out_grads = MatMulBackward(dy_local, cache.attn_local, w_out);
  grads.dw_out = std::move(out_grads.db);

  // A2A backward: sequence-sharded grad -> head-sharded grad.
  Tensor dattn_heads;
  SeqToHeadA2A(ctx, {{out_grads.da.data(), hq * d, &dattn_heads, hq}}, batch, s_local, d);

  // Attention core backward per sequence, then RoPE inverse.
  Tensor dq_heads({batch * seq_len, hq_loc * d});
  Tensor dk_heads({batch * seq_len, hkv_loc * d});
  Tensor dv_heads({batch * seq_len, hkv_loc * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor dout_seq = dattn_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                          .Reshaped({seq_len, hq_loc, d});
    Tensor q_seq = cache.q_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq_loc, d});
    Tensor k_seq = cache.k_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor v_seq = cache.v_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    AttentionCoreGrads attn_grads = AttentionCoreBackward(
        dout_seq, q_seq, k_seq, v_seq, config.gqa_ratio, cache.attn[static_cast<size_t>(b)]);
    std::copy(attn_grads.dq.data(), attn_grads.dq.data() + attn_grads.dq.numel(),
              dq_heads.data() + b * seq_len * hq_loc * d);
    std::copy(attn_grads.dk.data(), attn_grads.dk.data() + attn_grads.dk.numel(),
              dk_heads.data() + b * seq_len * hkv_loc * d);
    std::copy(attn_grads.dv.data(), attn_grads.dv.data() + attn_grads.dv.numel(),
              dv_heads.data() + b * seq_len * hkv_loc * d);
  }

  const std::vector<int64_t> positions = SequencePositions(batch, seq_len);
  RopeBackwardInPlace(dq_heads, positions, hq_loc, d);
  RopeBackwardInPlace(dk_heads, positions, hkv_loc, d);

  // One A2A backward, straight into the dqkv columns, then the QKV
  // projection backward.
  const int64_t stride = config.qkv_out_dim();
  Tensor dqkv = Tensor::Uninit({batch * s_local, stride});
  HeadToSeqA2A(ctx,
               {{dqkv.data(), stride, &dq_heads, hq},
                {dqkv.data() + hq * d, stride, &dk_heads, hkv},
                {dqkv.data() + (hq + hkv) * d, stride, &dv_heads, hkv}},
               batch, s_local, d);
  MatMulGrads qkv_grads = MatMulBackward(dqkv, cache.ln_in_local, w_qkv);
  grads.dw_qkv = std::move(qkv_grads.db);
  grads.dx_local = std::move(qkv_grads.da);
  return grads;
}

}  // namespace msmoe
