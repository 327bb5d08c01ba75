#include "src/model/attention.h"

#include <algorithm>
#include <cmath>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/parallel_for.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

void CheckShapes(const Tensor& q, const Tensor& k, const Tensor& v, int64_t gqa_ratio) {
  MSMOE_CHECK_EQ(q.ndim(), 3);
  MSMOE_CHECK_EQ(k.ndim(), 3);
  MSMOE_CHECK_EQ(v.ndim(), 3);
  MSMOE_CHECK_EQ(q.dim(0), k.dim(0));
  MSMOE_CHECK_EQ(k.dim(0), v.dim(0));
  MSMOE_CHECK_EQ(q.dim(1), k.dim(1) * gqa_ratio);
  MSMOE_CHECK_EQ(k.dim(1), v.dim(1));
  MSMOE_CHECK_EQ(q.dim(2), k.dim(2));
  MSMOE_CHECK_EQ(k.dim(2), v.dim(2));
}

// Copies head `head` of a [s, heads, d] tensor into a contiguous [s, d]
// buffer (and back), so the per-head score/value products can run through
// the blocked GEMM kernel.
void GatherHead(const float* x, int64_t s, int64_t heads, int64_t head, int64_t d,
                float* out) {
  for (int64_t t = 0; t < s; ++t) {
    const float* src = x + (t * heads + head) * d;
    std::copy(src, src + d, out + t * d);
  }
}

void ScatterHead(const float* in, int64_t s, int64_t heads, int64_t head, int64_t d,
                 float* x) {
  for (int64_t t = 0; t < s; ++t) {
    std::copy(in + t * d, in + (t + 1) * d, x + (t * heads + head) * d);
  }
}

}  // namespace

Tensor AttentionCore(const Tensor& q, const Tensor& k, const Tensor& v, int64_t gqa_ratio,
                     AttentionCoreCache* cache) {
  CheckShapes(q, k, v, gqa_ratio);
  const int64_t s = q.dim(0);
  const int64_t hq = q.dim(1);
  const int64_t hkv = k.dim(1);
  const int64_t d = q.dim(2);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // Fully written below: every head writes its probs slab (zeros included,
  // for the causal mask) and its out slices.
  Tensor out = Tensor::Uninit({s, hq, d});
  Tensor probs = Tensor::Uninit({hq, s, s});
  // Heads split across the intra-rank worker pool: each head owns its probs
  // slab and its (strided) slices of `out`, so shards write disjoint memory
  // and results are independent of the head-to-worker assignment.
  ParallelFor(hq, /*grain=*/1, [&](int64_t h0, int64_t h1) {
    // Per-worker scratch from the thread workspace: the worker pool threads
    // persist, so steady-state steps reuse these without allocating.
    Workspace& ws = ThreadWorkspace();
    float* qh = ws.Floats("attn.qh", s * d);
    float* kvh = ws.Floats("attn.kvh", s * d);
    float* oh = ws.Floats("attn.oh", s * d);
    for (int64_t head = h0; head < h1; ++head) {
      const int64_t kv_head = head / gqa_ratio;
      float* scores = probs.data() + head * s * s;
      // scores = scale * Q_h @ K_h^T over the full [s, s] square (the
      // nested GEMM runs inline on this shard)...
      GatherHead(q.data(), s, hq, head, d, qh);
      GatherHead(k.data(), s, hkv, kv_head, d, kvh);
      Gemm(false, true, s, s, d, scale, qh, kvh, 0.0f, scores);
      // ...then causal softmax per row: only keys 0..t survive.
      for (int64_t t = 0; t < s; ++t) {
        float* prob_row = scores + t * s;
        float max_score = prob_row[0];
        for (int64_t u = 1; u <= t; ++u) {
          max_score = std::max(max_score, prob_row[u]);
        }
        double total = 0.0;
        for (int64_t u = 0; u <= t; ++u) {
          prob_row[u] = std::exp(prob_row[u] - max_score);
          total += prob_row[u];
        }
        const float inv_total = static_cast<float>(1.0 / total);
        for (int64_t u = 0; u <= t; ++u) {
          prob_row[u] *= inv_total;
        }
        for (int64_t u = t + 1; u < s; ++u) {
          prob_row[u] = 0.0f;
        }
      }
      // out_h = probs @ V_h; masked entries are exact zeros, so the full
      // GEMM equals the causal sum.
      GatherHead(v.data(), s, hkv, kv_head, d, kvh);
      Gemm(false, false, s, d, s, 1.0f, scores, kvh, 0.0f, oh);
      ScatterHead(oh, s, hq, head, d, out.data());
    }
  });
  if (cache != nullptr) {
    cache->probs = std::move(probs);
  }
  return out;
}

AttentionCoreGrads AttentionCoreBackward(const Tensor& dout, const Tensor& q, const Tensor& k,
                                         const Tensor& v, int64_t gqa_ratio,
                                         const AttentionCoreCache& cache) {
  CheckShapes(q, k, v, gqa_ratio);
  const int64_t s = q.dim(0);
  const int64_t hq = q.dim(1);
  const int64_t hkv = k.dim(1);
  const int64_t d = q.dim(2);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // Fully written below: every query head scatters its dq slice and every KV
  // head its dk/dv slices exactly once.
  AttentionCoreGrads grads;
  grads.dq = Tensor::Uninit({s, hq, d});
  grads.dk = Tensor::Uninit({s, hkv, d});
  grads.dv = Tensor::Uninit({s, hkv, d});

  // dk/dv accumulate across the gqa_ratio query heads sharing a KV head, so
  // the parallel unit is the KV head group. Each shard runs its groups as
  // per-head GEMMs on contiguous private scratch (nested GEMMs run inline);
  // the query heads of a group accumulate in ascending order, so the result
  // is independent of the worker count.
  ParallelFor(hkv, /*grain=*/1, [&](int64_t kv0, int64_t kv1) {
    float* scratch = ThreadWorkspace().Floats("attn.bwd", 7 * s * d + s * s);
    float* kh = scratch;
    float* vh = kh + s * d;
    float* qh = vh + s * d;
    float* douth = qh + s * d;
    float* dqh = douth + s * d;
    float* dkh = dqh + s * d;
    float* dvh = dkh + s * d;
    float* ds = dvh + s * d;  // [s, s]: dP, then dS in place
    for (int64_t kv_head = kv0; kv_head < kv1; ++kv_head) {
      GatherHead(k.data(), s, hkv, kv_head, d, kh);
      GatherHead(v.data(), s, hkv, kv_head, d, vh);
      for (int64_t sub = 0; sub < gqa_ratio; ++sub) {
        const int64_t head = kv_head * gqa_ratio + sub;
        const float* probs = cache.probs.data() + head * s * s;
        // The group's first query head overwrites the dk/dv accumulators.
        const float beta = sub == 0 ? 0.0f : 1.0f;
        GatherHead(dout.data(), s, hq, head, d, douth);
        GatherHead(q.data(), s, hq, head, d, qh);
        // dV += P^T dO; dP = dO V^T.
        Gemm(true, false, s, d, s, 1.0f, probs, douth, beta, dvh);
        Gemm(false, true, s, s, d, 1.0f, douth, vh, 0.0f, ds);
        // dS = P o (dP - rowsum(P o dP)). Masked entries stay exact zeros,
        // as in the forward's probs, so the full-square GEMMs below equal
        // the causal sums.
        for (int64_t t = 0; t < s; ++t) {
          const float* prob_row = probs + t * s;
          float* ds_row = ds + t * s;
          double dot_p_dp = 0.0;
          for (int64_t u = 0; u <= t; ++u) {
            dot_p_dp += static_cast<double>(prob_row[u]) * ds_row[u];
          }
          const float row_sum = static_cast<float>(dot_p_dp);
          for (int64_t u = 0; u <= t; ++u) {
            ds_row[u] = prob_row[u] * (ds_row[u] - row_sum);
          }
          std::fill(ds_row + t + 1, ds_row + s, 0.0f);
        }
        // dQ = scale dS K; dK += scale dS^T Q.
        Gemm(false, false, s, d, s, scale, ds, kh, 0.0f, dqh);
        ScatterHead(dqh, s, hq, head, d, grads.dq.data());
        Gemm(true, false, s, d, s, scale, ds, qh, beta, dkh);
      }
      ScatterHead(dkh, s, hkv, kv_head, d, grads.dk.data());
      ScatterHead(dvh, s, hkv, kv_head, d, grads.dv.data());
    }
  });
  return grads;
}

}  // namespace msmoe
