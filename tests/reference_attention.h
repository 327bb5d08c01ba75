// Single-rank oracle for the causal GQA attention-core backward: the scalar
// O(s^2 d) loop, one query row at a time, written straight from the chain
// rule and independent of the blocked GEMM path in src/model/attention.cc.
// It consumes the forward's cached softmax probabilities.
#ifndef MSMOE_TESTS_REFERENCE_ATTENTION_H_
#define MSMOE_TESTS_REFERENCE_ATTENTION_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/model/attention.h"
#include "src/tensor/tensor.h"

namespace msmoe {

inline AttentionCoreGrads ReferenceAttentionBackward(const Tensor& dout, const Tensor& q,
                                                     const Tensor& k, const Tensor& v,
                                                     int64_t gqa_ratio,
                                                     const AttentionCoreCache& cache) {
  const int64_t s = q.dim(0);
  const int64_t hq = q.dim(1);
  const int64_t hkv = k.dim(1);
  const int64_t d = q.dim(2);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  AttentionCoreGrads grads;
  grads.dq = Tensor({s, hq, d});
  grads.dk = Tensor({s, hkv, d});
  grads.dv = Tensor({s, hkv, d});
  std::vector<float> dp(static_cast<size_t>(s));
  for (int64_t head = 0; head < hq; ++head) {
    const int64_t kv_head = head / gqa_ratio;
    for (int64_t t = 0; t < s; ++t) {
      const float* prob_row = cache.probs.data() + (head * s + t) * s;
      const float* dout_vec = dout.data() + (t * hq + head) * d;
      const float* q_vec = q.data() + (t * hq + head) * d;
      float* dq_vec = grads.dq.data() + (t * hq + head) * d;

      // dp[u] = dout . v[u]; softmax backward:
      // dscore[u] = p[u] * (dp[u] - sum_w p[w] dp[w]).
      double dot_p_dp = 0.0;
      for (int64_t u = 0; u <= t; ++u) {
        const float* v_vec = v.data() + (u * hkv + kv_head) * d;
        float acc = 0.0f;
        for (int64_t e = 0; e < d; ++e) {
          acc += dout_vec[e] * v_vec[e];
        }
        dp[static_cast<size_t>(u)] = acc;
        dot_p_dp += static_cast<double>(prob_row[u]) * acc;
      }
      for (int64_t u = 0; u <= t; ++u) {
        const float p_u = prob_row[u];
        const float dscore = p_u * (dp[static_cast<size_t>(u)] - static_cast<float>(dot_p_dp));
        const float* k_vec = k.data() + (u * hkv + kv_head) * d;
        float* dk_vec = grads.dk.data() + (u * hkv + kv_head) * d;
        float* dv_vec = grads.dv.data() + (u * hkv + kv_head) * d;
        for (int64_t e = 0; e < d; ++e) {
          dq_vec[e] += dscore * scale * k_vec[e];
          dk_vec[e] += dscore * scale * q_vec[e];
          dv_vec[e] += p_u * dout_vec[e];
        }
      }
    }
  }
  return grads;
}

}  // namespace msmoe

#endif  // MSMOE_TESTS_REFERENCE_ATTENTION_H_
