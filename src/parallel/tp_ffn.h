// Tensor-parallel expert FFN — the Megatron baseline the paper replaces
// with expert parallelism (§3.2).
//
// Every expert is present on every rank, sharded along the intermediate
// dimension: W1/W3 keep columns [r*f/n, (r+1)*f/n), W2 the matching rows.
// Activations enter sequence-sharded; the module all-gathers the full token
// set, runs every expert's sharded GEMMs (this is what hurts GEMM
// efficiency: the per-expert GEMM width shrinks to f/n), and reduce-scatters
// the partial outputs — the constant 2bsh(n-1)/n volume of Eq 4.
#ifndef MSMOE_SRC_PARALLEL_TP_FFN_H_
#define MSMOE_SRC_PARALLEL_TP_FFN_H_

#include <cstdint>
#include <vector>

#include "src/model/config.h"
#include "src/model/grouped_gemm.h"
#include "src/model/router.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor.h"

namespace msmoe {

struct TpFfnCache {
  Tensor x_all;      // [t_total, h]
  Tensor ffn_in;     // rows grouped by expert (all experts) [R, h]
  ExpertFfnActs acts;  // over the f/n shard; fc2_out is a partial [R, h]
  std::vector<int64_t> offsets;      // [E + 1]
  std::vector<int64_t> copy_token;   // per grouped row: global token
  std::vector<int64_t> copy_slot;
  std::vector<float> copy_weight;
};

// Same contract as EpFfnForward; weights are the FULL per-expert tensors and
// the module internally uses rank r's column/row shard.
Tensor TpFfnForward(const ShardContext& ctx, const ModelConfig& config,
                    const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                    const std::vector<Tensor>& w2, const Tensor& x_local,
                    const RoutingResult& routing_local, TpFfnCache* cache);

struct TpFfnGrads {
  Tensor dx_local;
  Tensor dcombine_local;  // [t_local, k]
  // Shard gradients for ALL experts (full sums over every token).
  std::vector<Tensor> dw1_shard, dw3_shard, dw2_shard;
};

TpFfnGrads TpFfnBackward(const ShardContext& ctx, const ModelConfig& config,
                         const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                         const std::vector<Tensor>& w2, const Tensor& dy_local,
                         const RoutingResult& routing_local, const TpFfnCache& cache);

// Rank r's shards, for verifying shard gradients against reference slices.
Tensor TpFfnColShard(const Tensor& w, int rank, int size);   // w1 / w3: columns
Tensor TpFfnRowShard(const Tensor& w, int rank, int size);   // w2: rows

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_TP_FFN_H_
