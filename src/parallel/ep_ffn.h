// Expert-parallel feed-forward network (§3.2) with the two dispatch modes
// the paper's adaptive communication strategy chooses between:
//
//   kAllToAll:         classic EP — all-to-all token dispatch to expert
//                      owners, grouped GEMM, all-to-all combine. Volume
//                      2k/n * bsh(n-1)/n (Eq 3).
//   kAllGatherScatter: for large top-k — all-gather every rank's tokens,
//                      fuse a local scatter that keeps only rows routed to
//                      local experts, grouped GEMM, weighted assembly into a
//                      full tensor, reduce-scatter combine. Volume
//                      2bsh(n-1)/n, identical to TP (Eq 4) but ring-friendly
//                      (Fig 6/7).
//
// Rank r owns experts [r*E/n, (r+1)*E/n); expert-weight gradients are
// complete on the owner rank (no extra sync). Both modes are dispatchers
// around one expert computation: ExpertFfn / ExpertFfnBackward
// (src/model/grouped_gemm.h), the single-rank layer's chain.
//
// The kAllToAll path is a fused pipeline (the paper's §4.2 fused dispatch
// kernels, Fig 7): a counting-sort permutation built in one O(T·k) pass
// replaces per-token pack/sort loops, the wire runs as per-chunk
// StartAllToAllV handles so packing/quantizing chunk i+1 overlaps the
// transfer of chunk i in both directions, and each chunk's gathered rows
// run the expert FFN while the next chunk is on the wire. Every chunk
// handle declares its counts from the one metadata all-to-all, so a chunk
// costs one data rendezvous; its wait is recorded on stream 0 of the
// ExecGraph, which runs on the rank thread alone (Execute(1)). An optional
// quantize-on-pack FP8 mode calls QuantizeInto per row straight into the
// send staging (codes + per-token scale share one wire payload) instead of
// running a separate quantization pre-pass.
//
// Numerics. Chunks partition the LOCAL token range in ascending order, so
// the grouped row order (expert, source rank, token asc) and each token's
// combine order (owner rank asc, slot asc) do not depend on the chunk count
// or the worker count: every output, gradient and rematerialized ffn_in is
// bitwise the C=1 run's. Against the single-rank reference (one grouped
// GEMM over all tokens, combine summed in slot order), dcombine and the
// expert-weight gradients are bitwise for any top-k — within an expert the
// grouped row order is the reference's global token order. y and dx are
// bitwise only for top_k <= 2: a token's copies are summed in owner-rank
// order here and in slot order there, and two float terms commute while
// three need not.
// kAllGatherScatter matches the reference to float reassociation (its
// reduce-scatter combine sums per-rank partials).
#ifndef MSMOE_SRC_PARALLEL_EP_FFN_H_
#define MSMOE_SRC_PARALLEL_EP_FFN_H_

#include <cstdint>
#include <vector>

#include "src/model/config.h"
#include "src/model/grouped_gemm.h"
#include "src/model/router.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor.h"

namespace msmoe {

enum class EpDispatchMode {
  kAllToAll,
  kAllGatherScatter,
};

const char* EpDispatchModeName(EpDispatchMode mode);

// Per-call configuration of the kAllToAll pipeline; kAllGatherScatter
// ignores it. Every rank of a group must pass the same values — the chunk
// count shapes the collective sequence. num_chunks is clamped to [1, 64].
// fp8_dispatch quantizes the forward dispatch wire (activations) to E4M3
// with one scale per token, fusing QuantizeInto into the pack; the combine
// and backward wires stay FP32. Per-token is the only granularity whose
// scales are row-local, so quantizing packed rows equals quantizing x in
// place.
struct EpPipelineConfig {
  int num_chunks = 4;
  bool fp8_dispatch = false;
};

struct EpFfnCache {
  // Expert FFN input and activations, rows grouped by local expert.
  Tensor ffn_in;       // [R, h]
  ExpertFfnActs acts;
  std::vector<int64_t> local_offsets;  // [E_local + 1] row ranges

  // kAllToAll bookkeeping. Send rows are enumerated chunk-major — (chunk,
  // dst rank, token asc, slot asc) — where chunks partition the local token
  // range in ascending order. Received rows are enumerated in "chunk order"
  // (chunk, src rank, row), the order they land on the wire;
  // chunk_to_sorted maps them to grouped rows.
  int pipeline_chunks = 0;                 // C used by the forward
  bool fp8_wire = false;                   // forward dispatch was quantize-on-pack
  std::vector<int64_t> recv_counts;        // rows received from each rank
  std::vector<int64_t> send_token;         // per sent row: local token index
  std::vector<int64_t> send_slot;          // per sent row: top-k slot
  Tensor returned_rows;                    // expert outputs back at the source
  std::vector<int64_t> send_chunk_counts;  // [C*n] rows in (chunk, dst) segment
  std::vector<int64_t> send_chunk_base;    // [C+1] send-row prefix per chunk
  std::vector<int64_t> recv_chunk_counts;  // [C*n] rows in (chunk, src) segment
  std::vector<int64_t> recv_chunk_base;    // [C+1] chunk-order recv prefix
  std::vector<int64_t> chunk_to_sorted;    // chunk-order recv pos -> grouped row

  // kAllGatherScatter bookkeeping.
  Tensor x_all;                         // [t_total, h] gathered tokens
  std::vector<int64_t> copy_token;      // per grouped row: global token index
  std::vector<int64_t> copy_slot;       // per grouped row: slot of that token
  std::vector<float> copy_weight;       // per grouped row: combine weight
};

// x_local: [t_local, h]; routing_local: routing of exactly those tokens.
// weights w1/w3/w2 hold ALL experts; the module touches only rank r's range.
// Returns the weighted expert output [t_local, h] (no residual).
Tensor EpFfnForward(const ShardContext& ctx, const ModelConfig& config, EpDispatchMode mode,
                    const EpPipelineConfig& pipeline, const std::vector<Tensor>& w1,
                    const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                    const Tensor& x_local, const RoutingResult& routing_local,
                    EpFfnCache* cache);

struct EpFfnGrads {
  Tensor dx_local;       // [t_local, h]
  Tensor dcombine_local; // [t_local, k] gradient w.r.t. combine weights
  // Gradients for this rank's experts only, indexed 0..E_local-1.
  std::vector<Tensor> dw1, dw3, dw2;
};

// kAllToAll replays the chunk count and wire format the forward recorded in
// `cache`. On a failed group (Communicator::GroupStatus not OK, before or
// during the call) the gradients still come back full-shape — zero-filled
// in kAllToAll mode, like the forward's degraded output.
EpFfnGrads EpFfnBackward(const ShardContext& ctx, const ModelConfig& config,
                         EpDispatchMode mode, const std::vector<Tensor>& w1,
                         const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                         const Tensor& dy_local, const RoutingResult& routing_local,
                         const EpFfnCache& cache);

// Selective-activation-rematerialization support (§4.1): rebuilds cache
// fields the forward pass dropped — `ffn_in` (and `x_all` in AG mode) by
// RE-RUNNING the dispatch communication from the recomputed layer input
// (the paper's "re-performing RMSNorm and all-gather"), and `fc2_in` by
// re-applying SwiGLU to the retained fc1/fc3 outputs. Collective: all ranks
// of the group must call it together. Fields already present are left
// untouched. kAllToAll replays the forward's chunked (and quantize-on-pack)
// dispatch, so the rebuilt ffn_in is bitwise the forward's; on a failed
// group the rebuilt fields are zero-filled instead.
void EpFfnRematerialize(const ShardContext& ctx, const ModelConfig& config,
                        EpDispatchMode mode, const Tensor& x_local, EpFfnCache* cache);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_EP_FFN_H_
