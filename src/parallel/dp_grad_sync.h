// Data-parallel gradient synchronization paths (§5, Fig 10).
//
// Three strategies over a DP group of n ranks, all returning this rank's
// reduced gradient shard (ZeRO-style — the owner then updates its optimizer
// shard and parameters are re-gathered):
//
//   kFp32ReduceScatter:  the safe baseline — FP32 on the wire.
//   kBf16AllToAll:       the paper's compression — one-time FP32->BF16 cast,
//                        all-to-all of BF16 shards, LOCAL accumulation in
//                        FP32. Halves wire volume; avoids repeated BF16
//                        accumulation entirely.
//   kBf16RingReduce:     the risky design the paper rejects — emulates a
//                        ring reduce-scatter whose partial sums are kept in
//                        BF16 at every hop, compounding rounding error
//                        (included to demonstrate why §5 uses all-to-all).
//
// Includes the memory-efficient in-place packing trick: BF16 codes are
// packed into the first half of the FP32 input buffer and the second half
// serves as the receive buffer, so peak memory never exceeds the original
// FP32 allocation.
#ifndef MSMOE_SRC_PARALLEL_DP_GRAD_SYNC_H_
#define MSMOE_SRC_PARALLEL_DP_GRAD_SYNC_H_

#include <cstdint>
#include <vector>

#include "src/comm/communicator.h"

namespace msmoe {

enum class GradSyncMode {
  kFp32ReduceScatter,
  kBf16AllToAll,
  kBf16RingReduce,
};

const char* GradSyncModeName(GradSyncMode mode);

// Canonical padded gradient/optimizer-state length for n-way ZeRO-1
// sharding: ceil(total / n) * n, so every rank owns an equal
// PaddedGradCount / n slice and the tail rank's slice is zero-padded. The
// trainer's initial geometry, the elastic post-shrink re-plan, and the
// checkpoint reshard helpers (src/model/checkpoint.h) all route through
// this one definition so their layouts can never drift apart.
inline int64_t PaddedGradCount(int64_t total_elems, int n) {
  return (total_elems + n - 1) / n * n;
}

// Reduces `grads` (count floats, identical layout on every rank) across the
// group; returns this rank's shard (count / n floats, count must divide).
// The reduction is a plain sum (callers average by pre-scaling).
std::vector<float> SyncGradShard(Communicator& comm, int rank, const float* grads,
                                 int64_t count, GradSyncMode mode);

// Allocation-free variant for the hot step loop: writes the shard into
// `shard_out` (count / n floats, caller-owned) and stages the BF16 wire
// copies in the calling thread's workspace, so a steady-state step acquires
// no fresh memory.
void SyncGradShardInto(Communicator& comm, int rank, const float* grads, int64_t count,
                       GradSyncMode mode, float* shard_out);

// Wire bytes each mode moves for `count` FP32 gradients on n ranks (per
// rank-pair volume, for the Fig 10 "50% reduction" claim).
int64_t GradSyncWireBytes(GradSyncMode mode, int64_t count, int n);

// In-place packing used by kBf16AllToAll: stores the BF16 codes of
// buffer[0..count) in the first count/2 float slots (two codes per float).
// UnpackBf16InPlace expands them back to floats. Round-trips exactly to
// BF16 precision while never growing the allocation.
void PackBf16InPlace(float* buffer, int64_t count);
void UnpackBf16InPlace(float* buffer, int64_t count);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_DP_GRAD_SYNC_H_
