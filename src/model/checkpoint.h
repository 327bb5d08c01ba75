// Binary checkpointing for model parameters and optimizer state.
//
// Production MoE runs last months and restart repeatedly (Fig 19); the
// checkpoint is the contract that makes restarts loss-transparent. Current
// format (version 2):
//   magic "MSMC" | u32 version=2 | u64 param_count | u64 opt_count
//   | u32 payload_crc32 | param_count floats | opt_count floats
// where payload_crc32 is the CRC-32 (src/base/crc32) of the concatenated
// parameter and optimizer float payloads, so torn or bit-flipped writes are
// detected at load time, not three weeks later as a diverged loss curve.
// Version-1 files (identical layout minus the CRC word) still load — long
// runs carry checkpoints across software upgrades.
//
// The trainer (src/core/trainer) writes its ZeRO-1 state unsharded, so a
// file loads onto any world size: the parameters are the gathered copy every
// rank computes on, and the optimizer blob is [step, masters, m, v] — the
// Adam step count, then the FP32 master values and the two Adam moments,
// each `param_count` floats in parameter order. A loading run slices each of
// the three with ShardOfFlat at its own world size.
//
// SaveCheckpoint is crash-safe: it writes to "<path>.tmp" and atomically
// renames over the destination, so a job killed mid-save leaves the
// previous checkpoint intact (never a half-written file at `path`).
//
// Errors (missing file, bad magic, truncation, CRC or size mismatch)
// surface as Status — a corrupt checkpoint must never silently load.
#ifndef MSMOE_SRC_MODEL_CHECKPOINT_H_
#define MSMOE_SRC_MODEL_CHECKPOINT_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/model/lm.h"

namespace msmoe {

struct Checkpoint {
  std::vector<float> params;
  std::vector<float> optimizer_state;
};

// Writes params (flattened in ForEach order) and the optimizer blob.
Status SaveCheckpoint(const std::string& path, const LmParams& params,
                      const std::vector<float>& optimizer_state);

// Reads and validates a checkpoint file.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

// Copies a flat parameter blob back into params; fails on element-count
// mismatch (e.g. the checkpoint belongs to a different model config).
Status RestoreParams(LmParams& params, const std::vector<float>& blob);

// Flattens params in ForEach order (the SaveCheckpoint layout).
std::vector<float> FlattenParams(const LmParams& params);

// --- World-size-crossing resharding (elastic recovery) ---------------------
//
// ZeRO-1 shards a flat `total` - element state across `world` ranks with
// zero-padding to a multiple of `world` (see src/parallel/dp_grad_sync.h).
// These helpers move such state between world sizes: state saved at W ranks
// restores onto W-k survivors after an elastic shrink, and back onto W+k
// after a re-grow. All are pure functions of their inputs — resharding the
// same state to any world size and gathering it back is bitwise lossless
// (the padding is always zero and always trimmed).

// Padded per-world flat length: ceil(total / world) * world.
int64_t PaddedShardElems(int64_t total_elems, int world);

// Rank `rank`'s shard of a full `total_elems` blob under `world`-way
// sharding: elements [rank*S, (rank+1)*S) of the zero-padded blob, where
// S = PaddedShardElems / world. The tail shard is zero-padded.
std::vector<float> ShardOfFlat(const std::vector<float>& full, int64_t total_elems,
                               int world, int rank);

// Inverse of ShardOfFlat over all ranks: concatenates the shards and trims
// the padding back to `total_elems`. Shard sizes must be equal; fails on a
// layout mismatch.
Result<std::vector<float>> GatherFlatFromShards(
    const std::vector<std::vector<float>>& shards, int64_t total_elems);

// Reshards from one world size to another: gather + re-slice. shards.size()
// is the source world; returns `to_world` shards.
Result<std::vector<std::vector<float>>> ReshardFlatState(
    const std::vector<std::vector<float>>& shards, int64_t total_elems,
    int to_world);

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_CHECKPOINT_H_
