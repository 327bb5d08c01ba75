// Adam over a flat float shard — the per-rank piece of a ZeRO-1 sharded
// optimizer (§2.2, §4.1): each DP rank owns 1/dp of the flattened parameter
// space, keeps FP32 master values and Adam moments for that shard only, and
// re-gathers parameters after each update.
#ifndef MSMOE_SRC_MODEL_FLAT_ADAM_H_
#define MSMOE_SRC_MODEL_FLAT_ADAM_H_

#include <cstdint>
#include <vector>

#include "src/model/optimizer.h"

namespace msmoe {

class FlatAdam {
 public:
  FlatAdam(AdamConfig config, int64_t shard_elems);

  // One update of the local shard on grad * clip_scale: master[i] -=
  // lr * adam(grad[i] * clip_scale). `grad` and `master` hold shard_elems
  // floats. Clipping is global, so the caller forms clip_scale from the
  // whole gradient's norm (AdamClipScale over the shards' partial sums);
  // FlatAdam reads no grad_clip_norm itself.
  void Step(const float* grad, float* master, double clip_scale);

  int64_t step_count() const { return step_; }
  int64_t shard_elems() const { return shard_elems_; }

  std::vector<float> SaveState() const;
  void LoadState(const std::vector<float>& blob);

 private:
  AdamConfig config_;
  int64_t shard_elems_;
  std::vector<float> m_;
  std::vector<float> v_;
  int64_t step_ = 0;
};

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_FLAT_ADAM_H_
