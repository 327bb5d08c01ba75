#include "src/model/flat_adam.h"

#include "src/base/logging.h"

namespace msmoe {

FlatAdam::FlatAdam(AdamConfig config, int64_t shard_elems)
    : config_(config), shard_elems_(shard_elems) {
  MSMOE_CHECK_GE(shard_elems, 0);
  m_.assign(static_cast<size_t>(shard_elems), 0.0f);
  v_.assign(static_cast<size_t>(shard_elems), 0.0f);
}

void FlatAdam::Step(const float* grad, float* master, double clip_scale) {
  ++step_;
  AdamUpdate(config_, step_, clip_scale, shard_elems_, grad, master, m_.data(), v_.data());
}

std::vector<float> FlatAdam::SaveState() const {
  std::vector<float> blob;
  blob.reserve(1 + m_.size() + v_.size());
  blob.push_back(static_cast<float>(step_));
  blob.insert(blob.end(), m_.begin(), m_.end());
  blob.insert(blob.end(), v_.begin(), v_.end());
  return blob;
}

void FlatAdam::LoadState(const std::vector<float>& blob) {
  MSMOE_CHECK_EQ(blob.size(), 1 + m_.size() + v_.size());
  step_ = static_cast<int64_t>(blob[0]);
  std::copy(blob.begin() + 1, blob.begin() + 1 + static_cast<int64_t>(m_.size()), m_.begin());
  std::copy(blob.begin() + 1 + static_cast<int64_t>(m_.size()), blob.end(), v_.begin());
}

}  // namespace msmoe
