// Adam(W) optimizer with FP32 master state.
//
// Mirrors the paper's mixed-precision setup: parameters handed to the
// optimizer are the FP32 master copies; lower-precision compute copies are
// produced by the trainer's precision policy (src/core/trainer) before each
// forward pass, and gradients are accumulated/applied in FP32 (§5).
#ifndef MSMOE_SRC_MODEL_OPTIMIZER_H_
#define MSMOE_SRC_MODEL_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace msmoe {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.95;
  double eps = 1e-8;
  double weight_decay = 0.0;
  // Clip gradients to this global L2 norm; 0 disables clipping.
  double grad_clip_norm = 0.0;
};

// The per-element Adam(W) update behind AdamOptimizer and FlatAdam: advances
// m, v and param over [0, n) by one step (`step` is 1-based) on
// grad * clip_scale, in double precision per element. The four arrays must
// not overlap. The loop vectorizes (AVX2 where the CPU has it, chosen at run
// time) and splits into element ranges across the calling thread's
// ParallelFor team without changing any element's bits.
void AdamUpdate(const AdamConfig& config, int64_t step, double clip_scale, int64_t n,
                const float* grad, float* param, float* m, float* v);

// True when AdamUpdate runs its AVX2 build on this machine.
bool AdamUpdateUsesAvx2();

// The gradient scale of global-norm clipping: grad_clip_norm / norm when
// clipping is on and the norm sqrt(norm_sq) exceeds it, else 1.
double AdamClipScale(const AdamConfig& config, double norm_sq);

class AdamOptimizer {
 public:
  explicit AdamOptimizer(AdamConfig config) : config_(config) {}

  // Registers a parameter; state (m, v) is allocated lazily on first Step.
  // Parameters must be registered in a stable order and outlive the optimizer.
  void Register(Tensor* param);

  // Applies one update. grads must align one-to-one with registered params.
  // Clipping uses the norm of all of grads, summed tensor by tensor in
  // element order.
  void Step(const std::vector<const Tensor*>& grads);
  // Applies one update on grads * clip_scale, for a caller that formed the
  // clip scale itself (e.g. from a norm summed across shards).
  void Step(const std::vector<const Tensor*>& grads, double clip_scale);

  int64_t step_count() const { return step_; }
  const AdamConfig& config() const { return config_; }
  void set_lr(double lr) { config_.lr = lr; }

  // Serializes (m, v, step) so training can restart from a checkpoint
  // (exercised by the Fig 19 production-run reproduction).
  std::vector<float> SaveState() const;
  void LoadState(const std::vector<float>& blob);

 private:
  AdamConfig config_;
  std::vector<Tensor*> params_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  int64_t step_ = 0;
};

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_OPTIMIZER_H_
