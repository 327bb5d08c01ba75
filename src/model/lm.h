// Small MoE language model: embedding -> MoE layers -> final RMSNorm ->
// LM head -> cross entropy. Used by the convergence experiments (Figs 17,
// 18, 19) and the examples; the simulator handles the full-size models.
#ifndef MSMOE_SRC_MODEL_LM_H_
#define MSMOE_SRC_MODEL_LM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/model/config.h"
#include "src/model/moe_layer.h"
#include "src/model/router.h"
#include "src/tensor/tensor.h"

namespace msmoe {

struct LmParams {
  Tensor embedding;                 // [V, h]
  std::vector<MoeLayerParams> layers;
  Tensor final_gain;                // [h]
  Tensor lm_head;                   // [h, V]

  static LmParams Init(const ModelConfig& config, Rng& rng);
  static LmParams ZerosLike(const ModelConfig& config);

  void ForEach(const std::function<void(const std::string&, Tensor&)>& fn);
  void ForEachConst(const std::function<void(const std::string&, const Tensor&)>& fn) const;
  // Pointers in ForEach order (for optimizer registration / grad lists).
  std::vector<Tensor*> TensorList();
  std::vector<const Tensor*> TensorListConst() const;

  int64_t TotalElements() const;
  void Accumulate(const LmParams& other);
  void Scale(float factor);
};

struct LmStepStats {
  double ce_loss = 0.0;
  double aux_loss = 0.0;
  double total_loss() const { return ce_loss + aux_loss; }
};

// Optional transform applied to the hidden states between layers in the
// forward pass (straight-through in backward). Used to emulate low-precision
// activation flows, e.g. FP8 per-token quantization (§7).
using ActivationTransform = std::function<void(Tensor&)>;

// Full forward + backward over `batch` sequences packed as token ids
// [batch * seq_len]; targets are the next-token ids, same layout. Gradients
// of the mean loss (CE + aux) are accumulated into *grads (caller zeroes or
// chains micro-batches for gradient accumulation).
LmStepStats LmForwardBackward(const LmParams& params, const ModelConfig& config,
                              const RouterConfig& router,
                              const std::vector<int64_t>& input_ids,
                              const std::vector<int64_t>& target_ids, int64_t batch,
                              LmParams* grads,
                              const ActivationTransform& activation_transform = nullptr);

// Forward only; returns mean CE loss (for eval).
double LmForwardLoss(const LmParams& params, const ModelConfig& config,
                     const RouterConfig& router, const std::vector<int64_t>& input_ids,
                     const std::vector<int64_t>& target_ids, int64_t batch,
                     const ActivationTransform& activation_transform = nullptr);

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_LM_H_
