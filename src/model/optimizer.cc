#include "src/model/optimizer.h"

#include <cmath>

#include "src/base/logging.h"

namespace msmoe {
namespace {

// One loop per weight-decay setting keeps the body branch-free; with
// -fno-math-errno on this file (src/model/CMakeLists.txt) std::sqrt needs no
// errno side path, so GCC vectorizes it. Vector lanes round each IEEE double
// op exactly as scalar code does, so vectorizing changes no bits.
template <bool kWeightDecay>
void AdamUpdateLoop(const AdamConfig& config, double bias1, double bias2, double clip_scale,
                    int64_t n, const float* __restrict grad, float* __restrict param,
                    float* __restrict m, float* __restrict v) {
  const double beta1 = config.beta1;
  const double beta2 = config.beta2;
  const double eps = config.eps;
  const double lr = config.lr;
  const double weight_decay = config.weight_decay;
  for (int64_t i = 0; i < n; ++i) {
    const double g = static_cast<double>(grad[i]) * clip_scale;
    m[i] = static_cast<float>(beta1 * m[i] + (1.0 - beta1) * g);
    v[i] = static_cast<float>(beta2 * v[i] + (1.0 - beta2) * g * g);
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    double update = m_hat / (std::sqrt(v_hat) + eps);
    if (kWeightDecay) {
      update += weight_decay * param[i];
    }
    param[i] = static_cast<float>(param[i] - lr * update);
  }
}

}  // namespace

void AdamUpdate(const AdamConfig& config, int64_t step, double clip_scale, int64_t n,
                const float* grad, float* param, float* m, float* v) {
  const double bias1 = 1.0 - std::pow(config.beta1, static_cast<double>(step));
  const double bias2 = 1.0 - std::pow(config.beta2, static_cast<double>(step));
  if (config.weight_decay > 0.0) {
    AdamUpdateLoop<true>(config, bias1, bias2, clip_scale, n, grad, param, m, v);
  } else {
    AdamUpdateLoop<false>(config, bias1, bias2, clip_scale, n, grad, param, m, v);
  }
}

void AdamOptimizer::Register(Tensor* param) {
  MSMOE_CHECK(param != nullptr);
  MSMOE_CHECK_EQ(step_, 0) << "cannot register params after stepping";
  params_.push_back(param);
  m_.emplace_back(param->shape());
  v_.emplace_back(param->shape());
}

void AdamOptimizer::Step(const std::vector<const Tensor*>& grads) {
  MSMOE_CHECK_EQ(grads.size(), params_.size());
  ++step_;

  double clip_scale = 1.0;
  if (config_.grad_clip_norm > 0.0) {
    double norm_sq = 0.0;
    for (const Tensor* grad : grads) {
      for (int64_t i = 0; i < grad->numel(); ++i) {
        norm_sq += static_cast<double>((*grad)[i]) * (*grad)[i];
      }
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > config_.grad_clip_norm) {
      clip_scale = config_.grad_clip_norm / norm;
    }
  }

  for (size_t p = 0; p < params_.size(); ++p) {
    Tensor& param = *params_[p];
    const Tensor& grad = *grads[p];
    MSMOE_CHECK(SameShape(param, grad));
    AdamUpdate(config_, step_, clip_scale, param.numel(), grad.data(), param.data(),
               m_[p].data(), v_[p].data());
  }
}

std::vector<float> AdamOptimizer::SaveState() const {
  std::vector<float> blob;
  blob.push_back(static_cast<float>(step_));
  for (size_t p = 0; p < params_.size(); ++p) {
    for (int64_t i = 0; i < m_[p].numel(); ++i) {
      blob.push_back(m_[p][i]);
    }
    for (int64_t i = 0; i < v_[p].numel(); ++i) {
      blob.push_back(v_[p][i]);
    }
  }
  return blob;
}

void AdamOptimizer::LoadState(const std::vector<float>& blob) {
  MSMOE_CHECK(!blob.empty());
  step_ = static_cast<int64_t>(blob[0]);
  size_t cursor = 1;
  for (size_t p = 0; p < params_.size(); ++p) {
    for (int64_t i = 0; i < m_[p].numel(); ++i) {
      m_[p][i] = blob[cursor++];
    }
    for (int64_t i = 0; i < v_[p].numel(); ++i) {
      v_[p][i] = blob[cursor++];
    }
  }
  MSMOE_CHECK_EQ(cursor, blob.size());
}

}  // namespace msmoe
