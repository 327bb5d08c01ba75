#include "src/model/optimizer.h"

#include <cmath>

#include "src/base/logging.h"
#include "src/base/parallel_for.h"

namespace msmoe {
namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MSMOE_ADAM_X86 1
#else
#define MSMOE_ADAM_X86 0
#endif

// One loop per weight-decay setting keeps the body branch-free; with
// -fno-math-errno on this file (src/model/CMakeLists.txt) std::sqrt needs no
// errno side path, so GCC vectorizes it. Vector lanes round each IEEE double
// op (and each float<->double cast) exactly as scalar code does, so the
// vector width changes no bits. No build enables FMA here: with GCC's
// default -ffp-contract=fast it would fuse the moment updates.
template <bool kWeightDecay>
[[gnu::always_inline]] inline void AdamUpdateLoop(const AdamConfig& config, double bias1,
                                                  double bias2, double clip_scale, int64_t n,
                                                  const float* __restrict grad,
                                                  float* __restrict param,
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

using AdamLoopFn = void (*)(const AdamConfig&, double, double, double, int64_t, const float*,
                            float*, float*, float*);

// The baseline build (SSE2 on x86-64).
template <bool kWeightDecay>
void AdamUpdateBaseline(const AdamConfig& config, double bias1, double bias2,
                        double clip_scale, int64_t n, const float* grad, float* param,
                        float* m, float* v) {
  AdamUpdateLoop<kWeightDecay>(config, bias1, bias2, clip_scale, n, grad, param, m, v);
}

#if MSMOE_ADAM_X86
// Four double lanes instead of two; the loop is bound by the divider.
template <bool kWeightDecay>
__attribute__((target("avx2"))) void AdamUpdateAvx2(const AdamConfig& config, double bias1,
                                                    double bias2, double clip_scale,
                                                    int64_t n, const float* grad,
                                                    float* param, float* m, float* v) {
  AdamUpdateLoop<kWeightDecay>(config, bias1, bias2, clip_scale, n, grad, param, m, v);
}
#endif

// [weight decay off, on], chosen once per process like the GEMM microkernel.
struct AdamLoops {
  AdamLoopFn loop[2];
  bool avx2;
};

const AdamLoops& ChosenAdamLoops() {
  static const AdamLoops loops = [] {
#if MSMOE_ADAM_X86
    if (__builtin_cpu_supports("avx2")) {
      return AdamLoops{{&AdamUpdateAvx2<false>, &AdamUpdateAvx2<true>}, true};
    }
#endif
    return AdamLoops{{&AdamUpdateBaseline<false>, &AdamUpdateBaseline<true>}, false};
  }();
  return loops;
}

// Elements per Adam shard: the update costs ~4 ns an element.
constexpr int64_t kAdamGrain = GrainForCost(4.0);

}  // namespace

void AdamUpdate(const AdamConfig& config, int64_t step, double clip_scale, int64_t n,
                const float* grad, float* param, float* m, float* v) {
  const double bias1 = 1.0 - std::pow(config.beta1, static_cast<double>(step));
  const double bias2 = 1.0 - std::pow(config.beta2, static_cast<double>(step));
  const AdamLoopFn loop = ChosenAdamLoops().loop[config.weight_decay > 0.0 ? 1 : 0];
  ParallelFor(n, kAdamGrain, [&](int64_t begin, int64_t end) {
    loop(config, bias1, bias2, clip_scale, end - begin, grad + begin, param + begin,
         m + begin, v + begin);
  });
}

bool AdamUpdateUsesAvx2() { return ChosenAdamLoops().avx2; }

double AdamClipScale(const AdamConfig& config, double norm_sq) {
  if (config.grad_clip_norm <= 0.0) {
    return 1.0;
  }
  const double norm = std::sqrt(norm_sq);
  return norm > config.grad_clip_norm ? config.grad_clip_norm / norm : 1.0;
}

void AdamOptimizer::Register(Tensor* param) {
  MSMOE_CHECK(param != nullptr);
  MSMOE_CHECK_EQ(step_, 0) << "cannot register params after stepping";
  params_.push_back(param);
  m_.emplace_back(param->shape());
  v_.emplace_back(param->shape());
}

void AdamOptimizer::Step(const std::vector<const Tensor*>& grads) {
  double norm_sq = 0.0;
  if (config_.grad_clip_norm > 0.0) {
    for (const Tensor* grad : grads) {
      for (int64_t i = 0; i < grad->numel(); ++i) {
        norm_sq += static_cast<double>((*grad)[i]) * (*grad)[i];
      }
    }
  }
  Step(grads, AdamClipScale(config_, norm_sq));
}

void AdamOptimizer::Step(const std::vector<const Tensor*>& grads, double clip_scale) {
  MSMOE_CHECK_EQ(grads.size(), params_.size());
  ++step_;
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
