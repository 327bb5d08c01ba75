#include "src/model/lm.h"

#include "src/base/logging.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {

LmParams LmParams::Init(const ModelConfig& config, Rng& rng) {
  LmParams params;
  params.embedding = Tensor::Randn({config.vocab, config.hidden}, rng, 0.0f, 0.02f);
  for (int64_t l = 0; l < config.num_layers; ++l) {
    params.layers.push_back(MoeLayerParams::Init(config, rng));
  }
  params.final_gain = Tensor::Full({config.hidden}, 1.0f);
  params.lm_head = Tensor::Randn({config.hidden, config.vocab}, rng, 0.0f, 0.02f);
  return params;
}

LmParams LmParams::ZerosLike(const ModelConfig& config) {
  LmParams params;
  params.embedding = Tensor::Zeros({config.vocab, config.hidden});
  for (int64_t l = 0; l < config.num_layers; ++l) {
    params.layers.push_back(MoeLayerParams::ZerosLike(config));
  }
  params.final_gain = Tensor::Zeros({config.hidden});
  params.lm_head = Tensor::Zeros({config.hidden, config.vocab});
  return params;
}

void LmParams::ForEach(const std::function<void(const std::string&, Tensor&)>& fn) {
  fn("embedding", embedding);
  for (size_t l = 0; l < layers.size(); ++l) {
    const std::string prefix = "layer." + std::to_string(l) + ".";
    layers[l].ForEach([&fn, &prefix](const std::string& name, Tensor& tensor) {
      fn(prefix + name, tensor);
    });
  }
  fn("final_gain", final_gain);
  fn("lm_head", lm_head);
}

void LmParams::ForEachConst(
    const std::function<void(const std::string&, const Tensor&)>& fn) const {
  const_cast<LmParams*>(this)->ForEach(
      [&fn](const std::string& name, Tensor& tensor) { fn(name, tensor); });
}

std::vector<Tensor*> LmParams::TensorList() {
  std::vector<Tensor*> list;
  ForEach([&list](const std::string&, Tensor& tensor) { list.push_back(&tensor); });
  return list;
}

std::vector<const Tensor*> LmParams::TensorListConst() const {
  std::vector<const Tensor*> list;
  ForEachConst(
      [&list](const std::string&, const Tensor& tensor) { list.push_back(&tensor); });
  return list;
}

int64_t LmParams::TotalElements() const {
  int64_t total = 0;
  ForEachConst([&total](const std::string&, const Tensor& tensor) { total += tensor.numel(); });
  return total;
}

void LmParams::Accumulate(const LmParams& other) {
  embedding.AddInPlace(other.embedding);
  for (size_t l = 0; l < layers.size(); ++l) {
    layers[l].Accumulate(other.layers[l]);
  }
  final_gain.AddInPlace(other.final_gain);
  lm_head.AddInPlace(other.lm_head);
}

void LmParams::Scale(float factor) {
  ForEach([factor](const std::string&, Tensor& tensor) { tensor.ScaleInPlace(factor); });
}

namespace {

Tensor EmbedTokens(const Tensor& embedding, const std::vector<int64_t>& ids) {
  const int64_t hidden = embedding.dim(1);
  Tensor out({static_cast<int64_t>(ids.size()), hidden});
  for (size_t t = 0; t < ids.size(); ++t) {
    MSMOE_CHECK_GE(ids[t], 0);
    MSMOE_CHECK_LT(ids[t], embedding.dim(0));
    std::copy(embedding.data() + ids[t] * hidden, embedding.data() + (ids[t] + 1) * hidden,
              out.data() + static_cast<int64_t>(t) * hidden);
  }
  return out;
}

}  // namespace

LmStepStats LmForwardBackward(const LmParams& params, const ModelConfig& config,
                              const RouterConfig& router,
                              const std::vector<int64_t>& input_ids,
                              const std::vector<int64_t>& target_ids, int64_t batch,
                              LmParams* grads,
                              const ActivationTransform& activation_transform) {
  MSMOE_CHECK_EQ(input_ids.size(), target_ids.size());
  MSMOE_CHECK_EQ(params.layers.size(), static_cast<size_t>(config.num_layers));
  const int64_t tokens = static_cast<int64_t>(input_ids.size());

  // Forward.
  Tensor hidden = EmbedTokens(params.embedding, input_ids);
  std::vector<MoeLayerCache> caches(static_cast<size_t>(config.num_layers));
  LmStepStats stats;
  for (int64_t l = 0; l < config.num_layers; ++l) {
    hidden = MoeLayerForward(params.layers[static_cast<size_t>(l)], config, router, hidden,
                             batch, &caches[static_cast<size_t>(l)]);
    stats.aux_loss += caches[static_cast<size_t>(l)].routing.aux_loss;
    if (activation_transform) {
      activation_transform(hidden);
    }
  }
  Tensor final_inv_rms;
  Tensor normed = RmsNorm(hidden, params.final_gain, &final_inv_rms);
  Tensor logits = MatMul(normed, params.lm_head);
  CrossEntropyResult ce = CrossEntropy(logits, target_ids);
  stats.ce_loss = ce.mean_loss;

  // Backward.
  MatMulGrads head_grads = MatMulBackward(ce.dlogits, normed, params.lm_head);
  grads->lm_head.AddInPlace(head_grads.db);
  RmsNormGrads final_norm_grads =
      RmsNormBackward(head_grads.da, hidden, params.final_gain, final_inv_rms);
  grads->final_gain.AddInPlace(final_norm_grads.dgain);

  Tensor dhidden = std::move(final_norm_grads.dx);
  for (int64_t l = config.num_layers - 1; l >= 0; --l) {
    MoeLayerGrads layer_grads =
        MoeLayerBackward(params.layers[static_cast<size_t>(l)], config, router,
                         caches[static_cast<size_t>(l)], dhidden, batch);
    grads->layers[static_cast<size_t>(l)].Accumulate(layer_grads.dparams);
    dhidden = std::move(layer_grads.dhidden);
  }

  // Embedding backward: scatter-add rows.
  const int64_t h = config.hidden;
  for (int64_t t = 0; t < tokens; ++t) {
    const int64_t id = input_ids[static_cast<size_t>(t)];
    float* dst = grads->embedding.data() + id * h;
    const float* src = dhidden.data() + t * h;
    for (int64_t c = 0; c < h; ++c) {
      dst[c] += src[c];
    }
  }
  return stats;
}

double LmForwardLoss(const LmParams& params, const ModelConfig& config,
                     const RouterConfig& router, const std::vector<int64_t>& input_ids,
                     const std::vector<int64_t>& target_ids, int64_t batch,
                     const ActivationTransform& activation_transform) {
  Tensor hidden = EmbedTokens(params.embedding, input_ids);
  MoeLayerCache cache;
  for (int64_t l = 0; l < config.num_layers; ++l) {
    hidden = MoeLayerForward(params.layers[static_cast<size_t>(l)], config, router, hidden,
                             batch, &cache);
    if (activation_transform) {
      activation_transform(hidden);
    }
  }
  Tensor final_inv_rms;
  Tensor normed = RmsNorm(hidden, params.final_gain, &final_inv_rms);
  Tensor logits = MatMul(normed, params.lm_head);
  return CrossEntropy(logits, target_ids).mean_loss;
}

}  // namespace msmoe
