// Replicated-optimizer oracle for TrainLm's ZeRO-1 step (src/core/trainer).
// Every "rank" here is a loop iteration on one thread holding the full FP32
// parameters and the full Adam state: per step it runs each rank's batch
// through LmForwardBackward on the rounded compute copy, sums the flattened
// gradients element by element in the order of the configured wire, divides
// by dp, and calls AdamOptimizer::Step. The per-element order of each sum:
//   kFp32ReduceScatter  rank-ordered double sum from +0.0 of the FP32 values
//                       (CollectiveGroup::SumSendSlots);
//   kBf16AllToAll       the same over the BF16-rounded values;
//   kBf16RingReduce     the BF16-rounded values folded in ring order from
//                       the owner's successor, re-rounding every partial.
// With clipping on, the gradient norm is the rank-ordered sum of each ZeRO
// shard's sum of squares (DESIGN.md §4), so the oracle forms it that way
// and hands AdamOptimizer the scale. Covers param_gather_precision kFp32,
// warmup steps and accumulation; restarts are state round trips, so the
// oracle ignores restart_every. No faults, files or elastic worlds.
#ifndef MSMOE_TESTS_REFERENCE_TRAINER_H_
#define MSMOE_TESTS_REFERENCE_TRAINER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/core/trainer.h"
#include "src/model/checkpoint.h"
#include "src/model/lm.h"
#include "src/model/optimizer.h"
#include "src/numerics/bf16.h"
#include "src/numerics/fp8.h"

namespace msmoe {

// Rank 0's CE loss per step of `config`, trained with replicated state.
inline std::vector<double> ReferenceTrainLoss(const NumericTrainConfig& config) {
  MSMOE_CHECK(config.param_gather_precision == TrainPrecision::kFp32);
  const int dp = config.dp_size;
  Rng rng(config.seed);
  LmParams params = LmParams::Init(config.model, rng);
  AdamOptimizer adam(config.adam);
  for (Tensor* tensor : params.TensorList()) {
    adam.Register(tensor);
  }
  const int64_t total = params.TotalElements();
  const int64_t padded = PaddedGradCount(total, dp);
  const int64_t shard = padded / dp;
  const int64_t accum = std::max<int64_t>(1, config.grad_accum_steps);
  const ActivationTransform per_token_fp8 = [](Tensor& hidden) {
    const int64_t cols = hidden.dim(1);
    for (int64_t r = 0; r < hidden.dim(0); ++r) {
      float* row = hidden.data() + r * cols;
      float amax = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        amax = std::max(amax, std::fabs(row[c]));
      }
      const float scale = amax > 0.0f ? amax / Fp8MaxFinite(Fp8Format::kE4M3) : 1.0f;
      for (int64_t c = 0; c < cols; ++c) {
        row[c] = Fp8RoundE4M3(row[c] / scale) * scale;
      }
    }
  };

  const auto run_step = [&](int64_t step) {
    LmParams compute = params;
    RoundParams(compute, config.precision);
    std::vector<std::vector<float>> rank_grads(static_cast<size_t>(dp));
    double rank0_loss = 0.0;
    for (int rank = 0; rank < dp; ++rank) {
      LmParams grads = LmParams::ZerosLike(config.model);
      double loss = 0.0;
      for (int64_t micro = 0; micro < accum; ++micro) {
        std::vector<int64_t> inputs;
        std::vector<int64_t> targets;
        MakeTrainingBatch(config.model, config.seed, step * accum + micro, rank,
                          config.batch_per_rank, &inputs, &targets);
        loss += LmForwardBackward(compute, config.model, config.router, inputs, targets,
                                  config.batch_per_rank, &grads,
                                  config.precision == TrainPrecision::kFp8 ? per_token_fp8
                                                                           : nullptr)
                    .ce_loss /
                static_cast<double>(accum);
      }
      if (accum > 1) {
        grads.Scale(1.0f / static_cast<float>(accum));
      }
      std::vector<float> flat = FlattenParams(grads);
      flat.resize(static_cast<size_t>(padded), 0.0f);
      rank_grads[static_cast<size_t>(rank)] = std::move(flat);
      if (rank == 0) {
        rank0_loss = loss;
      }
    }
    const auto wire = [&](int rank, int64_t i) {
      const float value = rank_grads[static_cast<size_t>(rank)][static_cast<size_t>(i)];
      return config.grad_sync == GradSyncMode::kFp32ReduceScatter ? value
                                                                   : Bf16Round(value);
    };
    std::vector<float> mean(static_cast<size_t>(padded));
    for (int64_t i = 0; i < padded; ++i) {
      float sum = 0.0f;
      if (config.grad_sync == GradSyncMode::kBf16RingReduce) {
        const int owner = static_cast<int>(i / shard);
        sum = wire((owner + 1) % dp, i);
        for (int hop = 2; hop <= dp; ++hop) {
          sum = Bf16Round(sum + wire((owner + hop) % dp, i));
        }
      } else {
        double acc = 0.0;
        for (int rank = 0; rank < dp; ++rank) {
          acc += static_cast<double>(wire(rank, i));
        }
        sum = static_cast<float>(acc);
      }
      mean[static_cast<size_t>(i)] = sum / static_cast<float>(dp);
    }
    double norm_sq = 0.0;
    for (int rank = 0; rank < dp; ++rank) {
      double partial = 0.0;
      for (int64_t i = rank * shard; i < (rank + 1) * shard; ++i) {
        partial += static_cast<double>(mean[static_cast<size_t>(i)]) *
                   mean[static_cast<size_t>(i)];
      }
      norm_sq += partial;
    }
    LmParams grads = LmParams::ZerosLike(config.model);
    mean.resize(static_cast<size_t>(total));
    MSMOE_CHECK(RestoreParams(grads, mean).ok());
    adam.Step(grads.TensorListConst(), AdamClipScale(config.adam, norm_sq));
    return rank0_loss;
  };

  for (int64_t step = 0; step < config.warmup_steps; ++step) {
    run_step(-config.warmup_steps + step - 1000000);
  }
  std::vector<double> loss(static_cast<size_t>(config.steps));
  for (int64_t step = 0; step < config.steps; ++step) {
    loss[static_cast<size_t>(step)] = run_step(step);
  }
  return loss;
}

}  // namespace msmoe

#endif  // MSMOE_TESTS_REFERENCE_TRAINER_H_
