#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "src/base/arena.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/core/trainer.h"
#include "src/model/checkpoint.h"
#include "src/model/flat_adam.h"
#include "tests/reference_trainer.h"
#include "tests/worker_widths.h"

namespace msmoe {
namespace {

NumericTrainConfig SmallConfig() {
  NumericTrainConfig config;
  config.model = TinyMoeConfig(4, 2);
  config.model.num_layers = 1;
  config.model.vocab = 32;
  config.model.seq_len = 8;
  config.router.num_experts = 4;
  config.router.top_k = 2;
  config.dp_size = 2;
  config.batch_per_rank = 1;
  config.steps = 10;
  config.adam.lr = 3e-3;
  config.precision = TrainPrecision::kFp32;
  return config;
}

TEST(FlatAdamTest, MatchesTensorAdamOnSameProblem) {
  // FlatAdam over a flat buffer must produce the same trajectory as the
  // tensor Adam on identical gradients.
  AdamConfig adam_config;
  adam_config.lr = 0.05;
  Tensor x = Tensor::Full({6}, 2.0f);
  AdamOptimizer tensor_adam(adam_config);
  tensor_adam.Register(&x);
  FlatAdam flat_adam(adam_config, 6);
  std::vector<float> flat(6, 2.0f);
  Rng rng(9);
  for (int step = 0; step < 25; ++step) {
    Tensor grad({6});
    for (int64_t i = 0; i < 6; ++i) {
      grad[i] = static_cast<float>(rng.NextGaussian());
    }
    tensor_adam.Step({&grad});
    flat_adam.Step(grad.data(), flat.data(), 1.0);
    for (int64_t i = 0; i < 6; ++i) {
      EXPECT_FLOAT_EQ(flat[static_cast<size_t>(i)], x[i]) << step << " " << i;
    }
  }
}

TEST(FlatAdamTest, SaveLoadRoundTrip) {
  AdamConfig config;
  FlatAdam adam(config, 4);
  std::vector<float> master(4, 1.0f);
  std::vector<float> grad = {0.1f, -0.2f, 0.3f, 0.4f};
  adam.Step(grad.data(), master.data(), 1.0);
  const std::vector<float> state = adam.SaveState();

  FlatAdam fresh(config, 4);
  fresh.LoadState(state);
  EXPECT_EQ(fresh.step_count(), 1);
  std::vector<float> master_a = master;
  std::vector<float> master_b = master;
  adam.Step(grad.data(), master_a.data(), 1.0);
  fresh.Step(grad.data(), master_b.data(), 1.0);
  EXPECT_EQ(master_a, master_b);
}

void ExpectSameLossBits(const std::vector<double>& want, const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
        << "step " << i << ": " << want[i] << " vs " << got[i];
  }
}

TEST(ZeroShardingTest, MatchesReplicatedOracleBitwise) {
  // The sharded step with an FP32 parameter gather is the replicated
  // optimizer, bit for bit (tests/reference_trainer.h), on every precision,
  // wire, world size and loop option the trainer has.
  struct Case {
    const char* name;
    void (*apply)(NumericTrainConfig&);
  };
  const Case cases[] = {
      {"fp32", [](NumericTrainConfig&) {}},
      {"bf16", [](NumericTrainConfig& c) { c.precision = TrainPrecision::kBf16; }},
      {"fp8", [](NumericTrainConfig& c) { c.precision = TrainPrecision::kFp8; }},
      {"bf16 all-to-all",
       [](NumericTrainConfig& c) {
         c.precision = TrainPrecision::kBf16;
         c.grad_sync = GradSyncMode::kBf16AllToAll;
       }},
      {"bf16 ring", [](NumericTrainConfig& c) { c.grad_sync = GradSyncMode::kBf16RingReduce; }},
      {"dp 1", [](NumericTrainConfig& c) { c.dp_size = 1; }},
      {"dp 3 (padded shards)",
       [](NumericTrainConfig& c) {
         c.dp_size = 3;
         c.grad_sync = GradSyncMode::kBf16RingReduce;
       }},
      {"accumulation 3", [](NumericTrainConfig& c) { c.grad_accum_steps = 3; }},
      {"warmup 5", [](NumericTrainConfig& c) { c.warmup_steps = 5; }},
      {"restart every 4", [](NumericTrainConfig& c) { c.restart_every = 4; }},
      {"weight decay", [](NumericTrainConfig& c) { c.adam.weight_decay = 0.1; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NumericTrainConfig config = SmallConfig();
    config.steps = 8;
    c.apply(config);
    ExpectSameLossBits(ReferenceTrainLoss(config), TrainLm(config).loss);
  }
}

TEST(ZeroShardingTest, GlobalNormClippingMatchesOracleBitwise) {
  // Clipping scales by the norm of the whole gradient: each shard's sum of
  // squares, summed in rank order, not the owner's shard alone.
  NumericTrainConfig config = SmallConfig();
  config.steps = 8;
  NumericTrainConfig clipped = config;
  clipped.adam.grad_clip_norm = 0.05;  // below every step's gradient norm
  const std::vector<double> loss = TrainLm(clipped).loss;
  ExpectSameLossBits(ReferenceTrainLoss(clipped), loss);
  EXPECT_NE(loss, TrainLm(config).loss) << "the clip never fired";
}

TEST(ZeroShardingTest, Bf16ParamGatherStillConverges) {
  NumericTrainConfig config = SmallConfig();
  config.param_gather_precision = TrainPrecision::kBf16;
  config.steps = 25;
  const TrainCurve curve = TrainLm(config);
  EXPECT_LT(curve.loss.back(), curve.loss.front());
}

TEST(ZeroShardingTest, Fp8ParamGatherTracksFp32) {
  // §7: storing FP8 parameters halves the all-gather; the loss must stay
  // close to the FP32-gather run.
  NumericTrainConfig fp32 = SmallConfig();
  fp32.steps = 20;
  NumericTrainConfig fp8 = fp32;
  fp8.param_gather_precision = TrainPrecision::kFp8;
  const TrainCurve a = TrainLm(fp32);
  const TrainCurve b = TrainLm(fp8);
  EXPECT_LT(b.loss.back(), b.loss.front());
  for (size_t i = 0; i < a.loss.size(); ++i) {
    EXPECT_NEAR(a.loss[i], b.loss[i], std::max(0.35, a.loss[i] * 0.12)) << i;
  }
}

TEST(ZeroShardingTest, LossCurveBitwiseAcrossWorkerCounts) {
  // The step benchmark's zero_dp step (stepbench/step_bench.cc): its model,
  // BF16 compute copy, BF16 all-to-all gradient sync and BF16 parameter
  // all-gather, so the loops split across each rank's team run at their
  // real sizes. Then the same step with an FP8 and an FP32 parameter
  // all-gather.
  NumericTrainConfig config;
  config.model = TinyMoeConfig(8, 2);
  config.model.num_layers = 2;
  config.model.hidden = 64;
  config.model.num_heads = 8;
  config.model.gqa_ratio = 2;
  config.model.ffn_hidden = 128;
  config.model.vocab = 256;
  config.model.seq_len = 64;
  config.router.num_experts = 8;
  config.router.top_k = 2;
  config.adam.lr = 4e-3;
  config.dp_size = 2;
  config.batch_per_rank = 4;
  config.steps = 5;
  config.precision = TrainPrecision::kBf16;
  config.grad_sync = GradSyncMode::kBf16AllToAll;
  config.param_gather_precision = TrainPrecision::kBf16;
  ExpectSameBitsAtWidths([&] { return TrainLm(config).loss; });
  config.param_gather_precision = TrainPrecision::kFp8;
  ExpectSameBitsAtWidths([&] { return TrainLm(config).loss; });
  config.param_gather_precision = TrainPrecision::kFp32;
  ExpectSameBitsAtWidths([&] { return TrainLm(config).loss; });
}

TEST(ZeroShardingTest, RestartsStillSeamless) {
  NumericTrainConfig smooth = SmallConfig();
  smooth.steps = 12;
  NumericTrainConfig restarted = smooth;
  restarted.restart_every = 4;
  const TrainCurve a = TrainLm(smooth);
  const TrainCurve b = TrainLm(restarted);
  ASSERT_FALSE(b.restart_steps.empty());
  for (size_t i = 0; i < a.loss.size(); ++i) {
    EXPECT_NEAR(a.loss[i], b.loss[i], 1e-9) << i;
  }
}

TEST(ZeroShardingTest, ReplicatedLayoutIsAConfigError) {
  // The replicated optimizer layout is gone; asking for it fails loudly
  // instead of quietly training sharded.
  NumericTrainConfig config = SmallConfig();
  EXPECT_TRUE(ValidateNumericTrainConfig(config).ok());
  config.zero_shard_optimizer = false;
  const Status status = ValidateNumericTrainConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("replicated"), std::string::npos);
}

TEST(GradAccumulationTest, LossRecordedAndConverges) {
  NumericTrainConfig config = SmallConfig();
  config.grad_accum_steps = 3;
  config.steps = 15;
  const TrainCurve curve = TrainLm(config);
  EXPECT_LT(curve.loss.back(), curve.loss.front());
}

TEST(GradAccumulationTest, AccumulationAveragesMicroBatches) {
  // With a deterministic task, accumulating A micro-batches must equal the
  // mean of their individual losses on the same parameters at step 0.
  NumericTrainConfig accum = SmallConfig();
  accum.grad_accum_steps = 2;
  accum.steps = 1;
  const TrainCurve curve = TrainLm(accum);

  // Recompute the two micro losses by hand with the same seeds.
  Rng rng(accum.seed);
  LmParams params = LmParams::Init(accum.model, rng);
  double expected = 0.0;
  for (int64_t micro = 0; micro < 2; ++micro) {
    std::vector<int64_t> inputs, targets;
    MakeTrainingBatch(accum.model, accum.seed, micro, /*rank=*/0, accum.batch_per_rank,
                      &inputs, &targets);
    LmParams grads = LmParams::ZerosLike(accum.model);
    expected += LmForwardBackward(params, accum.model, accum.router, inputs, targets,
                                  accum.batch_per_rank, &grads)
                    .ce_loss /
                2.0;
  }
  EXPECT_NEAR(curve.loss[0], expected, 1e-6);
}

TEST(MemorySteadyStateTest, SecondRunOfTrainerDoesZeroHeapAllocs) {
  // The zero-alloc gate (ISSUE 8): after a warm-up run has populated the
  // arena pool and the per-thread workspaces, a repeat of the identical
  // training loop must be served ENTIRELY from recycled blocks — not one
  // pool miss. dp=1 with a single ParallelFor worker keeps the allocation
  // sequence deterministic (multi-worker shard assignment is racy, so a
  // worker could see a shape it has not warmed up on; bench_memory reports
  // that case informationally instead of gating on it).
  NumericTrainConfig config = SmallConfig();
  config.model.num_layers = 2;
  config.dp_size = 1;
  config.steps = 4;
  const int prev_workers = ParallelWorkerCount();
  SetParallelWorkerCount(1);
  SetArenaPoolingEnabled(true);

  const TrainCurve warm = TrainLm(config);
  ResetMemStats();
  const TrainCurve repeat = TrainLm(config);
  const MemStatsSnapshot stats = GetMemStats();
  SetParallelWorkerCount(prev_workers);

  EXPECT_EQ(stats.heap_allocs, 0u)
      << "steady-state training step hit the system allocator; acquires="
      << stats.acquires << " pool_hits=" << stats.pool_hits;
  EXPECT_GT(stats.acquires, 0u);  // the gate measured real traffic
  EXPECT_EQ(stats.hit_rate(), 1.0);

  // Recycled (uninitialized) blocks must not leak into the numerics: the
  // repeat run's loss curve is bitwise identical to the warm-up's.
  ASSERT_EQ(warm.loss.size(), repeat.loss.size());
  for (size_t i = 0; i < warm.loss.size(); ++i) {
    EXPECT_EQ(warm.loss[i], repeat.loss[i]) << i;
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string(::testing::TempDir()) + "/msmoe_ckpt_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointTest, EveryRunWritesItsWholeUnshardedState) {
  // A fault-free run with a checkpoint path writes its initial snapshot:
  // the parameters and the [step, masters, m, v] blob, unsharded.
  NumericTrainConfig config = SmallConfig();
  config.steps = 2;
  config.checkpoint_path = path_;
  TrainLm(config);
  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng rng(config.seed);
  const std::vector<float> init = FlattenParams(LmParams::Init(config.model, rng));
  EXPECT_EQ(loaded.value().params, init);
  const std::vector<float>& blob = loaded.value().optimizer_state;
  const size_t total = init.size();
  ASSERT_EQ(blob.size(), 1 + 3 * total);
  EXPECT_EQ(blob[0], 0.0f);
  EXPECT_EQ(std::vector<float>(blob.begin() + 1, blob.begin() + 1 + total), init);
  EXPECT_EQ(std::vector<float>(blob.begin() + 1 + total, blob.end()),
            std::vector<float>(2 * total, 0.0f));
}

TEST_F(CheckpointTest, WarmedUpStateContinuesFromTheFile) {
  // After warmup steps the moments live on their owners, so the initial
  // file is assembled from every rank's snapshot entry. A run started from
  // that file replays the warmed-up run's curve bit for bit, and a run on a
  // larger world reshards it (its first loss is computed on the same
  // parameters and rank 0's same batch).
  NumericTrainConfig warmed = SmallConfig();
  warmed.steps = 4;
  warmed.warmup_steps = 3;
  warmed.param_gather_precision = TrainPrecision::kBf16;  // masters != params
  warmed.checkpoint_path = path_;
  const TrainCurve want = TrainLm(warmed);
  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().optimizer_state[0], 3.0f);

  // The continued run's own initial file is the state it loaded.
  NumericTrainConfig continued = warmed;
  continued.warmup_steps = 0;
  continued.checkpoint_path = path_ + ".continued";
  continued.init_checkpoint_path = path_;
  EXPECT_EQ(TrainLm(continued).loss, want.loss);
  Result<Checkpoint> rewritten = LoadCheckpoint(continued.checkpoint_path);
  std::remove(continued.checkpoint_path.c_str());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten.value().params, loaded.value().params);
  EXPECT_EQ(rewritten.value().optimizer_state, loaded.value().optimizer_state);
  continued.checkpoint_path.clear();
  continued.dp_size = 3;
  EXPECT_EQ(TrainLm(continued).loss[0], want.loss[0]);
}

TEST_F(CheckpointTest, RoundTrip) {
  ModelConfig config = TinyMoeConfig(2, 1);
  config.num_layers = 1;
  Rng rng(1);
  LmParams params = LmParams::Init(config, rng);
  std::vector<float> opt_state = {1.0f, 2.0f, 3.0f};
  ASSERT_TRUE(SaveCheckpoint(path_, params, opt_state).ok());

  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().optimizer_state, opt_state);
  EXPECT_EQ(loaded.value().params, FlattenParams(params));

  LmParams restored = LmParams::ZerosLike(config);
  ASSERT_TRUE(RestoreParams(restored, loaded.value().params).ok());
  std::vector<const Tensor*> a = params.TensorListConst();
  std::vector<const Tensor*> b = restored.TensorListConst();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->RelativeL2Diff(*b[i]), 0.0);
  }
}

TEST_F(CheckpointTest, MissingFileFails) {
  Result<Checkpoint> result = LoadCheckpoint(path_ + ".does-not-exist");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, BadMagicRejected) {
  std::FILE* file = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("garbage-not-a-checkpoint", file);
  std::fclose(file);
  Result<Checkpoint> result = LoadCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, TruncatedFileRejected) {
  ModelConfig config = TinyMoeConfig(2, 1);
  config.num_layers = 1;
  Rng rng(2);
  LmParams params = LmParams::Init(config, rng);
  ASSERT_TRUE(SaveCheckpoint(path_, params, {}).ok());
  // Truncate to half.
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);
  Result<Checkpoint> result = LoadCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, WrongModelRejected) {
  ModelConfig small = TinyMoeConfig(2, 1);
  small.num_layers = 1;
  Rng rng(3);
  LmParams params = LmParams::Init(small, rng);
  ASSERT_TRUE(SaveCheckpoint(path_, params, {}).ok());
  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());

  ModelConfig bigger = TinyMoeConfig(4, 2);
  bigger.num_layers = 2;
  LmParams other = LmParams::ZerosLike(bigger);
  Status status = RestoreParams(other, loaded.value().params);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace msmoe
