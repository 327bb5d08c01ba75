#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/model/config.h"
#include "src/model/moe_layer.h"
#include "src/parallel/parallel_moe_layer.h"
#include "src/tensor/tensor_ops.h"
#include "tests/reference_ffn.h"

namespace msmoe {
namespace {

ModelConfig TestConfig() {
  ModelConfig config = TinyMoeConfig(4, 2);
  config.hidden = 16;
  config.num_heads = 4;
  config.gqa_ratio = 2;
  config.ffn_hidden = 12;
  config.seq_len = 8;
  return config;
}

// Rank r's sequence-sharded chunk of a [batch * s, w] tensor.
Tensor RankChunk(const Tensor& full, int64_t batch, int64_t seq_len, int rank, int n) {
  const int64_t width = full.dim(1);
  const int64_t s_local = seq_len / n;
  Tensor chunk({batch * s_local, width});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < s_local; ++t) {
      const float* row = full.data() + (b * seq_len + rank * s_local + t) * width;
      std::copy(row, row + width, chunk.data() + (b * s_local + t) * width);
    }
  }
  return chunk;
}

struct MacroRun {
  std::vector<Tensor> y;
  std::vector<Tensor> dx;
  std::vector<MoeLayerParams> dparams;
  std::vector<int64_t> cache_bytes;
  std::vector<int> pipeline_chunks;  // cache.ffn.pipeline_chunks per rank
  std::vector<char> fp8_wire;        // cache.ffn.fp8_wire per rank
  std::vector<int> collectives;      // CommEvents each rank recorded
};

// Every gradient tensor of `a` bitwise equal to its counterpart in `b`.
void ExpectBitwiseParams(const MoeLayerParams& a, const MoeLayerParams& b, int rank) {
  std::vector<const Tensor*> b_tensors;
  b.ForEachConst([&](const std::string&, const Tensor& t) { b_tensors.push_back(&t); });
  size_t i = 0;
  a.ForEachConst([&](const std::string& name, const Tensor& t) {
    ASSERT_LT(i, b_tensors.size());
    EXPECT_TRUE(BitwiseEqual(t, *b_tensors[i++])) << name << " rank " << rank;
  });
  EXPECT_EQ(i, b_tensors.size());
}

class MacroLayerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestConfig();
    router_.num_experts = config_.num_experts;
    router_.top_k = config_.top_k;
    Rng rng(321);
    params_ = MoeLayerParams::Init(config_, rng);
    x_full_ = Tensor::Randn({batch_ * config_.seq_len, config_.hidden}, rng);
    dy_full_ = Tensor::Randn({batch_ * config_.seq_len, config_.hidden}, rng);

    MoeLayerCache reference_cache;
    y_ref_ = MoeLayerForward(params_, config_, router_, x_full_, batch_, &reference_cache);
    ref_grads_ =
        MoeLayerBackward(params_, config_, router_, reference_cache, dy_full_, batch_);
  }

  MacroRun RunParallel(EpDispatchMode dispatch, bool sar) {
    ParallelMoeLayerOptions options;
    options.dispatch = dispatch;
    options.sar = sar;
    return RunParallel(options);
  }

  MacroRun RunParallel(const ParallelMoeLayerOptions& options) {
    const int n = 2;
    FlatCommunicator group(n);
    MacroRun run;
    run.y.resize(n);
    run.dx.resize(n);
    run.dparams.reserve(n);
    for (int i = 0; i < n; ++i) {
      run.dparams.push_back(MoeLayerParams::ZerosLike(config_));
    }
    run.cache_bytes.resize(n);
    run.pipeline_chunks.resize(n);
    run.fp8_wire.resize(n);
    RunOnRanks(n, [&](int rank) {
      ShardContext ctx{&group, rank};
      Tensor x_local = RankChunk(x_full_, batch_, config_.seq_len, rank, n);
      Tensor dy_local = RankChunk(dy_full_, batch_, config_.seq_len, rank, n);
      ParallelMoeLayerCache cache;
      run.y[static_cast<size_t>(rank)] =
          ParallelMoeLayerForward(ctx, config_, router_, params_, x_local, batch_,
                                  config_.seq_len, options, &cache);
      run.cache_bytes[static_cast<size_t>(rank)] = cache.CacheBytes();
      run.pipeline_chunks[static_cast<size_t>(rank)] = cache.ffn.pipeline_chunks;
      run.fp8_wire[static_cast<size_t>(rank)] = cache.ffn.fp8_wire ? 1 : 0;
      ParallelMoeLayerGrads grads =
          ParallelMoeLayerBackward(ctx, config_, router_, params_, dy_local, batch_,
                                   config_.seq_len, options, cache);
      run.dx[static_cast<size_t>(rank)] = std::move(grads.dx_local);
      run.dparams[static_cast<size_t>(rank)] = std::move(grads.dparams);
    });
    run.collectives.assign(n, 0);
    for (const CommEvent& event : group.telemetry().Events()) {
      ++run.collectives[static_cast<size_t>(event.rank)];
    }
    return run;
  }

  void ExpectMatchesReference(const MacroRun& run) {
    const int n = 2;
    for (int rank = 0; rank < n; ++rank) {
      Tensor y_ref = RankChunk(y_ref_, batch_, config_.seq_len, rank, n);
      Tensor dx_ref = RankChunk(ref_grads_.dhidden, batch_, config_.seq_len, rank, n);
      EXPECT_LT(run.y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 1e-5) << rank;
      EXPECT_LT(run.dx[static_cast<size_t>(rank)].RelativeL2Diff(dx_ref), 1e-5) << rank;
    }
    // Replicated-parameter grads: sum of partials == reference.
    MoeLayerParams total = run.dparams[0];
    total.Accumulate(run.dparams[1]);
    EXPECT_LT(total.ln1_gain.RelativeL2Diff(ref_grads_.dparams.ln1_gain), 1e-5);
    EXPECT_LT(total.ln2_gain.RelativeL2Diff(ref_grads_.dparams.ln2_gain), 1e-5);
    EXPECT_LT(total.w_qkv.RelativeL2Diff(ref_grads_.dparams.w_qkv), 1e-5);
    EXPECT_LT(total.w_out.RelativeL2Diff(ref_grads_.dparams.w_out), 1e-5);
    EXPECT_LT(total.w_gate.RelativeL2Diff(ref_grads_.dparams.w_gate), 1e-4);
    // Expert grads: complete on the owner, zero elsewhere — the sum matches.
    for (int64_t e = 0; e < config_.num_experts; ++e) {
      EXPECT_LT(total.w1[static_cast<size_t>(e)].RelativeL2Diff(
                    ref_grads_.dparams.w1[static_cast<size_t>(e)]),
                1e-5)
          << e;
      EXPECT_LT(total.w2[static_cast<size_t>(e)].RelativeL2Diff(
                    ref_grads_.dparams.w2[static_cast<size_t>(e)]),
                1e-5)
          << e;
      EXPECT_LT(total.w3[static_cast<size_t>(e)].RelativeL2Diff(
                    ref_grads_.dparams.w3[static_cast<size_t>(e)]),
                1e-5)
          << e;
    }
  }

  ModelConfig config_;
  RouterConfig router_;
  const int64_t batch_ = 2;
  MoeLayerParams params_{};
  Tensor x_full_, dy_full_, y_ref_;
  MoeLayerGrads ref_grads_;
};

class MacroLayerTest : public MacroLayerFixture,
                       public ::testing::WithParamInterface<EpDispatchMode> {};

TEST_P(MacroLayerTest, MatchesSingleRankReference) {
  ExpectMatchesReference(RunParallel(GetParam(), /*sar=*/false));
}

TEST_P(MacroLayerTest, SarProducesIdenticalGradients) {
  const MacroRun full = RunParallel(GetParam(), /*sar=*/false);
  const MacroRun sar = RunParallel(GetParam(), /*sar=*/true);
  ExpectMatchesReference(sar);
  // Bit-identical to the non-SAR run: rematerialization recomputes the exact
  // same values.
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(sar.y[static_cast<size_t>(rank)].RelativeL2Diff(
                  full.y[static_cast<size_t>(rank)]),
              0.0);
    EXPECT_EQ(sar.dx[static_cast<size_t>(rank)].RelativeL2Diff(
                  full.dx[static_cast<size_t>(rank)]),
              0.0);
  }
}

TEST_P(MacroLayerTest, SarHoldsFewerActivationBytes) {
  const MacroRun full = RunParallel(GetParam(), /*sar=*/false);
  const MacroRun sar = RunParallel(GetParam(), /*sar=*/true);
  for (int rank = 0; rank < 2; ++rank) {
    // The dropped activations (two norms + ffn_in + fc2_in [+ x_all]) are a
    // substantial share of the cache.
    EXPECT_LT(sar.cache_bytes[static_cast<size_t>(rank)],
              full.cache_bytes[static_cast<size_t>(rank)] * 0.80)
        << "rank " << rank << " " << sar.cache_bytes[static_cast<size_t>(rank)] << " vs "
        << full.cache_bytes[static_cast<size_t>(rank)];
  }
}

INSTANTIATE_TEST_SUITE_P(BothDispatchModes, MacroLayerTest,
                         ::testing::Values(EpDispatchMode::kAllToAll,
                                           EpDispatchMode::kAllGatherScatter));

// The per-call pipeline config must reach the wire: the chunk count the
// layer options request is the one the EP forward records, and the layer
// output and every gradient stay bitwise the C=1 run's (SAR on, so the
// rematerialized dispatch replays the same chunking).
class MacroLayerChunksTest : public MacroLayerFixture,
                             public ::testing::WithParamInterface<int> {};

TEST_P(MacroLayerChunksTest, RequestedChunkCountIsBitwiseC1) {
  const int chunks = GetParam();
  ParallelMoeLayerOptions options;
  options.sar = true;
  options.pipeline.num_chunks = 1;
  const MacroRun c1 = RunParallel(options);
  options.pipeline.num_chunks = chunks;
  const MacroRun run = RunParallel(options);
  ExpectMatchesReference(run);
  for (int rank = 0; rank < 2; ++rank) {
    const size_t r = static_cast<size_t>(rank);
    EXPECT_EQ(run.pipeline_chunks[r], chunks) << rank;
    EXPECT_TRUE(BitwiseEqual(run.y[r], c1.y[r])) << rank;
    EXPECT_TRUE(BitwiseEqual(run.dx[r], c1.dx[r])) << rank;
    ExpectBitwiseParams(run.dparams[r], c1.dparams[r], rank);
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, MacroLayerChunksTest, ::testing::Values(1, 4));

// One SP+EP layer step with SAR at C = 4 records, per rank: forward — one
// Ulysses all-to-all for q/k/v, one for the attention output, the metadata
// all-to-all-v, 4 dispatch and 4 combine chunks; backward — 4
// rematerialized dispatch chunks, 4 + 4 EP backward chunks, one Ulysses
// all-to-all for the output grad and one for dq/dk/dv. 25 collectives.
TEST_F(MacroLayerFixture, SarLayerStepRecords25CollectivesPerRank) {
  ParallelMoeLayerOptions options;
  options.sar = true;
  options.pipeline.num_chunks = 4;
  const MacroRun run = RunParallel(options);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(run.collectives[static_cast<size_t>(rank)], 25) << "rank " << rank;
  }
}

class MacroLayerFp8Test : public MacroLayerFixture {};

TEST_F(MacroLayerFp8Test, Fp8DispatchReachesTheWire) {
  ParallelMoeLayerOptions options;
  options.sar = true;
  const MacroRun fp32 = RunParallel(options);
  options.pipeline.fp8_dispatch = true;
  const MacroRun fp8 = RunParallel(options);
  for (int rank = 0; rank < 2; ++rank) {
    const size_t r = static_cast<size_t>(rank);
    EXPECT_FALSE(fp32.fp8_wire[r]) << rank;
    EXPECT_TRUE(fp8.fp8_wire[r]) << rank;
    EXPECT_FALSE(BitwiseEqual(fp8.y[r], fp32.y[r])) << rank;
  }
}

}  // namespace
}  // namespace msmoe
