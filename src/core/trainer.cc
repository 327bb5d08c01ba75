#include "src/core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/comm/elastic.h"
#include "src/comm/health.h"
#include "src/model/checkpoint.h"
#include "src/model/flat_adam.h"
#include "src/numerics/bf16.h"
#include "src/numerics/fp8.h"
#include "src/numerics/quantize.h"

namespace msmoe {

const char* TrainPrecisionName(TrainPrecision precision) {
  switch (precision) {
    case TrainPrecision::kFp32:
      return "fp32";
    case TrainPrecision::kBf16:
      return "bf16";
    case TrainPrecision::kFp8:
      return "fp8";
  }
  return "unknown";
}

void MakeTrainingBatch(const ModelConfig& model, uint64_t seed, int64_t step, int rank,
                       int64_t batch, std::vector<int64_t>* inputs,
                       std::vector<int64_t>* targets) {
  Rng rng = Rng(seed).Fork(static_cast<uint64_t>(step) * 1000003ULL +
                           static_cast<uint64_t>(rank));
  const int64_t tokens = batch * model.seq_len;
  inputs->resize(static_cast<size_t>(tokens));
  targets->resize(static_cast<size_t>(tokens));
  for (int64_t b = 0; b < batch; ++b) {
    int64_t previous = 0;
    for (int64_t i = 0; i < model.seq_len; ++i) {
      const int64_t token = static_cast<int64_t>(rng.NextIndex(
          static_cast<uint64_t>(model.vocab)));
      (*inputs)[static_cast<size_t>(b * model.seq_len + i)] = token;
      // Previous-token copy: solvable only through attention, learnable
      // quickly by a 2-layer model (unlike modular addition).
      (*targets)[static_cast<size_t>(b * model.seq_len + i)] = previous;
      previous = token;
    }
  }
}

namespace {

// Elements per shard of the step tail's copies and BF16 roundings
// (~0.5 ns an element).
constexpr int64_t kTailGrain = GrainForCost(0.5);

// Calls piece(index, first, at, count) for every run of `count` elements of
// tensors[index], starting at its element `first`, that lands at offset `at`
// of the tensors' concatenation (ForEach order), with the concatenation split
// into contiguous element ranges across the calling thread's team.
template <typename TensorPtr, typename Piece>
void SplitConcatenation(const std::vector<TensorPtr>& tensors, const Piece& piece) {
  int64_t total = 0;
  for (const Tensor* tensor : tensors) {
    total += tensor->numel();
  }
  ParallelFor(total, kTailGrain, [&](int64_t begin, int64_t end) {
    int64_t offset = 0;
    for (size_t index = 0; index < tensors.size() && offset < end; ++index) {
      const int64_t numel = tensors[index]->numel();
      const int64_t lo = std::max(begin, offset);
      const int64_t hi = std::min(end, offset + numel);
      if (lo < hi) {
        piece(index, lo - offset, lo, hi - lo);
      }
      offset += numel;
    }
  });
}

// Writes the `precision` compute copy of `master` into *compute, which has
// the same layout or is `master` itself.
void RoundParamsInto(const LmParams& master, TrainPrecision precision, LmParams* compute) {
  const std::vector<const Tensor*> from = master.TensorListConst();
  const std::vector<Tensor*> to = compute->TensorList();
  MSMOE_CHECK_EQ(from.size(), to.size());
  switch (precision) {
    case TrainPrecision::kFp32:
      // FP32 steps compute on the masters themselves: no copy to write.
      MSMOE_CHECK(&master == compute);
      return;
    case TrainPrecision::kBf16:
      SplitConcatenation(from, [&](size_t index, int64_t first, int64_t, int64_t count) {
        const float* in = from[index]->data() + first;
        float* out = to[index]->data() + first;
        for (int64_t i = 0; i < count; ++i) {
          out[i] = Bf16Round(in[i]);
        }
      });
      return;
    case TrainPrecision::kFp8:
      // Per-tensor amax-scaled E4M3 (the multi-precision optimizer of §7
      // stores FP8 compute copies; masters stay FP32 in Adam).
      for (size_t index = 0; index < from.size(); ++index) {
        const Tensor& in = *from[index];
        Tensor& out = *to[index];
        float amax = 0.0f;
        for (int64_t i = 0; i < in.numel(); ++i) {
          amax = std::max(amax, std::fabs(in[i]));
        }
        const float scale = amax > 0.0f ? amax / Fp8MaxFinite(Fp8Format::kE4M3) : 1.0f;
        for (int64_t i = 0; i < in.numel(); ++i) {
          out[i] = Fp8RoundE4M3(in[i] / scale) * scale;
        }
      }
      return;
  }
}

}  // namespace

void RoundParams(LmParams& params, TrainPrecision precision) {
  RoundParamsInto(params, precision, &params);
}

namespace {

// Per-token (1 x h) FP8 rounding of hidden states (§7), straight-through.
void RoundActivationsPerToken(Tensor& hidden) {
  const int64_t rows = hidden.dim(0);
  const int64_t cols = hidden.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    float amax = 0.0f;
    float* row = hidden.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      amax = std::max(amax, std::fabs(row[c]));
    }
    const float scale = amax > 0.0f ? amax / Fp8MaxFinite(Fp8Format::kE4M3) : 1.0f;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = Fp8RoundE4M3(row[c] / scale) * scale;
    }
  }
}

// Rounds a flat buffer to the chosen wire precision (per-128-group scaled
// E4M3 for FP8, matching the grouped quantization of §5).
void RoundFlatForWire(float* data, int64_t count, TrainPrecision precision) {
  switch (precision) {
    case TrainPrecision::kFp32:
      return;
    case TrainPrecision::kBf16:
      ParallelFor(count, kTailGrain, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          data[i] = Bf16Round(data[i]);
        }
      });
      return;
    case TrainPrecision::kFp8: {
      constexpr int64_t kGroup = 128;
      ParallelFor((count + kGroup - 1) / kGroup, kTailGrain / kGroup,
                  [&](int64_t group_begin, int64_t group_end) {
        for (int64_t group = group_begin; group < group_end; ++group) {
          const int64_t begin = group * kGroup;
          const int64_t end = std::min(count, begin + kGroup);
          float amax = 0.0f;
          for (int64_t i = begin; i < end; ++i) {
            amax = std::max(amax, std::fabs(data[i]));
          }
          const float scale = amax > 0.0f ? amax / Fp8MaxFinite(Fp8Format::kE4M3) : 1.0f;
          for (int64_t i = begin; i < end; ++i) {
            data[i] = Fp8RoundE4M3(data[i] / scale) * scale;
          }
        }
      });
      return;
    }
  }
}

// One rank's recovery snapshot: the gathered parameters (the same on every
// rank), its FP32 master shard, and its FlatAdam state [step, m, v].
struct ShardSnapshot {
  std::vector<float> params;
  std::vector<float> master;
  std::vector<float> optimizer;
};

// A global rank's entry of the snapshot table. Only its own rank writes it:
// a snapshot stages into the slot that is not committed, and every rank
// flips its committed slot on the same commit verdict, so a failed commit
// leaves the last committed snapshot intact. Peers read an entry's
// committed slot only after a collective or rendezvous that followed the
// owner's writes (rank 0 writing the checkpoint file after the commit
// barrier; survivors resharding after an elastic shrink) and before their
// own next collective, and the owner stages into that slot again only after
// committing once more, which takes collectives with them.
struct SnapshotEntry {
  ShardSnapshot slot[2];
};

}  // namespace

Status ValidateNumericTrainConfig(const NumericTrainConfig& config) {
  if (!config.zero_shard_optimizer) {
    return InvalidArgument(
        "zero_shard_optimizer = false asks for the replicated optimizer layout, "
        "which is gone: every run shards its FP32 masters and Adam moments "
        "(ZeRO-1), and param_gather_precision = kFp32 reproduces the replicated "
        "loss curve bit for bit");
  }
  if (config.elastic) {
    if (config.restart_every > 0) {
      return InvalidArgument(
          "elastic is incompatible with restart_every: the Fig 19 restart "
          "pattern assumes a fixed world, while elastic recovery may shrink it");
    }
    MSMOE_RETURN_IF_ERROR(ValidateRecoveryPolicyConfig(config.recovery_policy));
    if (config.min_world < 1) {
      return InvalidArgument("min_world must be >= 1");
    }
  }
  if (config.first_step < 0) {
    return InvalidArgument("first_step must be >= 0");
  }
  if (config.first_step > 0) {
    if (config.init_checkpoint_path.empty()) {
      return InvalidArgument(
          "first_step > 0 requires init_checkpoint_path: the steps before "
          "first_step are the checkpointed run's history, not replayable here");
    }
    if (config.first_step >= config.steps) {
      return InvalidArgument("first_step must be < steps");
    }
  }
  return Status::Ok();
}

TrainCurve TrainLm(const NumericTrainConfig& config) {
  const Status config_status = ValidateNumericTrainConfig(config);
  MSMOE_CHECK(config_status.ok()) << config_status.ToString();
  const int dp = config.dp_size;
  MSMOE_CHECK_GE(dp, 1);
  // Epoch 0 of the elastic membership is the fixed-world communicator of
  // every run; further epochs only exist if a permanent fault shrinks the
  // membership.
  ElasticComm elastic(dp);
  if (config.fault_plan != nullptr) {
    elastic.set_fault_plan(config.fault_plan);
  }
  if (config.collective_timeout_ms > 0.0) {
    elastic.SetCollectiveTimeout(config.collective_timeout_ms);
  }
  // Whether any step can fail. A fault-free run without deadlines never sees
  // a non-OK group, so the plain loop is kept byte-for-byte identical.
  const bool fault_aware = config.fault_plan != nullptr ||
                           config.collective_timeout_ms > 0.0 ||
                           config.guard_grad_checksum || config.elastic;
  const bool file_checkpoints = !config.checkpoint_path.empty();
  // Snapshots are taken only when something can restore them: a fault
  // rollback, a Fig 19 restart, or a checkpoint file.
  const bool snapshots = fault_aware || config.restart_every > 0 || file_checkpoints;
  // The recovery snapshot table, one entry per global rank (SnapshotEntry).
  std::vector<SnapshotEntry> table(snapshots ? static_cast<size_t>(dp) : 0);
  TrainCurve curve;
  curve.loss.assign(static_cast<size_t>(config.steps), 0.0);
  if (config.profiler != nullptr) {
    config.profiler->set_world(dp);
  }

  RunOnRanks(dp, [&](int rank) {
    // `rank` is this thread's GLOBAL (epoch-0) rank, fixed for its lifetime.
    // `my` is the dense rank within the CURRENT membership epoch and
    // `dp_now` the current world size — both are remapped when an elastic
    // shrink evicts a rank. Non-elastic runs never change them.
    Communicator* comm_now = elastic.comm();
    int my = rank;
    int dp_now = dp;
    // Global ranks of comm_now's epoch, snapshotted at bind time. Fault
    // attribution maps epoch ranks through THIS list, never through
    // elastic.GlobalRank(): a survivor that classifies late (it slept
    // through the fault) must resolve its suspect against the epoch that
    // failed, not against a membership its peers already committed.
    std::vector<int> members_now(static_cast<size_t>(dp));
    for (int i = 0; i < dp; ++i) {
      members_now[static_cast<size_t>(i)] = i;
    }

    // Identical init on every rank. `params` holds the gathered parameters;
    // the FP32 masters live in this rank's shard.
    Rng rng(config.seed);
    LmParams params = LmParams::Init(config.model, rng);

    // The low-precision compute copy, rounded from the gathered parameters
    // at the start of every step; FP32 runs compute on them directly.
    const bool round_compute = config.precision != TrainPrecision::kFp32;
    LmParams compute_copy = round_compute ? params : LmParams();
    const LmParams& compute = round_compute ? compute_copy : params;

    ActivationTransform activation_transform = nullptr;
    if (config.precision == TrainPrecision::kFp8) {
      activation_transform = RoundActivationsPerToken;
    }

    const int64_t total_elems = params.TotalElements();
    // Pad the flat gradient buffer so it shards evenly over the DP group.
    // Mutable: an elastic shrink re-plans the geometry for the new world.
    int64_t padded = PaddedGradCount(total_elems, dp_now);
    int64_t shard = padded / dp_now;
    std::vector<float> flat(static_cast<size_t>(padded), 0.0f);

    // ZeRO-1 state: this rank's FP32 master shard and its Adam moments.
    std::vector<float> master_shard = ShardOfFlat(FlattenParams(params), total_elems, dp, my);
    FlatAdam flat_adam(config.adam, shard);

    // Batch buffers, hoisted out of the step loop so MakeTrainingBatch's
    // resize is a no-op at steady state.
    std::vector<int64_t> inputs;
    std::vector<int64_t> targets;

    auto run_step = [&](int64_t step, bool record) {
      // Observability bracket: recorded steps only (warmup and replayed
      // internals use negative/duplicate step ids), and inert when no
      // profiler is configured — the uninstrumented step is byte-for-byte
      // the code below.
      ScopedStep obs_step(record ? config.profiler : nullptr, my, step,
                          &comm_now->telemetry());
      std::optional<MemoryScope> cast_scope;
      cast_scope.emplace("param_cast");
      if (round_compute) {
        RoundParamsInto(params, config.precision, &compute_copy);
      }

      // FP32 gradient accumulation over micro-batches (§5: the main grads
      // stay FP32 throughout; only the post-accumulation communication is
      // compressed).
      LmParams grads = LmParams::ZerosLike(config.model);
      cast_scope.reset();
      LmStepStats stats;
      {
        MemoryScope scope("fwd_bwd");
        const int64_t accum = std::max<int64_t>(1, config.grad_accum_steps);
        for (int64_t micro = 0; micro < accum; ++micro) {
          MakeTrainingBatch(config.model, config.seed, step * accum + micro, my,
                            config.batch_per_rank, &inputs, &targets);
          const LmStepStats micro_stats =
              LmForwardBackward(compute, config.model, config.router, inputs, targets,
                                config.batch_per_rank, &grads, activation_transform);
          stats.ce_loss += micro_stats.ce_loss / static_cast<double>(accum);
          stats.aux_loss += micro_stats.aux_loss / static_cast<double>(accum);
        }
        if (accum > 1) {
          grads.Scale(1.0f / static_cast<float>(accum));
        }
      }

      const std::vector<const Tensor*> grad_tensors = grads.TensorListConst();
      SplitConcatenation(grad_tensors,
                         [&](size_t index, int64_t first, int64_t at, int64_t count) {
        std::memcpy(flat.data() + at, grad_tensors[index]->data() + first,
                    static_cast<size_t>(count) * sizeof(float));
      });
      std::fill(flat.begin() + total_elems, flat.end(), 0.0f);

      // Reduce this rank's gradient shard, update the master shard, and
      // all-gather the updated parameters on the chosen wire. The shard and
      // wire staging live in the rank thread's workspace — reused verbatim
      // every step.
      Workspace& ws = ThreadWorkspace();
      float* grad_shard = ws.Floats("trainer.grad_shard", shard);
      {
        MemoryScope scope("grad_sync");
        SyncGradShardInto(*comm_now, my, flat.data(), padded, config.grad_sync, grad_shard);
      }
      ParallelFor(shard, kTailGrain, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          grad_shard[i] /= static_cast<float>(dp_now);
        }
      });
      {
        MemoryScope scope("optimizer");
        double norm_sq = 0.0;
        if (config.adam.grad_clip_norm > 0.0) {
          // Global-norm clipping: each rank's shard sum of squares (in
          // element order), summed in rank order.
          double local = 0.0;
          for (int64_t i = 0; i < shard; ++i) {
            local += static_cast<double>(grad_shard[i]) * grad_shard[i];
          }
          for (const double partial : comm_now->ExchangeScalars(my, local)) {
            norm_sq += partial;
          }
        }
        flat_adam.Step(grad_shard, master_shard.data(), AdamClipScale(config.adam, norm_sq));
      }
      MemoryScope scope("grad_sync");
      float* wire = ws.Floats("trainer.wire", shard);
      std::memcpy(wire, master_shard.data(), static_cast<size_t>(shard) * sizeof(float));
      RoundFlatForWire(wire, shard, config.param_gather_precision);
      comm_now->AllGather(my, wire, flat.data(), shard);
      const std::vector<Tensor*> param_list = params.TensorList();
      SplitConcatenation(param_list,
                         [&](size_t index, int64_t first, int64_t at, int64_t count) {
        std::memcpy(param_list[index]->data() + first, flat.data() + at,
                    static_cast<size_t>(count) * sizeof(float));
      });

      if (record && my == 0) {
        curve.loss[static_cast<size_t>(step)] = stats.ce_loss;
      }
      obs_step.set_loss(stats.ce_loss);
      return stats.ce_loss;
    };

    // Loads an unsharded state — parameters plus the [step, masters, m, v]
    // optimizer blob of a checkpoint file — at the current geometry.
    auto load_full = [&](const Checkpoint& full) {
      const Status restored = RestoreParams(params, full.params);
      MSMOE_CHECK(restored.ok()) << restored.ToString();
      const std::vector<float>& blob = full.optimizer_state;
      MSMOE_CHECK_EQ(static_cast<int64_t>(blob.size()), 1 + 3 * total_elems)
          << "optimizer state is not the [step, masters, m, v] blob of this model";
      const auto shard_of = [&](int part) {
        const auto begin = blob.begin() + 1 + part * total_elems;
        return ShardOfFlat(std::vector<float>(begin, begin + total_elems), total_elems,
                           dp_now, my);
      };
      master_shard = shard_of(0);
      std::vector<float> state = {blob[0]};
      for (const int part : {1, 2}) {
        const std::vector<float> moment = shard_of(part);
        state.insert(state.end(), moment.begin(), moment.end());
      }
      flat_adam = FlatAdam(config.adam, shard);
      flat_adam.LoadState(state);
    };

    // Warmup ("checkpoint to continue from", Fig 18's 176B scenario).
    for (int64_t step = 0; step < config.warmup_steps; ++step) {
      run_step(-config.warmup_steps + step - 1000000, /*record=*/false);
    }

    // Continue a previous run from its persisted checkpoint (the elastic
    // bit-identity cross-check starts a fresh W-k run this way).
    std::optional<Checkpoint> loaded;
    if (!config.init_checkpoint_path.empty()) {
      Result<Checkpoint> file = LoadCheckpoint(config.init_checkpoint_path);
      MSMOE_CHECK(file.ok()) << file.status().ToString();
      loaded = std::move(file.value());
      load_full(*loaded);
    }

    // The committed snapshot, replicated on every rank: its table slot, its
    // step, and the members (global ranks, in epoch-rank order) whose
    // entries hold it.
    int committed = 0;
    int64_t checkpoint_step = config.first_step;
    std::vector<int> snapshot_members = members_now;

    auto stage = [&] {
      ShardSnapshot& staged = table[static_cast<size_t>(rank)].slot[1 - committed];
      staged.params = FlattenParams(params);
      staged.master = master_shard;
      staged.optimizer = flat_adam.SaveState();
    };
    auto commit = [&](int64_t step) {
      committed = 1 - committed;
      checkpoint_step = step;
      snapshot_members = members_now;
    };
    // The committed snapshot's optimizer state, unsharded: the checkpoint
    // file's [step, masters, m, v] blob, assembled from every snapshot
    // member's committed entry.
    auto assemble_optimizer = [&] {
      const int world = static_cast<int>(snapshot_members.size());
      const int64_t member_shard = PaddedGradCount(total_elems, world) / world;
      std::vector<std::vector<float>> parts[3];
      for (const int member : snapshot_members) {
        const ShardSnapshot& entry = table[static_cast<size_t>(member)].slot[committed];
        parts[0].push_back(entry.master);
        parts[1].emplace_back(entry.optimizer.begin() + 1,
                              entry.optimizer.begin() + 1 + member_shard);
        parts[2].emplace_back(entry.optimizer.begin() + 1 + member_shard,
                              entry.optimizer.end());
      }
      std::vector<float> blob = {
          table[static_cast<size_t>(snapshot_members[0])].slot[committed].optimizer[0]};
      for (const std::vector<std::vector<float>>& shards : parts) {
        const Result<std::vector<float>> full = GatherFlatFromShards(shards, total_elems);
        MSMOE_CHECK(full.ok()) << full.status().ToString();
        blob.insert(blob.end(), full.value().begin(), full.value().end());
      }
      return blob;
    };
    auto save_file = [&](const std::vector<float>& optimizer_state) {
      const Status saved = SaveCheckpoint(config.checkpoint_path, params, optimizer_state);
      MSMOE_CHECK(saved.ok()) << saved.ToString();
    };

    // Barrier-gated snapshot: every rank commits the same checkpoint step or
    // none does. Without the gate a rank that has not yet observed an
    // in-flight fault could snapshot a step its peers never reached, and
    // recovery would resume from diverged states.
    auto try_snapshot = [&](int64_t step) {
      stage();
      // The commit decision branches on the barrier's OWN returned status
      // (serialized with concurrent aborts), never on a GroupStatus() read
      // after the fact: a crash raised by a peer between one rank's barrier
      // exit and another's status read would otherwise commit the snapshot
      // on some ranks only, diverging checkpoint_step — and with it the
      // resume step — across the group. Every entry was staged before the
      // barrier, so rank 0 can write the file from the table.
      if (!comm_now->TryBarrier(my).ok()) {
        return false;
      }
      commit(step);
      if (file_checkpoints && my == 0) {
        save_file(assemble_optimizer());
      }
      return true;
    };

    // The initial snapshot commits without a barrier: no fault can have
    // fired yet. Its file needs the whole state: a fresh or loaded run
    // starts from one every rank knows, but warmup steps leave the moments
    // on their owners, so rank 0 then waits for every entry at a barrier.
    if (snapshots) {
      const bool whole_state_known = config.warmup_steps == 0 || loaded.has_value();
      if (file_checkpoints && !whole_state_known) {
        MSMOE_CHECK(try_snapshot(config.first_step))
            << "initial snapshot failed: " << comm_now->GroupStatus().ToString();
      } else {
        stage();
        commit(config.first_step);
        if (file_checkpoints && my == 0) {
          if (loaded.has_value()) {
            save_file(loaded->optimizer_state);
          } else {
            std::vector<float> fresh(static_cast<size_t>(1 + 3 * total_elems), 0.0f);
            const std::vector<float> masters = FlattenParams(params);
            std::copy(masters.begin(), masters.end(), fresh.begin() + 1);
            save_file(fresh);
          }
        }
      }
    }

    // Restores the committed snapshot at the CURRENT geometry (my, dp_now).
    // On the world that took it, each rank copies its own entry back; after
    // an elastic shrink, or from a file, the unsharded state is re-sliced at
    // the new boundaries.
    auto committed_state = [&] {
      if (file_checkpoints) {
        Result<Checkpoint> file = LoadCheckpoint(config.checkpoint_path);
        MSMOE_CHECK(file.ok()) << file.status().ToString();
        return std::move(file.value());
      }
      Checkpoint full;
      full.params = table[static_cast<size_t>(rank)].slot[committed].params;
      full.optimizer_state = assemble_optimizer();
      return full;
    };
    auto restore_own = [&] {
      const ShardSnapshot& own = table[static_cast<size_t>(rank)].slot[committed];
      const Status restored = RestoreParams(params, own.params);
      MSMOE_CHECK(restored.ok()) << restored.ToString();
      master_shard = own.master;
      flat_adam.LoadState(own.optimizer);
    };
    auto restore_snapshot = [&] {
      if (!file_checkpoints && snapshot_members == members_now) {
        restore_own();
      } else {
        load_full(committed_state());
      }
    };

    // Cross-rank bitwise agreement on the gathered parameters. They are
    // identical on every rank by construction, so any difference (a flipped
    // payload bit, a diverged update) is corruption; the first rank to see
    // it cancels the group.
    auto checksum_guard = [&] {
      double sum = 0.0;
      for (float value : flat) {
        sum += static_cast<double>(value);
      }
      const std::vector<double> sums = comm_now->ExchangeScalars(my, sum);
      if (!comm_now->GroupStatus().ok()) {
        return;
      }
      for (int peer = 0; peer < dp_now; ++peer) {
        if (sums[static_cast<size_t>(peer)] != sum) {
          comm_now->Abort(DataLoss("replica checksum mismatch after step sync: rank " +
                                   std::to_string(my) + " disagrees with rank " +
                                   std::to_string(peer)));
          return;
        }
      }
    };

    // Fault classification replica (elastic runs). Every rank classifies
    // the SAME sticky error with the SAME suspect attribution, so the
    // replicas reach identical verdicts without any extra coordination.
    RecoveryPolicy policy(config.recovery_policy);
    int64_t recoveries_used = 0;
    int64_t step = config.first_step;
    while (step < config.steps) {
      if (config.restart_every > 0 && step > 0 && step % config.restart_every == 0 &&
          step != checkpoint_step) {
        // Checkpoint the current state, tear down, and restore — the Fig 19
        // restart pattern. The curve must continue seamlessly.
        stage();
        commit(step);
        restore_own();
        if (my == 0) {
          curve.restart_steps.push_back(step);
        }
      }
      bool step_ran = true;
      if (fault_aware && config.checkpoint_every > 0 && step > checkpoint_step &&
          step - checkpoint_step >= config.checkpoint_every) {
        step_ran = try_snapshot(step);
      }
      if (step_ran) {
        run_step(step, /*record=*/true);
        if (config.profiler != nullptr && config.elastic) {
          // Forward the detector's straggler verdict (an epoch-local rank)
          // as an advisory attribution: first hint sticks, real fault
          // attribution still wins inside SuspectRank. Every rank reads the
          // same shared profiler, so the CAS race is benign.
          const int hint = config.profiler->StragglerSuspect();
          if (hint >= 0) {
            comm_now->HintSuspect(hint);
          }
        }
        if (config.guard_grad_checksum && comm_now->GroupStatus().ok()) {
          checksum_guard();
        }
      }
      const Status status = comm_now->GroupStatus();
      if (status.ok()) {
        if (config.elastic) {
          policy.OnStepSuccess();
        }
        ++step;
        continue;
      }
      // A fault surfaced somewhere in this step: every rank observes the
      // same sticky error (the collectives all route through the cancelled
      // barrier). A rank whose step completed just before a peer raised the
      // fault may read OK here and enter recovery one iteration later — the
      // rollback below re-aligns everyone at step = checkpoint_step, which
      // the barrier-gated snapshot keeps identical across the group.
      //
      // Classification. Elastic runs ask the policy; attribution is the
      // communicator's shared suspect (explicit abort culprit, or the
      // barrier arrival bitmap on a timeout), falling back to the straggler
      // report over the epoch's telemetry for deadline faults with no bitmap
      // attribution. Both inputs are identical on every rank. Other runs
      // retry every code a rollback can repair (see IsRetryableFault, plus
      // the checksum guard's DataLoss) with no backoff; any other code is a
      // logic error that would fail identically on replay.
      RecoveryDecision decision;
      if (config.elastic) {
        int suspect = comm_now->SuspectRank();
        if (suspect < 0 && status.code() == StatusCode::kDeadlineExceeded) {
          suspect =
              WorstStragglerRank(DetectStragglers(comm_now->telemetry().Events()));
        }
        const int culprit_global = (suspect >= 0 && suspect < dp_now)
                                       ? members_now[static_cast<size_t>(suspect)]
                                       : -1;
        decision = policy.OnFailure(status, culprit_global);
      } else if (IsRetryableFault(status) || status.code() == StatusCode::kDataLoss) {
        decision.verdict = FaultVerdict::kTransient;
      } else {
        decision.reason = "not repairable by rollback";
      }
      MSMOE_CHECK(decision.verdict != FaultVerdict::kFatal)
          << "fatal failure at step " << step << " (" << decision.reason
          << "): " << status.ToString();
      ++recoveries_used;
      MSMOE_CHECK_LE(recoveries_used, config.max_recoveries)
          << "training failed at step " << step << " and exhausted "
          << config.max_recoveries << " recoveries: " << status.ToString();
      if (my == 0 && config.profiler != nullptr) {
        config.profiler->NoteRetry();
      }

      if (decision.verdict == FaultVerdict::kPermanent) {
        // Evict the culprit and continue on the survivors.
        const int culprit_global = decision.culprit_rank;
        MSMOE_CHECK_GE(culprit_global, 0)
            << "permanent verdict without a culprit: " << decision.reason;
        MSMOE_CHECK_GE(dp_now - 1, config.min_world)
            << "cannot shrink below min_world=" << config.min_world << " (world "
            << dp_now << ", evicting rank " << culprit_global << ")";
        if (rank == culprit_global) {
          // This thread IS the evicted rank. It reached the same replicated
          // verdict from the same sticky error, recognized itself, and
          // leaves the rank loop; the survivors rendezvous in Shrink
          // WITHOUT it (a dead rank can't be required for its own funeral).
          // Its stale communicator stays valid — retired — for any pointer
          // still held, and its table entry stays readable.
          return;
        }
        const Status shrunk = elastic.Shrink(rank, {culprit_global});
        MSMOE_CHECK(shrunk.ok()) << "elastic shrink failed at step " << step << ": "
                                 << shrunk.ToString();
        comm_now = elastic.comm();
        my = elastic.EpochRank(rank);
        MSMOE_CHECK_GE(my, 0);
        dp_now = elastic.size();
        members_now = elastic.members();
        if (my == 0 && config.profiler != nullptr) {
          config.profiler->NoteEviction();
          // New epoch => new (smaller) world for MFU attribution and the
          // detector's cross-rank pass; partially-reported steps of the old
          // epoch age out of the detector's pending map.
          config.profiler->set_world(dp_now);
        }
        // Re-plan the per-rank geometry for the shrunk world, then restore
        // the snapshot resharded at the new boundaries.
        padded = PaddedGradCount(total_elems, dp_now);
        shard = padded / dp_now;
        flat.assign(static_cast<size_t>(padded), 0.0f);
        const Checkpoint full = committed_state();
        load_full(full);
        // Cross-rank checksum of the restored state BEFORE the first
        // degraded step: survivors that resharded different snapshots must
        // surface here as DataLoss, not three steps later as a silently
        // forked loss curve.
        double state_sum = 0.0;
        for (const std::vector<float>* part : {&full.params, &full.optimizer_state}) {
          for (const float value : *part) {
            state_sum += static_cast<double>(value);
          }
        }
        const std::vector<double> sums = comm_now->ExchangeScalars(my, state_sum);
        const Status guard = comm_now->GroupStatus();
        MSMOE_CHECK(guard.ok()) << "post-shrink validation collective failed: "
                                << guard.ToString();
        for (int peer = 0; peer < dp_now; ++peer) {
          if (sums[static_cast<size_t>(peer)] != state_sum) {
            comm_now->Abort(
                DataLoss("resharded state diverged across survivors after the "
                         "shrink (rank " + std::to_string(my) +
                         " disagrees with rank " + std::to_string(peer) + ")"));
          }
        }
        MSMOE_CHECK(comm_now->GroupStatus().ok())
            << "post-shrink reshard validation failed: "
            << comm_now->GroupStatus().ToString();
      } else {
        comm_now->RecoveryBarrier(my);
        if (decision.backoff_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(decision.backoff_ms));
        }
        restore_snapshot();
      }
      if (my == 0) {
        RecoveryEvent event;
        event.failed_step = step;
        event.resumed_step = checkpoint_step;
        event.steps_lost = step - checkpoint_step;
        event.cause = status.ToString();
        event.verdict = decision.verdict;
        event.culprit_rank = decision.culprit_rank;
        event.world_after = config.elastic ? dp_now : 0;
        event.backoff_ms = decision.backoff_ms;
        curve.recoveries.push_back(event);
      }
      step = checkpoint_step;
    }
  });
  curve.final_world = elastic.size();
  if (config.capture_comm_events) {
    curve.comm_events = elastic.Events();
  }
  if (config.profiler != nullptr) {
    // Write the run artifacts (metrics.jsonl / merged trace / prom snapshot)
    // off the final epoch's telemetry. Finish is idempotent, so a caller
    // aggregating several runs can call it again later; a write failure is
    // an observability loss, not a training failure.
    const Status obs_written =
        config.profiler->Finish(&elastic.comm()->telemetry());
    if (!obs_written.ok()) {
      MSMOE_LOG(Warning) << "profiler artifacts not written: "
                         << obs_written.ToString();
    }
  }
  return curve;
}

}  // namespace msmoe
