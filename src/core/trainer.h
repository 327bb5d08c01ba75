// Real (non-simulated) data-parallel training of a small MoE LM over the
// thread-rank collectives — the substrate for the convergence experiments:
//
//   Fig 17: BF16 all-to-all DP gradient compression vs FP32 reduce-scatter.
//   Fig 18: FP8 vs BF16 training (from scratch and continued).
//   Fig 19: long production run with periodic checkpoint restarts.
//
// Optimizer state is sharded ZeRO-1 style (§2.2): every rank runs the same
// parameters on its own batch, reduces its 1/dp shard of the flattened
// gradients with the selected GradSyncMode, steps Adam on the FP32 master
// shard it owns, and all-gathers the updated parameters at
// param_gather_precision. The gathered parameters are identical on every
// rank, and rank 0's loss is the curve. An FP32 gather reproduces a
// replicated optimizer bit for bit (tests/reference_trainer.h).
//
// Precision emulation (the paper's hardware FP8/BF16 pipelines are
// substituted by software rounding, see DESIGN.md):
//   kBf16: parameters rounded to BF16 before each forward/backward
//          (FP32 masters kept in the owner's shard).
//   kFp8:  parameters rounded through per-tensor-scaled E4M3 and hidden
//          activations rounded per-token between layers (§7's per-token
//          quantization), straight-through in backward.
#ifndef MSMOE_SRC_CORE_TRAINER_H_
#define MSMOE_SRC_CORE_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/comm/communicator.h"
#include "src/comm/fault.h"
#include "src/comm/telemetry.h"
#include "src/core/recovery_policy.h"
#include "src/model/config.h"
#include "src/model/lm.h"
#include "src/model/optimizer.h"
#include "src/model/router.h"
#include "src/obs/step_profiler.h"
#include "src/parallel/dp_grad_sync.h"

namespace msmoe {

enum class TrainPrecision { kFp32, kBf16, kFp8 };

const char* TrainPrecisionName(TrainPrecision precision);

struct NumericTrainConfig {
  ModelConfig model = TinyMoeConfig();
  RouterConfig router;
  int dp_size = 2;
  GradSyncMode grad_sync = GradSyncMode::kFp32ReduceScatter;
  TrainPrecision precision = TrainPrecision::kBf16;
  AdamConfig adam;
  int64_t batch_per_rank = 2;  // sequences per rank per micro-batch
  // Micro-batches accumulated per optimizer step (pipeline-parallel style).
  // Accumulation is ALWAYS in FP32 (§5, Fig 10): gradients are cast to the
  // wire precision exactly once, after the full accumulation.
  int64_t grad_accum_steps = 1;
  int64_t steps = 50;
  uint64_t seed = 1234;
  // Fig 19: checkpoint every `restart_every` steps and immediately restart
  // from that checkpoint (0 disables). Exercises save/restore continuity.
  int64_t restart_every = 0;
  // Fig 18 "continue training": run this many warmup steps first and treat
  // them as the loaded checkpoint (0 = train from scratch).
  int64_t warmup_steps = 0;
  // ZeRO-1 (§2.2) is the only optimizer layout: `false` (the replicated
  // layout) is rejected by ValidateNumericTrainConfig. The field stays only
  // because the step benchmark (stepbench/) sets it; the change that
  // redefines that benchmark (ROADMAP item 1) deletes it.
  bool zero_shard_optimizer = true;
  // Wire precision of the parameter all-gather. §7's multi-precision
  // optimizer stores FP8 compute parameters, halving this collective; the
  // FP32 masters live only in the owner's shard. kFp32 gathers the masters
  // themselves.
  TrainPrecision param_gather_precision = TrainPrecision::kFp32;

  // --- Fault tolerance -----------------------------------------------------
  // Injected fault schedule (not owned; nullptr = fault-free). Installed on
  // the communicator before ranks start, so every collective consults it.
  FaultPlan* fault_plan = nullptr;
  // Deadline for every collective barrier wait (0 = wait forever). With a
  // deadline, a crashed or wedged rank surfaces as kDeadlineExceeded on all
  // peers instead of a hang.
  double collective_timeout_ms = 0.0;
  // Take a recovery snapshot every N optimizer steps (0 = only the initial
  // post-warmup state). Snapshots are barrier-gated so every rank commits
  // the same checkpoint step or none does.
  int64_t checkpoint_every = 0;
  // When set, rank 0 persists every snapshot through SaveCheckpoint
  // (crash-safe v2 file holding the whole unsharded state, see
  // src/model/checkpoint.h) and recovery restores from the file instead of
  // memory.
  std::string checkpoint_path;
  // Recovery attempts before the run gives up (guards against a fault that
  // deterministically refires, e.g. a permanent slow rank under a timeout).
  int64_t max_recoveries = 8;
  // Cross-rank bitwise checksum of the gathered parameters after every
  // step; a divergence (e.g. an injected bit-flip) aborts the group and
  // triggers recovery instead of silently forking the ranks' parameters.
  bool guard_grad_checksum = false;
  // Copy the communicator's telemetry into TrainCurve::comm_events so the
  // caller can run straggler detection / trace export over the run.
  bool capture_comm_events = false;

  // --- Elastic degraded-mode recovery --------------------------------------
  // Classify faults through RecoveryPolicy instead of retrying every one:
  // transient verdicts roll back with exponential backoff; a PERMANENT
  // verdict evicts the culprit rank and training continues on the shrunk
  // world (src/comm/elastic.h) from a resharded snapshot. Incompatible with
  // restart_every (the Fig 19 restart pattern assumes a fixed world).
  bool elastic = false;
  RecoveryPolicyConfig recovery_policy;
  // Refuse (CHECK) to shrink below this many survivors.
  int min_world = 1;
  // Start from this checkpoint file instead of fresh init; its unsharded
  // state is sharded over this run's world. With first_step > 0 the run
  // continues at that step — batches, loss indices, and snapshots line up
  // with the run that wrote the file, so a fresh W-k run started from a
  // shrunk run's snapshot replays its post-shrink curve bit for bit.
  std::string init_checkpoint_path;
  int64_t first_step = 0;

  // --- Observability (src/obs/step_profiler.h) -----------------------------
  // When set, every recorded training step on every rank is bracketed by a
  // ScopedStep: per-rank StepReports (compute / exposed comm / bubble / MFU
  // / pool-hit / expert skew / loss) accumulate in the profiler, feed its
  // online anomaly detector, and — on elastic runs — a detector straggler
  // verdict is forwarded to the communicator as an advisory suspect hint
  // (lowest-priority input to fault attribution). The trainer also reports
  // retries and evictions, and updates the profiler's world after a shrink.
  // Before TrainLm returns it calls profiler->Finish(...) with the final
  // epoch's telemetry, writing metrics.jsonl / the merged trace / the
  // Prometheus snapshot (Finish is idempotent — callers may call it again).
  // Not owned; nullptr (the default) disables all of it — instrumented and
  // uninstrumented runs are loss-bitwise-identical (bench_observability
  // asserts this).
  StepProfiler* profiler = nullptr;
};

// One recovery incident: training failed at `failed_step`, rolled back to
// the snapshot at `resumed_step`, and replayed the difference. failed_step
// is the step at which rank 0 OBSERVED the failure — an abort raised by a
// racing rank can surface one step before the faulty op itself (fault
// observation is asynchronous, exactly as in a real job); recovery converges
// identically either way.
struct RecoveryEvent {
  int64_t failed_step = 0;
  int64_t resumed_step = 0;
  int64_t steps_lost = 0;  // failed_step - resumed_step (recomputed work)
  std::string cause;       // first error observed on the group
  // Elastic runs additionally classify the incident:
  FaultVerdict verdict = FaultVerdict::kTransient;
  int culprit_rank = -1;   // attributed global rank (-1 unknown)
  int world_after = 0;     // world size after handling (0 = non-elastic run)
  double backoff_ms = 0.0; // backoff slept before the transient retry
};

struct TrainCurve {
  std::vector<double> loss;            // CE loss per step (lowest live rank)
  std::vector<int64_t> restart_steps;  // steps at which a restart occurred
  std::vector<RecoveryEvent> recoveries;
  std::vector<CommEvent> comm_events;  // when capture_comm_events is set
  // Ranks still training at the end (== dp_size unless elastic shrank).
  int final_world = 0;
};

// Rejects unsupported or contradictory configurations (the replicated
// optimizer layout, elastic with restart_every, first_step without a
// checkpoint to continue from) with kInvalidArgument. TrainLm validates on
// entry and CHECK-fails on a non-OK status rather than silently dropping
// the requested behavior.
[[nodiscard]] Status ValidateNumericTrainConfig(const NumericTrainConfig& config);

// Runs the training job on config.dp_size rank threads and returns the
// loss curve.
TrainCurve TrainLm(const NumericTrainConfig& config);

// The synthetic task: token i's target is input[i-1] (previous-token copy,
// solvable only through attention). Deterministic in (seed, step, rank).
void MakeTrainingBatch(const ModelConfig& model, uint64_t seed, int64_t step, int rank,
                       int64_t batch, std::vector<int64_t>* inputs,
                       std::vector<int64_t>* targets);

// Precision helpers (exposed for tests).
void RoundParams(LmParams& params, TrainPrecision precision);

}  // namespace msmoe

#endif  // MSMOE_SRC_CORE_TRAINER_H_
