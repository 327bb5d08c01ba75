// Training-step benchmark of the threaded runtime: the ZeRO-1 data-parallel
// trainer (TrainLm) and the paper's SP+EP distributed step, each on a
// 4-thread compute budget (rank threads x ParallelFor workers).
//
//   step_bench --workload zero_dp|sp_ep --seed N --seconds S --trace 0|1
//
// A job is one training run from scratch: set-up (parameter init,
// communicator, optimizer state, rank threads) followed by kJobSteps
// optimizer steps. After an untimed verification job the benchmark
// alternates set-up-only jobs and kJobSteps-step jobs until --seconds have
// passed, then reports
//   setup_s       median time of a set-up-only job,
//   step_ms       median over jobs of (job time - setup_s) / kJobSteps,
//   tokens_per_s  tokens per optimizer step / step_ms.
// With --trace 1 the jobs run with the runtime's StepProfiler attached and
// the result holds per-layer metrics instead (per rank and step unless
// noted); traced_step_ms - step_ms is the tracing overhead.
//
// Correctness: the verification job's first loss must equal the
// single-rank reference forward on the same parameters and tokens, its
// loss must fall over kVerifySteps steps, and every timed job must
// reproduce the verification job's loss curve bit for bit (inputs depend
// only on --seed and the runtime is deterministic). The last stdout line
// is the JSON result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/arena.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/core/trainer.h"
#include "src/model/lm.h"
#include "src/model/optimizer.h"
#include "src/obs/step_profiler.h"
#include "src/parallel/distributed_lm.h"
#include "src/tensor/gemm_kernel.h"

namespace msmoe {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kThreadBudget = 4;  // rank threads x ParallelFor workers
constexpr int64_t kJobSteps = 10;
constexpr int64_t kVerifySteps = 40;
constexpr int64_t kLossWindow = 8;  // steps averaged at each end of the verify curve
constexpr size_t kMinJobs = 5;
constexpr double kReferenceTolerance = 1e-5;  // relative

enum class Kind { kZeroDp, kSpEp };

struct Workload {
  Kind kind = Kind::kZeroDp;
  int ranks = 1;
  int64_t batch = 0;  // sequences per optimizer step, summed over ranks
  ModelConfig model;
  RouterConfig router;
  AdamConfig adam;

  int workers() const { return kThreadBudget / ranks; }
  int64_t tokens_per_step() const { return batch * model.seq_len; }
};

// Both workloads train the same model on the same global batch, so their
// step times and tokens/s compare directly:
//   zero_dp  2 DP ranks x 2 workers through TrainLm's ZeRO-1 path: BF16
//            compute copy, BF16 all-to-all gradient reduction (§5), sharded
//            FP32 masters + Adam moments, BF16 parameter all-gather. Every
//            rank runs the single-rank model, so no SP/EP collective runs.
//   sp_ep    4 model-parallel ranks x 1 worker: Ulysses SP attention,
//            pipelined all-to-all EP dispatch with SAR
//            (DistributedLmForwardBackward), one all-reduce of the partial
//            gradients, replicated Adam. No ZeRO sharding or compression.
bool MakeWorkload(const std::string& name, Workload* w) {
  w->model = TinyMoeConfig(/*num_experts=*/8, /*top_k=*/2);
  w->model.num_layers = 2;
  w->model.hidden = 64;
  w->model.num_heads = 8;
  w->model.gqa_ratio = 2;
  w->model.ffn_hidden = 128;
  w->model.vocab = 256;
  w->model.seq_len = 64;
  w->router.num_experts = w->model.num_experts;
  w->router.top_k = w->model.top_k;
  w->adam.lr = 4e-3;
  w->batch = 8;
  if (name == "zero_dp") {
    w->kind = Kind::kZeroDp;
    w->ranks = 2;
    return true;
  }
  if (name == "sp_ep") {
    w->kind = Kind::kSpEp;
    w->ranks = 4;
    return true;
  }
  return false;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Job {
  // CE loss per step: the global batch for sp_ep, rank 0's batch for
  // zero_dp (TrainLm's curve).
  std::vector<double> loss;
  std::vector<CommEvent> events;  // every collective of a traced job
};

Job RunZeroDpJob(const Workload& w, uint64_t seed, int64_t steps, StepProfiler* profiler) {
  NumericTrainConfig config;
  config.model = w.model;
  config.router = w.router;
  config.adam = w.adam;
  config.dp_size = w.ranks;
  config.precision = TrainPrecision::kBf16;
  config.grad_sync = GradSyncMode::kBf16AllToAll;
  config.zero_shard_optimizer = true;
  config.param_gather_precision = TrainPrecision::kBf16;
  config.batch_per_rank = w.batch / w.ranks;
  config.steps = steps;
  config.seed = seed;
  config.profiler = profiler;
  config.capture_comm_events = profiler != nullptr;
  TrainCurve curve = TrainLm(config);
  return Job{std::move(curve.loss), std::move(curve.comm_events)};
}

Job RunSpEpJob(const Workload& w, uint64_t seed, int64_t steps, StepProfiler* profiler) {
  const int n = w.ranks;
  const ModelConfig& model = w.model;
  // One communicator carries the layer collectives and the gradient sum,
  // so the profiler sees every collective of the step.
  FlatCommunicator comm(n);
  ParallelMoeLayerOptions options;
  options.dispatch = EpDispatchMode::kAllToAll;
  options.sar = true;
  std::vector<std::vector<double>> rank_loss(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(steps), 0.0));
  RunOnRanks(n, [&](int rank) {
    Rng rng(seed);
    LmParams params = LmParams::Init(model, rng);
    AdamOptimizer adam(w.adam);
    for (Tensor* t : params.TensorList()) {
      adam.Register(t);
    }
    const int64_t total = params.TotalElements();
    std::vector<float> flat(static_cast<size_t>(total));
    std::vector<float> summed(static_cast<size_t>(total));
    std::vector<int64_t> inputs;
    std::vector<int64_t> targets;
    const ShardContext ctx{&comm, rank};
    for (int64_t step = 0; step < steps; ++step) {
      ScopedStep traced(profiler, rank, step, &comm.telemetry());
      MakeTrainingBatch(model, seed, step, /*rank=*/0, w.batch, &inputs, &targets);
      LmParams grads = LmParams::ZerosLike(model);
      const DistributedLmStats stats = DistributedLmForwardBackward(
          ctx, model, w.router, options, params,
          ShardTokenIds(inputs, w.batch, model.seq_len, rank, n),
          ShardTokenIds(targets, w.batch, model.seq_len, rank, n), w.batch,
          model.seq_len, &grads);
      // Token-local gradients are partial sums and expert gradients are
      // complete on the owner and zero elsewhere: one sum completes both.
      float* cursor = flat.data();
      grads.ForEachConst([&cursor](const std::string&, const Tensor& t) {
        std::memcpy(cursor, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
        cursor += t.numel();
      });
      comm.AllReduce(rank, flat.data(), summed.data(), total);
      const float* source = summed.data();
      grads.ForEach([&source](const std::string&, Tensor& t) {
        std::memcpy(t.data(), source, static_cast<size_t>(t.numel()) * sizeof(float));
        source += t.numel();
      });
      adam.Step(grads.TensorListConst());
      rank_loss[static_cast<size_t>(rank)][static_cast<size_t>(step)] = stats.ce_loss;
      traced.set_loss(stats.ce_loss);
    }
  });
  Job job;
  job.loss.assign(static_cast<size_t>(steps), 0.0);
  for (int64_t step = 0; step < steps; ++step) {
    // Ranks hold equal token counts, so the global mean is the rank mean.
    double sum = 0.0;
    for (int rank = 0; rank < n; ++rank) {
      sum += rank_loss[static_cast<size_t>(rank)][static_cast<size_t>(step)];
    }
    job.loss[static_cast<size_t>(step)] = sum / n;
  }
  if (profiler != nullptr) {
    job.events = comm.telemetry().Events();
  }
  return job;
}

Job RunJob(const Workload& w, uint64_t seed, int64_t steps, StepProfiler* profiler) {
  return w.kind == Kind::kZeroDp ? RunZeroDpJob(w, seed, steps, profiler)
                                 : RunSpEpJob(w, seed, steps, profiler);
}

// First-step loss of the single-rank reference model on the same
// parameters and tokens the workload trains on.
double ReferenceFirstLoss(const Workload& w, uint64_t seed) {
  Rng rng(seed);
  LmParams params = LmParams::Init(w.model, rng);
  std::vector<int64_t> inputs;
  std::vector<int64_t> targets;
  int64_t batch = w.batch;
  if (w.kind == Kind::kZeroDp) {
    // TrainLm's curve is rank 0's loss on its own micro-batch, computed on
    // the BF16 compute copy of the parameters.
    RoundParams(params, TrainPrecision::kBf16);
    batch = w.batch / w.ranks;
  }
  MakeTrainingBatch(w.model, seed, /*step=*/0, /*rank=*/0, batch, &inputs, &targets);
  return LmForwardLoss(params, w.model, w.router, inputs, targets, batch);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values, size_t begin, size_t end) {
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(end - begin);
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Per-layer totals over every traced job.
struct TraceTotals {
  int64_t rank_steps = 0;
  std::vector<double> compute_ms;
  std::vector<double> exposed_comm_ms;
  std::vector<double> comm_ms;
  std::vector<double> imbalance;
  double wire_bytes = 0.0;
  double collectives = 0.0;
  double grad_sync_us = 0.0;
  double alltoall_us = 0.0;
  double gemm_us = 0.0;
  double grouped_gemm_us = 0.0;
  double gemm_flops = 0.0;
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;
  uint64_t heap_allocs = 0;
  int64_t steps = 0;
};

// Gradient-synchronization collectives: in the ZeRO trainer every
// collective reduces gradients or gathers parameters; in the SP+EP step the
// layers only use all-to-all(v) and the gradient sum is the one all-reduce.
bool IsGradSync(const Workload& w, const CommEvent& event) {
  return w.kind == Kind::kZeroDp || event.op == CommOp::kAllReduce;
}

void AddTrace(const Workload& w, const Job& job, const StepProfiler& profiler,
              const KernelStatsSnapshot& kernel_before, const KernelStatsSnapshot& kernel_after,
              const MemStatsSnapshot& mem_before, const MemStatsSnapshot& mem_after,
              TraceTotals* totals) {
  for (const StepReport& report : profiler.reports()) {
    ++totals->rank_steps;
    totals->compute_ms.push_back(report.compute_ms);
    totals->exposed_comm_ms.push_back(report.exposed_comm_ms);
    totals->comm_ms.push_back(report.comm_ms);
    totals->imbalance.push_back(report.expert_imbalance);
    totals->wire_bytes += static_cast<double>(report.wire_bytes);
    totals->collectives += static_cast<double>(report.collectives);
  }
  for (const CommEvent& event : job.events) {
    if (IsGradSync(w, event)) {
      totals->grad_sync_us += event.duration_us;
    }
    if (event.op == CommOp::kAllToAll || event.op == CommOp::kAllToAllV) {
      totals->alltoall_us += event.duration_us;
    }
  }
  totals->gemm_us += kernel_after.gemm_micros - kernel_before.gemm_micros;
  totals->grouped_gemm_us += kernel_after.grouped_gemm_micros - kernel_before.grouped_gemm_micros;
  totals->gemm_flops += (kernel_after.gemm_flops - kernel_before.gemm_flops) +
                        (kernel_after.grouped_gemm_flops - kernel_before.grouped_gemm_flops);
  totals->acquires += mem_after.acquires - mem_before.acquires;
  totals->pool_hits += mem_after.pool_hits - mem_before.pool_hits;
  totals->heap_allocs += mem_after.heap_allocs - mem_before.heap_allocs;
  totals->steps += kJobSteps;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEndMetrics(const Workload& w, double setup_s,
                                    const std::vector<double>& step_s) {
  const double median_s = Median(step_s);
  return {
      {"step_ms", median_s * 1e3, "ms"},
      {"tokens_per_s", static_cast<double>(w.tokens_per_step()) / median_s, "tokens/s"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const std::vector<double>& step_s,
                                    const TraceTotals& t) {
  const double rank_steps = static_cast<double>(t.steps) * w.ranks;
  const double step_ms = Median(step_s) * 1e3;
  const double gflop = t.gemm_flops / 1e9 / rank_steps;
  return {
      {"traced_step_ms", step_ms, "ms"},
      {"compute_ms", Median(t.compute_ms), "ms"},
      {"exposed_comm_ms", Median(t.exposed_comm_ms), "ms"},
      {"comm_ms", Median(t.comm_ms), "ms"},
      {"dense_gemm_ms", t.gemm_us / 1e3 / rank_steps, "ms"},
      {"expert_gemm_ms", t.grouped_gemm_us / 1e3 / rank_steps, "ms"},
      {"grad_sync_ms", t.grad_sync_us / 1e3 / rank_steps, "ms"},
      {"alltoall_ms", t.alltoall_us / 1e3 / rank_steps, "ms"},
      {"gemm_gflop", gflop, "GFLOP"},
      {"achieved_gflops", gflop / (step_ms / 1e3), "GFLOP/s"},
      {"wire_mb", t.wire_bytes / 1e6 / static_cast<double>(t.rank_steps), "MB"},
      {"collectives", t.collectives / static_cast<double>(t.rank_steps), "count"},
      {"heap_allocs", static_cast<double>(t.heap_allocs) / static_cast<double>(t.steps),
       "count"},
      {"pool_hit_rate",
       t.acquires == 0 ? 1.0
                       : static_cast<double>(t.pool_hits) / static_cast<double>(t.acquires),
       "ratio"},
      {"expert_imbalance", Median(t.imbalance), "ratio"},
  };
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(const Workload& w, uint64_t seed, double seconds, bool trace) {
  SetParallelWorkerCount(w.workers());

  // Untimed verification job; it also warms the arena pools, the rank
  // thread pool and the ParallelFor workers.
  const Job verify = RunJob(w, seed, kVerifySteps, nullptr);
  const double reference = ReferenceFirstLoss(w, seed);
  const std::vector<double>& curve = verify.loss;
  const double first = Mean(curve, 0, kLossWindow);
  const double last = Mean(curve, curve.size() - kLossWindow, curve.size());
  bool correct = true;
  if (!AllFinite(curve)) {
    std::fprintf(stderr, "verification: non-finite loss\n");
    correct = false;
  } else if (std::fabs(curve[0] - reference) > kReferenceTolerance * std::fabs(reference)) {
    std::fprintf(stderr, "verification: first loss %.9g != reference %.9g\n", curve[0],
                 reference);
    correct = false;
  } else if (!(last < first)) {
    std::fprintf(stderr, "verification: loss did not fall (%.6f -> %.6f)\n", first, last);
    correct = false;
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> job_s;
  TraceTotals totals;
  const Clock::time_point start = Clock::now();
  while (job_s.size() < kMinJobs || SecondsSince(start) < seconds) {
    Clock::time_point begin = Clock::now();
    RunJob(w, seed, 0, nullptr);
    setup_s.push_back(SecondsSince(begin));

    std::unique_ptr<StepProfiler> profiler;
    if (trace) {
      StepProfilerConfig config;
      config.world = w.ranks;
      config.peak_flops_per_sec = 1e9;  // nonzero: skip the MFU calibration burst
      profiler = std::make_unique<StepProfiler>(config);
    }
    const KernelStatsSnapshot kernel_before = GetKernelStats();
    const MemStatsSnapshot mem_before = GetMemStats();
    begin = Clock::now();
    const Job job = RunJob(w, seed, kJobSteps, profiler.get());
    job_s.push_back(SecondsSince(begin));
    const KernelStatsSnapshot kernel_after = GetKernelStats();
    const MemStatsSnapshot mem_after = GetMemStats();

    attempted += kJobSteps;
    for (int64_t s = 0; s < kJobSteps; ++s) {
      const double loss = job.loss[static_cast<size_t>(s)];
      if (!std::isfinite(loss) || !SameBits(loss, curve[static_cast<size_t>(s)])) {
        ++failed;
      }
    }
    if (trace) {
      AddTrace(w, job, *profiler, kernel_before, kernel_after, mem_before, mem_after,
               &totals);
    }
  }

  const double setup = Median(setup_s);
  std::vector<double> step_s;
  for (double s : job_s) {
    step_s.push_back((s - setup) / static_cast<double>(kJobSteps));
  }
  std::fprintf(stderr, "%s: %zu jobs x %lld steps, %zu set-up runs, %lld/%lld steps failed\n",
               w.kind == Kind::kZeroDp ? "zero_dp" : "sp_ep", job_s.size(),
               static_cast<long long>(kJobSteps), setup_s.size(),
               static_cast<long long>(failed), static_cast<long long>(attempted));
  PrintResult(correct && failed == 0, attempted, failed,
              trace ? PerLayerMetrics(w, step_s, totals) : EndToEndMetrics(w, setup, step_s));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: step_bench --workload zero_dp|sp_ep --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace msmoe

int main(int argc, char** argv) {
  std::string workload_name;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
      continue;
    }
    if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return msmoe::Usage();
    }
    if (end == value || *end != '\0') {
      return msmoe::Usage();
    }
  }
  msmoe::Workload workload;
  if (argc % 2 != 1 || !msmoe::MakeWorkload(workload_name, &workload) || seed < 0 ||
      !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return msmoe::Usage();
  }
  return msmoe::Run(workload, static_cast<uint64_t>(seed), seconds, trace == 1);
}
