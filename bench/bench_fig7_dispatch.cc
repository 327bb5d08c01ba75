// Figure 7: comparison of all-gather, reduce-scatter, and all-to-all for
// token dispatch in Mixtral-8x7B as a function of top-k, on one 8-GPU H800
// node. Reports both the simulated collective times (the paper's
// measurement) and the analytic communication volumes (Eqs 3-4), and the
// dispatch mode the planner consequently selects.
//
// Besides the analytic table, a MEASURED section times the real fused EP
// dispatch/combine pipeline (src/parallel/ep_ffn) at chunk counts C > 1
// against the same pipeline at C = 1 (no overlap: dispatch, expert
// compute and combine run back to back) on the thread-rank substrate,
// across chunk counts and worker counts. The Communicator's emulated wire
// clock is calibrated from the measured wire_bytes of one C=1 step so
// comm ~= comp (the regime where the §4.2 overlap pays). Each point times
// C=1 and C as interleaved pairs, alternating which side runs first, and
// reports the median per-pair C=1/C ratio with its p10/p90 spread. Results
// go to BENCH_fig7.json: the analytic per-top-k rows plus a "measured"
// object with the overlap sweep.
//
// With --check, runs only the measured sweep and exits non-zero unless
// (a) every chunked output is bitwise equal to the C=1 output and (b) the
// steady-state dispatch path performs zero heap (pool-miss) allocations —
// the Release-mode dispatch smoke of tools/check.sh. The speedup is
// reported, not gated: on a shared 4-vCPU host under load, a run's median
// paired ratio can fall below 1.0, so no speedup threshold holds reliably.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/arena.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/base/units.h"
#include "src/comm/communicator.h"
#include "src/core/parallelism_planner.h"
#include "src/model/config.h"
#include "src/model/router.h"
#include "src/parallel/ep_ffn.h"
#include "src/sim/cost_model.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Measured-mode problem shape: 4 thread-ranks, top-2 routing over 8
// experts. Sized so one expert-compute phase is a few ms — the per-chunk
// pipeline overhead (comm-thread dispatch, rendezvous, cv signaling) must
// stay well under the overlapped wire time.
constexpr int kRanks = 4;
constexpr int64_t kExperts = 8;
constexpr int64_t kHidden = 256;
constexpr int64_t kFfnHidden = 512;
constexpr int64_t kTokensLocal = 192;
constexpr int64_t kTopK = 2;
constexpr int kWarmup = 1;
constexpr int kReps = 3;    // calibration step repetitions
constexpr int kPairs = 9;   // interleaved (C=1, C) timing pairs per point
constexpr double kWireLatencyUs = 5.0;

struct MeasuredPoint {
  int workers = 0;
  int chunks = 0;
  TimingStats c1_stats;       // C=1 step times across the pairs
  TimingStats chunked_stats;  // C step times across the pairs
  double speedup = 0.0;       // median per-pair C=1/C ratio
  double speedup_p10 = 0.0;
  double speedup_p90 = 0.0;
  int faster_pairs = 0;       // pairs in which C beat C=1
  bool bitwise_equal = false;
};

struct MeasuredReport {
  double comp_ms = 0.0;       // C=1 step wall time with the wire model off
  TimingStats comp_stats;     // spread behind comp_ms
  double wire_ms = 0.0;       // modeled wire occupancy of one step after calibration
  uint64_t step_wire_bytes = 0;
  uint64_t steady_heap_allocs = 0;  // pool misses across steady-state chunked steps
  std::vector<MeasuredPoint> points;
  bool all_bitwise = true;
};

bool SameOutputs(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  for (size_t rank = 0; rank < a.size(); ++rank) {
    if (std::memcmp(a[rank].data(), b[rank].data(),
                    static_cast<size_t>(a[rank].numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

MeasuredReport RunMeasured() {
  ModelConfig model;
  model.hidden = kHidden;
  model.ffn_hidden = kFfnHidden;
  model.num_experts = kExperts;
  model.top_k = kTopK;

  Rng rng(21);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < kExperts; ++e) {
    w1.push_back(Tensor::Randn({kHidden, kFfnHidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({kHidden, kFfnHidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({kFfnHidden, kHidden}, rng, 0.0f, 0.2f));
  }
  const Tensor w_gate = Tensor::Randn({kHidden, kExperts}, rng, 0.0f, 0.3f);
  RouterConfig router;
  router.num_experts = kExperts;
  router.top_k = kTopK;

  std::vector<Tensor> x_locals;
  std::vector<RoutingResult> routings;
  for (int rank = 0; rank < kRanks; ++rank) {
    x_locals.push_back(Tensor::Randn({kTokensLocal, kHidden}, rng));
    Tensor logits = MatMul(x_locals.back(), w_gate);
    routings.push_back(RouteTokens(logits, router));
  }

  FlatCommunicator comm(kRanks);
  std::vector<Tensor> y_c1(kRanks);
  std::vector<Tensor> y_chunked(kRanks);
  std::vector<EpFfnCache> caches(kRanks);  // reused: steady-state pool hits

  auto run_step = [&](int chunks, std::vector<Tensor>* out) {
    RunOnRanks(kRanks, [&](int rank) {
      ShardContext ctx{&comm, rank};
      (*out)[static_cast<size_t>(rank)] = EpFfnForward(
          ctx, model, EpDispatchMode::kAllToAll,
          EpPipelineConfig{chunks, /*fp8_dispatch=*/false}, w1, w3, w2,
          x_locals[static_cast<size_t>(rank)], routings[static_cast<size_t>(rank)],
          &caches[static_cast<size_t>(rank)]);
    });
  };

  MeasuredReport report;

  // Calibrate the emulated wire so one step's total all-to-all traffic
  // costs about one compute phase (comm ~= comp): measure a C=1 step with
  // the wire model off, read the step's wire bytes off the communicator,
  // and size bytes/us so that volume takes that long.
  report.comp_stats = TimedStatsOfN(kWarmup, kReps, [&] { run_step(1, &y_c1); });
  const double comp_s = report.comp_stats.median_s;
  report.comp_ms = comp_s * 1e3;
  const uint64_t bytes_before = comm.wire_bytes();
  run_step(1, &y_c1);
  report.step_wire_bytes = comm.wire_bytes() - bytes_before;
  const double target_us = std::max(comp_s * 1e6, 100.0);
  const double bytes_per_us = static_cast<double>(report.step_wire_bytes) / target_us;
  comm.SetWireModel(bytes_per_us, kWireLatencyUs);
  report.wire_ms = static_cast<double>(report.step_wire_bytes) / bytes_per_us / 1e3;

  // Paired timing: host noise (other tenants, frequency shifts) drifts on a
  // scale of seconds, so back-to-back C=1/C pairs see nearly the same host
  // and their ratio cancels most of it; alternating the order cancels the
  // residual first/second-slot bias.
  const int default_workers = ParallelWorkerCount();
  for (int workers : {1, 2}) {
    SetParallelWorkerCount(workers);
    for (int chunks : {2, 4, 8}) {
      MeasuredPoint point;
      point.workers = workers;
      point.chunks = chunks;
      run_step(1, &y_c1);
      run_step(chunks, &y_chunked);
      std::vector<double> c1_s, chunked_s, ratios;
      for (int pair = 0; pair < kPairs; ++pair) {
        double t1 = 0.0;
        double tc = 0.0;
        if (pair % 2 == 0) {
          t1 = TimedSeconds([&] { run_step(1, &y_c1); });
          tc = TimedSeconds([&] { run_step(chunks, &y_chunked); });
        } else {
          tc = TimedSeconds([&] { run_step(chunks, &y_chunked); });
          t1 = TimedSeconds([&] { run_step(1, &y_c1); });
        }
        c1_s.push_back(t1);
        chunked_s.push_back(tc);
        ratios.push_back(t1 / tc);
        point.faster_pairs += tc < t1 ? 1 : 0;
      }
      std::sort(ratios.begin(), ratios.end());
      point.speedup = ratios[ratios.size() / 2];
      point.speedup_p10 = SortedPercentile(ratios, 0.10);
      point.speedup_p90 = SortedPercentile(ratios, 0.90);
      point.c1_stats = SummarizeSeconds(std::move(c1_s));
      point.chunked_stats = SummarizeSeconds(std::move(chunked_s));
      point.bitwise_equal = SameOutputs(y_chunked, y_c1);
      report.all_bitwise = report.all_bitwise && point.bitwise_equal;
      report.points.push_back(point);
    }
  }
  SetParallelWorkerCount(default_workers);

  // Zero-alloc gate: after warmup, steady-state chunked steps must be all
  // pool hits — no fresh heap allocations in the dispatch path.
  for (int i = 0; i < 3; ++i) {
    run_step(4, &y_chunked);
  }
  const uint64_t allocs_before = GetMemStats().heap_allocs;
  for (int i = 0; i < 3; ++i) {
    run_step(4, &y_chunked);
  }
  report.steady_heap_allocs = GetMemStats().heap_allocs - allocs_before;
  return report;
}

void PrintMeasured(const MeasuredReport& report) {
  std::printf("\nMeasured EP dispatch/combine pipeline, C chunks vs C=1 (%d thread-ranks, "
              "%lld experts, %lld tokens/rank, h=%lld, top-%lld; emulated wire "
              "calibrated to comm ~= comp: comp %.1f ms, wire %.1f ms/step; %d "
              "interleaved pairs per point):\n",
              kRanks, static_cast<long long>(kExperts),
              static_cast<long long>(kTokensLocal), static_cast<long long>(kHidden),
              static_cast<long long>(kTopK), report.comp_ms, report.wire_ms, kPairs);
  TablePrinter table({"Workers", "Chunks", "C=1 (ms)", "C (ms)", "Median C=1/C",
                      "p10-p90", "C faster", "Bitwise"});
  for (const MeasuredPoint& point : report.points) {
    table.AddRow({std::to_string(point.workers), std::to_string(point.chunks),
                  TablePrinter::Fmt(point.c1_stats.median_s * 1e3, 2),
                  TablePrinter::Fmt(point.chunked_stats.median_s * 1e3, 2),
                  TablePrinter::Fmt(point.speedup, 2) + "x",
                  TablePrinter::Fmt(point.speedup_p10, 2) + "-" +
                      TablePrinter::Fmt(point.speedup_p90, 2),
                  std::to_string(point.faster_pairs) + "/" + std::to_string(kPairs),
                  point.bitwise_equal ? "yes" : "NO"});
  }
  table.Print("Measured fused dispatch pipeline (src/parallel/ep_ffn):");
  std::printf("steady-state heap allocs across 3 chunked steps: %llu\n",
              static_cast<unsigned long long>(report.steady_heap_allocs));
}

struct AnalyticRow {
  int64_t top_k = 0;
  double a2a_time_us = 0.0;
  double ag_time_us = 0.0;
  double a2a_volume = 0.0;
  double ag_volume = 0.0;
  const char* pick = "";
};

std::vector<AnalyticRow> AnalyticRows() {
  const ModelConfig model = ModelConfigByName("Mixtral-8x7B").value();
  const CostModel cost(MakeCluster("H800", 8).value());
  const int n = 8;
  const int64_t tokens_per_rank = model.seq_len / n;
  const int64_t bytes_per_token = model.hidden * 2;
  std::vector<AnalyticRow> rows;
  for (int64_t k = 1; k <= 8; ++k) {
    AnalyticRow row;
    row.top_k = k;
    row.a2a_time_us = cost.AllToAllTime(tokens_per_rank * k * bytes_per_token, n, false);
    row.ag_time_us = cost.RingCollectiveTime(tokens_per_rank * bytes_per_token, n, false);
    row.a2a_volume =
        EpFfnCommBytes(1, model.seq_len, model.hidden, n, k, EpDispatchMode::kAllToAll) /
        2.0;  // dispatch half of dispatch+combine
    row.ag_volume = EpFfnCommBytes(1, model.seq_len, model.hidden, n, k,
                                   EpDispatchMode::kAllGatherScatter) /
                    2.0;
    row.pick = EpDispatchModeName(ChooseEpDispatch(k, n));
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::vector<AnalyticRow>& rows, const MeasuredReport* measured) {
  const char* json_path = "BENCH_fig7.json";
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> json(std::fopen(json_path, "wb"),
                                                       &std::fclose);
  if (json == nullptr) {
    return;
  }
  std::fprintf(json.get(),
               "{\"bench\":\"fig7_dispatch\",\"model\":\"Mixtral-8x7B\","
               "\"gpus\":%d,\"rows\":[",
               8);
  for (size_t i = 0; i < rows.size(); ++i) {
    const AnalyticRow& row = rows[i];
    std::fprintf(json.get(),
                 "%s{\"top_k\":%lld,\"a2a_time_us\":%.3f,\"ag_time_us\":%.3f,"
                 "\"rs_time_us\":%.3f,\"a2a_volume_bytes\":%.0f,"
                 "\"ag_volume_bytes\":%.0f,\"planner_picks\":\"%s\"}",
                 i == 0 ? "" : ",", static_cast<long long>(row.top_k), row.a2a_time_us,
                 row.ag_time_us, row.ag_time_us, row.a2a_volume, row.ag_volume, row.pick);
  }
  std::fprintf(json.get(), "]");
  if (measured != nullptr) {
    std::string comp_spread;
    AppendTimingSpreadJson(&comp_spread, "comp", measured->comp_stats);
    std::fprintf(json.get(),
                 ",\"measured\":{\"ranks\":%d,\"experts\":%lld,\"tokens_local\":%lld,"
                 "\"hidden\":%lld,\"top_k\":%lld,\"pairs\":%d,"
                 "\"comp_ms\":%.3f,%s,\"wire_ms\":%.3f,\"step_wire_bytes\":%llu,"
                 "\"all_bitwise\":%s,\"steady_heap_allocs\":%llu,\"points\":[",
                 kRanks, static_cast<long long>(kExperts),
                 static_cast<long long>(kTokensLocal), static_cast<long long>(kHidden),
                 static_cast<long long>(kTopK), kPairs, measured->comp_ms,
                 comp_spread.c_str(), measured->wire_ms,
                 static_cast<unsigned long long>(measured->step_wire_bytes),
                 measured->all_bitwise ? "true" : "false",
                 static_cast<unsigned long long>(measured->steady_heap_allocs));
    for (size_t i = 0; i < measured->points.size(); ++i) {
      const MeasuredPoint& point = measured->points[i];
      std::string spread;
      AppendTimingSpreadJson(&spread, "c1", point.c1_stats);
      spread += ", ";
      AppendTimingSpreadJson(&spread, "chunked", point.chunked_stats);
      std::fprintf(json.get(),
                   "%s\n  {\"workers\":%d,\"chunks\":%d,\"c1_ms\":%.3f,"
                   "\"chunked_ms\":%.3f,\"median_speedup\":%.3f,"
                   "\"p10_speedup\":%.3f,\"p90_speedup\":%.3f,\"faster_pairs\":%d,"
                   "%s,\"bitwise\":%s}",
                   i == 0 ? "" : ",", point.workers, point.chunks,
                   point.c1_stats.median_s * 1e3, point.chunked_stats.median_s * 1e3,
                   point.speedup, point.speedup_p10, point.speedup_p90,
                   point.faster_pairs, spread.c_str(),
                   point.bitwise_equal ? "true" : "false");
    }
    std::fprintf(json.get(), "\n]}");
  }
  std::fprintf(json.get(), "}\n");
  std::printf("\nmachine-readable output: %s\n", json_path);
}

int CheckMode() {
  const MeasuredReport report = RunMeasured();
  PrintMeasured(report);
  WriteJson(AnalyticRows(), &report);
  if (!report.all_bitwise) {
    std::printf("\nDISPATCH SMOKE FAILED: chunked dispatch output not bitwise equal to "
                "the C=1 output\n");
    return 1;
  }
  if (report.steady_heap_allocs != 0) {
    std::printf("\nDISPATCH SMOKE FAILED: %llu steady-state heap allocations in the "
                "dispatch path (expected 0)\n",
                static_cast<unsigned long long>(report.steady_heap_allocs));
    return 1;
  }
  std::printf("\ndispatch smoke ok: every chunk count bitwise equal to C=1, zero "
              "steady-state heap allocs\n");
  return 0;
}

void Run() {
  PrintHeader("Figure 7 — AG / RS / A2A token-dispatch time vs top-k",
              "Mixtral-8x7B shapes (h=4096, seq 8192), one 8-GPU H800 node");
  PrintPaperNote("when top-k > 6 the all-gather-based EP implementation wins");

  const std::vector<AnalyticRow> rows = AnalyticRows();
  TablePrinter table({"top-k", "A2A time (us)", "AG time (us)", "RS time (us)",
                      "A2A volume (MiB)", "AG volume (MiB)", "Planner picks"});
  for (const AnalyticRow& row : rows) {
    table.AddRow({TablePrinter::Fmt(row.top_k), TablePrinter::Fmt(row.a2a_time_us, 1),
                  TablePrinter::Fmt(row.ag_time_us, 1),
                  TablePrinter::Fmt(row.ag_time_us, 1),
                  TablePrinter::Fmt(row.a2a_volume / kMiB, 1),
                  TablePrinter::Fmt(row.ag_volume / kMiB, 1), row.pick});
  }
  table.Print("Dispatch-communication time vs top-k (AG and RS are symmetric):");

  const MeasuredReport measured = RunMeasured();
  PrintMeasured(measured);
  WriteJson(rows, &measured);
}

}  // namespace
}  // namespace msmoe

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      return msmoe::CheckMode();
    }
  }
  msmoe::Run();
  return 0;
}
