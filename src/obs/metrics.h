// MetricsRegistry: the one registration API behind every runtime counter.
//
// The repo grew several ad-hoc stat blocks — KernelStats (gemm_kernel.h),
// MemStats (arena.h), CommTelemetry wire-byte totals, expert-load imbalance
// counters — each with its own snapshot/reset pair. The registry absorbs
// them behind one typed facade: subsystems register named counters, gauges,
// and histograms once (function-local static MetricId), record with a
// couple of relaxed atomic ops, and every consumer aggregates through one
// Snapshot() / PrometheusText() call. The legacy stat blocks stay as the
// cheap primary storage where they are on a per-allocation hot path; the
// registry carries the event-grained runtime series (collectives, exec-graph
// ops, parallel regions, per-step profiler rollups) and the scrape surface.
//
// Design:
//   * Per-thread sharded recording. Each recording thread owns a shard of
//     cells (one per metric). Counter adds and histogram observations touch
//     only the owner's shard — relaxed atomic load+store, no contention.
//     Aggregation walks all shards (plus the folded values of retired
//     threads) on demand under the registry mutex. Gauges are last-write-
//     wins global atomics (gauge writes are rare).
//   * Zero steady-state heap allocations. A shard allocates when its thread
//     first records (and when a metric registered later than the shard
//     forces a grow); after that warm-up every record is allocation-free,
//     preserving the zero-alloc training step of the memory PR. Disabling
//     the registry (set_enabled(false)) short-circuits every record to a
//     single relaxed load + branch.
//   * This header deliberately depends on nothing in the repo (std only):
//     it is linked UNDER msmoe_base so arena / parallel_for / telemetry /
//     exec_graph can all record without a dependency cycle. The profiler
//     and anomaly layers live above, in src/obs/step_profiler.h.
#ifndef MSMOE_SRC_OBS_METRICS_H_
#define MSMOE_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace msmoe {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

// Opaque handle returned by registration; cheap to copy, valid for the
// process lifetime. Default-constructed ids are invalid and record nowhere.
struct MetricId {
  int index = -1;
  bool valid() const { return index >= 0; }
};

struct HistogramSnapshot {
  // Upper bucket bounds (inclusive); an implicit +inf bucket follows.
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries
  uint64_t count = 0;
  double sum = 0.0;
};

struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  double value = 0.0;  // counter total / gauge value
  HistogramSnapshot histogram;
};

struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;
  const MetricSnapshot* Find(const std::string& name) const;
};

class MetricsRegistry {
 public:
  // The process-wide registry (intentionally leaked: persistent pool
  // threads may record until process exit).
  static MetricsRegistry& Global();

  // Registration is idempotent by name: re-registering returns the existing
  // id. Re-registering with a different type aborts — a name is a type.
  MetricId Counter(const std::string& name, const std::string& help);
  MetricId Gauge(const std::string& name, const std::string& help);
  MetricId Histogram(const std::string& name, const std::string& help,
                     std::vector<double> bucket_bounds);

  // Counter add / histogram observation (per-thread shard, wait-free) and
  // gauge set (global last-write-wins). No-ops when disabled or the id is
  // invalid.
  void Add(MetricId id, double value);
  void Set(MetricId id, double value);

  // Disabled => every record path is a relaxed load + branch, nothing else.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // On-demand aggregation over live shards + retired-thread residue, in
  // registration order.
  MetricsSnapshot Snapshot() const;

  // Prometheus text exposition of Snapshot(): `# HELP` / `# TYPE` preamble,
  // counters/gauges as plain samples, histograms as cumulative _bucket /
  // _sum / _count families. Metric names are sanitized ('.' -> '_').
  std::string PrometheusText() const;

  // Zeroes every recorded value (live shards, retired residue, gauges).
  // Registrations survive. Call while recording threads are quiescent if an
  // exact zero matters.
  void ResetValues();

  size_t metric_count() const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl* impl();  // lazily built, leaked
  std::atomic<bool> enabled_{true};
  std::atomic<Impl*> impl_{nullptr};

  MetricId Register(const std::string& name, const std::string& help, MetricType type,
                    std::vector<double> bounds);
};

// ---------------------------------------------------------------------------
// Per-step executor feed (consumed by obs/step_profiler.h).
// ---------------------------------------------------------------------------
//
// While a ScopedStep is active on a rank thread, the runtime task-graph
// executor (core/exec_graph) reports each executed graph here, so the
// profiler can attribute per-step pipeline bubble (compute idle inside the
// graph span, including comm waits run on stream 0) without the trainer
// threading timing structs through every call. Plain accumulation — only
// the owning thread touches its sink.
struct ExecStepStats {
  int graphs = 0;
  double makespan_us = 0.0;       // summed over graphs executed this step
  double compute_busy_us = 0.0;   // compute op time
  double comm_busy_us = 0.0;      // comm op time, whatever the stream
  double bubble_us = 0.0;         // makespan - compute busy, per graph
};

// The calling thread's active sink, or nullptr when no step is being
// profiled. Installation nests: the installer restores the previous value.
ExecStepStats* CurrentThreadExecStats();
ExecStepStats* SetCurrentThreadExecStats(ExecStepStats* stats);  // returns previous

}  // namespace msmoe

#endif  // MSMOE_SRC_OBS_METRICS_H_
