// Intra-rank data parallelism: ParallelFor, the only entry point kernel code
// uses, backed by one persistent fork-join team per calling thread.
//
// Layering (see DESIGN.md "Compute backend"): the comm layer runs one
// long-lived thread per simulated GPU rank (RunOnRanks); *within* a rank the
// compute kernels (GEMM row panels, GroupedGemm expert groups, attention
// heads) split their index range across that rank thread's own team. Teams
// are never shared: a calling thread fans out only to helpers it owns, so
// concurrent rank threads never queue behind each other. Helper i runs shard
// i of its owner's calls unless the owner, done with shard 0, gets to it
// first: the owner runs every shard no helper has started, so a helper slow
// to wake on an oversubscribed host never stalls the join.
// Rank threads keep their teams across RunOnRanks calls because the rank
// pool reruns rank i on the thread that last ran it whenever that thread is
// free. Nested ParallelFor calls (a shard that itself calls ParallelFor)
// degrade to inline execution, so helpers never block on further shards and
// a team cannot deadlock on itself.
//
// Determinism contract: ParallelFor only partitions the index range into
// contiguous shards; it never introduces cross-shard reductions. Kernels
// built on it keep every output element's accumulation order independent of
// the shard boundaries, so results are bit-identical for any worker count
// (MSMOE_NUM_THREADS ∈ {1, 4, ...}) — the property the fused-ops bitwise
// tests and fault-replay loss checks rely on.
//
// Width: the worker count is "threads per caller, counting the caller", and
// it holds per calling thread: at width w every rank thread that fans out
// uses itself plus w - 1 helpers of its own, so R concurrent ranks occupy up
// to R * w threads. MSMOE_NUM_THREADS sets it when set (clamped to [1, 64]);
// otherwise it is hardware_concurrency clamped to 16 — a single-caller
// default, which oversubscribes the host by the rank count when several
// ranks fan out at once. Multi-rank runs that care about a thread budget set
// it to budget / ranks via SetParallelWorkerCount (benches also use it to
// measure 1-vs-N-worker scaling in one process). Helpers are spawned on
// demand and joined when their owning thread exits.
#ifndef MSMOE_SRC_BASE_PARALLEL_FOR_H_
#define MSMOE_SRC_BASE_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace msmoe {

// Current worker cap used by ParallelFor (>= 1). This counts the calling
// thread: a value of 1 means every ParallelFor runs inline.
int ParallelWorkerCount();

// Overrides the worker cap (clamped to [1, 64]) for every calling thread.
// Takes effect for subsequent ParallelFor calls; already-spawned helpers are
// kept.
void SetParallelWorkerCount(int count);

// True while the current thread is executing a ParallelFor shard (a team
// helper, or the caller running its own shard). Nested ParallelFor calls see
// this and run inline.
bool InParallelWorker();

// Invokes fn over a disjoint partition of [0, n): fn(begin, end) with
// 0 <= begin < end <= n, covering every index exactly once. Shards are
// contiguous and balanced: min(ParallelWorkerCount(), ceil(n / grain)) of
// them, whose lengths differ by at most one. A fanned-out shard therefore
// holds at least grain / 2 indices (rounded down) but may hold fewer than
// `grain` (n = 256 at grain 234 gives two shards of 128). The caller
// executes shard 0 and every shard no helper has started, then blocks until
// all shards finish. Runs fn(0, n) inline when n <= grain, the cap is 1, or
// the call is nested inside another ParallelFor shard.
//
// Exceptions thrown by fn on any shard (including MSMOE_CHECK failures on
// helpers, which are converted to FatalError) are captured; the first
// one is rethrown on the calling thread after all shards complete.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t begin, int64_t end)>& fn);

// Grain for a loop whose indices cost about `nanos_per_index` each: shards
// of at least ~15 µs of work, a helper's wake-up cost, so splitting a short
// loop never costs more than it saves.
constexpr int64_t GrainForCost(double nanos_per_index) {
  const auto grain = static_cast<int64_t>(15000.0 / nanos_per_index);
  return grain > 1 ? grain : 1;
}

}  // namespace msmoe

#endif  // MSMOE_SRC_BASE_PARALLEL_FOR_H_
