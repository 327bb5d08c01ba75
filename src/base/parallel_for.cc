#include "src/base/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/obs/metrics.h"

namespace msmoe {
namespace {

constexpr int kMaxWorkers = 64;

int DefaultWorkerCount() {
  if (const char* env = std::getenv("MSMOE_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return std::min(parsed, kMaxWorkers);
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) {
    return 1;
  }
  // Without an explicit knob stay modest: oversubscribing every rank thread
  // by the full machine width multiplies thread counts (ranks x workers).
  return static_cast<int>(std::min(hc, 16u));
}

// 0 = "not overridden yet": fall back to DefaultWorkerCount().
std::atomic<int> g_worker_cap{0};

thread_local bool tls_in_parallel_shard = false;

// The fork-join team of one calling thread. Helper i is the preferred runner
// of shard i of every call its owner fans out; the owner runs shard 0 and
// then any helper shard no helper has started yet, so a helper that is slow
// to wake (an oversubscribed host) delays nothing. Concurrent callers such
// as rank threads never share or queue on each other's helpers. Helpers are
// spawned on demand and joined when the owning thread exits.
class Team {
 public:
  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  ~Team() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& helper : helpers_) {
      helper.join();
    }
  }

  // Contiguous balanced shards; shard s covers [s*n/shards, (s+1)*n/shards).
  // Returns the first exception any shard threw, after all shards finished.
  std::exception_ptr Run(int shards, int64_t n,
                         const std::function<void(int64_t, int64_t)>& fn) {
    while (static_cast<int>(helpers_.size()) < shards - 1) {
      const int index = static_cast<int>(helpers_.size()) + 1;
      helpers_.emplace_back(
          [this, index, seen = generation_] { HelperLoop(index, seen); });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      n_ = n;
      shards_ = shards;
      unclaimed_ = ((uint64_t{1} << (shards - 1)) - 1) << 1;  // shards 1..shards-1
      error_ = nullptr;
      ++generation_;
    }
    work_cv_.notify_all();
    // The owner's shards run marked as shards, so nesting inlines.
    tls_in_parallel_shard = true;
    RunShard(fn, n, shards, 0);
    for (;;) {
      int shard = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (unclaimed_ == 0) {
          break;
        }
        shard = std::countr_zero(unclaimed_);
        unclaimed_ &= unclaimed_ - 1;
      }
      RunShard(fn, n, shards, shard);
    }
    tls_in_parallel_shard = false;
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    fn_ = nullptr;
    return std::move(error_);
  }

 private:
  void HelperLoop(int index, uint64_t seen) {
    tls_in_parallel_shard = true;  // nested ParallelFor on a helper inlines
    // CHECK failures on helpers must not abort the process before the owner
    // gets to observe them.
    ScopedThrowOnFatal throw_on_fatal;
    const uint64_t bit = uint64_t{1} << index;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;  // the owner is exiting, so no call is in flight
      }
      seen = generation_;
      if ((unclaimed_ & bit) == 0) {
        continue;  // this call has fewer shards, or the owner took this one
      }
      unclaimed_ &= ~bit;
      ++running_;
      const std::function<void(int64_t, int64_t)>& fn = *fn_;
      const int64_t n = n_;
      const int shards = shards_;
      lock.unlock();
      RunShard(fn, n, shards, index);
      lock.lock();
      if (--running_ == 0) {
        done_cv_.notify_one();
      }
    }
  }

  void RunShard(const std::function<void(int64_t, int64_t)>& fn, int64_t n, int shards,
                int shard) {
    try {
      fn(n * shard / shards, n * (shard + 1) / shards);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) {
        error_ = std::current_exception();
      }
    }
  }

  // Guarded by mu_. generation_ and the call fields are written only by the
  // owner.
  std::mutex mu_;
  std::condition_variable work_cv_;  // generation_ advanced or shutdown
  std::condition_variable done_cv_;  // running_ reached zero
  uint64_t generation_ = 0;          // one per fanned-out call
  const std::function<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t n_ = 0;
  int shards_ = 0;
  uint64_t unclaimed_ = 0;  // bit s: helper shard s not started yet
  int running_ = 0;         // helper shards claimed by helpers, not finished
  std::exception_ptr error_;
  bool shutdown_ = false;
  std::vector<std::thread> helpers_;  // owner-thread only; helper i at [i - 1]
};

Team& ThreadTeam() {
  thread_local Team team;
  return team;
}

}  // namespace

int ParallelWorkerCount() {
  const int cap = g_worker_cap.load(std::memory_order_relaxed);
  if (cap > 0) {
    return cap;
  }
  static const int default_count = DefaultWorkerCount();
  return default_count;
}

void SetParallelWorkerCount(int count) {
  g_worker_cap.store(std::clamp(count, 1, kMaxWorkers), std::memory_order_relaxed);
}

bool InParallelWorker() { return tls_in_parallel_shard; }

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int64_t max_shards = (n + grain - 1) / grain;
  const int shards = static_cast<int>(
      std::min<int64_t>(ParallelWorkerCount(), max_shards));
  if (shards <= 1 || tls_in_parallel_shard) {
    fn(0, n);
    return;
  }

  // Registry feed for non-inline dispatches only: the inline fast path above
  // must stay a branch, and per-region (not per-shard-iteration) granularity
  // keeps the cost off the GEMM inner loops.
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    static const MetricId regions_id =
        registry.Counter("par.regions", "ParallelFor regions fanned out");
    static const MetricId shards_id =
        registry.Counter("par.shards", "ParallelFor shards dispatched");
    registry.Add(regions_id, 1.0);
    registry.Add(shards_id, static_cast<double>(shards));
  }

  if (std::exception_ptr error = ThreadTeam().Run(shards, n, fn)) {
    std::rethrow_exception(error);
  }
}

}  // namespace msmoe
