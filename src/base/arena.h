// Pooled tensor/staging memory for the steady-state training step.
//
// Every hot-path buffer in the repo (Tensor storage, fused-op staging,
// comm-chunk scratch, grad-sync wire copies) is acquired from a global
// size-bucketed pool instead of the system heap. Freed blocks are kept in
// per-size-class free lists and handed back LIFO, so a training step whose
// allocation pattern matches the previous step's is served entirely from
// the pool: the second and later steps perform zero heap allocations.
//
// Design points:
//   * Size classes are powers of two (min 64 bytes). A block released with
//     size N is reusable by ANY later request whose class matches — e.g. a
//     [4, 8] tensor's block serves a later [8, 4] or [32] tensor.
//   * Acquired memory is UNINITIALIZED (possibly recycled contents). Callers
//     that need zeros must clear it themselves; Tensor's value constructor
//     does, Tensor::Uninit does not. Bitwise determinism is preserved
//     because every element a computation reads is either explicitly
//     zeroed or fully written first (see DESIGN.md "memory model").
//   * Thread-safe: one mutex per size class. Blocks may be released on a
//     different thread than they were acquired on (tensors created on rank
//     threads, destroyed by the main thread); the bucket mutex provides the
//     necessary happens-before for the recycled contents.
//   * Observability: MemStats counters (mirroring KernelStats) count
//     acquires, pool hits, heap (pool-miss) allocations, bytes, live bytes
//     and the high-water mark — globally and per MemoryScope phase. The
//     "zero hot-path heap allocations" gate in bench_memory and the trainer
//     regression test is `heap_allocs` staying flat across steps.
//   * SetArenaPoolingEnabled(false) turns the arena into a plain
//     malloc/free shim (every acquire is a heap alloc, every release a
//     free). bench_memory uses it to measure the before/after delta in one
//     binary.
#ifndef MSMOE_SRC_BASE_ARENA_H_
#define MSMOE_SRC_BASE_ARENA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace msmoe {

// ---------------------------------------------------------------------------
// Raw pooled allocation.
// ---------------------------------------------------------------------------

// Returns an uninitialized 64-byte-aligned block of at least `bytes` bytes.
// bytes == 0 returns nullptr. Never returns null for bytes > 0 (aborts on
// exhaustion like operator new).
void* ArenaAcquire(int64_t bytes);

// Returns a block to the pool. `bytes` must be the size passed to the
// matching ArenaAcquire (the size class is recomputed from it). p == nullptr
// is a no-op.
void ArenaRelease(void* p, int64_t bytes);

inline float* ArenaAcquireFloats(int64_t count) {
  return static_cast<float*>(ArenaAcquire(count * static_cast<int64_t>(sizeof(float))));
}
inline void ArenaReleaseFloats(float* p, int64_t count) {
  ArenaRelease(p, count * static_cast<int64_t>(sizeof(float)));
}

// When disabled the pool is bypassed entirely: acquires call the system
// allocator and releases free immediately. Blocks already sitting in the
// free lists stay there (ArenaTrim reclaims them). Default: enabled.
void SetArenaPoolingEnabled(bool enabled);

// Frees every block currently held in the free lists back to the system.
// Outstanding (live) blocks are unaffected. Mainly for benchmarks that want
// a cold pool, and for bounding memory after a large transient workload.
void ArenaTrim();

// ---------------------------------------------------------------------------
// MemStats: allocation telemetry (mirrors KernelStats in gemm_kernel.h).
// ---------------------------------------------------------------------------

struct MemPhaseSnapshot {
  std::string name;
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;
  uint64_t heap_allocs = 0;  // pool misses that hit the system allocator
  uint64_t acquired_bytes = 0;
  double hit_rate() const {
    return acquires == 0 ? 1.0 : static_cast<double>(pool_hits) / static_cast<double>(acquires);
  }
};

struct MemStatsSnapshot {
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;
  uint64_t heap_allocs = 0;
  uint64_t releases = 0;
  uint64_t acquired_bytes = 0;   // sum of requested bytes
  uint64_t heap_bytes = 0;       // sum of class bytes fetched from the heap
  int64_t live_bytes = 0;        // class bytes currently outstanding
  int64_t high_water_bytes = 0;  // peak of live_bytes since last reset
  std::vector<MemPhaseSnapshot> phases;  // per-MemoryScope breakdown
  double hit_rate() const {
    return acquires == 0 ? 1.0 : static_cast<double>(pool_hits) / static_cast<double>(acquires);
  }
};

// Snapshot of the global counters. Taking two snapshots around a region and
// differencing the monotonic fields gives that region's allocation profile.
MemStatsSnapshot GetMemStats();

// Zeroes the monotonic counters (acquires/hits/heap_allocs/bytes and the
// per-phase counters). live_bytes is preserved (blocks acquired before the
// reset will still be released after it); the high-water mark restarts at
// the current live level.
void ResetMemStats();

// RAII phase label for the telemetry: arena traffic on THIS thread while the
// scope is alive is attributed to `phase` (a string literal; at most 32
// distinct phases, extras fold into "other"). Scopes nest; the innermost
// wins. Phase attribution is thread-local, so concurrent ranks inside the
// same scope name share one phase row.
class MemoryScope {
 public:
  explicit MemoryScope(const char* phase);
  ~MemoryScope();

  MemoryScope(const MemoryScope&) = delete;
  MemoryScope& operator=(const MemoryScope&) = delete;

 private:
  void* previous_;
};

// ---------------------------------------------------------------------------
// PooledBuffer: move-only uninitialized float buffer on the arena.
// ---------------------------------------------------------------------------
//
// A thin RAII owner for pipeline-lifetime staging (e.g. FusedPipeline's
// gather/partial staging) that wants pool reuse without Tensor's shape and
// value semantics. Resize is grow-only on capacity and never initializes.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  explicit PooledBuffer(int64_t count) { Resize(count); }
  ~PooledBuffer();

  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  // Ensures room for `count` floats; contents are unspecified after a grow.
  // size() reports the last requested count.
  void Resize(int64_t count);

  float* data() { return data_; }
  const float* data() const { return data_; }
  int64_t size() const { return size_; }

 private:
  float* data_ = nullptr;
  int64_t size_ = 0;
  int64_t capacity_ = 0;
};

// ---------------------------------------------------------------------------
// Workspace: per-thread scratch cache keyed by tag.
// ---------------------------------------------------------------------------
//
// For call sites whose scratch lifetime is one call (grad-sync wire copies,
// FP8 code/scale staging, async-comm chunk scratch): Floats/Bytes returns a
// buffer that stays owned by the workspace and is reused verbatim on the
// next call with the same tag. Capacity is grow-only per tag, so a shape
// change reuses the slot when it fits. Rank threads (rank i reruns on its
// previous thread when free), their ParallelFor helpers and comm-proxy
// threads are persistent, so ThreadWorkspace() hands every step the same
// buffers. Contents are unspecified on entry — treat every buffer
// as uninitialized.
class Workspace {
 public:
  Workspace() = default;
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // `tag` must be a process-lifetime string (string literal).
  float* Floats(const char* tag, int64_t count);
  double* Doubles(const char* tag, int64_t count);
  uint8_t* Bytes(const char* tag, int64_t count);

 private:
  void* Slot(const char* tag, int64_t bytes);

  struct Entry {
    void* data = nullptr;
    int64_t capacity = 0;
  };
  // Looked up by std::string_view, so only a tag's first use builds a key.
  struct TagHash {
    using is_transparent = void;
    size_t operator()(std::string_view tag) const {
      return std::hash<std::string_view>{}(tag);
    }
  };
  std::unordered_map<std::string, Entry, TagHash, std::equal_to<>> slots_;
};

// The calling thread's workspace (created on first use, released to the
// pool at thread exit).
Workspace& ThreadWorkspace();

}  // namespace msmoe

#endif  // MSMOE_SRC_BASE_ARENA_H_
