#include "src/parallel/ep_ffn.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/parallel_for.h"
#include "src/comm/async_comm.h"
#include "src/comm/communicator.h"
#include "src/core/exec_graph.h"
#include "src/model/grouped_gemm.h"
#include "src/numerics/quantize.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

using Handles = std::vector<std::unique_ptr<CommHandle>>;

// The FP8 dispatch wire format: E4M3 codes, one scale per token.
QuantConfig DispatchQuant() {
  QuantConfig quant;
  quant.granularity = QuantGranularity::kPerToken;
  return quant;
}

// Workspace-backed int64 scratch (tags are literals; buffers are grow-only
// and thread-persistent, so the steady state allocates nothing).
int64_t* WsInts(const char* tag, int64_t count) {
  return reinterpret_cast<int64_t*>(ThreadWorkspace().Bytes(
      tag, std::max<int64_t>(count, 1) * static_cast<int64_t>(sizeof(int64_t))));
}

// Wire row width of the dispatch direction in its wire type's elements: h
// floats, or (FP8) h E4M3 codes followed by the token's float scale.
int64_t DispatchRowWidth(int64_t h, bool fp8) {
  return fp8 ? h + static_cast<int64_t>(sizeof(float)) : h;
}

// Chunk c's per-peer element counts of one wire direction: `rows` holds
// the [C*n] (chunk, peer) row counts, each row `width` elements. Both ends
// of every chunk op declare their counts from the metadata exchange.
void ChunkCounts(const std::vector<int64_t>& rows, int c, int n, int64_t width,
                 std::vector<int64_t>* counts) {
  counts->resize(static_cast<size_t>(n));
  for (int peer = 0; peer < n; ++peer) {
    (*counts)[static_cast<size_t>(peer)] = rows[static_cast<size_t>(c * n + peer)] * width;
  }
}

// Receive staging of one dispatch round in wire order: chunk c's rows land
// at wire row recv_chunk_base[c]. Workspace-backed, so the rank thread
// reuses the same buffer every step.
void* DispatchRecvStaging(const EpFfnCache& cache, int64_t h, bool fp8) {
  const int64_t rows = std::max<int64_t>(cache.recv_chunk_base.back(), 1);
  Workspace& ws = ThreadWorkspace();
  if (fp8) {
    return ws.Bytes("ep.a2a.recv8", rows * DispatchRowWidth(h, true));
  }
  return ws.Floats("ep.a2a.recv", rows * h);
}

// One DispatchEvent per forward dispatch round: the per-expert load profile
// rendered on the Chrome trace's "dispatch" lane.
void RecordDispatchTelemetry(const ShardContext& ctx, const char* name, int chunks,
                             const std::vector<int64_t>& local_offsets, double start_us) {
  CommTelemetry& telemetry = ctx.comm->telemetry();
  if (!telemetry.enabled() || local_offsets.empty()) {
    return;
  }
  const int64_t e_local = static_cast<int64_t>(local_offsets.size()) - 1;
  DispatchEvent event;
  event.name = name;
  event.rank = ctx.rank;
  event.experts = e_local;
  event.chunks = chunks;
  event.rows_total = local_offsets.back();
  for (int64_t e = 0; e < e_local; ++e) {
    event.rows_max = std::max(
        event.rows_max, local_offsets[static_cast<size_t>(e + 1)] -
                            local_offsets[static_cast<size_t>(e)]);
  }
  event.imbalance =
      event.rows_total > 0
          ? static_cast<double>(event.rows_max) * static_cast<double>(e_local) /
                static_cast<double>(event.rows_total)
          : 1.0;
  event.start_us = start_us;
  event.duration_us = telemetry.NowUs() - start_us;
  telemetry.RecordDispatch(std::move(event));
}

// This rank's experts: spans into the caller's full per-expert vectors, no
// copies.
ExpertWeights LocalExperts(const ShardContext& ctx, int64_t e_local,
                           const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                           const std::vector<Tensor>& w2) {
  const int64_t first = ctx.rank * e_local;
  return ExpertWeights{w1.data() + first, w3.data() + first, w2.data() + first, e_local};
}

// Packs this rank's dispatch rows chunk by chunk and starts one A2AV
// handle per chunk as soon as its rows are staged — packing (and, in FP8
// mode, quantizing) chunk i+1 overlaps the wire of chunk i. FP8 rows carry
// h codes plus their per-token scale in one payload (quantize-on-pack: no
// separate quantization pre-pass or scale exchange). Chunk c lands in
// `recv` (DispatchRecvStaging) at its wire rows.
Handles StartDispatchChunks(const ShardContext& ctx, const EpFfnCache& cache,
                            const Tensor& x_local, int64_t h, void* recv) {
  const int n = ctx.size();
  const int C = cache.pipeline_chunks;
  const int64_t total_send = static_cast<int64_t>(cache.send_token.size());
  const bool fp8 = cache.fp8_wire;
  const QuantConfig quant = DispatchQuant();
  const int64_t width = DispatchRowWidth(h, fp8);
  Workspace& ws = ThreadWorkspace();
  float* stage_f = nullptr;
  uint8_t* stage_q = nullptr;
  if (fp8) {
    stage_q = ws.Bytes("ep.a2a.dispatch8", std::max<int64_t>(total_send * width, 1));
  } else {
    stage_f = ws.Floats("ep.a2a.dispatch", std::max<int64_t>(total_send * h, 1));
  }
  Handles handles(static_cast<size_t>(C));
  std::vector<int64_t> send_counts;
  std::vector<int64_t> recv_counts;
  for (int c = 0; c < C; ++c) {
    const int64_t base = cache.send_chunk_base[static_cast<size_t>(c)];
    const int64_t rows_c = cache.send_chunk_base[static_cast<size_t>(c) + 1] - base;
    const int64_t recv_row = cache.recv_chunk_base[static_cast<size_t>(c)];
    ChunkCounts(cache.send_chunk_counts, c, n, width, &send_counts);
    ChunkCounts(cache.recv_chunk_counts, c, n, width, &recv_counts);
    if (fp8) {
      ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t p = base + r;
          const float* row =
              x_local.data() + cache.send_token[static_cast<size_t>(p)] * h;
          uint8_t* out = stage_q + p * width;
          float scale = 0.0f;
          QuantizeInto(row, 1, h, quant, out, &scale);
          std::memcpy(out + h, &scale, sizeof(float));
        }
      });
      handles[static_cast<size_t>(c)] = ctx.comm->StartAllToAllV<uint8_t>(
          ctx.rank, stage_q + base * width, send_counts,
          static_cast<uint8_t*>(recv) + recv_row * width, recv_counts);
    } else {
      ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t p = base + r;
          std::memcpy(stage_f + p * h,
                      x_local.data() + cache.send_token[static_cast<size_t>(p)] * h,
                      static_cast<size_t>(h) * sizeof(float));
        }
      });
      handles[static_cast<size_t>(c)] = ctx.comm->StartAllToAllV<float>(
          ctx.rank, stage_f + base * h, send_counts, static_cast<float*>(recv) + recv_row * h,
          recv_counts);
    }
  }
  return handles;
}

// Delivers one landed dispatch chunk's rows from the wire-order staging
// `recv` into `dst` at their grouped positions (dequantizing on the fly in
// FP8 mode).
Status ScatterChunkRows(const EpFfnCache& cache, const void* recv, int c, int64_t h,
                        bool fp8, Tensor* dst) {
  const QuantConfig quant = DispatchQuant();
  const int64_t width = DispatchRowWidth(h, fp8);
  const int64_t base = cache.recv_chunk_base[static_cast<size_t>(c)];
  const int64_t rows_c = cache.recv_chunk_base[static_cast<size_t>(c) + 1] - base;
  if (fp8) {
    const uint8_t* buf = static_cast<const uint8_t*>(recv) + base * width;
    ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const uint8_t* src = buf + r * width;
        float scale = 0.0f;
        std::memcpy(&scale, src + h, sizeof(float));
        DequantizeInto(src, &scale, 1, h, quant,
                       dst->data() +
                           cache.chunk_to_sorted[static_cast<size_t>(base + r)] * h);
      }
    });
  } else {
    const float* buf = static_cast<const float*>(recv) + base * h;
    ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        std::memcpy(dst->data() +
                        cache.chunk_to_sorted[static_cast<size_t>(base + r)] * h,
                    buf + r * h, static_cast<size_t>(h) * sizeof(float));
      }
    });
  }
  return Status::Ok();
}

// Packs chunk c's grouped rows of `rows` (expert outputs, or input grads)
// back into wire order in `stage` and starts their return to the source
// ranks; they land in `recv` at the chunk's send rows.
std::unique_ptr<CommHandle> StartReturnChunk(const ShardContext& ctx, const EpFfnCache& cache,
                                             const Tensor& rows, float* stage, float* recv,
                                             int c, int64_t h) {
  const int64_t base = cache.recv_chunk_base[static_cast<size_t>(c)];
  const int64_t rows_c = cache.recv_chunk_base[static_cast<size_t>(c) + 1] - base;
  ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      std::memcpy(stage + (base + r) * h,
                  rows.data() + cache.chunk_to_sorted[static_cast<size_t>(base + r)] * h,
                  static_cast<size_t>(h) * sizeof(float));
    }
  });
  std::vector<int64_t> send_counts;
  std::vector<int64_t> recv_counts;
  ChunkCounts(cache.recv_chunk_counts, c, ctx.size(), h, &send_counts);
  ChunkCounts(cache.send_chunk_counts, c, ctx.size(), h, &recv_counts);
  return ctx.comm->StartAllToAllV<float>(
      ctx.rank, stage + base * h, send_counts,
      recv + cache.send_chunk_base[static_cast<size_t>(c)] * h, recv_counts);
}

// The tails of a chunk-wait chain: its last wait and the last op after it
// (-1 before the first chunk).
struct ChunkChain {
  int wait = -1;
  int consume = -1;
};

// Records chunk c's turn of a chunked transfer on `graph`: a wait on
// (*handles)[c], then `consume`, the op that reads the chunk, named
// wait_name[c] and consume_name[c]. The wait is a comm op on stream 0 — the
// compute stream waits on the chunk's event, as cudaStreamWaitEvent would —
// so the graph runs with Execute(1) on the rank thread alone. Both ops
// chain to their predecessors in `chain`; `after`, if set, also gates the
// wait. The handle is read when the wait runs, so an earlier op of the
// same graph may start it.
void AddChunkWait(ExecGraph* graph, ChunkChain* chain, const Handles* handles, int c,
                  const char* wait_name, const char* consume_name, const char* category,
                  std::function<Status()> consume, int after = -1) {
  const auto name = [c](const char* base) {
    return std::string(base) + "[" + std::to_string(c) + "]";
  };
  std::vector<int> wait_deps;
  if (after >= 0) {
    wait_deps.push_back(after);
  }
  if (chain->wait >= 0) {
    wait_deps.push_back(chain->wait);
  }
  chain->wait = graph->AddComm(
      name(wait_name), /*stream=*/0,
      [handles, c] { return (*handles)[static_cast<size_t>(c)]->WaitAll(); }, wait_deps);
  std::vector<int> deps{chain->wait};
  if (chain->consume >= 0) {
    deps.push_back(chain->consume);
  }
  chain->consume =
      graph->AddCompute(name(consume_name), std::move(consume), deps, category);
}

// Records dispatch chunk c's wait and the scatter that delivers its rows
// into `dst` at their grouped positions (dequantizing on the fly in FP8
// mode).
void AddScatterChunk(ExecGraph* graph, ChunkChain* chain, const EpFfnCache& cache,
                     const Handles& handles, const void* recv, int c, int64_t h, bool fp8,
                     Tensor* dst) {
  const EpFfnCache* cache_p = &cache;
  AddChunkWait(graph, chain, &handles, c, "ep_dispatch_wait", "ep_scatter", "scatter",
               [cache_p, recv, c, h, fp8, dst] {
                 return ScatterChunkRows(*cache_p, recv, c, h, fp8, dst);
               });
}

// Runs the expert FFN on dispatch chunk c's rows. Sorting the chunk's
// grouped positions groups its rows by (expert, source, token) — the
// grouped order restricted to the chunk — so the chunk runs as one
// ExpertFfn call over its gathered rows, with chunk-local expert offsets,
// instead of hundreds of 1-row GEMMs (within a (chunk, source) wire
// segment rows alternate experts). ExpertFfn's rows are independent, so
// every result row is bitwise the whole-tensor call's; they go back to
// their grouped positions.
Status ExpertChunk(EpFfnCache* cache, int c, const ExpertWeights& experts) {
  const int64_t base = cache->recv_chunk_base[static_cast<size_t>(c)];
  const int64_t rows = cache->recv_chunk_base[static_cast<size_t>(c) + 1] - base;
  if (rows == 0) {
    return Status::Ok();
  }
  int64_t* gidx = WsInts("ep.chunk_gather", rows);
  std::copy(cache->chunk_to_sorted.begin() + base,
            cache->chunk_to_sorted.begin() + base + rows, gidx);
  std::sort(gidx, gidx + rows);
  std::vector<int64_t> offsets(static_cast<size_t>(experts.num_experts) + 1);
  for (size_t e = 0; e < offsets.size(); ++e) {
    offsets[e] = std::lower_bound(gidx, gidx + rows, cache->local_offsets[e]) - gidx;
  }
  const int64_t h = cache->ffn_in.dim(1);
  Tensor x = Tensor::Uninit({rows, h});
  ParallelFor(rows, 32, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      std::memcpy(x.data() + r * h, cache->ffn_in.data() + gidx[r] * h,
                  static_cast<size_t>(h) * sizeof(float));
    }
  });
  const ExpertFfnActs acts = ExpertFfn(x, offsets, experts);
  const auto put = [gidx](const Tensor& src, Tensor& dst, int64_t r) {
    const int64_t width = src.dim(1);
    std::memcpy(dst.data() + gidx[r] * width, src.data() + r * width,
                static_cast<size_t>(width) * sizeof(float));
  };
  ParallelFor(rows, 32, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      put(acts.fc1_out, cache->acts.fc1_out, r);
      put(acts.fc3_out, cache->acts.fc3_out, r);
      put(acts.fc2_in, cache->acts.fc2_in, r);
      put(acts.fc2_out, cache->acts.fc2_out, r);
    }
  });
  return Status::Ok();
}

// The fused kAllToAll forward (§4.2, Fig 7). Bitwise identical for every
// chunk count: chunks partition the local token range in ascending order,
// so every per-destination send order, the grouped receive order, and each
// token's combine accumulation order are those of C=1 — only the schedule
// changes.
Tensor ForwardA2A(const ShardContext& ctx, const ModelConfig& config,
                  const EpPipelineConfig& pipe, const std::vector<Tensor>& w1,
                  const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                  const Tensor& x_local, const RoutingResult& routing, EpFfnCache* cache) {
  const int n = ctx.size();
  const int64_t e_local = config.num_experts / n;
  const int64_t h = config.hidden;
  const int64_t t_local = x_local.dim(0);
  const int64_t k = routing.top_k;
  const int C = std::max(1, std::min(pipe.num_chunks, 64));
  const double start_us = ctx.comm->telemetry().NowUs();

  cache->pipeline_chunks = C;
  cache->fp8_wire = pipe.fp8_dispatch;

  // --- Counting-sort permutation: one O(T·k) counting pass plus one
  // cursor pass. Send order is (chunk, dst, token asc, slot asc); per
  // destination the concatenated chunks are in token-ascending order. ---
  const ChunkLayout tokens(t_local, C, /*quantum=*/1, /*pad_chunks=*/true);
  cache->send_chunk_counts.assign(static_cast<size_t>(C) * static_cast<size_t>(n), 0);
  const auto copy_dst = [&](int64_t idx) -> int {  // -1 = dropped copy
    if (routing.dropped[static_cast<size_t>(idx)] != 0) {
      return -1;
    }
    return static_cast<int>(routing.expert_index[static_cast<size_t>(idx)] / e_local);
  };
  for (int c = 0; c < C; ++c) {
    for (int64_t t = tokens.begin(c); t < tokens.end(c); ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        const int dst = copy_dst(t * k + slot);
        if (dst >= 0) {
          ++cache->send_chunk_counts[static_cast<size_t>(c * n + dst)];
        }
      }
    }
  }
  const int64_t num_segs = static_cast<int64_t>(C) * n;
  int64_t* seg_off = WsInts("ep.send_seg", num_segs + 1);
  seg_off[0] = 0;
  for (int64_t i = 0; i < num_segs; ++i) {
    seg_off[i + 1] = seg_off[i] + cache->send_chunk_counts[static_cast<size_t>(i)];
  }
  cache->send_chunk_base.assign(static_cast<size_t>(C) + 1, 0);
  for (int c = 0; c <= C; ++c) {
    cache->send_chunk_base[static_cast<size_t>(c)] = seg_off[static_cast<int64_t>(c) * n];
  }
  const int64_t total_send = seg_off[num_segs];
  cache->send_token.assign(static_cast<size_t>(total_send), 0);
  cache->send_slot.assign(static_cast<size_t>(total_send), 0);
  int64_t* send_expert = WsInts("ep.send_expert", total_send);
  int64_t* cursor = WsInts("ep.send_cursor", n);
  for (int c = 0; c < C; ++c) {
    for (int d = 0; d < n; ++d) {
      cursor[d] = seg_off[static_cast<int64_t>(c) * n + d];
    }
    for (int64_t t = tokens.begin(c); t < tokens.end(c); ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        const int dst = copy_dst(t * k + slot);
        if (dst < 0) {
          continue;
        }
        const int64_t p = cursor[dst]++;
        cache->send_token[static_cast<size_t>(p)] = t;
        cache->send_slot[static_cast<size_t>(p)] = slot;
        send_expert[p] = routing.expert_index[static_cast<size_t>(t * k + slot)];
      }
    }
  }

  // --- One metadata all-to-all: per destination the C per-chunk row
  // counts followed by every row's expert id in send order, so the
  // receiver builds the full grouped permutation before any row data
  // lands. ---
  int64_t* meta_send = WsInts("ep.meta_send", static_cast<int64_t>(n) * C + total_send);
  std::vector<int64_t> meta_counts(static_cast<size_t>(n));
  {
    int64_t at = 0;
    for (int d = 0; d < n; ++d) {
      const int64_t mark = at;
      for (int c = 0; c < C; ++c) {
        meta_send[at++] = cache->send_chunk_counts[static_cast<size_t>(c * n + d)];
      }
      for (int c = 0; c < C; ++c) {
        const int64_t seg_begin = seg_off[static_cast<int64_t>(c) * n + d];
        const int64_t seg_end =
            seg_begin + cache->send_chunk_counts[static_cast<size_t>(c * n + d)];
        for (int64_t p = seg_begin; p < seg_end; ++p) {
          meta_send[at++] = send_expert[p];
        }
      }
      meta_counts[static_cast<size_t>(d)] = at - mark;
    }
  }
  // Capacity assumes every rank holds t_local tokens (uniform sharding).
  int64_t* meta_recv = WsInts("ep.meta_recv", static_cast<int64_t>(n) * (C + t_local * k));
  std::vector<int64_t> meta_recv_counts;
  ctx.comm->AllToAllV(ctx.rank, meta_send, meta_counts, meta_recv, &meta_recv_counts);
  Tensor y_local({t_local, h});
  if (!ctx.comm->GroupStatus().ok() ||
      meta_recv_counts.size() != static_cast<size_t>(n)) {
    // Degraded group: match the collectives' zero-fill. No rows were
    // grouped, which is the row count EpFfnRematerialize zero-fills at.
    cache->local_offsets.assign(static_cast<size_t>(e_local) + 1, 0);
    return y_local;
  }

  // --- Receiver tables. Grouped rows are numbered (expert, src, token
  // asc); within one source, chunk-ascending equals token-ascending, so
  // enumerating (src, chunk, row) yields that numbering for any C. ---
  cache->recv_counts.assign(static_cast<size_t>(n), 0);
  cache->recv_chunk_counts.assign(static_cast<size_t>(C) * static_cast<size_t>(n), 0);
  int64_t* src_off = WsInts("ep.meta_src_off", n);
  {
    int64_t off = 0;
    for (int src = 0; src < n; ++src) {
      src_off[src] = off;
      off += meta_recv_counts[static_cast<size_t>(src)];
    }
  }
  for (int src = 0; src < n; ++src) {
    MSMOE_CHECK_GE(meta_recv_counts[static_cast<size_t>(src)], C);
    for (int c = 0; c < C; ++c) {
      const int64_t cnt = meta_recv[src_off[src] + c];
      cache->recv_chunk_counts[static_cast<size_t>(c * n + src)] = cnt;
      cache->recv_counts[static_cast<size_t>(src)] += cnt;
    }
  }
  int64_t total_recv = 0;
  for (int64_t v : cache->recv_counts) {
    total_recv += v;
  }
  // Chunk-order segment offsets: within chunk c segments are ordered by
  // source rank — exactly the layout of handle c's receive buffer.
  cache->recv_chunk_base.assign(static_cast<size_t>(C) + 1, 0);
  int64_t* rseg_off = WsInts("ep.recv_seg", num_segs);
  {
    int64_t at = 0;
    for (int c = 0; c < C; ++c) {
      cache->recv_chunk_base[static_cast<size_t>(c)] = at;
      for (int src = 0; src < n; ++src) {
        rseg_off[static_cast<int64_t>(c) * n + src] = at;
        at += cache->recv_chunk_counts[static_cast<size_t>(c * n + src)];
      }
    }
    cache->recv_chunk_base[static_cast<size_t>(C)] = at;
    MSMOE_CHECK_EQ(at, total_recv);
  }
  std::vector<int64_t>& offsets = cache->local_offsets;
  offsets.assign(static_cast<size_t>(e_local) + 1, 0);
  int64_t* counts_e = WsInts("ep.expert_counts", e_local);
  std::fill(counts_e, counts_e + e_local, 0);
  for (int src = 0; src < n; ++src) {
    const int64_t* ids = meta_recv + src_off[src] + C;
    const int64_t rows_src = cache->recv_counts[static_cast<size_t>(src)];
    for (int64_t j = 0; j < rows_src; ++j) {
      const int64_t e = ids[j] - ctx.rank * e_local;
      MSMOE_CHECK_GE(e, 0);
      MSMOE_CHECK_LT(e, e_local);
      ++counts_e[e];
    }
  }
  for (int64_t e = 0; e < e_local; ++e) {
    offsets[static_cast<size_t>(e + 1)] = offsets[static_cast<size_t>(e)] + counts_e[e];
  }
  int64_t* cursor_e = WsInts("ep.expert_cursor", e_local);
  for (int64_t e = 0; e < e_local; ++e) {
    cursor_e[e] = offsets[static_cast<size_t>(e)];
  }
  cache->chunk_to_sorted.assign(static_cast<size_t>(total_recv), 0);
  for (int src = 0; src < n; ++src) {
    const int64_t* ids = meta_recv + src_off[src] + C;
    int64_t j = 0;
    for (int c = 0; c < C; ++c) {
      const int64_t cnt = cache->recv_chunk_counts[static_cast<size_t>(c * n + src)];
      const int64_t seg = rseg_off[static_cast<int64_t>(c) * n + src];
      for (int64_t jj = 0; jj < cnt; ++jj, ++j) {
        const int64_t e = ids[j] - ctx.rank * e_local;
        cache->chunk_to_sorted[static_cast<size_t>(seg + jj)] = cursor_e[e]++;
      }
    }
  }

  // --- Dispatch wire, expert compute, and combine wire on ONE exec graph,
  // run on the rank thread alone in the declared order
  //   wait[0], scatter[0], ffn_chunk[0], combine_pack[0], wait[1], ...
  // Each chunk wait is a comm op on stream 0 — the compute stream waiting
  // on the chunk's event — while the comm proxy keeps the wire moving: while
  // chunk c is in the expert GEMMs, chunk c+1's dispatch and chunk c-1's
  // combine are both in flight (the §4.2 pipeline). Packing (and FP8
  // quantizing) of dispatch chunk i+1 already overlapped chunk i's wire
  // inside StartDispatchChunks. Combine Starts are issued from the CHAINED
  // combine_pack ops — all on the calling rank thread, in declared order,
  // identical on every rank — so the per-rank Start FIFO contract of
  // async_comm.h holds exactly as in eager code. Within a chunk the send
  // order is (dst, token, slot), so each token's combine accumulation runs
  // in (owner rank asc, slot asc) order for every C.
  const int64_t f = w1[0].dim(1);
  cache->ffn_in = Tensor::Uninit({total_recv, h});
  cache->acts.fc1_out = Tensor::Uninit({total_recv, f});
  cache->acts.fc3_out = Tensor::Uninit({total_recv, f});
  cache->acts.fc2_in = Tensor::Uninit({total_recv, f});
  cache->acts.fc2_out = Tensor::Uninit({total_recv, h});
  cache->returned_rows = Tensor::Uninit({total_send, h});
  Workspace& ws = ThreadWorkspace();
  float* ret_stage = ws.Floats("ep.a2a.combine", std::max<int64_t>(total_recv * h, 1));
  Handles ret_handles(static_cast<size_t>(C));
  const bool fp8 = cache->fp8_wire;
  void* recv = DispatchRecvStaging(*cache, h, fp8);
  Handles handles = StartDispatchChunks(ctx, *cache, x_local, h, recv);
  {
    ExecGraph graph;
    Handles* ret_handles_p = &ret_handles;
    const ExpertWeights experts = LocalExperts(ctx, e_local, w1, w3, w2);
    std::vector<int> pack_ids(static_cast<size_t>(C), -1);
    ChunkChain chain;
    for (int c = 0; c < C; ++c) {
      AddScatterChunk(&graph, &chain, *cache, handles, recv, c, h, fp8, &cache->ffn_in);
      const int ffn = graph.AddCompute(
          "ep_ffn_chunk[" + std::to_string(c) + "]",
          [cache, c, experts] { return ExpertChunk(cache, c, experts); }, {chain.consume},
          "gemm");
      // The expert outputs return straight into returned_rows.
      chain.consume = graph.AddCompute(
          "ep_combine_pack[" + std::to_string(c) + "]",
          [cache, ret_handles_p, ctx, ret_stage, c, h] {
            (*ret_handles_p)[static_cast<size_t>(c)] =
                StartReturnChunk(ctx, *cache, cache->acts.fc2_out, ret_stage,
                                 cache->returned_rows.data(), c, h);
            return Status::Ok();
          },
          {ffn}, "pack");
      pack_ids[static_cast<size_t>(c)] = chain.consume;
    }
    const RoutingResult* routing_p = &routing;
    float* y = y_local.data();
    for (int c = 0; c < C; ++c) {
      AddChunkWait(
          &graph, &chain, &ret_handles, c, "ep_combine_wait", "ep_combine", "combine",
          [cache, routing_p, y, c, h] {
            const int64_t base = cache->send_chunk_base[static_cast<size_t>(c)];
            const int64_t rows_c =
                cache->send_chunk_base[static_cast<size_t>(c) + 1] - base;
            const float* buf = cache->returned_rows.data() + base * h;
            for (int64_t j = 0; j < rows_c; ++j) {
              const int64_t p = base + j;
              const int64_t t = cache->send_token[static_cast<size_t>(p)];
              const float weight = routing_p->combine_weight.At(
                  t, cache->send_slot[static_cast<size_t>(p)]);
              const float* row = buf + j * h;
              float* out = y + t * h;
              for (int64_t col = 0; col < h; ++col) {
                out[col] += weight * row[col];
              }
            }
            return Status::Ok();
          },
          pack_ids[static_cast<size_t>(c)]);
    }
    const ExecResult result = graph.Execute(/*num_streams=*/1);
    handles.clear();
    ret_handles.clear();
    if (!result.status.ok()) {
      return Tensor({t_local, h});
    }
  }
  RecordDispatchTelemetry(ctx, "ep_dispatch_fwd", C, offsets, start_us);
  return y_local;
}

// Backward of the fused pipeline: both wire directions run as per-chunk
// handles on exec graphs (FP32 — only the forward dispatch optionally
// quantizes). Per token, dx accumulates in (owner rank asc, slot asc)
// order, as the forward's combine does.
EpFfnGrads BackwardA2A(const ShardContext& ctx, const ModelConfig& config,
                       const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                       const std::vector<Tensor>& w2, const Tensor& dy_local,
                       const RoutingResult& routing, const EpFfnCache& cache) {
  const int n = ctx.size();
  const int64_t e_local = config.num_experts / n;
  const int64_t h = config.hidden;
  const int64_t t_local = dy_local.dim(0);
  const int64_t k = routing.top_k;
  const int C = cache.pipeline_chunks;

  EpFfnGrads grads;
  grads.dcombine_local = Tensor({t_local, k});
  grads.dx_local = Tensor({t_local, h});
  // What a failed group gets: full-shape zeros, like the forward's
  // degraded output.
  const auto zero_grads = [&] {
    EpFfnGrads zeros;
    zeros.dcombine_local = Tensor({t_local, k});
    zeros.dx_local = Tensor({t_local, h});
    for (int64_t e = ctx.rank * e_local; e < (ctx.rank + 1) * e_local; ++e) {
      zeros.dw1.emplace_back(w1[static_cast<size_t>(e)].shape());
      zeros.dw3.emplace_back(w3[static_cast<size_t>(e)].shape());
      zeros.dw2.emplace_back(w2[static_cast<size_t>(e)].shape());
    }
    return zeros;
  };
  if (!ctx.comm->GroupStatus().ok()) {
    return zero_grads();  // the forward may have stopped before its receive tables
  }
  const int64_t total_send = static_cast<int64_t>(cache.send_token.size());
  const int64_t total_recv = cache.recv_chunk_base[static_cast<size_t>(C)];

  Workspace& ws = ThreadWorkspace();

  // --- Combine backward at the source: weight the incoming grads per
  // copy, read off the combine-weight grads, ship chunk by chunk. ---
  float* ship = ws.Floats("ep.a2a.dispatch", std::max<int64_t>(total_send * h, 1));
  float* recv = static_cast<float*>(DispatchRecvStaging(cache, h, /*fp8=*/false));
  Handles handles(static_cast<size_t>(C));
  {
    std::vector<int64_t> send_counts;
    std::vector<int64_t> recv_counts;
    for (int c = 0; c < C; ++c) {
      const int64_t base = cache.send_chunk_base[static_cast<size_t>(c)];
      const int64_t rows_c = cache.send_chunk_base[static_cast<size_t>(c) + 1] - base;
      ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t p = base + r;
          const int64_t t = cache.send_token[static_cast<size_t>(p)];
          const int64_t slot = cache.send_slot[static_cast<size_t>(p)];
          const float weight = routing.combine_weight.At(t, slot);
          const float* dy_row = dy_local.data() + t * h;
          const float* ret_row = cache.returned_rows.data() + p * h;
          float* out = ship + p * h;
          float dot = 0.0f;
          for (int64_t col = 0; col < h; ++col) {
            out[col] = weight * dy_row[col];
            dot += dy_row[col] * ret_row[col];
          }
          grads.dcombine_local.At(t, slot) = dot;
        }
      });
      ChunkCounts(cache.send_chunk_counts, c, n, h, &send_counts);
      ChunkCounts(cache.recv_chunk_counts, c, n, h, &recv_counts);
      handles[static_cast<size_t>(c)] = ctx.comm->StartAllToAllV<float>(
          ctx.rank, ship + base * h, send_counts,
          recv + cache.recv_chunk_base[static_cast<size_t>(c)] * h, recv_counts);
    }
  }
  Tensor dfc2_out = Tensor::Uninit({total_recv, h});
  {
    ExecGraph graph;
    ChunkChain chain;
    for (int c = 0; c < C; ++c) {
      AddScatterChunk(&graph, &chain, cache, handles, recv, c, h, /*fp8=*/false, &dfc2_out);
    }
    const ExecResult result = graph.Execute(/*num_streams=*/1);
    handles.clear();
    if (!result.status.ok()) {
      return zero_grads();
    }
  }

  // --- Expert backward chain. ---
  ExpertFfnGrads ffn_grads = ExpertFfnBackward(dfc2_out, cache.ffn_in, cache.acts,
                                               cache.local_offsets,
                                               LocalExperts(ctx, e_local, w1, w3, w2));
  grads.dw1 = std::move(ffn_grads.dw1);
  grads.dw3 = std::move(ffn_grads.dw3);
  grads.dw2 = std::move(ffn_grads.dw2);

  // --- Return the input grads chunk by chunk, accumulating into dx_local
  // as chunks land (per token the order is again (owner asc, slot asc)).
  // Chunk c's rows land at its send rows. ---
  float* ret_stage = ws.Floats("ep.a2a.combine", std::max<int64_t>(total_recv * h, 1));
  float* ret_recv = ws.Floats("ep.a2a.ret", std::max<int64_t>(total_send * h, 1));
  Handles ret_handles(static_cast<size_t>(C));
  for (int c = 0; c < C; ++c) {
    ret_handles[static_cast<size_t>(c)] =
        StartReturnChunk(ctx, cache, ffn_grads.dx, ret_stage, ret_recv, c, h);
  }
  {
    ExecGraph graph;
    const EpFfnCache* cache_p = &cache;
    float* dx = grads.dx_local.data();
    ChunkChain chain;
    for (int c = 0; c < C; ++c) {
      AddChunkWait(
          &graph, &chain, &ret_handles, c, "ep_dx_wait", "ep_dx_acc", "combine",
          [cache_p, ret_recv, dx, c, h] {
            const int64_t base = cache_p->send_chunk_base[static_cast<size_t>(c)];
            const int64_t rows_c =
                cache_p->send_chunk_base[static_cast<size_t>(c) + 1] - base;
            const float* buf = ret_recv + base * h;
            for (int64_t j = 0; j < rows_c; ++j) {
              const int64_t t = cache_p->send_token[static_cast<size_t>(base + j)];
              const float* row = buf + j * h;
              float* out = dx + t * h;
              for (int64_t col = 0; col < h; ++col) {
                out[col] += row[col];
              }
            }
            return Status::Ok();
          });
    }
    const ExecResult result = graph.Execute(/*num_streams=*/1);
    ret_handles.clear();
    if (!result.status.ok()) {
      return zero_grads();
    }
  }
  return grads;
}

}  // namespace

const char* EpDispatchModeName(EpDispatchMode mode) {
  switch (mode) {
    case EpDispatchMode::kAllToAll:
      return "all-to-all";
    case EpDispatchMode::kAllGatherScatter:
      return "all-gather+scatter";
  }
  return "unknown";
}

Tensor EpFfnForward(const ShardContext& ctx, const ModelConfig& config, EpDispatchMode mode,
                    const EpPipelineConfig& pipeline, const std::vector<Tensor>& w1,
                    const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                    const Tensor& x_local, const RoutingResult& routing_local,
                    EpFfnCache* cache) {
  const int n = ctx.size();
  MSMOE_CHECK_EQ(config.num_experts % n, 0);
  const int64_t t_local = x_local.dim(0);
  MSMOE_CHECK_EQ(routing_local.tokens, t_local);
  if (mode == EpDispatchMode::kAllToAll) {
    return ForwardA2A(ctx, config, pipeline, w1, w3, w2, x_local, routing_local, cache);
  }

  // --- kAllGatherScatter ---
  const int64_t e_local = config.num_experts / n;
  const int64_t h = config.hidden;
  const int64_t k = routing_local.top_k;
  const double start_us = ctx.comm->telemetry().NowUs();
  const int64_t t_total = t_local * n;
  cache->x_all = Tensor({t_total, h});
  ctx.comm->AllGather(ctx.rank, x_local.data(), cache->x_all.data(), t_local * h);

  // All-gather routing metadata (-1 expert marks a dropped copy).
  std::vector<int64_t> idx_local(static_cast<size_t>(t_local * k));
  std::vector<float> weight_local(static_cast<size_t>(t_local * k));
  for (int64_t i = 0; i < t_local * k; ++i) {
    idx_local[static_cast<size_t>(i)] = routing_local.dropped[static_cast<size_t>(i)] != 0
                                            ? -1
                                            : routing_local.expert_index[static_cast<size_t>(i)];
    weight_local[static_cast<size_t>(i)] =
        routing_local.combine_weight[static_cast<size_t>(i)];
  }
  std::vector<int64_t> idx_all(static_cast<size_t>(t_total * k));
  std::vector<float> weight_all(static_cast<size_t>(t_total * k));
  ctx.comm->AllGather(ctx.rank, idx_local.data(), idx_all.data(), t_local * k);
  ctx.comm->AllGather(ctx.rank, weight_local.data(), weight_all.data(), t_local * k);

  // Local scatter: keep only copies routed to this rank's experts, grouped
  // by expert (global token order within each expert).
  cache->copy_token.clear();
  cache->copy_slot.clear();
  cache->copy_weight.clear();
  cache->local_offsets.assign(static_cast<size_t>(e_local + 1), 0);
  for (int64_t e = 0; e < e_local; ++e) {
    const int64_t e_global = ctx.rank * e_local + e;
    for (int64_t t = 0; t < t_total; ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        if (idx_all[static_cast<size_t>(t * k + slot)] == e_global) {
          cache->copy_token.push_back(t);
          cache->copy_slot.push_back(slot);
          cache->copy_weight.push_back(weight_all[static_cast<size_t>(t * k + slot)]);
        }
      }
    }
    cache->local_offsets[static_cast<size_t>(e + 1)] =
        static_cast<int64_t>(cache->copy_token.size());
  }
  const int64_t rows = static_cast<int64_t>(cache->copy_token.size());
  cache->ffn_in = GatherRows(cache->x_all, cache->copy_token);
  cache->acts = ExpertFfn(cache->ffn_in, cache->local_offsets,
                          LocalExperts(ctx, e_local, w1, w3, w2));

  // Gather into a full tensor with combine weights applied, then
  // reduce-scatter so each rank ends with its own tokens fully combined.
  Tensor full_out({t_total, h});
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t t = cache->copy_token[static_cast<size_t>(i)];
    const float weight = cache->copy_weight[static_cast<size_t>(i)];
    const float* row = cache->acts.fc2_out.data() + i * h;
    float* out = full_out.data() + t * h;
    for (int64_t c = 0; c < h; ++c) {
      out[c] += weight * row[c];
    }
  }
  Tensor y_local({t_local, h});
  ctx.comm->ReduceScatter(ctx.rank, full_out.data(), y_local.data(), t_local * h);
  RecordDispatchTelemetry(ctx, "ep_dispatch_fwd", /*chunks=*/1, cache->local_offsets,
                          start_us);
  return y_local;
}

EpFfnGrads EpFfnBackward(const ShardContext& ctx, const ModelConfig& config,
                         EpDispatchMode mode, const std::vector<Tensor>& w1,
                         const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                         const Tensor& dy_local, const RoutingResult& routing_local,
                         const EpFfnCache& cache) {
  if (mode == EpDispatchMode::kAllToAll) {
    return BackwardA2A(ctx, config, w1, w3, w2, dy_local, routing_local, cache);
  }

  const int n = ctx.size();
  const int64_t e_local = config.num_experts / n;
  const int64_t h = config.hidden;
  const int64_t t_local = dy_local.dim(0);
  const int64_t k = routing_local.top_k;

  EpFfnGrads grads;
  grads.dcombine_local = Tensor({t_local, k});

  // --- kAllGatherScatter ---
  const int64_t t_total = t_local * n;
  const int64_t rows = static_cast<int64_t>(cache.copy_token.size());

  // Backward of reduce-scatter: all-gather the output grads.
  Tensor dy_all({t_total, h});
  ctx.comm->AllGather(ctx.rank, dy_local.data(), dy_all.data(), t_local * h);

  // Combine backward per processed copy.
  Tensor dfc2_out({rows, h});
  Tensor dcombine_all({t_total, k});
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t t = cache.copy_token[static_cast<size_t>(i)];
    const int64_t slot = cache.copy_slot[static_cast<size_t>(i)];
    const float weight = cache.copy_weight[static_cast<size_t>(i)];
    const float* dy_row = dy_all.data() + t * h;
    const float* fc2_row = cache.acts.fc2_out.data() + i * h;
    float dot = 0.0f;
    float* dfc2_row = dfc2_out.data() + i * h;
    for (int64_t c = 0; c < h; ++c) {
      dfc2_row[c] = weight * dy_row[c];
      dot += dy_row[c] * fc2_row[c];
    }
    dcombine_all.At(t, slot) = dot;
  }

  ExpertFfnGrads ffn_grads = ExpertFfnBackward(dfc2_out, cache.ffn_in, cache.acts,
                                               cache.local_offsets,
                                               LocalExperts(ctx, e_local, w1, w3, w2));
  grads.dw1 = std::move(ffn_grads.dw1);
  grads.dw3 = std::move(ffn_grads.dw3);
  grads.dw2 = std::move(ffn_grads.dw2);

  // Scatter input grads into the full tensor, reduce-scatter back to owners.
  Tensor dx_all = ScatterAddRows(ffn_grads.dx, cache.copy_token, t_total);
  grads.dx_local = Tensor({t_local, h});
  ctx.comm->ReduceScatter(ctx.rank, dx_all.data(), grads.dx_local.data(), t_local * h);

  // Combine-weight grads are partial per expert owner; reduce-scatter over
  // token owners completes them.
  ctx.comm->ReduceScatter(ctx.rank, dcombine_all.data(), grads.dcombine_local.data(),
                           t_local * k);
  return grads;
}

void EpFfnRematerialize(const ShardContext& ctx, const ModelConfig& config,
                        EpDispatchMode mode, const Tensor& x_local, EpFfnCache* cache) {
  const int n = ctx.size();
  const int64_t h = config.hidden;
  const int64_t t_local = x_local.dim(0);

  if (mode == EpDispatchMode::kAllToAll) {
    // On a failed group — possibly before the forward grouped any rows —
    // the dropped fields come back zero-filled at the grouped row count the
    // forward recorded.
    const int64_t rows = cache->local_offsets.back();
    bool ok = ctx.comm->GroupStatus().ok();
    if (ok && cache->ffn_in.empty()) {
      // Replay the chunked dispatch (re-quantizing in FP8 mode — per-token
      // scales make the codes bitwise the forward's).
      void* recv = DispatchRecvStaging(*cache, h, cache->fp8_wire);
      Handles handles = StartDispatchChunks(ctx, *cache, x_local, h, recv);
      Tensor ffn_in = Tensor::Uninit({rows, h});
      ExecGraph graph;
      ChunkChain chain;
      for (int c = 0; c < cache->pipeline_chunks; ++c) {
        AddScatterChunk(&graph, &chain, *cache, handles, recv, c, h, cache->fp8_wire,
                        &ffn_in);
      }
      ok = graph.Execute(/*num_streams=*/1).status.ok();
      handles.clear();
      if (ok) {
        cache->ffn_in = std::move(ffn_in);
      }
    }
    if (!ok) {
      if (cache->ffn_in.empty()) {
        cache->ffn_in = Tensor({rows, h});
      }
      if (cache->acts.fc2_in.empty()) {
        cache->acts.fc2_in = Tensor({rows, config.ffn_hidden});
      }
      return;
    }
  } else if (cache->ffn_in.empty()) {
    if (cache->x_all.empty()) {
      cache->x_all = Tensor({t_local * n, h});
      ctx.comm->AllGather(ctx.rank, x_local.data(), cache->x_all.data(), t_local * h);
    }
    cache->ffn_in = GatherRows(cache->x_all, cache->copy_token);
  }
  if (cache->acts.fc2_in.empty()) {
    cache->acts.fc2_in = SwiGlu(cache->acts.fc1_out, cache->acts.fc3_out);
  }
}

}  // namespace msmoe
