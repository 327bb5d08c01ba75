#include "src/core/exec_graph.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/comm/collective_group.h"
#include "src/obs/metrics.h"

namespace msmoe {
namespace {

double ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Status ValidateSchedule(const std::vector<ExecOp>& ops, const std::vector<int>& order,
                        const std::vector<int>& streams, int num_streams) {
  const int count = static_cast<int>(ops.size());
  if (num_streams < 1) {
    return InvalidArgument("num_streams must be >= 1");
  }
  if (static_cast<int>(order.size()) != count ||
      static_cast<int>(streams.size()) != count) {
    return InvalidArgument("schedule order/streams size != op count");
  }
  std::vector<int> position(static_cast<size_t>(count), -1);
  for (int i = 0; i < count; ++i) {
    const int op = order[static_cast<size_t>(i)];
    if (op < 0 || op >= count) {
      return InvalidArgument("schedule order references op " + std::to_string(op) +
                             " outside [0, " + std::to_string(count) + ")");
    }
    if (position[static_cast<size_t>(op)] != -1) {
      return InvalidArgument("schedule order repeats op " + std::to_string(op));
    }
    position[static_cast<size_t>(op)] = i;
  }
  for (int i = 0; i < count; ++i) {
    const ExecOp& op = ops[static_cast<size_t>(i)];
    const int stream = streams[static_cast<size_t>(i)];
    if (stream < 0 || stream >= num_streams) {
      return InvalidArgument("op '" + op.name + "' scheduled on stream " +
                             std::to_string(stream) + " outside [0, " +
                             std::to_string(num_streams) + ")");
    }
    if (!op.is_comm && stream != 0) {
      return InvalidArgument("compute op '" + op.name +
                             "' must stay on stream 0, scheduled on " +
                             std::to_string(stream));
    }
    for (const int dep : op.deps) {
      if (position[static_cast<size_t>(dep)] >= position[static_cast<size_t>(i)]) {
        return InvalidArgument("op '" + op.name + "' scheduled before its dep '" +
                               ops[static_cast<size_t>(dep)].name + "'");
      }
    }
  }
  return Status::Ok();
}

void RandomSchedule(const std::vector<ExecOp>& ops, uint64_t seed, int num_streams,
                    std::vector<int>* order, std::vector<int>* streams) {
  MSMOE_CHECK_GE(num_streams, 1);
  const int count = static_cast<int>(ops.size());
  order->clear();
  order->reserve(static_cast<size_t>(count));
  streams->assign(static_cast<size_t>(count), 0);

  std::vector<int> indegree(static_cast<size_t>(count), 0);
  std::vector<std::vector<int>> children(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    indegree[static_cast<size_t>(i)] = static_cast<int>(ops[static_cast<size_t>(i)].deps.size());
    for (const int dep : ops[static_cast<size_t>(i)].deps) {
      children[static_cast<size_t>(dep)].push_back(i);
    }
  }
  Rng rng(seed);
  std::vector<int> ready;
  for (int i = 0; i < count; ++i) {
    if (indegree[static_cast<size_t>(i)] == 0) {
      ready.push_back(i);
    }
    if (ops[static_cast<size_t>(i)].is_comm) {
      (*streams)[static_cast<size_t>(i)] =
          static_cast<int>(rng.NextIndex(static_cast<uint64_t>(num_streams)));
    }
  }
  while (!ready.empty()) {
    const size_t pick = static_cast<size_t>(rng.NextIndex(ready.size()));
    const int op = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    order->push_back(op);
    for (const int child : children[static_cast<size_t>(op)]) {
      if (--indegree[static_cast<size_t>(child)] == 0) {
        ready.push_back(child);
      }
    }
  }
  MSMOE_CHECK_EQ(static_cast<int>(order->size()), count) << "dependency cycle";
}

int ExecGraph::Add(ExecOp op) {
  const int index = static_cast<int>(ops_.size());
  MSMOE_CHECK_GE(op.stream, 0);
  for (const int dep : op.deps) {
    MSMOE_CHECK_GE(dep, 0);
    MSMOE_CHECK_LT(dep, index) << "deps must reference earlier ops";
  }
  MSMOE_CHECK(op.is_comm || op.stream == 0) << "compute op '" << op.name
                                            << "' must declare stream 0";
  ops_.push_back(std::move(op));
  return index;
}

int ExecGraph::AddCompute(std::string name, std::function<Status()> fn,
                          std::vector<int> deps, std::string category) {
  ExecOp op;
  op.name = std::move(name);
  op.stream = 0;
  op.is_comm = false;
  op.deps = std::move(deps);
  op.category = std::move(category);
  op.fn = std::move(fn);
  return Add(std::move(op));
}

int ExecGraph::AddComm(std::string name, int stream, std::function<Status()> fn,
                       std::vector<int> deps, std::string category) {
  ExecOp op;
  op.name = std::move(name);
  op.stream = stream;
  op.is_comm = true;
  op.deps = std::move(deps);
  op.category = std::move(category);
  op.fn = std::move(fn);
  return Add(std::move(op));
}

void ExecGraph::SetCost(int index, double cost_us) {
  MSMOE_CHECK_GE(index, 0);
  MSMOE_CHECK_LT(index, size());
  ops_[static_cast<size_t>(index)].cost_us = cost_us;
}

ExecResult ExecGraph::Execute(int num_streams) {
  std::vector<int> order(ops_.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> streams(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) {
    streams[i] = ops_[i].stream;
  }
  const Status valid = ValidateSchedule(ops_, order, streams, num_streams);
  MSMOE_CHECK(valid.ok()) << valid.ToString();
  return Run(order, streams, num_streams);
}

ExecResult ExecGraph::ExecuteSchedule(const std::vector<int>& order,
                                      const std::vector<int>& streams, int num_streams) {
  const Status valid = ValidateSchedule(ops_, order, streams, num_streams);
  if (!valid.ok()) {
    ExecResult result;
    result.status = valid;
    result.timings.assign(ops_.size(), ExecOpTiming{});
    return result;
  }
  return Run(order, streams, num_streams);
}

ExecResult ExecGraph::Run(const std::vector<int>& order, const std::vector<int>& streams,
                          int num_streams) {
  const int count = static_cast<int>(ops_.size());
  ExecResult result;
  result.order = order;
  result.streams = streams;
  result.timings.assign(static_cast<size_t>(count), ExecOpTiming{});
  if (count == 0) {
    return result;
  }

  // Per-stream FIFO queues in schedule order (declared indices).
  std::vector<std::vector<int>> queue(static_cast<size_t>(num_streams));
  for (const int op : order) {
    queue[static_cast<size_t>(streams[static_cast<size_t>(op)])].push_back(op);
  }

  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<char> done;
    bool aborted = false;
    Status error;
    std::exception_ptr exception;
  };
  Shared shared;
  shared.done.assign(static_cast<size_t>(count), 0);
  const auto t0 = std::chrono::steady_clock::now();

  // One runner per stream: waits for each op's deps (event waits), runs the
  // closure, marks the op done. A failure flips `aborted`, which every
  // runner observes at its next dep wait — not-yet-started ops are skipped.
  auto runner = [&](const std::vector<int>& stream_ops) {
    for (const int idx : stream_ops) {
      const ExecOp& op = ops_[static_cast<size_t>(idx)];
      {
        std::unique_lock<std::mutex> lock(shared.mu);
        shared.cv.wait(lock, [&] {
          if (shared.aborted) {
            return true;
          }
          for (const int dep : op.deps) {
            if (!shared.done[static_cast<size_t>(dep)]) {
              return false;
            }
          }
          return true;
        });
        if (shared.aborted) {
          return;
        }
      }
      const double start = ElapsedUs(t0);
      Status status;
      std::exception_ptr eptr;
      if (op.fn) {
        try {
          status = op.fn();
        } catch (...) {
          eptr = std::current_exception();
        }
      }
      const double end = ElapsedUs(t0);
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        result.timings[static_cast<size_t>(idx)] = ExecOpTiming{start, end};
        shared.done[static_cast<size_t>(idx)] = 1;
        if (eptr != nullptr) {
          shared.aborted = true;
          if (shared.exception == nullptr) {
            shared.exception = eptr;
          }
          if (shared.error.ok()) {
            shared.error = Internal("op '" + op.name + "' threw");
          }
        } else if (!status.ok() && shared.error.ok()) {
          shared.aborted = true;
          shared.error = status;
        }
      }
      shared.cv.notify_all();
    }
  };

  // Comm streams run on PooledThreads (which reuse the persistent process
  // pool); stream 0 runs on the calling rank thread so compute closures
  // keep the caller's identity.
  std::vector<std::unique_ptr<PooledThread>> comm_threads;
  for (int s = 1; s < num_streams; ++s) {
    if (queue[static_cast<size_t>(s)].empty()) {
      continue;
    }
    comm_threads.push_back(std::make_unique<PooledThread>());
    const std::vector<int>* stream_ops = &queue[static_cast<size_t>(s)];
    comm_threads.back()->Submit([&runner, stream_ops] { runner(*stream_ops); });
  }
  runner(queue[0]);
  for (std::unique_ptr<PooledThread>& thread : comm_threads) {
    thread->Drain();
  }
  comm_threads.clear();

  result.status = shared.error;
  for (const ExecOpTiming& timing : result.timings) {
    result.makespan_us = std::max(result.makespan_us, timing.end_us);
  }

  // Observability feed: compute/comm busy split + the calling thread's
  // per-step sink (the caller is the rank thread holding the ScopedStep, so
  // the thread-local hand-off needs no synchronization). Runs after every
  // stream drained — the timings are final. Ops split by kind, not stream,
  // as in MeasuredTimeline: a comm wait on stream 0 is the compute stream
  // idling, and must show up as bubble rather than compute.
  {
    double compute_busy = 0.0;
    double comm_busy = 0.0;
    for (size_t i = 0; i < result.timings.size(); ++i) {
      const double busy = result.timings[i].end_us - result.timings[i].start_us;
      if (ops_[i].is_comm) {
        comm_busy += busy;
      } else {
        compute_busy += busy;
      }
    }
    MetricsRegistry& registry = MetricsRegistry::Global();
    if (registry.enabled()) {
      static const MetricId graphs_id =
          registry.Counter("exec.graphs", "Task graphs executed");
      static const MetricId makespan_id =
          registry.Counter("exec.makespan_us", "Summed graph makespan (us)");
      static const MetricId compute_id =
          registry.Counter("exec.compute_busy_us", "Compute op time (us)");
      static const MetricId comm_id =
          registry.Counter("exec.comm_busy_us", "Comm op time (us)");
      registry.Add(graphs_id, 1.0);
      registry.Add(makespan_id, result.makespan_us);
      registry.Add(compute_id, compute_busy);
      registry.Add(comm_id, comm_busy);
    }
    if (ExecStepStats* sink = CurrentThreadExecStats()) {
      sink->graphs += 1;
      sink->makespan_us += result.makespan_us;
      sink->compute_busy_us += compute_busy;
      sink->comm_busy_us += comm_busy;
      sink->bubble_us += std::max(0.0, result.makespan_us - compute_busy);
    }
  }
  if (shared.exception != nullptr) {
    // Every stream has drained; surface the closure's exception (MSMOE_CHECK
    // on a rank thread) on the caller exactly as eager code would.
    std::rethrow_exception(shared.exception);
  }
  return result;
}

std::vector<SimOp> ExecGraph::ToSimOps() const {
  std::vector<SimOp> out;
  out.reserve(ops_.size());
  for (const ExecOp& op : ops_) {
    out.push_back(SimOp{op.name, op.cost_us, op.is_comm, op.stream, op.deps,
                        op.category});
  }
  return out;
}

void MeasuredTimeline(const ExecGraph& graph, const ExecResult& result,
                      std::vector<SimOp>* ops, GraphResult* sim) {
  const std::vector<ExecOp>& declared = graph.ops();
  ops->clear();
  sim->timings.clear();
  sim->makespan = result.makespan_us;
  sim->compute_busy = 0.0;
  sim->comm_busy = 0.0;
  sim->exposed_comm = 0.0;
  sim->category_busy.clear();

  std::vector<std::pair<double, double>> compute_spans;
  std::vector<std::pair<double, double>> comm_spans;
  for (size_t i = 0; i < declared.size(); ++i) {
    const ExecOp& op = declared[i];
    const ExecOpTiming timing =
        i < result.timings.size() ? result.timings[i] : ExecOpTiming{};
    const double duration = timing.end_us - timing.start_us;
    SimOp out;
    out.name = op.name;
    out.duration = duration;
    out.is_comm = op.is_comm;
    out.stream = i < result.streams.size() ? result.streams[i] : op.stream;
    out.deps = op.deps;
    out.category = op.category;
    ops->push_back(std::move(out));
    sim->timings.push_back(OpTiming{timing.start_us, timing.end_us});
    sim->category_busy[op.category] += duration;
    if (op.is_comm) {
      sim->comm_busy += duration;
      comm_spans.emplace_back(timing.start_us, timing.end_us);
    } else {
      sim->compute_busy += duration;
      compute_spans.emplace_back(timing.start_us, timing.end_us);
    }
  }

  // Exposed comm = comm-span time not covered by any compute span (the
  // Fig 12a quantity), computed over the merged measured intervals.
  std::sort(compute_spans.begin(), compute_spans.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& span : compute_spans) {
    if (span.second <= span.first) {
      continue;
    }
    if (!merged.empty() && span.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, span.second);
    } else {
      merged.push_back(span);
    }
  }
  for (const auto& span : comm_spans) {
    double cursor = span.first;
    for (const auto& cover : merged) {
      if (cover.second <= cursor) {
        continue;
      }
      if (cover.first >= span.second) {
        break;
      }
      if (cover.first > cursor) {
        sim->exposed_comm += cover.first - cursor;
      }
      cursor = std::max(cursor, cover.second);
      if (cursor >= span.second) {
        break;
      }
    }
    if (cursor < span.second) {
      sim->exposed_comm += span.second - cursor;
    }
  }
}

}  // namespace msmoe
