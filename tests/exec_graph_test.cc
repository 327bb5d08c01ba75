// Unit tests for the runtime task-graph executor (src/core/exec_graph.h):
// stream FIFO semantics, cross-stream event waits, schedule validation,
// fault/exception propagation, the sim mirror, and the record-time Start*
// convention driving real async_comm handles across rank threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/core/exec_graph.h"
#include "src/obs/metrics.h"
#include "src/parallel/fused_ops.h"
#include "src/sim/graph.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

TEST(ExecGraphTest, ComputeOpsRunInScheduleOrderOnCallerThread) {
  const std::thread::id caller = std::this_thread::get_id();
  ExecGraph graph;
  std::vector<int> ran;
  std::vector<std::thread::id> tids;
  for (int i = 0; i < 5; ++i) {
    graph.AddCompute("c" + std::to_string(i), [&, i] {
      ran.push_back(i);
      tids.push_back(std::this_thread::get_id());
      return Status::Ok();
    });
  }
  ExecResult declared = graph.Execute(2);
  ASSERT_TRUE(declared.status.ok()) << declared.status.ToString();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const std::thread::id& tid : tids) {
    EXPECT_EQ(tid, caller) << "compute op escaped the calling thread";
  }

  // A permuted (dependency-free) schedule runs in exactly that order.
  ran.clear();
  const std::vector<int> order = {4, 2, 0, 3, 1};
  const std::vector<int> streams(5, 0);
  ExecResult permuted = graph.ExecuteSchedule(order, streams, 2);
  ASSERT_TRUE(permuted.status.ok()) << permuted.status.ToString();
  EXPECT_EQ(ran, order);
  EXPECT_EQ(permuted.order, order);
}

TEST(ExecGraphTest, CrossStreamDepIsAnEventWait) {
  ExecGraph graph;
  std::atomic<bool> produced{false};
  const int producer = graph.AddComm("produce", /*stream=*/1, [&] {
    produced.store(true);
    return Status::Ok();
  });
  bool consumer_saw = false;
  graph.AddCompute(
      "consume",
      [&] {
        consumer_saw = produced.load();
        return Status::Ok();
      },
      {producer});
  ExecResult result = graph.Execute(2);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(consumer_saw) << "dep ran after its dependent";
  // Timings respect the event: the consumer starts no earlier than the
  // producer finished.
  EXPECT_GE(result.timings[1].start_us, result.timings[0].end_us);
}

TEST(ExecGraphTest, NonOkStatusAbortsGraphAndSkipsDependents) {
  ExecGraph graph;
  bool later_ran = false;
  bool dependent_ran = false;
  graph.AddCompute("ok", [] { return Status::Ok(); });
  const int bad = graph.AddCompute("bad", [] { return Internal("injected"); });
  graph.AddCompute(
      "dependent",
      [&] {
        dependent_ran = true;
        return Status::Ok();
      },
      {bad});
  graph.AddComm("later", /*stream=*/1, [&] {
    later_ran = true;
    return Status::Ok();
  });
  ExecResult result = graph.Execute(2);
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_FALSE(dependent_ran);
  // "later" has no dep on the failed op; whether it ran depends on the
  // abort race, but the graph must not hang and the eventual status is the
  // sticky FIRST error.
  (void)later_ran;
}

TEST(ExecGraphTest, ThrownExceptionRethrownOnCallerAfterDrain) {
  ExecGraph graph;
  bool dependent_ran = false;
  const int bad = graph.AddCompute("throws", []() -> Status {
    throw std::runtime_error("closure exploded");
  });
  graph.AddCompute(
      "dependent",
      [&] {
        dependent_ran = true;
        return Status::Ok();
      },
      {bad});
  graph.AddComm("comm", /*stream=*/1, [] { return Status::Ok(); });
  EXPECT_THROW(graph.Execute(2), std::runtime_error);
  EXPECT_FALSE(dependent_ran);
}

TEST(ExecGraphTest, InvalidSchedulesRejectedWithoutRunning) {
  ExecGraph graph;
  bool ran = false;
  const int first = graph.AddCompute("a", [&] {
    ran = true;
    return Status::Ok();
  });
  graph.AddCompute(
      "b", [&] { return Status::Ok(); }, {first});

  // Dependency after dependent.
  ExecResult flipped = graph.ExecuteSchedule({1, 0}, {0, 0}, 2);
  EXPECT_EQ(flipped.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ran);

  // Not a permutation.
  ExecResult dup = graph.ExecuteSchedule({0, 0}, {0, 0}, 2);
  EXPECT_EQ(dup.status.code(), StatusCode::kInvalidArgument);

  // Compute op off stream 0.
  ExecResult moved = graph.ExecuteSchedule({0, 1}, {0, 1}, 2);
  EXPECT_EQ(moved.status.code(), StatusCode::kInvalidArgument);

  // Stream out of range.
  ExecGraph comm_graph;
  comm_graph.AddComm("c", /*stream=*/1, [] { return Status::Ok(); });
  ExecResult range = comm_graph.ExecuteSchedule({0}, {5}, 2);
  EXPECT_EQ(range.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ran);
}

TEST(ExecGraphTest, RandomSchedulesAreAlwaysValid) {
  // Random layered DAGs: every RandomSchedule draw must pass validation.
  Rng shape_rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    ExecGraph graph;
    const int count = 3 + static_cast<int>(shape_rng.NextIndex(12));
    for (int i = 0; i < count; ++i) {
      std::vector<int> deps;
      for (int d = 0; d < i; ++d) {
        if (shape_rng.NextUniform() < 0.3) {
          deps.push_back(d);
        }
      }
      if (shape_rng.NextUniform() < 0.5) {
        graph.AddComm("comm" + std::to_string(i), /*stream=*/1,
                      [] { return Status::Ok(); }, std::move(deps));
      } else {
        graph.AddCompute("comp" + std::to_string(i), [] { return Status::Ok(); },
                         std::move(deps));
      }
    }
    for (uint64_t seed = 0; seed < 8; ++seed) {
      std::vector<int> order;
      std::vector<int> streams;
      RandomSchedule(graph.ops(), seed, /*num_streams=*/3, &order, &streams);
      const Status valid = ValidateSchedule(graph.ops(), order, streams, 3);
      EXPECT_TRUE(valid.ok()) << "trial " << trial << " seed " << seed << ": "
                              << valid.ToString();
      // And the schedule actually runs to completion.
      ExecResult result = graph.ExecuteSchedule(order, streams, 3);
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    }
  }
}

TEST(ExecGraphTest, ToSimOpsMirrorsGraphAndFeedsTheSimulator) {
  ExecGraph graph;
  const int a = graph.AddCompute("gemm_a", [] { return Status::Ok(); });
  const int b = graph.AddComm("xfer", /*stream=*/1, [] { return Status::Ok(); }, {a});
  graph.AddCompute(
      "gemm_b", [] { return Status::Ok(); }, {b});
  graph.SetCost(a, 100.0);
  graph.SetCost(b, 50.0);
  graph.SetCost(2, 25.0);

  std::vector<SimOp> sim_ops = graph.ToSimOps();
  ASSERT_EQ(sim_ops.size(), 3u);
  EXPECT_EQ(sim_ops[0].name, "gemm_a");
  EXPECT_FALSE(sim_ops[0].is_comm);
  EXPECT_TRUE(sim_ops[1].is_comm);
  EXPECT_EQ(sim_ops[1].stream, 1);
  EXPECT_EQ(sim_ops[2].deps, (std::vector<int>{1}));
  GraphResult predicted = ExecuteGraph(sim_ops, 2);
  EXPECT_DOUBLE_EQ(predicted.makespan, 175.0);  // pure chain
}

TEST(ExecGraphTest, MeasuredTimelineMatchesExecutedSchedule) {
  ExecGraph graph;
  const int a = graph.AddCompute("a", [] { return Status::Ok(); });
  graph.AddComm("b", /*stream=*/1, [] { return Status::Ok(); }, {a});
  ExecResult result = graph.Execute(2);
  ASSERT_TRUE(result.status.ok());

  std::vector<SimOp> ops;
  GraphResult timeline;
  MeasuredTimeline(graph, result, &ops, &timeline);
  ASSERT_EQ(ops.size(), 2u);
  ASSERT_EQ(timeline.timings.size(), 2u);
  EXPECT_EQ(ops[1].stream, 1);
  EXPECT_GE(timeline.makespan, 0.0);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_DOUBLE_EQ(timeline.timings[i].end - timeline.timings[i].start,
                     ops[i].duration);
  }
}

// A comm wait recorded on stream 0 is the compute stream idling on an
// event: the per-step busy feed classifies ops by kind, not stream, so the
// wait lands in comm_busy and in the bubble, never in compute_busy.
TEST(ExecGraphTest, StreamZeroCommOpsFeedCommBusyAndBubble) {
  ExecStepStats stats;
  ExecStepStats* previous = SetCurrentThreadExecStats(&stats);
  ExecGraph graph;
  const int wait = graph.AddComm("wait", /*stream=*/0, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Status::Ok();
  });
  graph.AddCompute("work", [] { return Status::Ok(); }, {wait});
  const ExecResult result = graph.Execute(1);
  SetCurrentThreadExecStats(previous);
  ASSERT_TRUE(result.status.ok());
  const auto busy = [&result](int op) {
    return result.timings[static_cast<size_t>(op)].end_us -
           result.timings[static_cast<size_t>(op)].start_us;
  };
  EXPECT_EQ(stats.graphs, 1);
  EXPECT_DOUBLE_EQ(stats.comm_busy_us, busy(0));
  EXPECT_DOUBLE_EQ(stats.compute_busy_us, busy(1));
  EXPECT_GE(busy(0), 5000.0);
  EXPECT_GE(stats.bubble_us, busy(0));
}

// Bitwise determinism across the schedule grid: a mixed graph with chained
// accumulation (order forced by deps) plus independent disjoint writers must
// produce identical bytes under every schedule and stream count.
TEST(ExecGraphTest, ScheduleGridIsBitwiseDeterministic) {
  const int kSlots = 6;
  auto build = [&](std::vector<float>* acc, std::vector<float>* slots) {
    ExecGraph graph;
    int prev = -1;
    for (int k = 0; k < 5; ++k) {
      std::vector<int> deps;
      if (prev >= 0) {
        deps.push_back(prev);
      }
      // Float accumulation is order-dependent, so the chain of deps IS the
      // determinism guarantee the real pipelines rely on.
      prev = graph.AddCompute(
          "acc" + std::to_string(k),
          [acc, k] {
            (*acc)[0] += 1.0f / static_cast<float>(3 + k);
            return Status::Ok();
          },
          std::move(deps));
    }
    for (int s = 0; s < kSlots; ++s) {
      graph.AddCompute("slot" + std::to_string(s), [slots, s] {
        (*slots)[static_cast<size_t>(s)] = static_cast<float>(s) * 0.25f;
        return Status::Ok();
      });
    }
    return graph;
  };

  std::vector<float> ref_acc(1, 0.0f);
  std::vector<float> ref_slots(kSlots, 0.0f);
  {
    ExecGraph graph = build(&ref_acc, &ref_slots);
    ASSERT_TRUE(graph.Execute(1).status.ok());
  }
  for (int num_streams = 1; num_streams <= 3; ++num_streams) {
    for (uint64_t seed = 0; seed < 10; ++seed) {
      std::vector<float> acc(1, 0.0f);
      std::vector<float> slots(kSlots, 0.0f);
      ExecGraph graph = build(&acc, &slots);
      std::vector<int> order;
      std::vector<int> streams;
      RandomSchedule(graph.ops(), seed, num_streams, &order, &streams);
      ExecResult result = graph.ExecuteSchedule(order, streams, num_streams);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(acc[0], ref_acc[0]) << "streams " << num_streams << " seed " << seed;
      EXPECT_EQ(slots, ref_slots) << "streams " << num_streams << " seed " << seed;
    }
  }
}

// Recording a pipeline and destroying it WITHOUT executing must not hang:
// the handle destructor cancels the unsignalled producer-gated collective on
// every rank and deliberately ABORTS the channel (PR 4 semantics) — a
// recorded-but-never-run transfer is a usage bug that surfaces loudly
// instead of wedging peers.
TEST(ExecGraphCommTest, RecordedPipelineDroppedWithoutExecute) {
  const int n = 4;
  const int64_t rows = 8;
  const int64_t k_shard = 3;
  const int64_t cols = 5;
  Rng rng(11);
  Tensor x = Tensor::Randn({rows, k_shard}, rng);
  Tensor w = Tensor::Randn({k_shard, cols}, rng);
  FlatCommunicator group(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    std::unique_ptr<FusedPipeline> pipe = RecordFusedGemmReduceScatter(ctx, x, w, 2);
    // Dropped on the floor: no Execute, no signals.
    pipe.reset();
  });
  EXPECT_EQ(group.GroupStatus().code(), StatusCode::kAborted)
      << group.GroupStatus().ToString();
}

// A group aborted before execution surfaces as a non-OK graph status on
// every rank — no hang, compute dependents skipped.
TEST(ExecGraphCommTest, GroupAbortSurfacesAsGraphError) {
  const int n = 4;
  const int64_t rows_local = 4;
  const int64_t k = 3;
  const int64_t cols = 2;
  Rng rng(12);
  Tensor w = Tensor::Randn({k, cols}, rng);
  FlatCommunicator group(n);
  std::vector<Status> statuses(static_cast<size_t>(n));
  RunOnRanks(n, [&](int rank) {
    Rng rank_rng(100 + static_cast<uint64_t>(rank));
    Tensor x = Tensor::Randn({rows_local, k}, rank_rng);
    ShardContext ctx{&group, rank};
    std::unique_ptr<FusedPipeline> pipe = RecordFusedAllGatherGemm(ctx, x, w, 1);
    if (rank == 0) {
      group.Abort(Internal("injected pre-execute fault"));
    }
    statuses[static_cast<size_t>(rank)] = pipe->graph.Execute(2).status;
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_FALSE(statuses[static_cast<size_t>(rank)].ok()) << "rank " << rank;
  }
  EXPECT_FALSE(group.GroupStatus().ok());
}

}  // namespace
}  // namespace msmoe
