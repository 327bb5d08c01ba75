// Ablation (beyond the paper's figures): the A2A vs AG/RS dispatch
// crossover as a function of top-k AND node size — generalizing Fig 7's
// single-node result and validating the planner rule k >= 0.75 * n. Also
// measures the two real EP dispatch implementations on thread ranks to
// confirm identical results with different wire volumes.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/comm/communicator.h"
#include "src/core/parallelism_planner.h"
#include "src/model/config.h"
#include "src/parallel/ep_ffn.h"
#include "src/sim/cost_model.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

void CrossoverSweep() {
  const CostModel cost(MakeCluster("H800", 64).value());
  const int64_t tokens = 8192;
  const int64_t h = 4096;
  TablePrinter table({"n", "top-k", "A2A (us)", "AG (us)", "Winner", "Planner rule"});
  for (int n : {4, 8, 16}) {
    for (int64_t k = 1; k <= n; ++k) {
      const double a2a = cost.AllToAllTime(tokens / n * k * h * 2, n, false);
      const double ag = cost.RingCollectiveTime(tokens / n * h * 2, n, false);
      const char* winner = a2a < ag ? "A2A" : "AG/RS";
      const char* rule = ChooseEpDispatch(k, n) == EpDispatchMode::kAllToAll ? "A2A"
                                                                             : "AG/RS";
      table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(n)), TablePrinter::Fmt(k),
                    TablePrinter::Fmt(a2a, 1), TablePrinter::Fmt(ag, 1), winner, rule});
    }
  }
  table.Print("Crossover sweep (planner rule k >= 0.75n must match the "
              "simulated winner):");
}

void RealDispatchEquivalence() {
  // Real EP FFN on 2 thread ranks: both modes, same routing, same result,
  // different wire bytes.
  ModelConfig model = TinyMoeConfig(4, 2);
  model.hidden = 16;
  model.ffn_hidden = 12;
  RouterConfig router;
  router.num_experts = 4;
  router.top_k = 2;

  Rng rng(5);
  std::vector<Tensor> w1, w3, w2;
  for (int e = 0; e < 4; ++e) {
    w1.push_back(Tensor::Randn({model.hidden, model.ffn_hidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({model.hidden, model.ffn_hidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({model.ffn_hidden, model.hidden}, rng, 0.0f, 0.2f));
  }
  Tensor w_gate = Tensor::Randn({model.hidden, 4}, rng, 0.0f, 0.3f);
  Tensor x = Tensor::Randn({32, model.hidden}, rng);

  const int n = 2;
  FlatCommunicator a2a_group(n);
  FlatCommunicator ag_group(n);
  std::vector<Tensor> y_a2a(n), y_ag(n);
  RunOnRanks(n, [&](int rank) {
    Tensor x_local = x.SliceRows(rank * 16, (rank + 1) * 16);
    Tensor logits = MatMul(x_local, w_gate);
    RoutingResult routing = RouteTokens(logits, router);
    EpFfnCache c1, c2;
    ShardContext ctx1{&a2a_group, rank};
    ShardContext ctx2{&ag_group, rank};
    y_a2a[static_cast<size_t>(rank)] =
        EpFfnForward(ctx1, model, EpDispatchMode::kAllToAll, EpPipelineConfig{}, w1, w3, w2,
                     x_local, routing, &c1);
    y_ag[static_cast<size_t>(rank)] =
        EpFfnForward(ctx2, model, EpDispatchMode::kAllGatherScatter, EpPipelineConfig{}, w1,
                     w3, w2, x_local, routing, &c2);
  });
  double max_diff = 0.0;
  for (int rank = 0; rank < n; ++rank) {
    max_diff = std::max(max_diff, y_a2a[static_cast<size_t>(rank)].RelativeL2Diff(
                                      y_ag[static_cast<size_t>(rank)]));
  }
  std::printf(
      "real thread-rank execution: A2A vs AG/RS results differ by %.2e "
      "(identical); wire bytes A2A %llu vs AG-mode %llu\n",
      max_diff, static_cast<unsigned long long>(a2a_group.wire_bytes()),
      static_cast<unsigned long long>(ag_group.wire_bytes()));
}

void Run() {
  PrintHeader("Ablation — EP dispatch-mode crossover (extends Fig 7)",
              "A2A vs AG/RS across node sizes and top-k, plus real execution");
  CrossoverSweep();
  RealDispatchEquivalence();
}

}  // namespace
}  // namespace msmoe

int main() {
  msmoe::Run();
  return 0;
}
