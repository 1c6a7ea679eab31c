// Scenario: an online service answering "can change X affect service Y?"
// over a build/deployment dependency graph — millions of point
// reachability queries against one mostly-static graph. Instead of
// materializing the transitive closure (the paper's offline CTC/PTC
// regime), a ReachService builds O(1) labels once and serves queries from
// them, falling back to a label-pruned search for the rare pair the
// labels leave undecided.
//
//   ./examples/online_reachability [num_nodes] [avg_degree] [num_queries]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "graph/generator.h"
#include "reach/reach_service.h"
#include "util/random.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace tcdb;

  const NodeId num_nodes = argc > 1 ? std::atoi(argv[1]) : 2000;
  const int32_t avg_degree = argc > 2 ? std::atoi(argv[2]) : 5;
  const int num_queries = argc > 3 ? std::atoi(argv[3]) : 5000;

  GeneratorParams params;
  params.num_nodes = num_nodes;
  params.avg_out_degree = avg_degree;
  params.locality = std::max<int32_t>(20, num_nodes / 10);
  params.seed = 7;
  const ArcList arcs = GenerateDag(params);

  WallTimer build_timer;
  auto service = ReachService::Build(arcs, num_nodes);
  if (!service.ok()) {
    std::cerr << service.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "Dependency graph: %d nodes, %zu arcs; index built in %.2f ms "
      "(%d supportive pivots, %d chains).\n\n",
      num_nodes, arcs.size(), build_timer.ElapsedSeconds() * 1e3,
      service.value()->index().num_supportive(),
      service.value()->index().num_chains());

  // A few point queries, explained.
  Rng rng(3);
  std::printf("Spot checks:\n");
  for (int i = 0; i < 5; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
    auto answer = service.value()->Query(u, v);
    if (!answer.ok()) {
      std::cerr << answer.status().ToString() << "\n";
      return 1;
    }
    std::printf("  reaches(%4d, %4d) = %-5s  [%s]\n", u, v,
                answer.value().reachable ? "true" : "false",
                ReachStageName(answer.value().stage));
  }

  // Batched traffic: the service groups the undecided residue by source,
  // so fallback work amortizes across the batch.
  std::vector<std::pair<NodeId, NodeId>> batch;
  batch.reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    batch.emplace_back(static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)),
                       static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)));
  }
  WallTimer serve_timer;
  auto answers = service.value()->QueryBatch(batch);
  if (!answers.ok()) {
    std::cerr << answers.status().ToString() << "\n";
    return 1;
  }
  const double serve_s = serve_timer.ElapsedSeconds();
  std::printf("\nServed a batch of %d queries in %.2f ms (%.0f kq/s).\n\n",
              num_queries, serve_s * 1e3, num_queries / serve_s / 1e3);
  service.value()->stats().Print(std::cout);
  return 0;
}
