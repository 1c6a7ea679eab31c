// Batch differential on a fallback-bound shape: a paper-generator graph
// (n=5000, F=5, l=500) whose labels core carries an observation battery
// trained on a mined adversarial sample, served an adversarial stream.
// QueryBatch at 16 and 64 pairs per call must answer exactly as per-pair
// Query and as a reference BFS, through a bare ReachService and through a
// 2-shard ReachServer. The residue runs one unbounded pruned BFS per
// condensed source group; the retired session rung must never fire.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "reach/load_driver.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "workload/traffic_model.h"

namespace tcdb {
namespace {

constexpr NodeId kNodes = 5000;
constexpr int64_t kStreamPairs = 4096;
constexpr size_t kBatchSizes[] = {16, 64};

std::vector<std::pair<NodeId, NodeId>> Adversarial(
    const Digraph& graph, uint64_t seed, int64_t count,
    const std::shared_ptr<const ReachCore>& baseline) {
  TrafficModelOptions traffic;
  traffic.kind = WorkloadKind::kAdversarial;
  traffic.seed = seed;
  return MakeModelWorkload(graph, traffic, count, MakeLadderProbe(baseline));
}

// Reflexive reachability of every stream pair from the reference
// partial closure of the stream's distinct sources.
std::vector<bool> ReferenceAnswers(
    const Digraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<NodeId> sources;
  for (const auto& [src, dst] : pairs) sources.push_back(src);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  const std::vector<std::vector<NodeId>> cones =
      ReferencePartialClosure(graph, sources);
  std::vector<bool> answers;
  answers.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) {
    const size_t i = static_cast<size_t>(
        std::lower_bound(sources.begin(), sources.end(), src) -
        sources.begin());
    answers.push_back(src == dst || std::binary_search(cones[i].begin(),
                                                       cones[i].end(), dst));
  }
  return answers;
}

class ReachBatchDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ArcList arcs = GenerateDag({kNodes, 5, 500, 1});
    const Digraph graph(kNodes, arcs);
    auto baseline = ReachCore::Build(arcs, kNodes);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ReachIndexOptions options;
    options.oreach = true;
    options.oreach_traffic =
        Adversarial(graph, 0x7ea1, 4096, baseline.value());
    auto core = ReachCore::Build(arcs, kNodes, options);
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    core_ = new std::shared_ptr<const ReachCore>(core.value());
    pairs_ = new std::vector<std::pair<NodeId, NodeId>>(
        Adversarial(graph, 0x5e7e, kStreamPairs, baseline.value()));
    expected_ = new std::vector<bool>(ReferenceAnswers(graph, *pairs_));
  }

  static void TearDownTestSuite() {
    delete core_;
    delete pairs_;
    delete expected_;
  }

  static void ExpectNoSessionRung(const ReachStats& stats) {
    EXPECT_GT(stats.Decided(ReachStage::kPrunedBfs), 0)
        << "the stream never reached the search residue";
    EXPECT_EQ(stats.Decided(ReachStage::kSessionFallback), 0);
    EXPECT_EQ(stats.session_queries, 0);
  }

  static std::shared_ptr<const ReachCore>* core_;
  static std::vector<std::pair<NodeId, NodeId>>* pairs_;
  static std::vector<bool>* expected_;
};

std::shared_ptr<const ReachCore>* ReachBatchDifferentialTest::core_ = nullptr;
std::vector<std::pair<NodeId, NodeId>>* ReachBatchDifferentialTest::pairs_ =
    nullptr;
std::vector<bool>* ReachBatchDifferentialTest::expected_ = nullptr;

TEST_F(ReachBatchDifferentialTest, ServiceBatchesMatchQueryAndReference) {
  const auto& pairs = *pairs_;
  std::unique_ptr<ReachService> single = ReachService::Create(*core_);
  std::vector<bool> per_pair;
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto answer = single->Query(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    per_pair.push_back(answer.value().reachable);
    ASSERT_EQ(per_pair[i], (*expected_)[i])
        << "Query(" << pairs[i].first << ", " << pairs[i].second << ") via "
        << ReachStageName(answer.value().stage);
  }
  ExpectNoSessionRung(single->stats());

  for (const size_t batch : kBatchSizes) {
    std::unique_ptr<ReachService> service = ReachService::Create(*core_);
    const std::span<const std::pair<NodeId, NodeId>> all(pairs);
    for (size_t next = 0; next < pairs.size(); next += batch) {
      const size_t len = std::min(batch, pairs.size() - next);
      auto answers = service->QueryBatch(all.subspan(next, len));
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(answers.value()[i].reachable, per_pair[next + i])
            << "batch " << batch << " pair " << next + i << " via "
            << ReachStageName(answers.value()[i].stage);
      }
    }
    EXPECT_EQ(service->stats().queries,
              static_cast<int64_t>(pairs.size()));
    ExpectNoSessionRung(service->stats());
  }
}

TEST_F(ReachBatchDifferentialTest, ShardedBatchesMatchQueryAndReference) {
  const auto& pairs = *pairs_;
  ReachServerOptions options;
  options.num_shards = 2;
  {
    auto server = ReachServer::Start(*core_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto answer = server.value()->Query(pairs[i].first, pairs[i].second);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer.value().reachable, (*expected_)[i]) << "pair " << i;
    }
    server.value()->Stop();
    ExpectNoSessionRung(server.value()->Snapshot().merged);
  }
  for (const size_t batch : kBatchSizes) {
    auto server = ReachServer::Start(*core_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    const std::span<const std::pair<NodeId, NodeId>> all(pairs);
    for (size_t next = 0; next < pairs.size(); next += batch) {
      const size_t len = std::min(batch, pairs.size() - next);
      auto answers = server.value()->QueryBatch(all.subspan(next, len));
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(answers.value()[i].reachable, (*expected_)[next + i])
            << "batch " << batch << " pair " << next + i << " via "
            << ReachStageName(answers.value()[i].stage);
      }
    }
    server.value()->Stop();
    ExpectNoSessionRung(server.value()->Snapshot().merged);
  }
}

}  // namespace
}  // namespace tcdb
