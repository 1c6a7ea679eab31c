// Dynamic-update tests (ctest label: `dynamic`): DeltaOverlay net
// semantics, MutationLog epochs and its paged mirror, the
// DynamicReachService serving ladder (snapshot / overlay-patched /
// escalated), snapshot adoption, and the randomized differential sweep —
// >= 10k mixed insert/delete/query ops across the generator's graph
// families, every answer checked bit-for-bit against a reference closure
// at that epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "dynamic/delta_overlay.h"
#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "dynamic/mutation_stress.h"
#include "graph/algorithms.h"
#include "graph/generator.h"
#include "util/random.h"

namespace tcdb {
namespace {

// --- DeltaOverlay -------------------------------------------------------

TEST(DeltaOverlayTest, InsertThenDeleteCancelsToEmpty) {
  DeltaOverlay overlay;
  overlay.RecordInsert(1, 2);
  EXPECT_EQ(overlay.num_inserted(), 1u);
  EXPECT_FALSE(overlay.empty());
  overlay.RecordDelete(1, 2);
  EXPECT_TRUE(overlay.empty());
  EXPECT_FALSE(overlay.has_deletions());
}

TEST(DeltaOverlayTest, DeleteThenInsertCancelsTombstone) {
  DeltaOverlay overlay;
  overlay.RecordDelete(3, 4);
  EXPECT_TRUE(overlay.IsDeleted(3, 4));
  EXPECT_TRUE(overlay.has_deletions());
  overlay.RecordInsert(3, 4);
  EXPECT_FALSE(overlay.IsDeleted(3, 4));
  EXPECT_TRUE(overlay.empty());
}

TEST(DeltaOverlayTest, AdjacencyAndEnumeration) {
  DeltaOverlay overlay;
  overlay.RecordInsert(1, 2);
  overlay.RecordInsert(1, 5);
  overlay.RecordInsert(7, 2);
  overlay.RecordDelete(9, 9);
  const auto row = overlay.InsertedSuccessors(1);
  std::vector<NodeId> sorted(row.begin(), row.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{2, 5}));
  EXPECT_TRUE(overlay.InsertedSuccessors(2).empty());
  std::vector<NodeId> sources = overlay.InsertedSources();
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<NodeId>{1, 7}));
  const std::vector<Arc> deleted = overlay.DeletedArcs();
  ASSERT_EQ(deleted.size(), 1u);
  EXPECT_EQ(deleted[0].src, 9);
  EXPECT_EQ(deleted[0].dst, 9);
  overlay.Clear();
  EXPECT_TRUE(overlay.empty());
}

// --- MutationLog --------------------------------------------------------

TEST(MutationLogTest, OpenDedupesAndMirrors) {
  const ArcList base = {{0, 1}, {1, 2}, {0, 1}};  // duplicate collapses
  auto log = MutationLog::Open(base, 3);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log.value()->num_live_arcs(), 2);
  EXPECT_EQ(log.value()->current_epoch(), 0);
  EXPECT_TRUE(log.value()->HasArc(0, 1));
  EXPECT_FALSE(log.value()->HasArc(1, 0));
  std::vector<NodeId> row;
  ASSERT_TRUE(log.value()->ReadSuccessors(0, &row).ok());
  EXPECT_EQ(row, std::vector<NodeId>{1});
}

TEST(MutationLogTest, MutationStatusesAndEpochs) {
  auto log = MutationLog::Open({{0, 1}}, 4);
  ASSERT_TRUE(log.ok());
  MutationLog* m = log.value().get();
  // Validation: range, self-loops, double insert, missing delete.
  EXPECT_EQ(m->InsertArc(0, 9).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m->InsertArc(2, 2).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m->InsertArc(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(m->DeleteArc(1, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(m->current_epoch(), 0);  // rejected mutations mint no epoch

  auto e1 = m->InsertArc(1, 2);
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1.value(), 1);
  auto e2 = m->DeleteArc(0, 1);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value(), 2);
  EXPECT_EQ(m->current_epoch(), 2);
  EXPECT_EQ(m->num_live_arcs(), 1);

  const MutationLog::ArcSnapshot snap = m->SnapshotArcs();
  EXPECT_EQ(snap.epoch, 2);
  ASSERT_EQ(snap.arcs.size(), 1u);
  EXPECT_EQ(snap.arcs[0].src, 1);
  EXPECT_EQ(snap.arcs[0].dst, 2);

  // The paged mirror tracked both mutations.
  std::vector<NodeId> row;
  ASSERT_TRUE(m->ReadSuccessors(0, &row).ok());
  EXPECT_TRUE(row.empty());
  row.clear();
  ASSERT_TRUE(m->ReadSuccessors(1, &row).ok());
  EXPECT_EQ(row, std::vector<NodeId>{2});
  EXPECT_TRUE(m->buffers()->AuditNoPins().ok());
}

TEST(MutationLogTest, RebaseReplaysSuffixNotNetDifference) {
  auto log = MutationLog::Open({}, 4);
  ASSERT_TRUE(log.ok());
  MutationLog* m = log.value().get();
  ASSERT_TRUE(m->InsertArc(0, 1).ok());  // epoch 1
  ASSERT_TRUE(m->DeleteArc(0, 1).ok());  // epoch 2
  // Relative to epoch 0 the overlay nets out to nothing.
  EXPECT_TRUE(m->overlay().empty());
  // Relative to epoch 1 (a snapshot that contains the arc) the delete is
  // a tombstone — pruning the netted overlay could never produce this.
  m->RebaseOverlay(1);
  EXPECT_TRUE(m->overlay().IsDeleted(0, 1));
  EXPECT_EQ(m->overlay().num_inserted(), 0u);
  // And relative to epoch 2 it is empty again.
  m->RebaseOverlay(2);
  EXPECT_TRUE(m->overlay().empty());
}

// --- DynamicReachService ------------------------------------------------

std::unique_ptr<MutationLog> MustOpen(const ArcList& arcs, NodeId n) {
  auto log = MutationLog::Open(arcs, n);
  TCDB_CHECK(log.ok()) << log.status().ToString();
  return std::move(log.value());
}

std::unique_ptr<DynamicReachService> MustCreate(
    MutationLog* log, const DynamicReachOptions& options = {}) {
  auto service = DynamicReachService::Create(log, options);
  TCDB_CHECK(service.ok()) << service.status().ToString();
  return std::move(service.value());
}

bool MustQuery(DynamicReachService* service, NodeId u, NodeId v,
               ReachStage* stage = nullptr) {
  auto answer = service->Query(u, v);
  TCDB_CHECK(answer.ok()) << answer.status().ToString();
  if (stage != nullptr) *stage = answer.value().stage;
  return answer.value().reachable;
}

// The four stage-expectation tests below pin the legacy three-tier
// ladder (snapshot / overlay-patched / live-BFS), so they opt out of the
// incremental tier — with it on, the O(k) decide would intercept these
// queries first. Answer correctness with the tier on is covered by the
// differential sweeps in incremental_reach_test.cc and below.
DynamicReachOptions LegacyLadder() {
  DynamicReachOptions options;
  options.incremental = false;
  return options;
}

TEST(DynamicReachServiceTest, EmptyOverlayServesFromSnapshot) {
  auto log = MustOpen({{0, 1}, {1, 2}}, 4);
  auto service = MustCreate(log.get());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
  EXPECT_FALSE(MustQuery(service.get(), 2, 0));
  EXPECT_FALSE(MustQuery(service.get(), 0, 3));
  EXPECT_EQ(service->stats().snapshot_served, 3);
  EXPECT_EQ(service->stats().overlay_served, 0);
  EXPECT_EQ(service->stats().escalations, 0);
}

TEST(DynamicReachServiceTest, InsertIsVisibleImmediatelyViaOverlay) {
  auto log = MustOpen({{0, 1}, {2, 3}}, 4);
  auto service = MustCreate(log.get(), LegacyLadder());
  EXPECT_FALSE(MustQuery(service.get(), 0, 3));
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ReachStage stage;
  EXPECT_TRUE(MustQuery(service.get(), 0, 3, &stage));
  EXPECT_EQ(stage, ReachStage::kOverlayPatched);
  // Insert-only overlays keep definite NO answers definite too.
  EXPECT_FALSE(MustQuery(service.get(), 3, 0, &stage));
  EXPECT_EQ(stage, ReachStage::kOverlayPatched);
  EXPECT_EQ(service->stats().escalations, 0);
}

TEST(DynamicReachServiceTest, DeleteEscalatesAndAnswersCorrectly) {
  auto log = MustOpen({{0, 1}, {1, 2}, {3, 2}}, 4);
  auto service = MustCreate(log.get(), LegacyLadder());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
  ASSERT_TRUE(service->DeleteArc(1, 2).ok());
  ReachStage stage;
  EXPECT_FALSE(MustQuery(service.get(), 0, 2, &stage));
  EXPECT_EQ(stage, ReachStage::kLiveBfs);
  EXPECT_TRUE(MustQuery(service.get(), 0, 1));
  EXPECT_TRUE(MustQuery(service.get(), 3, 2));
  EXPECT_GE(service->stats().escalations, 1);
}

TEST(DynamicReachServiceTest, DeletionOutsideConeStaysPatched) {
  // Two disjoint chains; deleting in one must not force the other's
  // queries off the patched path (the relevance scan sees the deleted
  // arc's source is outside the query cone).
  auto log = MustOpen({{0, 1}, {2, 3}}, 4);
  auto service = MustCreate(log.get(), LegacyLadder());
  ASSERT_TRUE(service->DeleteArc(2, 3).ok());
  ReachStage stage;
  EXPECT_TRUE(MustQuery(service.get(), 0, 1, &stage));
  EXPECT_EQ(stage, ReachStage::kOverlayPatched);
  EXPECT_EQ(service->stats().escalations, 0);
}

TEST(DynamicReachServiceTest, ZeroBudgetEscalatesNonEmptyOverlay) {
  DynamicReachOptions options = LegacyLadder();
  options.overlay_probe_budget = 0;
  auto log = MustOpen({{0, 1}}, 4);
  auto service = MustCreate(log.get(), options);
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ReachStage stage;
  EXPECT_TRUE(MustQuery(service.get(), 0, 2, &stage));
  EXPECT_EQ(stage, ReachStage::kLiveBfs);
  EXPECT_EQ(service->stats().escalations, 1);
}

// Regression: ReachStats::DecidedWithoutFallback subtracted only the
// static pruned-BFS and session stages, so a dynamic trace whose queries
// ran the overlay-patched and live-BFS searches still read "decided
// without fallback 100%". Every search tier must count as a fallback.
TEST(DynamicReachServiceTest, SearchTiersCountAsFallback) {
  const GeneratorParams params{300, 4, 60, 5};
  ArcList live = GenerateDag(params);
  auto log = MustOpen(live, params.num_nodes);
  auto service = MustCreate(log.get(), LegacyLadder());
  Rng rng(17);
  int64_t searched = 0;
  int64_t escalated = 0;
  for (int op = 0; op < 3000; ++op) {
    const int64_t roll = rng.Uniform(0, 19);
    if (roll == 0 && !live.empty()) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(service->DeleteArc(live[pick].src, live[pick].dst).ok());
      live[pick] = live.back();
      live.pop_back();
      continue;
    }
    const NodeId u =
        static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    const NodeId v =
        static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    if (roll == 1 && u < v && !log->HasArc(u, v)) {
      ASSERT_TRUE(service->InsertArc(u, v).ok());
      live.push_back({u, v});
      continue;
    }
    ReachStage stage;
    MustQuery(service.get(), u, v, &stage);
    if (stage == ReachStage::kPrunedBfs ||
        stage == ReachStage::kOverlayPatched ||
        stage == ReachStage::kLiveBfs) {
      ++searched;
    }
    if (stage == ReachStage::kLiveBfs) ++escalated;
  }
  ASSERT_GT(escalated, 0) << "the trace never escalated to a live BFS";
  const ReachStats& stats = service->serving_stats();
  EXPECT_EQ(stats.queries - stats.DecidedWithoutFallback(), searched);
  EXPECT_LT(stats.DecidedWithoutFallback(), stats.queries);
}

TEST(DynamicReachServiceTest, MutationInvalidatesCachedAnswer) {
  auto log = MustOpen({{0, 1}, {1, 2}}, 4);
  auto service = MustCreate(log.get());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
  ReachStage stage;
  EXPECT_TRUE(MustQuery(service.get(), 0, 2, &stage));
  EXPECT_EQ(stage, ReachStage::kCache);  // second hit came from the cache
  ASSERT_TRUE(service->DeleteArc(0, 1).ok());
  EXPECT_FALSE(MustQuery(service.get(), 0, 2, &stage));
  EXPECT_NE(stage, ReachStage::kCache);  // the stale entry was invalidated
  ASSERT_TRUE(service->InsertArc(0, 2).ok());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
}

TEST(DynamicReachServiceTest, AdoptingRebuiltSnapshotDrainsOverlay) {
  auto log = MustOpen({{0, 1}}, 5);
  auto service = MustCreate(log.get());
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ASSERT_TRUE(service->InsertArc(2, 3).ok());
  ASSERT_TRUE(service->DeleteArc(0, 1).ok());
  EXPECT_FALSE(log->overlay().empty());

  IndexRebuilder rebuilder(
      log.get(),
      [&](std::shared_ptr<const ReachCore> core, MutationLog::Epoch epoch,
          double seconds) {
        service->PublishSnapshot(std::move(core), epoch, seconds);
      });
  ASSERT_TRUE(rebuilder.RebuildNow().ok());
  EXPECT_EQ(rebuilder.rebuilds_published(), 1);
  EXPECT_TRUE(service->AdoptPublishedSnapshot());
  EXPECT_EQ(service->snapshot_epoch(), 3);
  EXPECT_TRUE(log->overlay().empty());
  EXPECT_EQ(service->stats().snapshots_adopted, 1);

  // Post-adoption queries run the pure snapshot ladder and agree with the
  // live graph.
  ReachStage stage;
  EXPECT_TRUE(MustQuery(service.get(), 1, 3, &stage));
  EXPECT_NE(stage, ReachStage::kOverlayPatched);
  EXPECT_NE(stage, ReachStage::kLiveBfs);
  EXPECT_FALSE(MustQuery(service.get(), 0, 1));
  EXPECT_GE(service->stats().snapshot_served, 2);

  // A second RebuildNow at the same epoch publishes nothing.
  ASSERT_TRUE(rebuilder.RebuildNow().ok());
  EXPECT_EQ(rebuilder.rebuilds_published(), 1);
  EXPECT_FALSE(service->AdoptPublishedSnapshot());
}

TEST(DynamicReachServiceTest, QueryValidatesEndpoints) {
  auto log = MustOpen({{0, 1}}, 2);
  auto service = MustCreate(log.get());
  EXPECT_EQ(service->Query(0, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(-1, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Randomized differential sweep --------------------------------------

// The acceptance bar for the dynamic stack: randomized mixed traces
// totalling >= 10k operations across the generator grid (three node-count
// families, DAG and cyclic variants), every query answered bit-identically
// to a reference closure of the live graph at that epoch, every final
// paged successor list equal to the reference adjacency, and the buffer
// pool pin-clean.
TEST(DynamicDifferentialTest, TenThousandMixedOpsAcrossFamilies) {
  MutationStressOptions options;
  options.num_seeds = 15;
  options.base_seed = 7;
  options.ops_per_seed = 700;
  MutationStressReport report;
  MutationStressFailure failure;
  const Status status = RunMutationStress(options, &report, &failure);
  ASSERT_TRUE(status.ok()) << failure.ToString();
  EXPECT_EQ(report.seeds, 15);
  EXPECT_GE(report.inserts + report.deletes + report.queries, 10000);
  EXPECT_GT(report.deletes, 0);
  EXPECT_GT(report.escalations, 0);
  EXPECT_GT(report.overlay_served, 0);
  EXPECT_GT(report.snapshots_adopted, 0);
}

// Regression for the epoch-skipping hole: MutationStress used to
// validate answers only at the trace's own query ops, so an epoch whose
// damage a later mutation repaired was never checked. A mutation-heavy
// trace (~5% queries) now still validates EVERY intermediate epoch by
// default, and validate_every=0 is pinned as the legacy behaviour.
TEST(DynamicDifferentialTest, EpochBoundaryValidationCoversQuietEpochs) {
  MutationStressOptions options;
  options.num_seeds = 3;
  options.base_seed = 11;
  options.ops_per_seed = 200;
  options.insert_share = 0.55;
  options.delete_share = 0.40;  // leaves ~5% query ops
  MutationStressReport report;
  MutationStressFailure failure;
  ASSERT_TRUE(RunMutationStress(options, &report, &failure).ok())
      << failure.ToString();
  EXPECT_GT(report.inserts + report.deletes, 0);
  // validate_every = 1 (the default): one boundary validation per
  // accepted mutation, query-free stretches included.
  EXPECT_EQ(report.epoch_validations, report.inserts + report.deletes);

  options.validate_every = 0;  // legacy: trace queries + final state only
  MutationStressReport legacy;
  ASSERT_TRUE(RunMutationStress(options, &legacy, &failure).ok())
      << failure.ToString();
  EXPECT_EQ(legacy.epoch_validations, 0);
  // The boundary checks ride a dedicated RNG stream, so the op traces —
  // and hence the answer digests — are identical either way.
  EXPECT_EQ(legacy.inserts, report.inserts);
  EXPECT_EQ(legacy.deletes, report.deletes);
  EXPECT_EQ(legacy.answer_digest, report.answer_digest);
}

// The tier on/off proof at unit scale (check.sh repeats it 50-seed under
// ASan/UBSan): identical traces with the incremental tier on and forced
// off must produce the identical answer digest — the tier may only
// change which stage answers, never what it answers.
TEST(DynamicDifferentialTest, IncrementalTierPreservesAnswerDigest) {
  MutationStressOptions options;
  options.num_seeds = 5;
  options.base_seed = 21;
  options.ops_per_seed = 400;
  MutationStressReport on_report;
  MutationStressFailure failure;
  ASSERT_TRUE(RunMutationStress(options, &on_report, &failure).ok())
      << failure.ToString();
  EXPECT_GT(on_report.incremental_served, 0);

  options.incremental = false;
  MutationStressReport off_report;
  ASSERT_TRUE(RunMutationStress(options, &off_report, &failure).ok())
      << failure.ToString();
  EXPECT_EQ(off_report.incremental_served, 0);
  EXPECT_EQ(off_report.queries, on_report.queries);
  EXPECT_EQ(off_report.answer_digest, on_report.answer_digest);
}

}  // namespace
}  // namespace tcdb
