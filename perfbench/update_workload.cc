// update: one owner thread drives DurableDynamicService (WAL fsync on
// every append) in a fresh directory inside the checkout, with an
// IndexRebuilder thread publishing snapshots. The stream interleaves
// inserts, deletes and queries and checkpoints after every round; after
// the timed phase the service is closed and reopened with Recover().

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "persist/durable_service.h"
#include "persist/fs.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr NodeId kNodes = 2000;
constexpr NodeId kLocality = 200;
constexpr double kMutationShare = 0.2;
constexpr double kDeleteShare = 0.5;
// A round is kRoundOps operations followed by one Checkpoint(); the timed
// phase runs whole rounds, and throughput is measured per round, so every
// sample carries the same share of checkpoint work. A fixed tail of kTailOps operations after the
// last checkpoint leaves the WAL suffix Recover() replays the same length
// in every run.
constexpr int64_t kRoundOps = 5000;
constexpr int64_t kTailOps = 2000;
constexpr int kRecoveredSamples = 2000;

// Draws the next operation of the stream and keeps `live` (the arcs the
// stream may delete) in step with what it chose. Inserts draw non-live
// arcs the way the paper's generator does (u -> u + 1..l), and deletes
// uniform live arcs, so the graph keeps G5's size, locality and
// acyclicity however long the run: the stream is stationary, and a
// faster program does not end up serving a different graph.
class OpStream {
 public:
  OpStream(const ArcList& base, uint64_t seed)
      : live_(base.begin(), base.end()), rng_(seed) {}

  template <typename HasArc>
  UpdateOp Next(const HasArc& has_arc) {
    UpdateOp op;
    if (rng_.Bernoulli(kMutationShare)) {
      if (!live_.empty() && rng_.Bernoulli(kDeleteShare)) {
        const size_t pick = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(live_.size()) - 1));
        op = UpdateOp{UpdateOp::kDelete, live_[pick].src, live_[pick].dst};
        live_[pick] = live_.back();
        live_.pop_back();
        return op;
      }
      for (int attempt = 0; attempt < 32; ++attempt) {
        const NodeId u = static_cast<NodeId>(rng_.Uniform(0, kNodes - 2));
        const NodeId v = static_cast<NodeId>(
            rng_.Uniform(u + 1, std::min(kNodes - 1, u + kLocality)));
        if (has_arc(u, v)) continue;
        live_.push_back(Arc{u, v});
        return UpdateOp{UpdateOp::kInsert, u, v};
      }
    }
    op.kind = UpdateOp::kQuery;
    op.src = static_cast<NodeId>(rng_.Uniform(0, kNodes - 1));
    op.dst = static_cast<NodeId>(rng_.Uniform(0, kNodes - 1));
    return op;
  }

 private:
  std::vector<Arc> live_;
  tcdb::Rng rng_;
};

// The operations of a run as the timed loop records them: 4 bytes per
// operation plus the epoch of each mutation, in buffers allocated and
// written during set-up (room for 4M operations, twenty times what a
// 20 s run completes here), so the recorder's pages count towards peak
// RSS before the timed phase and the same however far a run gets.
class OpLog {
 public:
  static_assert(kNodes <= (1 << 14), "node ids are packed into 14 bits");

  OpLog() {
    // resize() writes every page; clear() keeps them.
    packed_.resize(size_t{1} << 22);
    packed_.clear();
    epochs_.resize(size_t{1} << 20);
    epochs_.clear();
  }

  void Add(const UpdateOp& op) {
    packed_.push_back(static_cast<uint32_t>(op.kind) << 29 |
                      static_cast<uint32_t>(op.reachable) << 28 |
                      static_cast<uint32_t>(op.src) << 14 |
                      static_cast<uint32_t>(op.dst));
    if (op.kind != UpdateOp::kQuery) epochs_.push_back(op.epoch);
  }

  // The operations as the checks take them; a query's epoch is the count
  // of mutations acknowledged before it.
  std::vector<UpdateOp> Unpack() const {
    std::vector<UpdateOp> ops;
    ops.reserve(packed_.size());
    size_t mutations = 0;
    for (const uint32_t word : packed_) {
      UpdateOp op;
      op.kind = static_cast<UpdateOp::Kind>(word >> 29);
      op.reachable = (word >> 28) & 1;
      op.src = static_cast<NodeId>((word >> 14) & 0x3fff);
      op.dst = static_cast<NodeId>(word & 0x3fff);
      if (op.kind == UpdateOp::kQuery) {
        op.epoch = mutations == 0 ? 0 : epochs_[mutations - 1];
      } else {
        op.epoch = epochs_[mutations++];
      }
      ops.push_back(op);
    }
    return ops;
  }

 private:
  std::vector<uint32_t> packed_;
  std::vector<int64_t> epochs_;
};

// Starts an IndexRebuilder publishing into `service`, as tcdb_cli
// mutate-bench wires it.
std::unique_ptr<tcdb::IndexRebuilder> StartRebuilder(
    tcdb::MutationLog* log, tcdb::DynamicReachService* service) {
  tcdb::IndexRebuilderOptions options;
  options.rebuild_advised = [service] { return service->RebuildAdvised(); };
  auto rebuilder = std::make_unique<tcdb::IndexRebuilder>(
      log,
      [service](std::shared_ptr<const tcdb::ReachCore> core,
                tcdb::MutationLog::Epoch epoch, double seconds) {
        service->PublishSnapshot(std::move(core), epoch, seconds);
      },
      options);
  rebuilder->Start();
  return rebuilder;
}

}  // namespace

tcdb::Status RunUpdate(const RunOptions& options, RunReport* report,
                       SelfTestInputs* capture) {
  // Set-up: the graph, a fresh database directory, the durable stack and
  // its rebuilder.
  const double generate_start = Now();
  const ArcList base = PaperGraph(kNodes, 5, kLocality, kGraphSeed);
  const double generate_s = Now() - generate_start;

  const std::filesystem::path run_dir =
      std::filesystem::current_path() / ".bench_build" /
      ("update-" + std::to_string(getpid()));
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);
  const std::string dir = (run_dir / "db").string();
  // Removes the directory on every exit path.
  struct DirGuard {
    std::filesystem::path path;
    ~DirGuard() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } guard{run_dir};

  tcdb::Fs* fs = tcdb::PosixFs();
  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<tcdb::DurableDynamicService> db,
      tcdb::DurableDynamicService::Create(fs, dir, base, kNodes));
  auto rebuilder = StartRebuilder(db->log(), db->service());

  OpStream stream(base, SubSeed(options.seed, 32));
  OpLog log;
  LatencySample op_latency(SubSeed(options.seed, 33));
  LatencySample mutation_latency(SubSeed(options.seed, 34));
  std::vector<double> checkpoint_seconds;
  const auto has_arc = [&](NodeId u, NodeId v) {
    return db->log()->HasArc(u, v);
  };
  // One operation: issued, timed, recorded. Only acknowledged operations
  // enter the log the checks replay.
  const auto run_op = [&] {
    ++report->attempted;
    UpdateOp op = stream.Next(has_arc);
    const double t0 = Now();
    if (op.kind == UpdateOp::kQuery) {
      auto answer = db->Query(op.src, op.dst);
      op_latency.Add(Now() - t0);
      if (!answer.ok()) {
        ++report->failed;
        return;
      }
      op.reachable = answer.value().reachable;
    } else {
      auto epoch = op.kind == UpdateOp::kInsert ? db->InsertArc(op.src, op.dst)
                                                : db->DeleteArc(op.src, op.dst);
      const double elapsed = Now() - t0;
      op_latency.Add(elapsed);
      mutation_latency.Add(elapsed);
      if (!epoch.ok()) {
        ++report->failed;
        return;
      }
      op.epoch = epoch.value();
    }
    log.Add(op);
  };

  // Timed phase: whole rounds.
  const double setup_s = SecondsSinceStart();
  const double start = Now();
  std::vector<Repetition> rounds;
  do {
    const int64_t steal_start = StealTicks();
    const double round_start = Now();
    for (int64_t i = 0; i < kRoundOps; ++i) run_op();
    const double t0 = Now();
    const tcdb::Status checkpointed = db->Checkpoint();
    const double t1 = Now();
    checkpoint_seconds.push_back(t1 - t0);
    const double round_s = t1 - round_start;
    rounds.push_back(Repetition{static_cast<double>(kRoundOps) / round_s,
                                round_s, StealTicks() - steal_start});
    ++report->attempted;
    if (!checkpointed.ok()) ++report->failed;
  } while (Now() - start < options.seconds);
  for (int64_t i = 0; i < kTailOps; ++i) run_op();
  report->metrics["peak_rss_mb"] = PeakRssMib();

  rebuilder->Stop();
  const tcdb::PersistStats persist = db->persist_stats();
  const tcdb::DynamicStats dynamic = db->service()->stats();
  const int64_t rebuilds = rebuilder->rebuilds_published();
  rebuilder.reset();
  db.reset();

  // Restart: recover the directory the run left.
  tcdb::RecoveryReport recovery;
  const double recover_start = Now();
  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<tcdb::DurableDynamicService> recovered,
      tcdb::DurableDynamicService::Recover(fs, dir, {}, &recovery));
  const double recovery_s = Now() - recover_start;

  // Checks: the whole acknowledged history, then the recovered state.
  const std::vector<UpdateOp> ops = log.Unpack();
  ArcList reference_arcs;
  int64_t mutations = 0;
  const std::string history =
      CheckUpdateHistory(base, kNodes, ops, &reference_arcs, &mutations);
  if (!history.empty()) report->Fail(history);
  RecoveredState state;
  state.epoch = recovered->epoch();
  state.live_arcs = recovered->log()->SnapshotArcs().arcs;
  tcdb::Rng sampler(SubSeed(options.seed, 35));
  for (int i = 0; i < kRecoveredSamples; ++i) {
    const NodeId u = static_cast<NodeId>(sampler.Uniform(0, kNodes - 1));
    const NodeId v = static_cast<NodeId>(sampler.Uniform(0, kNodes - 1));
    TCDB_ASSIGN_OR_RETURN(auto answer, recovered->Query(u, v));
    state.answers.push_back({{u, v}, answer.reachable});
  }
  if (history.empty()) {
    const std::string error =
        CheckRecovered(reference_arcs, kNodes, mutations, state);
    if (!error.empty()) report->Fail(error);
  }
  recovered.reset();

  auto& m = report->metrics;
  m["setup_s"] = setup_s;
  m["ops_per_s"] = MedianUnstolen(std::move(rounds));
  m["op_p50_us"] = op_latency.QuantileUs(0.5);

  m["graph.generate_s"] = generate_s;
  m["dynamic.decided.snapshot"] = static_cast<double>(dynamic.snapshot_served);
  m["dynamic.decided.incremental"] =
      static_cast<double>(dynamic.incremental_served);
  m["dynamic.decided.overlay"] = static_cast<double>(dynamic.overlay_served);
  m["dynamic.decided.escalated"] = static_cast<double>(dynamic.escalations);
  m["dynamic.rebuilds"] = static_cast<double>(rebuilds);
  m["dynamic.rebuild_s"] =
      dynamic.snapshots_adopted == 0
          ? 0.0
          : dynamic.rebuild_seconds_total /
                static_cast<double>(dynamic.snapshots_adopted);
  m["persist.mutation_p50_us"] = mutation_latency.QuantileUs(0.5);
  m["persist.mutation_p99_us"] = mutation_latency.QuantileUs(0.99);
  m["persist.checkpoint_s"] = Median(checkpoint_seconds);
  m["persist.recovery_s"] = recovery_s;
  m["persist.wal_syncs"] = static_cast<double>(persist.wal_syncs);
  m["persist.wal_bytes_per_update"] =
      persist.wal_records_appended == 0
          ? 0.0
          : static_cast<double>(persist.wal_bytes_appended) /
                static_cast<double>(persist.wal_records_appended);
  m["persist.checkpoint_bytes"] =
      static_cast<double>(persist.last_checkpoint_bytes);
  m["persist.replayed_entries"] =
      static_cast<double>(recovery.replayed_entries);

  if (options.trace) {
    // The same operations on the in-memory stack (no WAL): the mutation
    // cost without durability, and by difference the WAL's share.
    TCDB_ASSIGN_OR_RETURN(std::unique_ptr<tcdb::MutationLog> log,
                          tcdb::MutationLog::Open(base, kNodes));
    TCDB_ASSIGN_OR_RETURN(std::unique_ptr<tcdb::DynamicReachService> service,
                          tcdb::DynamicReachService::Create(log.get()));
    auto replay_rebuilder = StartRebuilder(log.get(), service.get());
    double apply_seconds = 0;
    int64_t applied = 0;
    for (const UpdateOp& op : ops) {
      if (op.kind == UpdateOp::kQuery) {
        TCDB_RETURN_IF_ERROR(service->Query(op.src, op.dst).status());
        continue;
      }
      const double t0 = Now();
      auto epoch = op.kind == UpdateOp::kInsert
                       ? service->InsertArc(op.src, op.dst)
                       : service->DeleteArc(op.src, op.dst);
      apply_seconds += Now() - t0;
      TCDB_RETURN_IF_ERROR(epoch.status());
      ++applied;
    }
    replay_rebuilder->Stop();
    const double apply_us =
        applied == 0 ? 0.0 : 1e6 * apply_seconds / static_cast<double>(applied);
    m["dynamic.apply_us"] = apply_us;
    m["persist.wal_append_us"] =
        1e6 * mutation_latency.total_seconds() /
            static_cast<double>(mutation_latency.count()) -
        apply_us;
  }

  if (capture != nullptr) {
    capture->update_nodes = kNodes;
    capture->update_base_arcs = base;
    capture->update_ops = ops;
    capture->recovered = std::move(state);
  }
  return tcdb::Status::Ok();
}

}  // namespace perfbench
