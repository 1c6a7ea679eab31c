#ifndef TCDB_REACH_REACH_SERVER_H_
#define TCDB_REACH_REACH_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "reach/reach_service.h"
#include "reach/reach_stats.h"
#include "util/status.h"

namespace tcdb {

struct ReachServerOptions {
  // Per-shard serving parameters (answer-cache capacity).
  // `service.index` configures the one shared label build.
  ReachServiceOptions service;
  // Shards double as workers: each shard owns one ReachService (private
  // LRU cache, BFS scratch and stats) and one dedicated worker thread, so
  // no query-path state is ever touched by two threads.
  int32_t num_shards = 4;
  // Bound on queued tasks per shard. Submitters block while the target
  // shard's queue is full — backpressure propagates to callers instead of
  // growing an unbounded backlog.
  size_t queue_capacity = 256;
};

// Merge-on-read observability snapshot (ReachServer::Snapshot). `merged`
// and `latency` aggregate over shards; the per-shard vectors expose the
// split so tests can assert the shard counters sum to the totals and
// benches can spot a hot shard.
struct ReachServerStats {
  ReachStats merged;
  LatencyHistogram latency;  // per-query serving latency, all shards
  std::vector<ReachStats> per_shard;
  std::vector<LatencyHistogram> per_shard_latency;
  int64_t tasks_executed = 0;
  // Queue high-water mark over all shards since Start (backpressure
  // check: never exceeds ReachServerOptions::queue_capacity).
  int64_t max_queue_depth = 0;
  // Number of SwapCore publications since Start, and the epoch of the
  // latest one (0 until the first swap).
  int64_t core_swaps = 0;
  int64_t published_epoch = 0;
};

// Multi-threaded serving layer over one shared reachability index. Every
// shard serves the ReachService ladder — cache -> O(1) labels ->
// adjacency -> battery -> pruned BFS — entirely in memory.
//
// Threading model (see DESIGN.md §10): a single immutable ReachCore (the
// condensation + O(1) labels) is shared read-only by N shards. Each shard
// owns all of its mutable state — a ReachService with its private answer
// cache, pruned-BFS scratch and statistics — and is drained by exactly one
// worker thread, so the query path is lock-free once a task is dequeued
// and there is no cross-shard synchronization at all on the hot path.
//
// Queries route to shard hash(src) % N: all traffic for a source lands on
// the same shard, so its answer cache and BFS scratch keep their locality
// under sharding, and a batch's per-source fallback grouping is never
// split across shards.
//
// Query()/QueryBatch() are thread-safe and blocking: they enqueue onto
// the target shards' bounded queues (blocking while full — backpressure)
// and wait for completion. Answers are position-stable: QueryBatch
// returns answers in input order regardless of shard interleaving.
//
// Stop() is graceful: it rejects new submissions, drains every queued and
// in-flight task, then joins the workers. The destructor calls Stop().
class ReachServer {
 public:
  using Answer = ReachService::Answer;

  // Builds the shared core once, then the shards, then starts the
  // workers. `arcs` may be cyclic and unsorted; endpoints must lie in
  // [0, num_nodes).
  static Result<std::unique_ptr<ReachServer>> Start(
      const ArcList& arcs, NodeId num_nodes,
      const ReachServerOptions& options = {});

  // Same, over a pre-built shared core.
  static Result<std::unique_ptr<ReachServer>> Start(
      std::shared_ptr<const ReachCore> core,
      const ReachServerOptions& options = {});

  ~ReachServer();
  ReachServer(const ReachServer&) = delete;
  ReachServer& operator=(const ReachServer&) = delete;

  // One query: routes to its shard, waits for the answer. Thread-safe.
  // InvalidArgument on out-of-range endpoints; FailedPrecondition after
  // Stop().
  Result<Answer> Query(NodeId src, NodeId dst);

  // A batch: splits by shard (preserving per-shard submission order),
  // enqueues one task per involved shard, waits for all of them. The
  // result vector matches `pairs` by position. With one shard this
  // degenerates to exactly one ReachService::QueryBatch call with the
  // pairs in input order — the determinism tests pin that equivalence.
  Result<std::vector<Answer>> QueryBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs);

  // Publishes a rebuilt core (the dynamic-update hot-swap path). Queries
  // never block on the swap: each worker adopts the newest published core
  // at its next task boundary — in-flight tasks finish against the core
  // they started with; the per-shard answer caches are invalidated at
  // adoption (generation bump), so no answer computed against a retired
  // epoch is ever served after its shard swaps. `epoch` labels the
  // mutation-log position the core was built from and must not decrease
  // across swaps. The new core must cover the same input-node universe as
  // the one the server started with; InvalidArgument otherwise.
  // Thread-safe; callable concurrently with traffic.
  Status SwapCore(std::shared_ptr<const ReachCore> core, int64_t epoch);

  // Epoch of the latest SwapCore publication (0 before the first).
  int64_t published_epoch() const;

  // Stops accepting work, drains all queued/in-flight tasks, joins the
  // workers. Idempotent; concurrent callers all block until shutdown
  // completes.
  void Stop();

  // Merged + per-shard counters and latency histograms. Safe to call
  // concurrently with traffic (reads the workers' published copies, not
  // the live service state).
  ReachServerStats Snapshot() const;

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  NodeId num_nodes() const { return core_->num_input_nodes; }
  bool condensed() const { return core_->condensed(); }
  const ReachCore& core() const { return *core_; }

  // Shard a source routes to (exposed for tests and bench partitioning).
  int32_t ShardOf(NodeId src) const;

  // Installs a deterministic clock on every shard's service (latency
  // attribution in ReachStats). Must be called before any traffic: the
  // services are only safe to touch from their workers once queries flow.
  void SetClockForTesting(const std::function<std::function<double()>()>&
                              make_clock);

 private:
  // Completion state shared by the per-shard tasks of one submission.
  struct Batch {
    std::mutex mu;
    std::condition_variable done;
    size_t pending = 0;
    Status status;  // first task error, if any
    std::vector<Answer>* answers = nullptr;
  };

  // One unit of shard work: a run of queries routed to the same shard,
  // with the positions their answers occupy in the submission's result.
  struct Task {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::vector<size_t> positions;
    bool single_query = false;  // serve via Query() instead of QueryBatch()
    std::shared_ptr<Batch> batch;
  };

  struct Shard {
    std::unique_ptr<ReachService> service;

    // Queue state, guarded by mu.
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<Task> queue;
    bool stopping = false;
    int64_t max_depth = 0;

    // Published observability, guarded by stats_mu: the worker copies the
    // service's counters here after each task, so Snapshot never touches
    // live query-path state.
    mutable std::mutex stats_mu;
    ReachStats published;
    LatencyHistogram latency;
    int64_t tasks = 0;

    // Swap generation this shard's service last adopted (worker-thread
    // only; compared against swap_generation_ at task boundaries).
    uint64_t adopted_generation = 0;

    std::thread worker;
  };

  ReachServer() = default;

  Status ValidateEndpoints(
      std::span<const std::pair<NodeId, NodeId>> pairs) const;

  // Blocks while the shard queue is full; FailedPrecondition once the
  // shard is stopping.
  Status Enqueue(int32_t shard_index, Task task);

  // Submits pre-routed tasks against `batch` and waits for completion.
  Status SubmitAndWait(std::vector<std::pair<int32_t, Task>> tasks,
                       const std::shared_ptr<Batch>& batch);

  void WorkerLoop(Shard* shard);
  void ExecuteTask(Shard* shard, Task* task);

  // Adopts the newest published core into the shard's service if the
  // shard is behind. Runs on the shard's worker thread only.
  void MaybeAdoptCore(Shard* shard);

  // The core the server started with. Never reassigned (endpoint
  // validation and num_nodes() read it from submitter threads); swapped
  // cores are published through published_core_ instead and must share
  // its input-node universe.
  std::shared_ptr<const ReachCore> core_;
  ReachServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Swap publication slot. swap_generation_ is the lock-free "is there
  // anything new?" check on the worker hot path; the pointer itself is
  // copied under swap_mu_.
  mutable std::mutex swap_mu_;
  std::shared_ptr<const ReachCore> published_core_;
  int64_t published_epoch_ = 0;
  std::atomic<uint64_t> swap_generation_{0};

  std::mutex stop_mu_;  // serializes Stop(); shard flags gate submission
  bool stopped_ = false;
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_SERVER_H_
