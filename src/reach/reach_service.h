#ifndef TCDB_REACH_REACH_SERVICE_H_
#define TCDB_REACH_REACH_SERVICE_H_

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/lru_cache.h"
#include "reach/reach_index.h"
#include "reach/reach_stats.h"
#include "util/codec.h"
#include "util/status.h"

namespace tcdb {

struct ReachServiceOptions {
  ReachIndexOptions index;
  // LRU answer-cache entries; 0 disables the cache.
  size_t cache_capacity = 4096;
};

// The immutable half of a serving stack: the condensation of the input,
// the node map back to original ids, SCC sizes, and the O(1) label index.
// Built once and frozen; after Build() nothing mutates it, so one core is
// safely shared read-only by any number of ReachService instances on any
// number of threads (this is exactly what ReachServer does — one core,
// N shards).
struct ReachCore {
  NodeId num_input_nodes = 0;
  Digraph dag;                    // condensation (== input when acyclic)
  std::vector<NodeId> node_map;   // input node -> condensation node
  std::vector<int32_t> scc_size;  // condensation node -> member count
  // Which of the two label structures below is populated. kLabels fills
  // `index` (partial rules + fallback ladder); kChain fills `chain`
  // (exact frontier labels, no fallback ever runs). The other member
  // stays empty.
  ReachBackend backend = ReachBackend::kLabels;
  ReachIndex index;
  ChainIndex chain;
  // O'Reach observation battery (options.oreach): a second bank of O(1)
  // labels consulted when the kLabels rules come up unknown, before the
  // service ladder falls back to searching. Never populated for kChain
  // (frontier labels are already total).
  bool has_battery = false;
  ObservationBattery battery;

  // True when the input contained a cycle (queries run on the
  // condensation).
  bool condensed() const { return dag.NumNodes() != num_input_nodes; }

  // Exact reachability between condensation nodes, whatever the backend
  // answers it: reflexive, never unknown for kChain; kUnknown only for
  // the kLabels residue (which the service ladder then searches). The
  // out-params name the deciding stage and individual rule.
  ReachIndex::Verdict DecideCondensed(NodeId csrc, NodeId cdst,
                                      ReachStage* stage,
                                      ReachRule* rule = nullptr) const;

  // `arcs` may be cyclic and unsorted; endpoints must lie in
  // [0, num_nodes).
  static Result<std::shared_ptr<const ReachCore>> Build(
      const ArcList& arcs, NodeId num_nodes,
      const ReachIndexOptions& options = {});

  // Checkpoint image: appends a fixed-width little-endian encoding of the
  // whole core (condensation arcs, node map, SCC sizes, label index) to
  // `out`. Deserialize() restores a core whose query behavior is
  // bit-identical to the serialized one — the CSR is rebuilt from the
  // sorted arc list, which the Digraph constructor normalizes the same
  // way every time. Corruption on a truncated or inconsistent image.
  void SerializeAppend(std::string* out) const;
  static Result<std::shared_ptr<const ReachCore>> Deserialize(
      codec::Reader* reader);
};

// The serving front end for online `reaches(src, dst)?` traffic. A
// one-shot ReachCore build answers most queries in O(1); the ladder is
//
//   answer cache -> O(1) labels -> adjacency -> battery -> pruned BFS
//
// and the last rung is one unbounded label-pruned BFS per query (per
// condensed source group in a batch), so every answer is definite and
// serving never touches the paged closure machinery.
//
// Cyclic inputs are handled by condensing once at build time; queries are
// then served on the condensation (two nodes of one strongly connected
// component reach each other by definition).
//
// Semantics: Reaches(u, v) is reflexive — every node reaches itself; for
// u != v it is ordinary closure membership.
//
// Threading contract: everything a query *reads* (the ReachCore) is
// shared and immutable; everything a query *mutates* (the answer cache,
// the BFS scratch, the statistics) is owned by this instance. One
// instance must therefore be driven by one thread at a time — parallel
// serving shards the graph as N services over one shared core, each
// shard owned by one worker (see ReachServer in reach/reach_server.h,
// which does exactly that and routes queries to shards by source hash).
class ReachService {
 public:
  struct Answer {
    bool reachable = false;
    ReachStage stage = ReachStage::kTrivial;  // the rung that decided it
  };

  // Convenience: builds a private core, then the service. `arcs` may be
  // cyclic and unsorted; endpoints must lie in [0, num_nodes).
  static Result<std::unique_ptr<ReachService>> Build(
      const ArcList& arcs, NodeId num_nodes,
      const ReachServiceOptions& options = {});

  // A shard over an existing shared core. `options.index` is ignored (the
  // core's labels are already built); the per-shard cache capacity
  // applies.
  static std::unique_ptr<ReachService> Create(
      std::shared_ptr<const ReachCore> core,
      const ReachServiceOptions& options = {});

  // Answers one query. InvalidArgument on out-of-range endpoints.
  Result<Answer> Query(NodeId src, NodeId dst);

  // Hot-swaps the shared core under this service (the dynamic rebuild
  // path). The new core must cover the same input-node universe;
  // InvalidArgument otherwise. Invalidates the answer cache (generation
  // bump — entries computed against the old core can never be served
  // again) and drops the pruned-BFS scratch (sized from the old core).
  // Owner-thread only, like every other mutating call.
  Status AdoptCore(std::shared_ptr<const ReachCore> core);

  // Answers a batch. Beyond per-query caching, the fallback residue is
  // grouped by source so one pruned BFS serves every undecided
  // destination of that source — the per-query cost of a miss
  // amortizes across the batch.
  Result<std::vector<Answer>> QueryBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs);

  const ReachStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Replaces the clock used for latency attribution (seconds, monotonic).
  // Tests inject a tick clock to make recorded latencies deterministic.
  void SetClockForTesting(std::function<double()> clock) {
    clock_ = std::move(clock);
  }

  NodeId num_nodes() const { return core_->num_input_nodes; }
  const ReachIndex& index() const { return core_->index; }
  const ReachCore& core() const { return *core_; }
  // True when the input contained a cycle (queries run on the
  // condensation).
  bool condensed() const { return core_->condensed(); }

 private:
  ReachService() : cache_(0) {}

  // Label-only attempt (cache, trivial, O(1) index rules) on original ids.
  // Returns kUnknown for the fallback residue; *rule names the deciding
  // rule otherwise.
  ReachIndex::Verdict TryServeFast(NodeId src, NodeId dst, Answer* answer,
                                   ReachRule* rule);

  // Current time in seconds from clock_ (steady_clock when not injected).
  double NowSeconds() const;

  // Shared, immutable (see the threading contract above).
  std::shared_ptr<const ReachCore> core_;

  // Private, mutable: one owner thread at a time.
  ReachAnswerCache cache_;
  ReachIndex::SearchScratch scratch_;  // pruned-BFS buffers
  ReachStats stats_;
  std::function<double()> clock_;  // empty -> steady_clock
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_SERVICE_H_
