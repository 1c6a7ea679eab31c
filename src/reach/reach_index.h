#ifndef TCDB_REACH_REACH_INDEX_H_
#define TCDB_REACH_REACH_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "oreach/observation_battery.h"
#include "reach/reach_rule.h"
#include "scale/chain_index.h"
#include "util/bit_vector.h"
#include "util/codec.h"
#include "util/status.h"

namespace tcdb {

// The rung of the serving ladder that decided a reachability query. The
// stages through kChainFrontier are O(1) label lookups; pruned BFS is the
// static fallback for the residue the labels leave undecided.
enum class ReachStage {
  kCache = 0,           // LRU answer cache hit (ReachService only)
  kTrivial,             // u == v, or u and v share a strongly connected
                        // component of the (cyclic) input
  kTopoNegative,        // topological-order / reach-bound intervals: "no"
  kDfsPositive,         // DFS-forest interval containment: "yes"
  kChainPositive,       // same chain, earlier position: "yes"
  kSupportivePositive,  // u reaches a pivot that reaches v: "yes"
  kSupportiveNegative,  // a pivot separates u from v: "no"
  kAdjacency,           // (u, v) is an arc of the graph: "yes"
                        // (O(log out-degree) via the sorted CSR row)
  kObservation,         // O'Reach observation battery (src/oreach/):
                        // extra orders, levels, cuts, traffic pivots
  kChainFrontier,       // chain-decomposition frontier labels (the kChain
                        // backend; exact, so always definitive)
  kPrunedBfs,           // label-pruned BFS fallback
  kSessionFallback,     // retired: the former TcSession SRCH rung. Kept
                        // (name and position) for readers of the stage
                        // table; nothing decides at it any more.
  kIncremental,         // dynamic: decided by the incrementally maintained
                        // per-pivot reachability trees (exact on the live
                        // graph at the current epoch)
  kOverlayPatched,      // dynamic: snapshot answer patched through the
                        // inserted-arc overlay (DynamicReachService)
  kLiveBfs,             // dynamic: escalated search on the live graph
};
inline constexpr int kNumReachStages =
    static_cast<int>(ReachStage::kLiveBfs) + 1;

// Short stable name, e.g. "topo-negative" (used by --explain and the stats
// table).
const char* ReachStageName(ReachStage stage);

// Which label structure a ReachCore builds over the condensation.
enum class ReachBackend : uint8_t {
  // The partial O(1) rules below plus the pruned-BFS fallback — the
  // default, tuned for the paper-scale graphs.
  kLabels = 0,
  // scale/chain_index.h frontier labels: exact O(1) answers, ~O(n + m*k)
  // build, n*k label bytes. The million-node backend; no fallback rungs
  // ever run.
  kChain = 1,
};

struct ReachIndexOptions {
  ReachBackend backend = ReachBackend::kLabels;
  // kChain backend: label memory guard (see ChainIndexOptions).
  ChainIndexOptions chain;
  // Number of supportive pivot vertices. Each pivot stores one forward and
  // one backward reachability bit-set (2 * n bits), giving one O(1)
  // positive rule and two O(1) negative rules per pivot. 0 disables the
  // stage.
  int32_t num_supportive = 8;
  // Pivot candidates evaluated per supportive slot (the best by
  // forward x backward coverage wins). Higher = better pivots, slower
  // build.
  int32_t pivot_candidates_per_slot = 4;
  // O'Reach observation battery (src/oreach/): a second bank of O(1)
  // labels consulted between the rules above and the search fallbacks
  // (serving stage kObservation). kLabels backend only; off by default —
  // it earns its memory on skewed/adversarial mixes, which the benches
  // opt into explicitly.
  bool oreach = false;
  ObservationBatteryOptions oreach_options;
  // Sampled query traffic (input-node ids) for the battery's
  // coverage-greedy pivot selection. Empty: the battery trains on a
  // synthetic uniform sample instead.
  std::vector<std::pair<NodeId, NodeId>> oreach_traffic;
};

// Precomputed O(1) reachability labels over a DAG — the paper's machinery
// computes closures; this index answers point queries `reaches(u, v)?`
// without touching a closure at all, in the spirit of O'Reach (Hanauer,
// Schulz & Trummer 2020) and topological chain labelings (Kritikakis &
// Tollis 2022). One build pass produces:
//   - topological positions plus per-node forward/backward reach bounds
//     (definite "no" when v lies outside u's reachable position window),
//   - DFS-forest interval labels (definite "yes" on forest ancestry),
//   - a greedy chain decomposition (definite "yes" along a chain),
//   - `num_supportive` pivot bit-sets (definite "yes" through a pivot,
//     definite "no" when a pivot separates the pair).
// The labels decide the vast majority of random queries; the undecided
// residue goes to PrunedBfs()/PrunedMultiBfs() (see ReachService).
//
// Thread safety: a built index is immutable, so TryDecide and the label
// accessors may run from any number of threads concurrently; the BFS
// fallbacks mutate only the caller-provided SearchScratch. This is what
// lets ReachServer share one index read-only across all of its shards.
class ReachIndex {
 public:
  // Builds the labels. `dag` must be acyclic (condense cyclic inputs
  // first); fails with InvalidArgument otherwise. O(n + m) plus
  // O(k * (n + m)) for k supportive pivots.
  static Result<ReachIndex> Build(const Digraph& dag,
                                  const ReachIndexOptions& options = {});

  enum class Verdict : uint8_t { kNo = 0, kYes = 1, kUnknown = 2 };

  // Reusable buffers for PrunedBfs/PrunedMultiBfs. The index itself is
  // immutable after Build() and safe to share across any number of
  // threads; all per-search mutable state lives here, so each concurrent
  // caller (one per ReachServer shard) owns its own SearchScratch and
  // passes it in. Buffers are sized lazily on first use.
  struct SearchScratch {
    EpochSet visited;
    std::vector<NodeId> frontier;
    // node -> index into the current PrunedMultiBfs target list, or -1.
    std::vector<int32_t> target_slot;
  };

  // O(1): answers from the labels alone, or kUnknown for the residue.
  // When decided, non-null `stage`/`rule` out-params name the deciding
  // rule at stage granularity and at per-rule granularity respectively.
  Verdict TryDecide(NodeId u, NodeId v, ReachStage* stage = nullptr,
                    ReachRule* rule = nullptr) const;

  // Fallback: BFS from `u` toward `v` over `dag` (which must be the graph
  // the index was built from), pruning every node whose labels prove it
  // cannot lie on a u ~> v path and short-circuiting through the O(1)
  // rules. Returns a definite verdict if the search finishes within
  // `budget` node expansions, kUnknown otherwise. Thread-safe as long as
  // concurrent callers pass distinct `scratch` instances.
  Verdict PrunedBfs(const Digraph& dag, NodeId u, NodeId v, int64_t budget,
                    SearchScratch* scratch,
                    int64_t* expansions = nullptr) const;

  // Multi-target variant for batched serving: one search resolves
  // reachability from `u` to every node of `targets` (deduplicated, none
  // equal to `u`). The search runs until every target is found or the
  // pruned frontier is exhausted, so (*reached)[i] is definitive:
  // set exactly when targets[i] is reachable.
  void PrunedMultiBfs(const Digraph& dag, NodeId u,
                      std::span<const NodeId> targets,
                      std::vector<bool>* reached, SearchScratch* scratch,
                      int64_t* expansions = nullptr) const;

  NodeId num_nodes() const {
    return static_cast<NodeId>(topo_pos_.size());
  }
  int32_t num_supportive() const {
    return static_cast<int32_t>(pivots_.size());
  }
  const std::vector<NodeId>& pivot_nodes() const { return pivots_; }
  int32_t topo_position(NodeId v) const { return topo_pos_[v]; }
  int32_t max_reach_position(NodeId v) const { return max_reach_pos_[v]; }
  int32_t min_origin_position(NodeId v) const { return min_origin_pos_[v]; }
  int32_t chain_id(NodeId v) const { return chain_id_[v]; }
  int32_t chain_position(NodeId v) const { return chain_pos_[v]; }
  int32_t num_chains() const { return num_chains_; }

  // An empty index (zero nodes). Usable instances come from Build().
  ReachIndex() = default;

  // Appends a fixed-width little-endian image of every label array to
  // `out` (checkpoint body material — the caller frames it with a CRC).
  // Deserialize() restores a bit-identical index, so recovery skips the
  // label build entirely. Returns Corruption on a truncated or
  // inconsistent image.
  void SerializeAppend(std::string* out) const;
  static Result<ReachIndex> Deserialize(codec::Reader* reader);

 private:
  // Topological permutation and reach bounds. A node u can only reach
  // nodes with topological positions in [topo_pos_[u], max_reach_pos_[u]];
  // dually, only nodes positioned in [min_origin_pos_[v], topo_pos_[v]]
  // can reach v.
  std::vector<int32_t> topo_pos_;
  std::vector<int32_t> max_reach_pos_;
  std::vector<int32_t> min_origin_pos_;

  // DFS-forest entry/exit stamps: pre_[u] <= pre_[v] && post_[v] <=
  // post_[u] proves a forest path u ~> v.
  std::vector<int32_t> pre_;
  std::vector<int32_t> post_;

  // Greedy chain decomposition: consecutive positions on one chain are
  // joined by real arcs, so chain_id_[u] == chain_id_[v] &&
  // chain_pos_[u] < chain_pos_[v] proves u ~> v.
  std::vector<int32_t> chain_id_;
  std::vector<int32_t> chain_pos_;
  int32_t num_chains_ = 0;

  // Supportive pivots: fwd_[i] = nodes reachable from pivots_[i] (itself
  // included), bwd_[i] = nodes that reach pivots_[i].
  std::vector<NodeId> pivots_;
  std::vector<BitVector> fwd_;
  std::vector<BitVector> bwd_;
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_INDEX_H_
