#ifndef TCDB_PERFBENCH_CHECKS_H_
#define TCDB_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

// Correctness checks of the program's outputs against the benchmark's own
// references (bench_common.h: ReferenceReach), none of them built from the
// program. Each returns an empty string when the output is correct and a
// description of the first mismatch otherwise. `RunCheckerSelfTest` feeds
// each of them a corrupted record to show that it can fail.
namespace perfbench {

// One captured closure answer: (node, sorted successors) per answered
// node, as tcdb's RunResult::answer holds it, and the tuple counts the
// run reported.
struct ClosureRecord {
  std::string label;
  bool full_closure = true;
  std::vector<NodeId> sources;  // PTC only
  std::vector<std::pair<NodeId, std::vector<NodeId>>> answer;
  int64_t distinct_tuples = 0;
  int64_t selected_tuples = 0;
};

// CTC: the answer covers every node, each list equals the reference
// closure, and distinct_tuples equals the closure's size. PTC: the answer
// covers exactly the sources, and selected_tuples equals the size of
// their closure (distinct_tuples legitimately differs between algorithms
// there: BTC-style algorithms expand the whole magic graph).
std::string CheckClosure(ReferenceReach* reference, NodeId num_nodes,
                         const ClosureRecord& record);

// One client's recorded traffic: answer i is the server's verdict for
// pairs[i] (1 reachable, 0 not), or kNoAnswer where no call for it
// succeeded; failed calls are counted, not checked.
inline constexpr uint8_t kNoAnswer = 2;
struct ServeRecord {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<uint8_t> answers;
};
std::string CheckServe(ReferenceReach* reference, const ServeRecord& record);

// One operation of the durable update stream, as acknowledged.
struct UpdateOp {
  enum Kind : uint8_t { kInsert, kDelete, kQuery };
  Kind kind = kQuery;
  NodeId src = 0;
  NodeId dst = 0;
  // Mutation: the epoch it was acknowledged at. Query: the epoch of the
  // last mutation acknowledged before it, which it is answered at.
  int64_t epoch = 0;
  bool reachable = false;  // query answer
};

// Replays `ops` on a reference arc set that starts at `base_arcs`:
// every mutation must be valid on the reference and acknowledged at the
// next epoch, every query must match reachability on the reference after
// the mutations before it. On success `*final_arcs` holds the reference
// arc set after the stream (sorted) and `*mutations` the number of
// mutations.
std::string CheckUpdateHistory(const ArcList& base_arcs, NodeId num_nodes,
                               const std::vector<UpdateOp>& ops,
                               ArcList* final_arcs, int64_t* mutations);

// The state a recovered service reports, next to the reference.
struct RecoveredState {
  int64_t epoch = 0;
  ArcList live_arcs;  // sorted
  // Sampled queries answered by the recovered service.
  std::vector<std::pair<std::pair<NodeId, NodeId>, bool>> answers;
};
std::string CheckRecovered(const ArcList& reference_arcs, NodeId num_nodes,
                           int64_t acknowledged_mutations,
                           const RecoveredState& state);

// Corrupts one record of each kind (a flipped closure successor, a
// flipped served answer, a flipped dynamic answer, a dropped mutation, a
// flipped recovered answer) and confirms the matching check reports it.
// The records come from short real runs (main.cc --selftest). Returns
// the number of checks that failed to notice; prints one line each.
struct SelfTestInputs {
  NodeId closure_nodes = 0;
  ArcList closure_arcs;
  ClosureRecord closure;
  NodeId serve_nodes = 0;
  ArcList serve_arcs;
  ServeRecord serve;
  NodeId update_nodes = 0;
  ArcList update_base_arcs;
  std::vector<UpdateOp> update_ops;
  RecoveredState recovered;
};
int RunCheckerSelfTest(const SelfTestInputs& inputs);

}  // namespace perfbench

#endif  // TCDB_PERFBENCH_CHECKS_H_
