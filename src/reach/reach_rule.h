#ifndef TCDB_REACH_REACH_RULE_H_
#define TCDB_REACH_REACH_RULE_H_

namespace tcdb {

// The individual rule that decided a reachability query — one level finer
// than ReachStage. A stage can bundle several rules (kTrivial is both
// reflexivity and shared-SCC; the observation battery is a dozen distinct
// observations), and "which rule carries the traffic" is exactly what
// pivot selection and cache policy need to see. Header-only so both the
// reach layer and the oreach battery (which the reach layer links) can
// name rules without a dependency cycle.
enum class ReachRule {
  kCacheHit = 0,        // LRU answer cache
  kSelf,                // u == v (reflexivity)
  kSameScc,             // one strongly connected component
  kTopoWindow,          // base topo position / reach-bound window: "no"
  kDfsInterval,         // DFS-forest interval containment: "yes"
  kChainStep,           // same greedy chain, earlier position: "yes"
  kSupportiveThrough,   // base pivot: u ~> p ~> v: "yes"
  kSupportiveFwdCut,    // base pivot: p ~> u but not p ~> v: "no"
  kSupportiveBwdCut,    // base pivot: v ~> p but not u ~> p: "no"
  kAdjacency,           // (u, v) is an arc: "yes"
  kChainFrontier,       // kChain backend frontier labels (always definitive)
  // --- observation battery (src/oreach/), stage kObservation ---
  kObsTopoOrder,        // an extra topological order has pos[v] < pos[u]
  kObsSandwich,         // an extra order's reach-bound window excludes v
  kObsLevel,            // forward/backward longest-path levels contradict
  kObsWeakComponent,    // different weakly connected components
  kObsForwardCut,       // u inside a successor-closed cut, v outside: "no"
  kObsBackwardCut,      // v inside a predecessor-closed cut, u outside: "no"
  kObsPivotThrough,     // traffic pivot: u ~> p ~> v: "yes"
  kObsPivotFwdCut,      // traffic pivot: p ~> u but not p ~> v: "no"
  kObsPivotBwdCut,      // traffic pivot: v ~> p but not u ~> p: "no"
  // --- anything that ran a search ---
  kFallback,            // pruned BFS / dynamic search tiers
};
inline constexpr int kNumReachRules =
    static_cast<int>(ReachRule::kFallback) + 1;

// Short stable name, e.g. "topo-window" (stats tables, bench JSON keys).
inline const char* ReachRuleName(ReachRule rule) {
  switch (rule) {
    case ReachRule::kCacheHit:
      return "cache-hit";
    case ReachRule::kSelf:
      return "self";
    case ReachRule::kSameScc:
      return "same-scc";
    case ReachRule::kTopoWindow:
      return "topo-window";
    case ReachRule::kDfsInterval:
      return "dfs-interval";
    case ReachRule::kChainStep:
      return "chain-step";
    case ReachRule::kSupportiveThrough:
      return "supportive-through";
    case ReachRule::kSupportiveFwdCut:
      return "supportive-fwd-cut";
    case ReachRule::kSupportiveBwdCut:
      return "supportive-bwd-cut";
    case ReachRule::kAdjacency:
      return "adjacency";
    case ReachRule::kChainFrontier:
      return "chain-frontier";
    case ReachRule::kObsTopoOrder:
      return "obs-topo-order";
    case ReachRule::kObsSandwich:
      return "obs-sandwich";
    case ReachRule::kObsLevel:
      return "obs-level";
    case ReachRule::kObsWeakComponent:
      return "obs-weak-component";
    case ReachRule::kObsForwardCut:
      return "obs-forward-cut";
    case ReachRule::kObsBackwardCut:
      return "obs-backward-cut";
    case ReachRule::kObsPivotThrough:
      return "obs-pivot-through";
    case ReachRule::kObsPivotFwdCut:
      return "obs-pivot-fwd-cut";
    case ReachRule::kObsPivotBwdCut:
      return "obs-pivot-bwd-cut";
    case ReachRule::kFallback:
      return "fallback";
  }
  return "?";
}

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_RULE_H_
