#include "reach/reach_index.h"

#include <algorithm>
#include <utility>

#include "graph/algorithms.h"

namespace tcdb {

const char* ReachStageName(ReachStage stage) {
  switch (stage) {
    case ReachStage::kCache:
      return "cache";
    case ReachStage::kTrivial:
      return "trivial";
    case ReachStage::kTopoNegative:
      return "topo-negative";
    case ReachStage::kDfsPositive:
      return "dfs-interval";
    case ReachStage::kChainPositive:
      return "chain";
    case ReachStage::kSupportivePositive:
      return "supportive-yes";
    case ReachStage::kSupportiveNegative:
      return "supportive-no";
    case ReachStage::kAdjacency:
      return "adjacency";
    case ReachStage::kObservation:
      return "observation";
    case ReachStage::kChainFrontier:
      return "chain-frontier";
    case ReachStage::kPrunedBfs:
      return "pruned-bfs";
    case ReachStage::kSessionFallback:
      return "session-srch";
    case ReachStage::kIncremental:
      return "incremental";
    case ReachStage::kOverlayPatched:
      return "overlay-patched";
    case ReachStage::kLiveBfs:
      return "live-bfs";
  }
  return "?";
}

namespace {

// Forward BFS from `root`; sets the bit of every node reachable from it
// (root included) and returns the reachable count.
int64_t FillReachableSet(const Digraph& graph, NodeId root, BitVector* out,
                         std::vector<NodeId>* scratch) {
  scratch->clear();
  scratch->push_back(root);
  out->Set(static_cast<size_t>(root));
  int64_t count = 1;
  while (!scratch->empty()) {
    const NodeId v = scratch->back();
    scratch->pop_back();
    for (const NodeId s : graph.Successors(v)) {
      if (out->TestAndSet(static_cast<size_t>(s))) {
        ++count;
        scratch->push_back(s);
      }
    }
  }
  return count;
}

}  // namespace

Result<ReachIndex> ReachIndex::Build(const Digraph& dag,
                                     const ReachIndexOptions& options) {
  TCDB_ASSIGN_OR_RETURN(const std::vector<NodeId> order,
                        TopologicalSort(dag));
  const NodeId n = dag.NumNodes();
  ReachIndex index;
  index.topo_pos_ = OrderPositions(order);

  // Reach bounds. Reverse topological pass for the forward bound (the
  // largest position u can reach), forward pass for the backward bound
  // (the smallest position that can reach v).
  index.max_reach_pos_.resize(n);
  index.min_origin_pos_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    index.max_reach_pos_[v] = index.topo_pos_[v];
    index.min_origin_pos_[v] = index.topo_pos_[v];
  }
  for (NodeId i = n - 1; i >= 0; --i) {
    const NodeId v = order[i];
    for (const NodeId s : dag.Successors(v)) {
      index.max_reach_pos_[v] =
          std::max(index.max_reach_pos_[v], index.max_reach_pos_[s]);
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    const NodeId v = order[i];
    for (const NodeId s : dag.Successors(v)) {
      index.min_origin_pos_[s] =
          std::min(index.min_origin_pos_[s], index.min_origin_pos_[v]);
    }
  }

  // DFS-forest intervals. Roots are taken in topological order, so early
  // nodes own large subtrees; only tree arcs recurse, making ancestry a
  // sound (if incomplete) positive witness.
  index.pre_.assign(n, -1);
  index.post_.assign(n, -1);
  {
    int32_t clock = 0;
    std::vector<std::pair<NodeId, int32_t>> stack;  // (node, next child)
    for (const NodeId root : order) {
      if (index.pre_[root] >= 0) continue;
      stack.emplace_back(root, 0);
      index.pre_[root] = clock++;
      while (!stack.empty()) {
        auto& [v, child] = stack.back();
        const std::span<const NodeId> succ = dag.Successors(v);
        bool descended = false;
        while (child < static_cast<int32_t>(succ.size())) {
          const NodeId s = succ[child++];
          if (index.pre_[s] >= 0) continue;
          index.pre_[s] = clock++;
          stack.emplace_back(s, 0);
          descended = true;
          break;
        }
        if (!descended) {
          index.post_[v] = clock++;
          stack.pop_back();
        }
      }
    }
  }

  // Greedy chain decomposition: walk forward from each yet-unassigned node
  // (in topological order) along arcs to unassigned successors. Adjacent
  // chain positions are real arcs, so "same chain, earlier position" is a
  // positive witness.
  index.chain_id_.assign(n, -1);
  index.chain_pos_.assign(n, 0);
  for (const NodeId start : order) {
    if (index.chain_id_[start] >= 0) continue;
    const int32_t chain = index.num_chains_++;
    NodeId cur = start;
    int32_t pos = 0;
    while (true) {
      index.chain_id_[cur] = chain;
      index.chain_pos_[cur] = pos++;
      NodeId next = -1;
      for (const NodeId s : dag.Successors(cur)) {
        if (index.chain_id_[s] >= 0) continue;
        if (next < 0 || index.topo_pos_[s] < index.topo_pos_[next]) next = s;
      }
      if (next < 0) break;
      cur = next;
    }
  }

  // Supportive pivots: evaluate a degree-ranked candidate pool and keep
  // the pivots whose forward x backward coverage decides the most pairs.
  const int32_t k =
      std::min<int32_t>(std::max<int32_t>(options.num_supportive, 0), n);
  if (k > 0) {
    const Digraph reversed = dag.Reversed();
    std::vector<NodeId> candidates(n);
    for (NodeId v = 0; v < n; ++v) candidates[v] = v;
    const int64_t pool = std::min<int64_t>(
        n, static_cast<int64_t>(k) *
               std::max<int32_t>(options.pivot_candidates_per_slot, 1));
    std::partial_sort(
        candidates.begin(), candidates.begin() + pool, candidates.end(),
        [&](NodeId a, NodeId b) {
          const int64_t score_a =
              static_cast<int64_t>(dag.OutDegree(a) + 1) *
              (reversed.OutDegree(a) + 1);
          const int64_t score_b =
              static_cast<int64_t>(dag.OutDegree(b) + 1) *
              (reversed.OutDegree(b) + 1);
          return score_a != score_b ? score_a > score_b : a < b;
        });
    candidates.resize(pool);

    struct Candidate {
      NodeId node;
      BitVector fwd;
      BitVector bwd;
      int64_t coverage;
    };
    std::vector<Candidate> evaluated;
    evaluated.reserve(candidates.size());
    std::vector<NodeId> scratch;
    for (const NodeId v : candidates) {
      Candidate c;
      c.node = v;
      c.fwd.Resize(static_cast<size_t>(n));
      c.bwd.Resize(static_cast<size_t>(n));
      const int64_t fwd_count = FillReachableSet(dag, v, &c.fwd, &scratch);
      const int64_t bwd_count =
          FillReachableSet(reversed, v, &c.bwd, &scratch);
      c.coverage = fwd_count * bwd_count;
      evaluated.push_back(std::move(c));
    }
    std::stable_sort(evaluated.begin(), evaluated.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.coverage > b.coverage;
                     });
    for (int32_t i = 0; i < k && i < static_cast<int32_t>(evaluated.size());
         ++i) {
      index.pivots_.push_back(evaluated[i].node);
      index.fwd_.push_back(std::move(evaluated[i].fwd));
      index.bwd_.push_back(std::move(evaluated[i].bwd));
    }
  }

  return index;
}

namespace {

// Sizes the scratch buffers for a graph of `n` nodes (no-op when already
// sized, so the buffers amortize across a shard's queries).
void PrepareScratch(ReachIndex::SearchScratch* scratch, size_t n) {
  if (scratch->visited.capacity() != n) scratch->visited.Resize(n);
  if (scratch->target_slot.size() != n) scratch->target_slot.assign(n, -1);
}

}  // namespace

ReachIndex::Verdict ReachIndex::TryDecide(NodeId u, NodeId v,
                                          ReachStage* stage,
                                          ReachRule* rule) const {
  TCDB_DCHECK(u >= 0 && u < num_nodes());
  TCDB_DCHECK(v >= 0 && v < num_nodes());
  auto decide = [&](Verdict verdict, ReachStage s, ReachRule r) {
    if (stage != nullptr) *stage = s;
    if (rule != nullptr) *rule = r;
    return verdict;
  };
  if (u == v) {
    return decide(Verdict::kYes, ReachStage::kTrivial, ReachRule::kSelf);
  }
  const int32_t pu = topo_pos_[u];
  const int32_t pv = topo_pos_[v];
  if (pv < pu || pv > max_reach_pos_[u] || pu < min_origin_pos_[v]) {
    return decide(Verdict::kNo, ReachStage::kTopoNegative,
                  ReachRule::kTopoWindow);
  }
  if (pre_[u] <= pre_[v] && post_[v] <= post_[u]) {
    return decide(Verdict::kYes, ReachStage::kDfsPositive,
                  ReachRule::kDfsInterval);
  }
  if (chain_id_[u] == chain_id_[v]) {
    // pv > pu already, and chain positions are topologically increasing.
    TCDB_DCHECK(chain_pos_[u] < chain_pos_[v]);
    return decide(Verdict::kYes, ReachStage::kChainPositive,
                  ReachRule::kChainStep);
  }
  for (size_t i = 0; i < pivots_.size(); ++i) {
    const bool p_reaches_u = fwd_[i].Test(static_cast<size_t>(u));
    const bool p_reaches_v = fwd_[i].Test(static_cast<size_t>(v));
    const bool u_reaches_p = bwd_[i].Test(static_cast<size_t>(u));
    const bool v_reaches_p = bwd_[i].Test(static_cast<size_t>(v));
    // u ~> pivot ~> v.
    if (u_reaches_p && p_reaches_v) {
      return decide(Verdict::kYes, ReachStage::kSupportivePositive,
                    ReachRule::kSupportiveThrough);
    }
    // pivot ~> u but not pivot ~> v: a u ~> v path would extend the
    // pivot's reach to v.
    if (p_reaches_u && !p_reaches_v) {
      return decide(Verdict::kNo, ReachStage::kSupportiveNegative,
                    ReachRule::kSupportiveFwdCut);
    }
    // v ~> pivot but not u ~> pivot: a u ~> v path would reach the pivot.
    if (v_reaches_p && !u_reaches_p) {
      return decide(Verdict::kNo, ReachStage::kSupportiveNegative,
                    ReachRule::kSupportiveBwdCut);
    }
  }
  return Verdict::kUnknown;
}

ReachIndex::Verdict ReachIndex::PrunedBfs(const Digraph& dag, NodeId u,
                                          NodeId v, int64_t budget,
                                          SearchScratch* scratch,
                                          int64_t* expansions) const {
  TCDB_DCHECK(dag.NumNodes() == num_nodes());
  if (expansions != nullptr) *expansions = 0;
  if (u == v) return Verdict::kYes;
  PrepareScratch(scratch, static_cast<size_t>(num_nodes()));
  EpochSet& visited = scratch->visited;
  std::vector<NodeId>& frontier = scratch->frontier;
  const int32_t pv = topo_pos_[v];
  visited.ClearAll();
  frontier.clear();
  frontier.push_back(u);
  visited.Insert(static_cast<size_t>(u));
  int64_t expanded = 0;
  Verdict result = Verdict::kNo;  // An exhausted frontier proves "no".
  while (!frontier.empty()) {
    if (expanded >= budget) {
      result = Verdict::kUnknown;
      break;
    }
    const NodeId w = frontier.back();
    frontier.pop_back();
    ++expanded;
    for (const NodeId s : dag.Successors(w)) {
      if (s == v) {
        if (expansions != nullptr) *expansions = expanded;
        return Verdict::kYes;
      }
      if (visited.Contains(static_cast<size_t>(s))) continue;
      visited.Insert(static_cast<size_t>(s));
      // Prune nodes whose labels prove they cannot lie on a u ~> v path,
      // and short-circuit when the labels prove s ~> v outright.
      const Verdict via_s = TryDecide(s, v);
      if (via_s == Verdict::kYes) {
        if (expansions != nullptr) *expansions = expanded;
        return Verdict::kYes;
      }
      if (via_s == Verdict::kNo) continue;
      TCDB_DCHECK(topo_pos_[s] < pv);
      frontier.push_back(s);
    }
  }
  if (expansions != nullptr) *expansions = expanded;
  return result;
}

void ReachIndex::PrunedMultiBfs(const Digraph& dag, NodeId u,
                                std::span<const NodeId> targets,
                                std::vector<bool>* reached,
                                SearchScratch* scratch,
                                int64_t* expansions) const {
  TCDB_DCHECK(dag.NumNodes() == num_nodes());
  reached->assign(targets.size(), false);
  if (expansions != nullptr) *expansions = 0;
  if (targets.empty()) return;
  PrepareScratch(scratch, static_cast<size_t>(num_nodes()));
  EpochSet& visited = scratch->visited;
  std::vector<NodeId>& frontier = scratch->frontier;
  std::vector<int32_t>& target_slot = scratch->target_slot;
  int32_t min_pv = topo_pos_[targets.front()];
  int32_t max_pv = min_pv;
  for (size_t i = 0; i < targets.size(); ++i) {
    const NodeId t = targets[i];
    TCDB_DCHECK(t != u);
    TCDB_DCHECK(target_slot[t] < 0);
    target_slot[t] = static_cast<int32_t>(i);
    min_pv = std::min(min_pv, topo_pos_[t]);
    max_pv = std::max(max_pv, topo_pos_[t]);
  }
  size_t remaining = targets.size();

  visited.ClearAll();
  frontier.clear();
  frontier.push_back(u);
  visited.Insert(static_cast<size_t>(u));
  int64_t expanded = 0;
  while (!frontier.empty() && remaining > 0) {
    const NodeId w = frontier.back();
    frontier.pop_back();
    ++expanded;
    for (const NodeId s : dag.Successors(w)) {
      const int32_t slot = target_slot[s];
      if (slot >= 0 && !(*reached)[slot]) {
        (*reached)[slot] = true;
        if (--remaining == 0) break;
      }
      if (visited.Contains(static_cast<size_t>(s))) continue;
      visited.Insert(static_cast<size_t>(s));
      // A node positioned after every target, or whose forward reach ends
      // before the first one, cannot lead to any remaining target.
      if (topo_pos_[s] > max_pv || max_reach_pos_[s] < min_pv) continue;
      frontier.push_back(s);
    }
  }
  for (const NodeId t : targets) target_slot[t] = -1;
  if (expansions != nullptr) *expansions = expanded;
}

namespace {

void AppendI32Vector(const std::vector<int32_t>& v, std::string* out) {
  for (const int32_t x : v) codec::PutI32(out, x);
}

bool ReadI32Vector(codec::Reader* reader, size_t n, std::vector<int32_t>* v) {
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!reader->ReadI32(&(*v)[i])) return false;
  }
  return true;
}

void AppendBitVector(const BitVector& bits, std::string* out) {
  for (const uint64_t w : bits.Words()) codec::PutU64(out, w);
}

bool ReadBitVector(codec::Reader* reader, size_t size, BitVector* bits) {
  std::vector<uint64_t> words((size + 63) / 64);
  for (uint64_t& w : words) {
    if (!reader->ReadU64(&w)) return false;
  }
  *bits = BitVector::FromWords(size, std::move(words));
  return true;
}

}  // namespace

void ReachIndex::SerializeAppend(std::string* out) const {
  const uint32_t n = static_cast<uint32_t>(topo_pos_.size());
  codec::PutU32(out, n);
  AppendI32Vector(topo_pos_, out);
  AppendI32Vector(max_reach_pos_, out);
  AppendI32Vector(min_origin_pos_, out);
  AppendI32Vector(pre_, out);
  AppendI32Vector(post_, out);
  AppendI32Vector(chain_id_, out);
  AppendI32Vector(chain_pos_, out);
  codec::PutI32(out, num_chains_);
  codec::PutU32(out, static_cast<uint32_t>(pivots_.size()));
  AppendI32Vector(pivots_, out);
  for (size_t i = 0; i < pivots_.size(); ++i) {
    AppendBitVector(fwd_[i], out);
    AppendBitVector(bwd_[i], out);
  }
}

Result<ReachIndex> ReachIndex::Deserialize(codec::Reader* reader) {
  ReachIndex index;
  uint32_t n = 0;
  if (!reader->ReadU32(&n)) {
    return Status::Corruption("reach index image truncated");
  }
  bool ok = ReadI32Vector(reader, n, &index.topo_pos_) &&
            ReadI32Vector(reader, n, &index.max_reach_pos_) &&
            ReadI32Vector(reader, n, &index.min_origin_pos_) &&
            ReadI32Vector(reader, n, &index.pre_) &&
            ReadI32Vector(reader, n, &index.post_) &&
            ReadI32Vector(reader, n, &index.chain_id_) &&
            ReadI32Vector(reader, n, &index.chain_pos_) &&
            reader->ReadI32(&index.num_chains_);
  uint32_t num_pivots = 0;
  ok = ok && reader->ReadU32(&num_pivots);
  if (ok) {
    ok = ReadI32Vector(reader, num_pivots, &index.pivots_);
    index.fwd_.resize(num_pivots);
    index.bwd_.resize(num_pivots);
    for (uint32_t i = 0; ok && i < num_pivots; ++i) {
      ok = ReadBitVector(reader, n, &index.fwd_[i]) &&
           ReadBitVector(reader, n, &index.bwd_[i]);
    }
  }
  if (!ok) return Status::Corruption("reach index image truncated");
  for (const NodeId p : index.pivots_) {
    if (p < 0 || static_cast<uint32_t>(p) >= n) {
      return Status::Corruption("reach index pivot out of range");
    }
  }
  return index;
}

}  // namespace tcdb
