#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {
namespace {

// Threads the update history check runs on (the process's core budget).
constexpr size_t kCheckThreads = 4;

std::string Pair(NodeId u, NodeId v) {
  return std::to_string(u) + "->" + std::to_string(v);
}

// Reachability on a mutable adjacency list (the update reference), by
// BFS with an epoch-stamped visited array.
class LiveReference {
 public:
  explicit LiveReference(NodeId num_nodes)
      : adjacency_(static_cast<size_t>(num_nodes)),
        visited_(static_cast<size_t>(num_nodes), 0) {}

  bool Has(NodeId u, NodeId v) const {
    const auto& row = adjacency_[u];
    return std::find(row.begin(), row.end(), v) != row.end();
  }
  void Insert(NodeId u, NodeId v) { adjacency_[u].push_back(v); }
  void Erase(NodeId u, NodeId v) {
    auto& row = adjacency_[u];
    *std::find(row.begin(), row.end(), v) = row.back();
    row.pop_back();
  }

  bool Reaches(NodeId u, NodeId v) {
    if (u == v) return true;
    ++stamp_;
    frontier_.assign(1, u);
    visited_[u] = stamp_;
    while (!frontier_.empty()) {
      const NodeId x = frontier_.back();
      frontier_.pop_back();
      for (NodeId w : adjacency_[x]) {
        if (w == v) return true;
        if (visited_[w] != stamp_) {
          visited_[w] = stamp_;
          frontier_.push_back(w);
        }
      }
    }
    return false;
  }

  ArcList Arcs() const {
    ArcList arcs;
    for (size_t u = 0; u < adjacency_.size(); ++u) {
      for (NodeId v : adjacency_[u]) {
        arcs.push_back(Arc{static_cast<NodeId>(u), v});
      }
    }
    std::sort(arcs.begin(), arcs.end());
    return arcs;
  }

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<uint32_t> visited_;
  std::vector<NodeId> frontier_;
  uint32_t stamp_ = 0;
};

}  // namespace

std::string CheckClosure(ReferenceReach* reference, NodeId num_nodes,
                         const ClosureRecord& record) {
  std::vector<NodeId> expected_nodes;
  if (record.full_closure) {
    for (NodeId v = 0; v < num_nodes; ++v) expected_nodes.push_back(v);
  } else {
    expected_nodes = record.sources;
    std::sort(expected_nodes.begin(), expected_nodes.end());
  }
  std::vector<NodeId> answered;
  for (const auto& [node, successors] : record.answer) answered.push_back(node);
  std::sort(answered.begin(), answered.end());
  if (answered != expected_nodes) {
    return record.label + ": answer covers " +
           std::to_string(answered.size()) + " nodes, expected " +
           std::to_string(expected_nodes.size());
  }
  int64_t closure_size = 0;
  for (const auto& [node, successors] : record.answer) {
    const std::vector<NodeId> expected = reference->Successors(node);
    if (successors != expected) {
      return record.label + ": successors of " + std::to_string(node) +
             " differ from the reference (" +
             std::to_string(successors.size()) + " vs " +
             std::to_string(expected.size()) + ")";
    }
    closure_size += static_cast<int64_t>(expected.size());
  }
  const int64_t reported =
      record.full_closure ? record.distinct_tuples : record.selected_tuples;
  if (reported != closure_size) {
    return record.label + ": reported " +
           (record.full_closure ? "distinct" : "selected") + " tuples " +
           std::to_string(reported) + ", reference closure has " +
           std::to_string(closure_size);
  }
  return "";
}

std::string CheckServe(ReferenceReach* reference, const ServeRecord& record) {
  for (size_t i = 0; i < record.answers.size(); ++i) {
    if (record.answers[i] == kNoAnswer) continue;
    const auto [u, v] = record.pairs[i];
    const bool expected = reference->Reaches(u, v);
    if ((record.answers[i] != 0) != expected) {
      return "served answer " + std::to_string(i) + " for " + Pair(u, v) +
             " is " + (expected ? "unreachable" : "reachable") +
             ", reference says otherwise";
    }
  }
  return "";
}

std::string CheckUpdateHistory(const ArcList& base_arcs, NodeId num_nodes,
                               const std::vector<UpdateOp>& ops,
                               ArcList* final_arcs, int64_t* mutations) {
  // Pass 1, in order: every mutation valid and acknowledged at the next
  // epoch.
  LiveReference live(num_nodes);
  for (const Arc& arc : base_arcs) live.Insert(arc.src, arc.dst);
  int64_t epoch = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    const auto where = [&] {
      return "op " + std::to_string(i) + " (" + Pair(op.src, op.dst) + ")";
    };
    if (op.kind == UpdateOp::kQuery) continue;
    const bool insert = op.kind == UpdateOp::kInsert;
    if (live.Has(op.src, op.dst) == insert) {
      return where() + ": " + (insert ? "insert of a live" : "delete of a dead") +
             " arc was acknowledged";
    }
    if (op.epoch != epoch + 1) {
      return where() + ": mutation acknowledged at epoch " +
             std::to_string(op.epoch) + ", expected " +
             std::to_string(epoch + 1);
    }
    epoch = op.epoch;
    if (insert) {
      live.Insert(op.src, op.dst);
    } else {
      live.Erase(op.src, op.dst);
    }
  }
  *final_arcs = live.Arcs();
  *mutations = epoch;

  // Pass 2: every query answer against a search of the reference at its
  // epoch. The stream is cut into contiguous chunks checked in parallel;
  // each worker first replays the mutations before its chunk.
  const size_t workers = kCheckThreads;
  const size_t chunk = (ops.size() + workers - 1) / workers;
  std::vector<size_t> first_bad(workers, ops.size());
  const auto check_chunk = [&](size_t w) {
    LiveReference state(num_nodes);
    for (const Arc& arc : base_arcs) state.Insert(arc.src, arc.dst);
    const size_t begin = std::min(ops.size(), w * chunk);
    const size_t end = std::min(ops.size(), begin + chunk);
    for (size_t i = 0; i < end; ++i) {
      const UpdateOp& op = ops[i];
      if (op.kind == UpdateOp::kInsert) {
        state.Insert(op.src, op.dst);
      } else if (op.kind == UpdateOp::kDelete) {
        state.Erase(op.src, op.dst);
      } else if (i >= begin &&
                 op.reachable != state.Reaches(op.src, op.dst)) {
        first_bad[w] = i;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(check_chunk, w);
  check_chunk(0);
  for (std::thread& thread : threads) thread.join();
  for (const size_t bad : first_bad) {
    if (bad < ops.size()) {
      return "op " + std::to_string(bad) + " (" +
             Pair(ops[bad].src, ops[bad].dst) +
             "): answer differs from the reference at epoch " +
             std::to_string(ops[bad].epoch);
    }
  }
  return "";
}

std::string CheckRecovered(const ArcList& reference_arcs, NodeId num_nodes,
                           int64_t acknowledged_mutations,
                           const RecoveredState& state) {
  if (state.epoch != acknowledged_mutations) {
    return "recovered epoch " + std::to_string(state.epoch) + ", " +
           std::to_string(acknowledged_mutations) +
           " mutations were acknowledged";
  }
  if (state.live_arcs != reference_arcs) {
    return "recovered arc set (" + std::to_string(state.live_arcs.size()) +
           " arcs) differs from the reference (" +
           std::to_string(reference_arcs.size()) + " arcs)";
  }
  ReferenceReach reference(reference_arcs, num_nodes);
  for (const auto& [pair, reachable] : state.answers) {
    if (reachable != reference.Reaches(pair.first, pair.second)) {
      return "recovered service answers " + Pair(pair.first, pair.second) +
             " wrongly";
    }
  }
  return "";
}

int RunCheckerSelfTest(const SelfTestInputs& in) {
  int missed = 0;
  const auto expect = [&](const char* what, const std::string& clean,
                          const std::string& corrupted) {
    const bool ok = clean.empty() && !corrupted.empty();
    if (!ok) ++missed;
    std::printf("%-34s clean: %s; corrupted: %s\n", what,
                clean.empty() ? "passes" : clean.c_str(),
                corrupted.empty() ? "NOT DETECTED" : corrupted.c_str());
  };

  {
    ReferenceReach reference(in.closure_arcs, in.closure_nodes);
    ClosureRecord bad = in.closure;
    // Flip one successor: drop the first non-empty list's first entry.
    for (auto& [node, successors] : bad.answer) {
      if (!successors.empty()) {
        successors.erase(successors.begin());
        break;
      }
    }
    expect("closure: flipped successor",
           CheckClosure(&reference, in.closure_nodes, in.closure),
           CheckClosure(&reference, in.closure_nodes, bad));
  }
  {
    ReferenceReach reference(in.serve_arcs, in.serve_nodes);
    ServeRecord bad = in.serve;
    // Flip the first recorded answer (a short run may leave later slots
    // unanswered).
    for (size_t i = 0; i < bad.answers.size(); ++i) {
      if (bad.answers[i] != kNoAnswer) {
        bad.answers[i] ^= 1;
        break;
      }
    }
    expect("serve: flipped answer", CheckServe(&reference, in.serve),
           CheckServe(&reference, bad));
  }
  ArcList final_arcs;
  int64_t mutations = 0;
  const std::string clean_history = CheckUpdateHistory(
      in.update_base_arcs, in.update_nodes, in.update_ops, &final_arcs,
      &mutations);
  {
    std::vector<UpdateOp> bad = in.update_ops;
    for (size_t i = bad.size() / 2; i < bad.size(); ++i) {
      if (bad[i].kind == UpdateOp::kQuery) {
        bad[i].reachable = !bad[i].reachable;
        break;
      }
    }
    ArcList unused;
    int64_t unused_count = 0;
    expect("update: flipped query answer", clean_history,
           CheckUpdateHistory(in.update_base_arcs, in.update_nodes, bad,
                              &unused, &unused_count));
  }
  {
    std::vector<UpdateOp> bad = in.update_ops;
    for (size_t i = bad.size() / 2; i < bad.size(); ++i) {
      if (bad[i].kind != UpdateOp::kQuery) {
        bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    ArcList unused;
    int64_t unused_count = 0;
    expect("update: dropped mutation", clean_history,
           CheckUpdateHistory(in.update_base_arcs, in.update_nodes, bad,
                              &unused, &unused_count));
  }
  {
    const std::string clean = CheckRecovered(final_arcs, in.update_nodes,
                                             mutations, in.recovered);
    RecoveredState bad_answer = in.recovered;
    bad_answer.answers.front().second = !bad_answer.answers.front().second;
    expect("recovery: flipped answer", clean,
           CheckRecovered(final_arcs, in.update_nodes, mutations,
                          bad_answer));
    RecoveredState lost_arc = in.recovered;
    lost_arc.live_arcs.pop_back();
    expect("recovery: lost arc", clean,
           CheckRecovered(final_arcs, in.update_nodes, mutations, lost_arc));
    RecoveredState lost_epoch = in.recovered;
    lost_epoch.epoch -= 1;
    expect("recovery: lost mutation", clean,
           CheckRecovered(final_arcs, in.update_nodes, mutations,
                          lost_epoch));
  }
  return missed;
}

}  // namespace perfbench
