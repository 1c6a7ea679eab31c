// closure: the paper's study. A fixed query set runs through
// TcDatabase::Execute in whole passes, each algorithm on a cold 20-page
// LRU pool, for the length of the run.

#include <cctype>
#include <string>
#include <vector>

#include "core/database.h"
#include "graph/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tcdb::Algorithm;

constexpr NodeId kNodes = 2000;
constexpr int32_t kPtcSources = 40;
constexpr int kMinPasses = 3;

// BTC, HYB, BJ, SRCH, SPN, JKB2 and the Blocked Warren matrix baseline.
constexpr Algorithm kAlgorithms[] = {
    Algorithm::kBtc, Algorithm::kHyb,  Algorithm::kBj,
    Algorithm::kSrch, Algorithm::kSpn, Algorithm::kJkb2,
    Algorithm::kWarrenBlocked,
};

struct Graph {
  ArcList arcs;
  std::unique_ptr<tcdb::TcDatabase> db;
  tcdb::QuerySpec query;
  const char* name;
};

struct Query {
  const Graph* graph;
  Algorithm algorithm;
  std::string label;
};

// "WARREN-BLOCKED" -> "warren_blocked", the metric-name spelling.
std::string MetricName(Algorithm algorithm) {
  std::string name = tcdb::AlgorithmName(algorithm);
  for (char& c : name) {
    c = c == '-' ? '_' : static_cast<char>(std::tolower(c));
  }
  return name;
}

// Sums of one pass's run metrics.
struct PassTotals {
  double seconds = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t list_hits = 0;
  uint64_t list_misses = 0;
  double restructure_cpu_s = 0;
  double compute_cpu_s = 0;
  int64_t list_unions = 0;
  int64_t tuples_generated = 0;
  int64_t duplicates = 0;
  int64_t entries_read = 0;

  void Add(const tcdb::RunMetrics& m) {
    page_reads += m.restructure_reads + m.compute_reads;
    page_writes += m.restructure_writes + m.compute_writes;
    list_hits += m.compute_list_hits;
    list_misses += m.compute_list_misses;
    restructure_cpu_s += m.restructure_cpu_s;
    compute_cpu_s += m.compute_cpu_s;
    list_unions += m.list_unions;
    tuples_generated += m.tuples_generated;
    duplicates += m.duplicates();
    entries_read += m.entries_read;
  }
};

}  // namespace

tcdb::Status RunClosure(const RunOptions& options, RunReport* report,
                        SelfTestInputs* capture) {
  // Set-up: two paper-generator graphs (G5 and the denser F=20 family)
  // loaded into databases, and the PTC source set.
  const double generate_start = Now();
  Graph g5{PaperGraph(kNodes, 5, 200, kGraphSeed), nullptr,
           tcdb::QuerySpec::Full(), "g5_ctc"};
  Graph f20{PaperGraph(kNodes, 20, 200, kGraphSeed), nullptr,
            tcdb::QuerySpec::Partial(tcdb::SampleSourceNodes(
                kNodes, kPtcSources, SubSeed(options.seed, 3))),
            "f20_ptc"};
  const double generate_s = Now() - generate_start;
  for (Graph* graph : {&g5, &f20}) {
    TCDB_ASSIGN_OR_RETURN(graph->db,
                          tcdb::TcDatabase::Create(graph->arcs, kNodes));
  }
  std::vector<Query> queries;
  for (const Graph* graph : {&g5, &f20}) {
    for (Algorithm algorithm : kAlgorithms) {
      queries.push_back(Query{graph, algorithm,
                              std::string(graph->name) + "/" +
                                  tcdb::AlgorithmName(algorithm)});
    }
  }
  const tcdb::ExecOptions exec;  // the paper's 20-page LRU pool

  // Timed phase: whole passes over the query set.
  const double setup_s = SecondsSinceStart();
  const double start = Now();
  std::vector<Repetition> passes;
  std::vector<std::vector<double>> algorithm_seconds(
      std::size(kAlgorithms));
  std::vector<double> restructure_cpu, compute_cpu;
  PassTotals last;
  while (static_cast<int>(passes.size()) < kMinPasses ||
         Now() - start < options.seconds) {
    PassTotals pass;
    std::vector<double> per_algorithm(std::size(kAlgorithms), 0.0);
    const int64_t steal_start = StealTicks();
    const double pass_start = Now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      const double t0 = Now();
      auto run = q.graph->db->Execute(q.algorithm, q.graph->query, exec);
      const double elapsed = Now() - t0;
      ++report->attempted;
      if (!run.ok()) {
        ++report->failed;
        continue;
      }
      per_algorithm[i % std::size(kAlgorithms)] += elapsed;
      pass.Add(run.value().metrics);
    }
    pass.seconds = Now() - pass_start;
    passes.push_back(Repetition{pass.seconds, pass.seconds,
                                StealTicks() - steal_start});
    for (size_t a = 0; a < per_algorithm.size(); ++a) {
      algorithm_seconds[a].push_back(per_algorithm[a]);
    }
    restructure_cpu.push_back(pass.restructure_cpu_s);
    compute_cpu.push_back(pass.compute_cpu_s);
    last = pass;
  }

  report->metrics["peak_rss_mb"] = PeakRssMib();

  // Check pass (untimed): every algorithm's captured answer against the
  // benchmark's DFS closure of the generated arcs.
  tcdb::ExecOptions check_exec = exec;
  check_exec.capture_answer = true;
  ReferenceReach g5_reference(g5.arcs, kNodes);
  ReferenceReach f20_reference(f20.arcs, kNodes);
  for (const Query& q : queries) {
    auto run = q.graph->db->Execute(q.algorithm, q.graph->query, check_exec);
    if (!run.ok()) {
      report->Fail(q.label + ": " + run.status().ToString());
      continue;
    }
    ClosureRecord record;
    record.label = q.label;
    record.full_closure = q.graph->query.full_closure;
    record.sources = q.graph->query.sources;
    record.answer = std::move(run.value().answer);
    record.distinct_tuples = run.value().metrics.distinct_tuples;
    record.selected_tuples = run.value().metrics.selected_tuples;
    ReferenceReach* reference =
        q.graph == &g5 ? &g5_reference : &f20_reference;
    const std::string error = CheckClosure(reference, kNodes, record);
    if (!error.empty()) report->Fail(error);
    if (capture != nullptr && q.graph == &f20 &&
        q.algorithm == Algorithm::kBtc) {
      capture->closure_nodes = kNodes;
      capture->closure_arcs = f20.arcs;
      capture->closure = std::move(record);
    }
  }

  const double pass_median = MedianUnstolen(passes);
  auto& m = report->metrics;
  m["setup_s"] = setup_s;
  m["ops_per_s"] = static_cast<double>(queries.size()) / pass_median;
  // Median over passes of the pass's mean time per Execute call: every
  // query of the set feeds it, and a pass is the unit the run repeats.
  m["op_p50_us"] =
      1e6 * pass_median / static_cast<double>(queries.size());

  m["graph.generate_s"] = generate_s;
  m["core.pass_s"] = pass_median;
  for (size_t a = 0; a < std::size(kAlgorithms); ++a) {
    m["core.execute_s." + MetricName(kAlgorithms[a])] =
        Median(algorithm_seconds[a]);
  }
  m["core.restructure_cpu_s"] = Median(restructure_cpu);
  m["core.compute_cpu_s"] = Median(compute_cpu);
  m["storage.page_reads"] = static_cast<double>(last.page_reads);
  m["storage.page_writes"] = static_cast<double>(last.page_writes);
  m["storage.page_io"] =
      static_cast<double>(last.page_reads + last.page_writes);
  m["storage.buffer_hit_ratio"] =
      static_cast<double>(last.list_hits) /
      static_cast<double>(last.list_hits + last.list_misses);
  m["succ.list_unions"] = static_cast<double>(last.list_unions);
  m["succ.tuples_generated"] = static_cast<double>(last.tuples_generated);
  m["succ.duplicates"] = static_cast<double>(last.duplicates);
  m["succ.entries_read"] = static_cast<double>(last.entries_read);
  return tcdb::Status::Ok();
}

}  // namespace perfbench
