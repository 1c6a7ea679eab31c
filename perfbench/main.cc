// tcdb performance benchmark driver.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// Runs one workload (closure, serve, serve_adversarial, update) and
// prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The metric names and
// units below are the ones BENCHMARK.json declares. --selftest runs each
// workload briefly and shows that every correctness check rejects a
// corrupted record.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "ops/s"},
    {"op_p50_us", "us"},
};

// Reported by every workload with --trace 1; a layer the workload does
// not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"core.pass_s", "s"},
    {"core.execute_s.btc", "s"},
    {"core.execute_s.hyb", "s"},
    {"core.execute_s.bj", "s"},
    {"core.execute_s.srch", "s"},
    {"core.execute_s.spn", "s"},
    {"core.execute_s.jkb2", "s"},
    {"core.execute_s.warren_blocked", "s"},
    {"core.restructure_cpu_s", "s"},
    {"core.compute_cpu_s", "s"},
    {"storage.page_reads", "pages"},
    {"storage.page_writes", "pages"},
    {"storage.page_io", "pages"},
    {"storage.buffer_hit_ratio", "ratio"},
    {"succ.list_unions", "count"},
    {"succ.tuples_generated", "count"},
    {"succ.duplicates", "count"},
    {"succ.entries_read", "count"},
    {"reach.server_call_us", "us"},
    {"reach.server_call_p99_us", "us"},
    {"reach.service_us", "us"},
    {"reach.dispatch_us", "us"},
    {"reach.label_decide_us", "us"},
    {"reach.cache_hit_ratio", "ratio"},
    {"reach.decided.cache", "count"},
    {"reach.decided.trivial", "count"},
    {"reach.decided.topo_negative", "count"},
    {"reach.decided.dfs_interval", "count"},
    {"reach.decided.chain", "count"},
    {"reach.decided.supportive_yes", "count"},
    {"reach.decided.supportive_no", "count"},
    {"reach.decided.adjacency", "count"},
    {"reach.decided.observation", "count"},
    {"reach.decided.pruned_bfs", "count"},
    {"reach.decided.session_srch", "count"},
    {"reach.fallback_us", "us"},
    {"reach.bfs_expansions", "count"},
    {"reach.session_runs", "count"},
    {"reach.core_build_s", "s"},
    {"reach.index_bytes_per_node", "B/node"},
    {"oreach.decided", "count"},
    {"scale.chain_build_s", "s"},
    {"scale.chain_bytes_per_node", "B/node"},
    {"dynamic.apply_us", "us"},
    {"dynamic.decided.snapshot", "count"},
    {"dynamic.decided.incremental", "count"},
    {"dynamic.decided.overlay", "count"},
    {"dynamic.decided.escalated", "count"},
    {"dynamic.rebuilds", "count"},
    {"dynamic.rebuild_s", "s"},
    {"persist.mutation_p50_us", "us"},
    {"persist.mutation_p99_us", "us"},
    {"persist.wal_append_us", "us"},
    {"persist.wal_syncs", "count"},
    {"persist.wal_bytes_per_update", "B"},
    {"persist.checkpoint_s", "s"},
    {"persist.checkpoint_bytes", "B"},
    {"persist.recovery_s", "s"},
    {"persist.replayed_entries", "count"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload closure|serve|serve_adversarial|"
               "update --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n");
  return 2;
}

tcdb::Status RunWorkload(const RunOptions& options, RunReport* report,
                         SelfTestInputs* capture) {
  if (options.workload == "closure") {
    return RunClosure(options, report, capture);
  }
  if (options.workload == "serve") {
    return RunServe(options, false, report, capture);
  }
  if (options.workload == "serve_adversarial") {
    return RunServe(options, true, report, capture);
  }
  if (options.workload == "update") {
    return RunUpdate(options, report, capture);
  }
  return tcdb::Status::InvalidArgument("unknown workload '" +
                                       options.workload + "'");
}

void PrintJson(const RunReport& report, bool trace) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = report.metrics.find(spec.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + spec.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int SelfTest() {
  SelfTestInputs inputs;
  for (const char* workload : {"closure", "serve", "update"}) {
    RunOptions options;
    options.workload = workload;
    options.seconds = 1;
    RunReport report;
    const tcdb::Status status = RunWorkload(options, &report, &inputs);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", workload, status.ToString().c_str());
      return 1;
    }
    if (!report.correct) {
      std::fprintf(stderr, "%s: %s\n", workload, report.check_error.c_str());
      return 1;
    }
  }
  const int missed = RunCheckerSelfTest(inputs);
  std::printf("%s\n", missed == 0 ? "every check rejected its corruption"
                                  : "SOME CHECKS MISSED THEIR CORRUPTION");
  return missed == 0 ? 0 : 1;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 of the pair.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::RunOptions;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::SelfTest();
    if (i + 1 >= argc) return perfbench::Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload || !(options.seconds > 0)) return perfbench::Usage();

  perfbench::RunReport report;
  const tcdb::Status status = perfbench::RunWorkload(options, &report, nullptr);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!report.correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 report.check_error.c_str());
  }
  perfbench::PrintJson(report, options.trace);
  return 0;
}
