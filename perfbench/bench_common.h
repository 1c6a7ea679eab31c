#ifndef TCDB_PERFBENCH_BENCH_COMMON_H_
#define TCDB_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "relation/arc.h"

namespace perfbench {

using tcdb::Arc;
using tcdb::ArcList;
using tcdb::NodeId;

// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// What one run measured. `metrics` maps a metric name (as listed in
// BENCHMARK.json) to its value; main.cc prints the end-to-end set with
// --trace 0 and the per-layer set with --trace 1.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string check_error;  // first failed check, empty when correct
  std::map<std::string, double> metrics;

  void Fail(const std::string& error) {
    if (correct) check_error = error;
    correct = false;
  }
};

// Seconds on the steady clock since the process started (main.cc stamps
// the origin before anything else runs).
double SecondsSinceStart();

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// q-quantile (q in [0, 1]) of `values` by linear interpolation between
// order statistics; 0 for an empty input. Takes a copy to sort.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set size of this process so far, MiB. Workloads read it
// at the end of the timed phase, before the checks allocate their
// references.
double PeakRssMib();

// A uniform sample of at most kCapacity latencies (reservoir sampling),
// so the benchmark's own memory stays the same however many operations a
// run completes and peak RSS measures the program, not the recorder. The
// buffer is allocated and touched up front, during set-up.
class LatencySample {
 public:
  static constexpr size_t kCapacity = size_t{1} << 18;

  explicit LatencySample(uint64_t seed);

  void Add(double seconds);
  int64_t count() const { return count_; }
  double total_seconds() const { return total_seconds_; }

  // Microseconds at quantile q of the latencies recorded by `samples`
  // together, each sampled value weighted by the share of its recorder's
  // operations it stands for.
  static double QuantileUs(const std::vector<const LatencySample*>& samples,
                           double q);
  double QuantileUs(double q) const { return QuantileUs({this}, q); }

 private:
  std::vector<float> values_;  // microseconds
  size_t used_ = 0;
  int64_t count_ = 0;
  double total_seconds_ = 0;
  uint64_t state_;
};

// Ticks (1/sysconf(_SC_CLK_TCK) s) the hypervisor has taken from this
// machine's CPUs since boot, summed over CPUs: the `steal` field of
// /proc/stat. 0 where it cannot be read, as on bare metal.
int64_t StealTicks();

// One repetition of a timed phase's unit of work (a window, a round or a
// pass): the value it measured, how long it lasted, and the steal ticks
// taken from the machine meanwhile.
struct Repetition {
  double value;
  double seconds;
  int64_t steal_ticks;
};

// Median value over the repetitions the host left alone. On a shared
// virtual machine the hypervisor takes CPUs from the guest for
// milliseconds at a time (steal). A closed loop that hands every request
// between threads stalls on each such pause, so a run in a period of heavy
// steal served a twentieth of the queries a quiet run did, whatever the
// program. The median is therefore over the repetitions in which steal
// took at most 1% of the machine's CPU time; when fewer than half of them
// qualify, over the half with the least steal.
double MedianUnstolen(std::vector<Repetition> repetitions);

// Operations completed per time window of the timed phase, with the steal
// ticks at each window's start; the median window rate resists short
// stalls that a whole-run mean would absorb.
class WindowedRate {
 public:
  WindowedRate(double start, double window_seconds, double run_seconds);
  void Add(double when, int64_t ops);
  // Reads the steal ticks if `when` lies in a window that has no reading
  // yet; callers call it often (every few hundred microseconds to a few
  // milliseconds), so the reading falls near the window's start.
  void SampleSteal(double when);
  // Adds the other's counts; takes its steal readings where this has none.
  void Merge(const WindowedRate& other);
  // MedianUnstolen ops/s over the windows that lie wholly inside the run.
  double MedianRate() const;

 private:
  double start_;
  double window_;
  std::vector<int64_t> counts_;
  std::vector<int64_t> steal_at_;  // -1: no reading
};

// Every workload serves one fixed graph per shape, so that --seed varies
// the traffic (query sources, served pairs, the update stream) and not
// the amount of work a graph happens to need: seeds then move the
// figures no more than the host does.
inline constexpr uint64_t kGraphSeed = 1;

// Arcs drawn by the paper's generator (graph/generator.h) with the given
// parameters.
ArcList PaperGraph(NodeId n, int32_t out_degree, int32_t locality,
                   uint64_t seed);

// The benchmark's own reachability reference over an arc list, built
// from nothing but the arcs: one reachability bit-row per requested
// source, computed by an iterative DFS over a private adjacency list.
// Reflexive: every node reaches itself.
class ReferenceReach {
 public:
  ReferenceReach(const ArcList& arcs, NodeId num_nodes);

  bool Reaches(NodeId src, NodeId dst);
  // Nodes reachable from `src` by a path of at least one arc, ascending.
  std::vector<NodeId> Successors(NodeId src);

 private:
  const std::vector<uint64_t>& Row(NodeId src);

  NodeId num_nodes_;
  size_t words_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::vector<uint64_t>> rows_;  // empty until computed
  std::vector<NodeId> stack_;
};

}  // namespace perfbench

#endif  // TCDB_PERFBENCH_BENCH_COMMON_H_
