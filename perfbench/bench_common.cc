#include "bench_common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "graph/generator.h"

namespace perfbench {
namespace {

// Stamped during static initialization, before main() runs.
const double kProcessStart = Now();

}  // namespace

double SecondsSinceStart() { return Now() - kProcessStart; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

LatencySample::LatencySample(uint64_t seed)
    : values_(kCapacity, 0.0f), state_(seed | 1) {}

void LatencySample::Add(double seconds) {
  ++count_;
  total_seconds_ += seconds;
  const float us = static_cast<float>(seconds * 1e6);
  if (used_ < kCapacity) {
    values_[used_++] = us;
    return;
  }
  // Algorithm R: keep the new value with probability kCapacity / count_.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const uint64_t slot = state_ % static_cast<uint64_t>(count_);
  if (slot < kCapacity) values_[slot] = us;
}

double LatencySample::QuantileUs(
    const std::vector<const LatencySample*>& samples, double q) {
  std::vector<std::pair<float, double>> weighted;
  double total = 0;
  for (const LatencySample* sample : samples) {
    if (sample->used_ == 0) continue;
    const double weight = static_cast<double>(sample->count_) /
                          static_cast<double>(sample->used_);
    for (size_t i = 0; i < sample->used_; ++i) {
      weighted.emplace_back(sample->values_[i], weight);
    }
    total += static_cast<double>(sample->count_);
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  const double target = q * total;
  double cumulative = 0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return weighted.back().first;
}

int64_t StealTicks() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return 0;
  long long user, nice, system, idle, iowait, irq, softirq, steal;
  const int fields =
      std::fscanf(file, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(file);
  return fields == 8 ? steal : 0;
}

double MedianUnstolen(std::vector<Repetition> repetitions) {
  constexpr double kStealShare = 0.01;
  const double ticks_per_second =
      static_cast<double>(std::max(1L, sysconf(_SC_CLK_TCK)));
  const double cpus =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  const auto share = [&](const Repetition& r) {
    return r.seconds > 0 ? static_cast<double>(r.steal_ticks) /
                               (ticks_per_second * cpus * r.seconds)
                         : 0.0;
  };
  std::stable_sort(repetitions.begin(), repetitions.end(),
                   [&](const Repetition& a, const Repetition& b) {
                     return share(a) < share(b);
                   });
  size_t keep = 0;
  while (keep < repetitions.size() &&
         share(repetitions[keep]) <= kStealShare) {
    ++keep;
  }
  keep = std::max(keep, (repetitions.size() + 1) / 2);
  std::vector<double> values;
  for (size_t i = 0; i < keep; ++i) values.push_back(repetitions[i].value);
  return Median(std::move(values));
}

WindowedRate::WindowedRate(double start, double window_seconds,
                           double run_seconds)
    : start_(start),
      window_(window_seconds),
      counts_(static_cast<size_t>(run_seconds / window_seconds) + 2, 0),
      steal_at_(counts_.size(), -1) {}

void WindowedRate::Add(double when, int64_t ops) {
  const double offset = (when - start_) / window_;
  if (offset < 0) return;
  const size_t index = static_cast<size_t>(offset);
  if (index < counts_.size()) counts_[index] += ops;
}

void WindowedRate::SampleSteal(double when) {
  const double offset = (when - start_) / window_;
  if (offset < 0) return;
  const size_t index = static_cast<size_t>(offset);
  if (index < steal_at_.size() && steal_at_[index] < 0) {
    steal_at_[index] = StealTicks();
  }
}

void WindowedRate::Merge(const WindowedRate& other) {
  for (size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
    if (steal_at_[i] < 0) steal_at_[i] = other.steal_at_[i];
  }
}

double WindowedRate::MedianRate() const {
  // The last two slots may be partial (the run ends mid-window). A window
  // whose steal is unknown (no caller sampled near one of its ends, which
  // takes a stall longer than a window) counts as the most stolen.
  std::vector<Repetition> windows;
  for (size_t i = 0; i + 2 < counts_.size(); ++i) {
    const bool known = steal_at_[i] >= 0 && steal_at_[i + 1] >= 0;
    windows.push_back(Repetition{
        static_cast<double>(counts_[i]) / window_, window_,
        known ? steal_at_[i + 1] - steal_at_[i]
              : std::numeric_limits<int32_t>::max()});
  }
  return MedianUnstolen(std::move(windows));
}

ArcList PaperGraph(NodeId n, int32_t out_degree, int32_t locality,
                   uint64_t seed) {
  tcdb::GeneratorParams params;
  params.num_nodes = n;
  params.avg_out_degree = out_degree;
  params.locality = locality;
  params.seed = seed;
  return tcdb::GenerateDag(params);
}

ReferenceReach::ReferenceReach(const ArcList& arcs, NodeId num_nodes)
    : num_nodes_(num_nodes),
      words_((static_cast<size_t>(num_nodes) + 63) / 64),
      adjacency_(static_cast<size_t>(num_nodes)),
      rows_(static_cast<size_t>(num_nodes)) {
  for (const Arc& arc : arcs) adjacency_[arc.src].push_back(arc.dst);
}

const std::vector<uint64_t>& ReferenceReach::Row(NodeId src) {
  std::vector<uint64_t>& row = rows_[src];
  if (!row.empty()) return row;
  // Nodes reachable by a path of at least one arc: seed the DFS with the
  // source's successors, not the source itself.
  row.assign(words_, 0);
  stack_.assign(adjacency_[src].begin(), adjacency_[src].end());
  while (!stack_.empty()) {
    const NodeId v = stack_.back();
    stack_.pop_back();
    uint64_t& word = row[static_cast<size_t>(v) / 64];
    const uint64_t bit = uint64_t{1} << (v % 64);
    if (word & bit) continue;
    word |= bit;
    for (NodeId w : adjacency_[v]) {
      if (!(row[static_cast<size_t>(w) / 64] & (uint64_t{1} << (w % 64)))) {
        stack_.push_back(w);
      }
    }
  }
  return row;
}

bool ReferenceReach::Reaches(NodeId src, NodeId dst) {
  if (src == dst) return true;
  return (Row(src)[static_cast<size_t>(dst) / 64] >> (dst % 64)) & 1;
}

std::vector<NodeId> ReferenceReach::Successors(NodeId src) {
  const std::vector<uint64_t>& row = Row(src);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if ((row[static_cast<size_t>(v) / 64] >> (v % 64)) & 1) out.push_back(v);
  }
  return out;
}

}  // namespace perfbench
