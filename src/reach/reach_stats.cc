#include "reach/reach_stats.h"

#include <sstream>

namespace tcdb {

TablePrinter ReachStats::ToTable() const {
  TablePrinter table({"stage", "decided", "share %", "total ms", "us/query"});
  for (int s = 0; s < kNumReachStages; ++s) {
    const int64_t count = decided[s];
    if (count == 0) continue;
    table.NewRow()
        .AddCell(std::string(ReachStageName(static_cast<ReachStage>(s))))
        .AddCell(count)
        .AddCell(queries == 0 ? 0.0 : 100.0 * count / queries, 1)
        .AddCell(seconds[s] * 1e3, 3)
        .AddCell(seconds[s] * 1e6 / count, 3);
  }
  return table;
}

TablePrinter ReachStats::RuleTable() const {
  TablePrinter table({"rule", "decided", "share %"});
  int64_t attributed = 0;
  for (int r = 0; r < kNumReachRules; ++r) attributed += rule_decided[r];
  for (int r = 0; r < kNumReachRules; ++r) {
    const int64_t count = rule_decided[r];
    if (count == 0) continue;
    table.NewRow()
        .AddCell(std::string(ReachRuleName(static_cast<ReachRule>(r))))
        .AddCell(count)
        .AddCell(attributed == 0 ? 0.0 : 100.0 * count / attributed, 1);
  }
  return table;
}

void ReachStats::Print(std::ostream& out) const {
  ToTable().Print(out);
  int64_t attributed = 0;
  for (int r = 0; r < kNumReachRules; ++r) attributed += rule_decided[r];
  if (attributed > 0) RuleTable().Print(out);
  out << "queries " << queries << " (" << positive_answers
      << " reachable), batches " << batches << ", decided without fallback "
      << DecidedWithoutFallback();
  if (queries > 0) {
    out << " (" << 100.0 * DecidedWithoutFallback() / queries << "%)";
  }
  out << "\ncache insertions " << cache_insertions << ", BFS expansions "
      << bfs_expansions << "\n";
}

std::string ReachStats::ToString() const {
  std::ostringstream out;
  Print(out);
  return out.str();
}

void ReachStats::Merge(const ReachStats& other) {
  queries += other.queries;
  batches += other.batches;
  positive_answers += other.positive_answers;
  for (int s = 0; s < kNumReachStages; ++s) {
    decided[s] += other.decided[s];
    seconds[s] += other.seconds[s];
  }
  for (int r = 0; r < kNumReachRules; ++r) {
    rule_decided[r] += other.rule_decided[r];
  }
  cache_insertions += other.cache_insertions;
  bfs_expansions += other.bfs_expansions;
  session_queries += other.session_queries;
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0) seconds = 0;
  const double us = seconds * 1e6;
  int bucket = 0;
  // Smallest i with 2^i > us, i.e. us < 1 -> 0, [1, 2) -> 1, [2, 4) -> 2.
  while (bucket < kNumBuckets - 1 &&
         us >= static_cast<double>(int64_t{1} << bucket)) {
    ++bucket;
  }
  ++buckets_[bucket];
  ++count_;
  total_seconds_ += seconds;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_seconds_ += other.total_seconds_;
}

double LatencyHistogram::QuantileSeconds(double q) const {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the q-quantile sample, 1-based; ceil without float error.
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return static_cast<double>(int64_t{1} << i) * 1e-6;
    }
  }
  return static_cast<double>(int64_t{1} << (kNumBuckets - 1)) * 1e-6;
}

std::string LatencyHistogram::Summary() const {
  auto us = [](double seconds) {
    return std::to_string(static_cast<int64_t>(seconds * 1e6));
  };
  std::ostringstream out;
  out << "n=" << count_ << " mean=" << us(MeanSeconds())
      << "us p50=" << us(QuantileSeconds(0.5))
      << "us p99=" << us(QuantileSeconds(0.99)) << "us";
  return out.str();
}

}  // namespace tcdb
