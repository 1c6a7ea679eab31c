#ifndef TCDB_REACH_REACH_STATS_H_
#define TCDB_REACH_REACH_STATS_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "reach/reach_index.h"
#include "util/table_printer.h"

namespace tcdb {

// Per-service observability counters: how many queries each rung of the
// serving ladder decided and how much wall time it consumed. The point is
// not just "queries were fast" but *why* — benches and the CLI's --explain
// print this block so regressions in index coverage show up as shifted
// decision counts, not just as slower averages.
struct ReachStats {
  int64_t queries = 0;           // single queries + batch members
  int64_t batches = 0;           // QueryBatch calls
  int64_t positive_answers = 0;  // queries answered "reachable"

  // decided[s]: queries whose final answer came from stage s.
  // seconds[s]: cumulative wall time of those queries (a fallback query
  // charges its whole latency, labels included, to the fallback stage).
  int64_t decided[kNumReachStages] = {};
  double seconds[kNumReachStages] = {};

  // rule_decided[r]: queries decided by the individual rule r — one level
  // finer than the stage counters (kTrivial splits into self/same-scc,
  // the observation battery into per-observation rules), so decided-rate
  // reporting is attribution, not guesswork. Populated by the rule-aware
  // Record overload; the legacy overload leaves it untouched, so
  // sum(rule_decided) == queries only holds for owners (ReachService,
  // ReachServer) that attribute every query.
  int64_t rule_decided[kNumReachRules] = {};

  int64_t cache_insertions = 0;
  int64_t bfs_expansions = 0;    // total pruned-BFS node expansions
  // Retired with the SRCH-session rung: always 0, kept for readers of the
  // field.
  int64_t session_queries = 0;

  void Record(ReachStage stage, bool reachable, double elapsed_seconds) {
    ++queries;
    if (reachable) ++positive_answers;
    decided[static_cast<int>(stage)] += 1;
    seconds[static_cast<int>(stage)] += elapsed_seconds;
  }

  void Record(ReachStage stage, ReachRule rule, bool reachable,
              double elapsed_seconds) {
    Record(stage, reachable, elapsed_seconds);
    rule_decided[static_cast<int>(rule)] += 1;
  }

  int64_t Decided(ReachStage stage) const {
    return decided[static_cast<int>(stage)];
  }

  int64_t RuleDecided(ReachRule rule) const {
    return rule_decided[static_cast<int>(rule)];
  }

  // Share of all queries served straight from the answer cache.
  double CacheHitRate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(Decided(ReachStage::kCache)) /
                              static_cast<double>(queries);
  }

  // Queries answered without a search: everything except the static
  // pruned BFS, the retired session rung and the dynamic search tiers
  // (overlay-patched, live BFS).
  int64_t DecidedWithoutFallback() const {
    return queries - Decided(ReachStage::kPrunedBfs) -
           Decided(ReachStage::kSessionFallback) -
           Decided(ReachStage::kOverlayPatched) -
           Decided(ReachStage::kLiveBfs);
  }

  double TotalSeconds() const {
    double total = 0;
    for (int s = 0; s < kNumReachStages; ++s) total += seconds[s];
    return total;
  }

  // One row per stage: decided count, share of all queries, cumulative and
  // mean latency.
  TablePrinter ToTable() const;
  // One row per populated rule: decided count and share of attributed
  // queries (empty when no rule-aware owner recorded anything).
  TablePrinter RuleTable() const;
  void Print(std::ostream& out) const;
  std::string ToString() const;

  // Adds `other`'s counters into this one. Cross-shard aggregation:
  // ReachServer snapshots merge every shard's stats through this, and the
  // benches merge per-family blocks the same way.
  void Merge(const ReachStats& other);

  void Reset() { *this = ReachStats{}; }
};

// Fixed-bucket latency histogram with power-of-two microsecond buckets:
// bucket 0 holds samples below 1 us, bucket i holds [2^(i-1), 2^i) us.
// Small (a few hundred bytes), mergeable, and quantile-queryable — each
// ReachServer shard keeps one so a stats snapshot can report per-shard and
// aggregate p50/p99 without retaining per-query samples.
class LatencyHistogram {
 public:
  // Covers up to ~2^26 us ≈ 67 s; slower samples clamp to the last bucket.
  static constexpr int kNumBuckets = 28;

  void Record(double seconds);
  void Merge(const LatencyHistogram& other);

  int64_t count() const { return count_; }
  double total_seconds() const { return total_seconds_; }
  double MeanSeconds() const {
    return count_ == 0 ? 0.0 : total_seconds_ / static_cast<double>(count_);
  }

  // Upper bound (seconds) of the bucket containing the q-quantile sample,
  // q in [0, 1]; 0 when empty. Bucket granularity makes this exact to
  // within a factor of two, which is plenty for p50/p99 regression lines.
  double QuantileSeconds(double q) const;

  // "n=1234 mean=13us p50=8us p99=211us" (for logs and bench tables).
  std::string Summary() const;

 private:
  int64_t buckets_[kNumBuckets] = {};
  int64_t count_ = 0;
  double total_seconds_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_STATS_H_
