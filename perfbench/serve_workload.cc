// serve / serve_adversarial: ReachServer over 2 shards, driven by 2
// closed-loop clients (the main thread and one more) for the length of
// the run. serve sends single Query calls of the mixed traffic model on
// the default labels core; serve_adversarial sends QueryBatch calls of 16
// pairs of the adversarial miner mix on a core with the observation
// battery, trained on a disjoint traffic sample.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/load_driver.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "workload/traffic_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tcdb::ReachCore;
using tcdb::ReachStage;

constexpr int kClients = 2;
constexpr int32_t kShards = 2;
constexpr double kWindowSeconds = 0.5;
// Seeds of the served traffic stream and of the battery's training
// sample. Like the graph, the stream is the same in every run; --seed
// only picks where in it the clients start. A stream drawn per seed made
// the cost of a run depend on which sources its Zipf draw made hottest.
constexpr uint64_t kTrafficSeed = 0x5e7e;
constexpr uint64_t kTrainingSeed = 0x7ea1;

struct Shape {
  NodeId nodes;
  int32_t out_degree;
  int32_t locality;
  tcdb::WorkloadKind kind;
  size_t batch;           // 1: single Query calls
  // Generated traffic, replayed round-robin. A run serves it several
  // times over, so every run does whole passes of the same work; a pass
  // is far larger than the answer caches, so replay earns no cache hits.
  int64_t stream_pairs;
};

constexpr Shape kServe{2000, 5, 200, tcdb::WorkloadKind::kMixed, 1,
                       int64_t{1} << 18};
constexpr Shape kAdversarial{5000, 5, 500, tcdb::WorkloadKind::kAdversarial,
                             16, int64_t{1} << 16};

// What one client thread recorded. A client replays its slice of the
// stream round-robin, so it keeps one answer slot per slice position,
// allocated and written during set-up: the first answer to a position
// fills its slot, later ones are compared with it. The recorder's memory
// is the same however many queries a run completes.
struct Client {
  Client(uint64_t seed, std::span<const std::pair<NodeId, NodeId>> slice)
      : pairs(slice), latency(seed), answers(slice.size(), kNoAnswer) {}

  void Record(size_t position, uint8_t answer) {
    uint8_t& slot = answers[position];
    if (slot == kNoAnswer) {
      slot = answer;
    } else if (answer != slot) {
      ++changed;
    }
  }

  std::span<const std::pair<NodeId, NodeId>> pairs;
  LatencySample latency;  // per call
  WindowedRate rate{0, kWindowSeconds, 0};  // queries per window
  std::vector<uint8_t> answers;
  int64_t changed = 0;  // answers that differ from the slot's first one
  int64_t queries = 0;
  int64_t failed = 0;
};

// Closed loop: each call waits for its answer before the next is sent.
// Whole calls only; stops at the first call boundary past `deadline`.
void DriveClient(tcdb::ReachServer* server, size_t batch, double deadline,
                 Client* client) {
  const auto pairs = client->pairs;
  size_t next = 0;
  while (true) {
    for (int i = 0; i < 64; ++i) {
      const double t0 = Now();
      if (batch == 1) {
        const auto [u, v] = pairs[next];
        auto answer = server->Query(u, v);
        if (answer.ok()) {
          client->Record(next, answer.value().reachable);
        } else {
          ++client->failed;
        }
      } else {
        auto answers = server->QueryBatch(pairs.subspan(next, batch));
        if (answers.ok()) {
          for (size_t i = 0; i < batch; ++i) {
            client->Record(next + i, answers.value()[i].reachable);
          }
        } else {
          ++client->failed;
        }
      }
      const double t1 = Now();
      client->latency.Add(t1 - t0);
      client->rate.Add(t1, static_cast<int64_t>(batch));
      client->queries += static_cast<int64_t>(batch);
      next += batch;
      if (next + batch > pairs.size()) next = 0;
    }
    const double now = Now();
    client->rate.SampleSteal(now);
    if (now >= deadline) break;
  }
}

// `count` pairs of one traffic-model stream of `kind`. The adversarial
// miner probes the baseline ladder, as tcdb_cli serve-bench does.
std::vector<std::pair<NodeId, NodeId>> Traffic(
    const tcdb::Digraph& graph, tcdb::WorkloadKind kind, uint64_t seed,
    int64_t count, const std::shared_ptr<const ReachCore>& baseline) {
  tcdb::TrafficModelOptions traffic;
  traffic.kind = kind;
  traffic.seed = seed;
  return tcdb::MakeModelWorkload(graph, traffic, count,
                                 tcdb::MakeLadderProbe(baseline));
}

}  // namespace

tcdb::Status RunServe(const RunOptions& options, bool adversarial,
                      RunReport* report, SelfTestInputs* capture) {
  const Shape& shape = adversarial ? kAdversarial : kServe;

  // Set-up: graph, labels core (+ battery), traffic, server.
  const double generate_start = Now();
  const ArcList arcs = PaperGraph(shape.nodes, shape.out_degree,
                                  shape.locality, kGraphSeed);
  const double generate_s = Now() - generate_start;
  const tcdb::Digraph graph(shape.nodes, arcs);

  const double build_start = Now();
  TCDB_ASSIGN_OR_RETURN(std::shared_ptr<const ReachCore> baseline,
                        ReachCore::Build(arcs, shape.nodes));
  std::shared_ptr<const ReachCore> core = baseline;
  if (adversarial) {
    // As `tcdb_cli serve-bench --battery`: train the battery's pivots on
    // an adversarial sample mined against the baseline ladder. Like the
    // graph, the trained core is the same in every run (its sample comes
    // from a fixed seed, disjoint from the served streams); the pivots a
    // sample happens to pick would otherwise move the residue, and with
    // it the cost of a run, by a third from seed to seed.
    tcdb::ReachIndexOptions index_options;
    index_options.oreach = true;
    index_options.oreach_traffic =
        Traffic(graph, shape.kind, kTrainingSeed, 4096, baseline);
    TCDB_ASSIGN_OR_RETURN(core,
                          ReachCore::Build(arcs, shape.nodes, index_options));
  }
  const double core_build_s = Now() - build_start;

  // The stream rotated to a seeded start. The start is a whole number of
  // calls in, so every seed serves the same calls, in another order.
  std::vector<std::pair<NodeId, NodeId>> stream = Traffic(
      graph, shape.kind, kTrafficSeed, shape.stream_pairs, baseline);
  const size_t calls = stream.size() / shape.batch;
  const size_t first = SubSeed(options.seed, 12) % calls * shape.batch;
  std::rotate(stream.begin(), stream.begin() + static_cast<ptrdiff_t>(first),
              stream.end());

  std::vector<std::unique_ptr<Client>> clients;
  const size_t slice = stream.size() / kClients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(
        SubSeed(options.seed, 20 + c),
        std::span<const std::pair<NodeId, NodeId>>(stream).subspan(
            static_cast<size_t>(c) * slice, slice)));
  }

  tcdb::ReachServerOptions server_options;
  server_options.num_shards = kShards;
  TCDB_ASSIGN_OR_RETURN(std::unique_ptr<tcdb::ReachServer> server,
                        tcdb::ReachServer::Start(core, server_options));

  // Timed phase.
  const double setup_s = SecondsSinceStart();
  const double start = Now();
  const double deadline = start + options.seconds;
  for (auto& client : clients) {
    client->rate = WindowedRate(start, kWindowSeconds, options.seconds);
  }
  std::thread second(DriveClient, server.get(), shape.batch, deadline,
                     clients[1].get());
  DriveClient(server.get(), shape.batch, deadline, clients[0].get());
  second.join();
  report->metrics["peak_rss_mb"] = PeakRssMib();
  server->Stop();
  const tcdb::ReachServerStats stats = server->Snapshot();

  std::vector<const LatencySample*> samples;
  WindowedRate rate(start, kWindowSeconds, options.seconds);
  int64_t queries = 0;
  for (const auto& client : clients) {
    samples.push_back(&client->latency);
    rate.Merge(client->rate);
    queries += client->queries;
    report->attempted += client->queries;
    report->failed += client->failed * static_cast<int64_t>(shape.batch);
  }

  // Check every recorded answer against the benchmark's reachability.
  ReferenceReach reference(arcs, shape.nodes);
  for (const auto& client : clients) {
    ServeRecord record;
    record.pairs.assign(client->pairs.begin(), client->pairs.end());
    record.answers = std::move(client->answers);
    const std::string error = CheckServe(&reference, record);
    if (!error.empty()) report->Fail(error);
    if (client->changed != 0) {
      report->Fail("serve: " + std::to_string(client->changed) +
                   " answers differ from an earlier answer to the same pair");
    }
    if (capture != nullptr && !adversarial && capture->serve.pairs.empty()) {
      capture->serve_nodes = shape.nodes;
      capture->serve_arcs = arcs;
      capture->serve = std::move(record);
    }
  }

  auto& m = report->metrics;
  m["setup_s"] = setup_s;
  m["ops_per_s"] = rate.MedianRate();
  // A batched call's answers all arrive when the call returns, so a
  // query's latency is its call's.
  m["op_p50_us"] = LatencySample::QuantileUs(samples, 0.5);

  m["graph.generate_s"] = generate_s;
  m["reach.core_build_s"] = core_build_s;
  std::string image;
  core->SerializeAppend(&image);
  m["reach.index_bytes_per_node"] =
      static_cast<double>(image.size()) / shape.nodes;
  const tcdb::ReachStats& merged = stats.merged;
  for (int s = 0; s < tcdb::kNumReachStages; ++s) {
    const auto stage = static_cast<ReachStage>(s);
    if (stage == ReachStage::kChainFrontier ||
        stage >= ReachStage::kIncremental) {
      continue;  // never reached by a static labels core
    }
    std::string name = tcdb::ReachStageName(stage);
    for (char& ch : name) ch = ch == '-' ? '_' : ch;
    m["reach.decided." + name] = static_cast<double>(merged.Decided(stage));
  }
  m["reach.cache_hit_ratio"] = merged.CacheHitRate();
  const int64_t residue = merged.Decided(ReachStage::kPrunedBfs) +
                          merged.Decided(ReachStage::kSessionFallback);
  const double residue_seconds =
      merged.seconds[static_cast<int>(ReachStage::kPrunedBfs)] +
      merged.seconds[static_cast<int>(ReachStage::kSessionFallback)];
  m["reach.fallback_us"] =
      residue == 0 ? 0.0 : 1e6 * residue_seconds / static_cast<double>(residue);
  m["reach.bfs_expansions"] = static_cast<double>(merged.bfs_expansions);
  m["reach.session_runs"] = static_cast<double>(merged.session_queries);
  m["oreach.decided"] =
      static_cast<double>(merged.Decided(ReachStage::kObservation));
  double call_seconds = 0;
  for (const auto& client : clients) {
    call_seconds += client->latency.total_seconds();
  }
  const double server_call_us =
      1e6 * call_seconds / static_cast<double>(queries);
  m["reach.server_call_us"] = server_call_us;
  m["reach.server_call_p99_us"] = LatencySample::QuantileUs(samples, 0.99);

  if (options.trace) {
    // The bare service on the same stream and call shape, one thread: the
    // difference to the server's per-query call time is dispatch.
    auto service = tcdb::ReachService::Create(core);
    const int64_t replay = std::min<int64_t>(queries, shape.stream_pairs);
    const std::span<const std::pair<NodeId, NodeId>> pairs(
        stream.data(), static_cast<size_t>(replay));
    const double service_start = Now();
    for (size_t next = 0; next + shape.batch <= pairs.size();
         next += shape.batch) {
      if (shape.batch == 1) {
        TCDB_RETURN_IF_ERROR(
            service->Query(pairs[next].first, pairs[next].second).status());
      } else {
        TCDB_RETURN_IF_ERROR(
            service->QueryBatch(pairs.subspan(next, shape.batch)).status());
      }
    }
    const double service_us = 1e6 * (Now() - service_start) /
                              static_cast<double>(service->stats().queries);
    m["reach.service_us"] = service_us;
    m["reach.dispatch_us"] = server_call_us - service_us;

    // The O(1) label decide alone over the same pairs.
    const double decide_start = Now();
    int64_t decided = 0;
    for (const auto& [u, v] : pairs) {
      ReachStage stage;
      decided += core->DecideCondensed(core->node_map[u], core->node_map[v],
                                       &stage) !=
                 tcdb::ReachIndex::Verdict::kUnknown;
    }
    m["reach.label_decide_us"] =
        1e6 * (Now() - decide_start) / static_cast<double>(pairs.size());
    if (decided > static_cast<int64_t>(pairs.size())) {
      return tcdb::Status::Internal("more decides than pairs");
    }

    // The chain backend built on the same graph, for reference.
    tcdb::ReachIndexOptions chain_options;
    chain_options.backend = tcdb::ReachBackend::kChain;
    const double chain_start = Now();
    TCDB_ASSIGN_OR_RETURN(std::shared_ptr<const ReachCore> chain,
                          ReachCore::Build(arcs, shape.nodes, chain_options));
    m["scale.chain_build_s"] = Now() - chain_start;
    std::string chain_image;
    chain->SerializeAppend(&chain_image);
    m["scale.chain_bytes_per_node"] =
        static_cast<double>(chain_image.size()) / shape.nodes;
  }
  return tcdb::Status::Ok();
}

}  // namespace perfbench
