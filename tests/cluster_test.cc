// Cluster sharding and failover (src/cluster/): placement, routing,
// node-loss failover within the stamped bound, explicit load shedding,
// journal-replay restart with catalog reconciliation (audited clean even
// when the dead node held requests nobody stopped), token-bucket
// re-replication, byte-identical replay of a seeded failure run, and
// node-order delivery to a shared sink while nodes run in parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/trace.h"
#include "src/sim/workload.h"
#include "src/util/worker_pool.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

using cluster::ClusterCoordinator;
using cluster::ClusterOptions;
using cluster::NodeState;
using cluster::ViewerRecord;

ClusterOptions TestClusterOptions(int nodes) {
  ClusterOptions options;
  options.nodes = nodes;
  options.node_config = TestConfig();
  options.node_config.scheduler.service_order = ServiceOrder::kPlanned;
  options.node_config.block_cache.capacity_bytes = 1 << 22;
  options.node_config.sessions.batch_window_sec = 1.0;
  options.node_config.sessions.max_patch_blocks = 64;
  options.media = TestVideo();
  options.epoch_sec = 0.25;
  options.hot_replicas = 2;
  options.cold_replicas = 1;
  options.failover_bound_epochs = 2;
  return options;
}

std::vector<sim::WorkloadArrival> ArrivalsAt(const std::vector<std::pair<double, int64_t>>& spec) {
  std::vector<sim::WorkloadArrival> arrivals;
  for (const auto& [time_sec, title] : spec) {
    sim::WorkloadArrival arrival;
    arrival.time_sec = time_sec;
    arrival.title = title;
    arrivals.push_back(arrival);
  }
  return arrivals;
}

int CountEvents(const ClusterCoordinator& coordinator, obs::TraceEventKind kind) {
  int count = 0;
  for (const obs::TraceEvent& event :
       const_cast<ClusterCoordinator&>(coordinator).trace_log().events()) {
    count += event.kind == kind ? 1 : 0;
  }
  return count;
}

TEST(ClusterTest, PlacementSpreadsReplicasAndRoutesViewers) {
  ClusterCoordinator coordinator(TestClusterOptions(2));
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 2.0, /*hot=*/true).ok());
  ASSERT_TRUE(coordinator.AddTitle(1, 101, 2.0, /*hot=*/false).ok());
  ASSERT_TRUE(coordinator.AddTitle(2, 102, 2.0, /*hot=*/false).ok());

  coordinator.Run(ArrivalsAt({{0.1, 0}, {0.15, 1}, {0.2, 2}, {0.3, 0}}), {}, 4.0);

  EXPECT_EQ(coordinator.census().admitted, 4);
  EXPECT_EQ(coordinator.census().rejected, 0);
  EXPECT_EQ(coordinator.census().finished, 4);
  EXPECT_EQ(coordinator.census().shed, 0);
  // The two cold titles spread across both nodes (least-loaded placement).
  std::vector<int> nodes_used;
  for (const ViewerRecord& viewer : coordinator.viewers()) {
    nodes_used.push_back(viewer.node);
  }
  EXPECT_TRUE(std::find(nodes_used.begin(), nodes_used.end(), 0) != nodes_used.end());
  EXPECT_TRUE(std::find(nodes_used.begin(), nodes_used.end(), 1) != nodes_used.end());
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, ViewersOfOneTitleOnOneNodeShareStreams) {
  ClusterCoordinator coordinator(TestClusterOptions(1));
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 3.0, /*hot=*/false).ok());

  // Three viewers inside the batch window: one leader, two riders.
  coordinator.Run(ArrivalsAt({{0.1, 0}, {0.4, 0}, {0.7, 0}}), {}, 5.0);

  EXPECT_EQ(coordinator.census().admitted, 3);
  const SessionCensus& sessions = coordinator.node(0).fs().session_manager()->census();
  EXPECT_EQ(sessions.leaders, 1);
  EXPECT_EQ(sessions.batched, 2);
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, NodeKillFailsViewersOverWithinStampedBound) {
  ClusterOptions options = TestClusterOptions(2);
  ClusterCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 4.0, /*hot=*/true).ok());
  ASSERT_TRUE(coordinator.CheckpointAll().ok());

  // Both viewers land on distinct nodes (least-loaded routing); node 0
  // dies under its viewer at 1.4 s and never comes back.
  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 1.4;
  kill.node = 0;
  coordinator.Run(ArrivalsAt({{0.1, 0}, {0.2, 0}}), {kill}, 8.0);

  EXPECT_EQ(coordinator.census().admitted, 2);
  EXPECT_EQ(coordinator.census().nodes_killed, 1);
  EXPECT_EQ(coordinator.census().failed_over, 1);
  EXPECT_EQ(coordinator.census().shed, 0);
  EXPECT_EQ(coordinator.census().finished, 2);
  EXPECT_EQ(coordinator.node(0).state(), NodeState::kDead);

  EXPECT_EQ(CountEvents(coordinator, obs::TraceEventKind::kNodeDown), 1);
  ASSERT_EQ(CountEvents(coordinator, obs::TraceEventKind::kFailover), 1);
  for (const obs::TraceEvent& event : coordinator.trace_log().events()) {
    if (event.kind != obs::TraceEventKind::kFailover) {
      continue;
    }
    EXPECT_EQ(event.node, 1);  // resumed on the survivor
    EXPECT_GT(event.round_budget, 0);
    EXPECT_LE(event.duration, event.round_budget);  // the auditor's rule
  }
  // Every viewer is accounted for: no silent stream deaths.
  for (const ViewerRecord& viewer : coordinator.viewers()) {
    EXPECT_EQ(viewer.state, ViewerRecord::State::kFinished);
  }
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, ShedsLowestPriorityViewersWhenSurvivorIsFull) {
  ClusterOptions options = TestClusterOptions(2);
  options.node_config.scheduler.cache_aware_admission = false;
  ClusterOptions probe_options = options;
  ClusterCoordinator probe(probe_options);
  ASSERT_TRUE(probe.AddTitle(0, 100, 6.0, /*hot=*/true).ok());
  // Measure one node's Eq. 17 ceiling for this title by packing distinct
  // solo streams onto node 0 until admission refuses.
  int64_t n_max = 0;
  {
    MultimediaFileSystem& fs = probe.node(0).fs();
    const RopeId rope = *probe.ReplicaRope(0, 0);
    while (n_max < 64) {
      Result<RequestId> id = fs.Play("probe", rope, Medium::kVideo, TimeInterval{0.0, 6.0});
      if (!id.ok()) {
        break;
      }
      ++n_max;
    }
    ASSERT_GT(n_max, 1);
    ASSERT_LT(n_max, 64);
  }

  // Fresh cluster: batching disabled so every viewer is a full stream
  // (riders would otherwise share slots and nothing would shed).
  options.node_config.sessions.batch_window_sec = 0.0;
  options.node_config.sessions.max_patch_blocks = 0;
  ClusterCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 6.0, /*hot=*/true).ok());

  // Saturate BOTH nodes to their ceiling, then kill node 0: the survivor
  // has no free slots, so every orphan must shed — lowest priority first,
  // each with an explicit kShedLoad record.
  std::vector<std::pair<double, int64_t>> spec;
  for (int64_t i = 0; i < 2 * n_max; ++i) {
    spec.push_back({0.1 + 0.01 * static_cast<double>(i), 0});
  }
  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 2.0;
  kill.node = 0;
  coordinator.Run(ArrivalsAt(spec), {kill}, 10.0);

  EXPECT_EQ(coordinator.census().admitted, 2 * n_max);
  EXPECT_GT(coordinator.census().shed, 0);
  EXPECT_EQ(CountEvents(coordinator, obs::TraceEventKind::kShedLoad),
            static_cast<int>(coordinator.census().shed));
  // No orphan vanished without a verdict.
  for (const ViewerRecord& viewer : coordinator.viewers()) {
    EXPECT_TRUE(viewer.state == ViewerRecord::State::kFinished ||
                viewer.state == ViewerRecord::State::kShed);
  }
  // Anyone who did fail over outranks (arrived before) everyone shed.
  int64_t best_shed = -1;
  for (const ViewerRecord& viewer : coordinator.viewers()) {
    if (viewer.state == ViewerRecord::State::kShed &&
        (best_shed < 0 || viewer.priority < best_shed)) {
      best_shed = viewer.priority;
    }
  }
  for (const ViewerRecord& viewer : coordinator.viewers()) {
    if (viewer.failovers > 0 && best_shed >= 0) {
      EXPECT_LT(viewer.priority, best_shed);
    }
  }
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, RestartReplaysJournalAndReconcilesCatalog) {
  ClusterOptions options = TestClusterOptions(2);
  options.reconcile_titles_per_epoch = 1;  // force the walk across epochs
  ClusterCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 2.0, /*hot=*/true).ok());
  ASSERT_TRUE(coordinator.CheckpointAll().ok());
  // Placed after the checkpoint: only the intent journal knows about it,
  // so a restart that loses the journal replay would drop the replica.
  ASSERT_TRUE(coordinator.AddTitle(1, 101, 2.0, /*hot=*/true).ok());

  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 0.5;
  kill.node = 0;
  kill.restart_after_sec = 1.0;
  coordinator.Run(ArrivalsAt({{0.1, 0}}), {kill}, 6.0);

  EXPECT_EQ(coordinator.census().nodes_killed, 1);
  EXPECT_EQ(coordinator.census().nodes_restarted, 1);
  EXPECT_EQ(coordinator.node(0).state(), NodeState::kUp);
  ASSERT_EQ(CountEvents(coordinator, obs::TraceEventKind::kNodeUp), 1);
  for (const obs::TraceEvent& event : coordinator.trace_log().events()) {
    if (event.kind == obs::TraceEventKind::kNodeUp) {
      // Both replicas verified — including the journal-only title.
      EXPECT_EQ(event.blocks, 2);
    }
  }
  // A viewer arriving after the restart routes to the readmitted node.
  coordinator.Run(ArrivalsAt({{6.1, 0}, {6.15, 1}}), {}, 10.0);
  EXPECT_EQ(coordinator.census().rejected, 0);
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, RestartedNodeAuditsCleanAfterLosingUnfencedRequests) {
  ClusterCoordinator coordinator(TestClusterOptions(2));
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 4.0, /*hot=*/true).ok());
  ASSERT_TRUE(coordinator.CheckpointAll().ok());
  // A stream started on node 0 directly, not through the coordinator: the
  // coordinator never fences it, so it is still in flight when the node
  // dies and when its scheduler is rebuilt at restart.
  MultimediaFileSystem& fs = coordinator.node(0).fs();
  ASSERT_TRUE(fs.Play("local", *coordinator.ReplicaRope(0, 0), Medium::kVideo,
                      TimeInterval{0.0, 4.0})
                  .ok());

  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 0.5;
  kill.node = 0;
  kill.restart_after_sec = 1.0;
  coordinator.Run({}, {kill}, 3.0);
  ASSERT_EQ(coordinator.census().nodes_restarted, 1);
  ASSERT_EQ(coordinator.node(0).state(), NodeState::kUp);

  // Fresh viewers alternate between the two replica holders, so the
  // restarted node runs admission again against its rebuilt scheduler.
  coordinator.Run(ArrivalsAt({{3.1, 0}, {3.15, 0}, {3.2, 0}, {3.25, 0}}), {}, 9.0);
  EXPECT_EQ(coordinator.census().admitted, 4);
  int on_restarted = 0;
  for (const ViewerRecord& viewer : coordinator.viewers()) {
    on_restarted += viewer.node == 0 ? 1 : 0;
  }
  EXPECT_GT(on_restarted, 0);
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, RepairTokenBucketRestoresLostReplicas) {
  ClusterOptions options = TestClusterOptions(3);
  options.repair_tokens_per_epoch = 1;  // several epochs to afford one title
  options.repair_token_burst = 1;
  ClusterCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddTitle(0, 100, 4.0, /*hot=*/true).ok());

  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 0.5;
  kill.node = 0;
  coordinator.Run({}, {kill}, 30.0);

  EXPECT_EQ(coordinator.census().re_replications, 1);
  EXPECT_GT(coordinator.census().repair_blocks, 0);
  EXPECT_EQ(coordinator.LiveReplicas(0), 2);  // back at its target
  ASSERT_EQ(CountEvents(coordinator, obs::TraceEventKind::kReReplicate), 1);
  SimTime repaired_at = 0;
  int64_t title_blocks = 0;
  for (const obs::TraceEvent& event : coordinator.trace_log().events()) {
    if (event.kind == obs::TraceEventKind::kReReplicate) {
      repaired_at = event.time;
      title_blocks = event.blocks;
      EXPECT_EQ(event.node, 2);  // the node not already holding the title
      EXPECT_GE(event.blocks, 2);
    }
  }
  // The bucket starts at burst (1 block) and refills 1 block/epoch: a
  // multi-block title cannot be afforded at the detection boundary, so
  // repair lands (blocks - burst) epochs later — throttled, not flooding
  // the cluster the instant the node dies.
  EXPECT_GE(repaired_at, SecondsToUsec(kill.time_sec) +
                             (title_blocks - 1) * SecondsToUsec(options.epoch_sec));
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

TEST(ClusterTest, SeededFailureRunReplaysByteIdentically) {
  const auto run_once = [](std::string* slo_json) {
    ClusterOptions options = TestClusterOptions(2);
    ClusterCoordinator coordinator(options);
    EXPECT_TRUE(coordinator.AddTitle(0, 100, 3.0, /*hot=*/true).ok());
    EXPECT_TRUE(coordinator.AddTitle(1, 101, 3.0, /*hot=*/false).ok());
    sim::WorkloadOptions workload;
    workload.titles = 2;
    workload.duration_sec = 2.0;
    workload.arrival_rate_per_sec = 2.0;
    workload.seed = 77;
    sim::WorkloadOptions::NodeFailure kill;
    kill.time_sec = 1.2;
    kill.node = 1;
    workload.node_failures = {kill};
    const sim::WorkloadEngine engine(workload);
    coordinator.Run(engine.Generate(), engine.FailureSchedule(), 8.0);
    if (slo_json != nullptr) {
      *slo_json = coordinator.ClusterSloJson();
    }
    return coordinator.Signature();
  };
  std::string slo_a;
  std::string slo_b;
  EXPECT_EQ(run_once(&slo_a), run_once(&slo_b));
  EXPECT_EQ(slo_a, slo_b);
  EXPECT_NE(slo_a.find("\"kind\":\"vafs.slo.cluster\""), std::string::npos);
}

TEST(ClusterTest, SharedSinkReceivesEachEpochInNodeOrder) {
  // A sequential advance hands the shared template sink node 0's epoch,
  // then node 1's, and so on. Each node's own log sees its events in the
  // order the shared sink does, and here no boundary work emits node
  // events, so every epoch's shared events must be the nodes' new log
  // entries concatenated in node order — even with the nodes running on
  // four workers at once.
  constexpr int kNodes = 4;
  WorkerPool pool(4);
  obs::TraceLog shared;
  ClusterOptions options = TestClusterOptions(kNodes);
  options.node_config.scheduler.worker_pool = &pool;
  options.node_config.scheduler.trace = &shared;
  options.node_config.telemetry.trace_capacity = 0;  // retain everything
  ClusterCoordinator coordinator(options);
  for (int64_t t = 0; t < kNodes; ++t) {
    ASSERT_TRUE(coordinator.AddTitle(t, 100 + static_cast<uint64_t>(t), 2.0, /*hot=*/false).ok());
  }
  const std::vector<sim::WorkloadArrival> arrivals =
      ArrivalsAt({{0.05, 0}, {0.06, 1}, {0.07, 2}, {0.08, 3}, {0.3, 0}, {0.31, 2}});

  const auto render = [](const std::vector<obs::TraceEvent>& events, size_t from) {
    std::string text;
    for (size_t i = from; i < events.size(); ++i) {
      text += obs::TraceEventSummary(events[i]) + "\n";
    }
    return text;
  };
  std::vector<size_t> node_seen;
  for (int n = 0; n < kNodes; ++n) {
    node_seen.push_back(coordinator.node(n).fs().trace_log()->events().size());
  }
  size_t shared_seen = shared.events().size();
  size_t next = 0;
  int concurrent_epochs = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    const double end_sec = options.epoch_sec * (epoch + 1);
    std::vector<sim::WorkloadArrival> slice;
    while (next < arrivals.size() && arrivals[next].time_sec < end_sec) {
      slice.push_back(arrivals[next++]);
    }
    coordinator.Run(slice, {}, end_sec);

    std::string expected;
    int emitting = 0;
    for (int n = 0; n < kNodes; ++n) {
      const std::vector<obs::TraceEvent>& events = coordinator.node(n).fs().trace_log()->events();
      emitting += events.size() > node_seen[n] ? 1 : 0;
      expected += render(events, node_seen[n]);
      node_seen[n] = events.size();
    }
    EXPECT_EQ(render(shared.events(), shared_seen), expected) << "epoch " << epoch;
    shared_seen = shared.events().size();
    concurrent_epochs += emitting >= 2 ? 1 : 0;
  }
  EXPECT_EQ(coordinator.census().admitted, 6);
  EXPECT_GE(concurrent_epochs, 4) << "too few epochs with several nodes at work";
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
}

}  // namespace
}  // namespace vafs
