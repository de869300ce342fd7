// Causal span tracing and critical-path attribution (src/obs/span.h,
// src/obs/critical_path.h).
//
// The contracts under test:
//
//  - span ids derive only from structural indices (node, round, stage,
//    ordinal) — deterministic, distinct, never wall clock;
//  - for every round, the scheduler's per-stage ledger sums exactly to the
//    measured round time (the ContinuityAuditor enforces the epsilon) and
//    the analyzer's dominant verdict names the largest charge;
//  - faulted runs charge a visible kRetry share;
//  - the streaming analyzer and the static Analyze() walk agree;
//  - on faulted 2- and 4-node cluster runs, whose nodes advance each
//    epoch as parallel pool tasks, every exported artifact (trace
//    summaries, the shared template sink's stream, census and viewer
//    records, Perfetto, Prometheus, JSON snapshot, folded stacks,
//    critical-path JSON, cluster signature) is byte-identical across
//    worker counts {1, 2, 8}.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/critical_path.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sim/workload.h"
#include "src/util/worker_pool.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

TEST(SpanIdTest, IdsAreDeterministicAndDistinct) {
  // Same structural indices, same ids — across processes and runs.
  EXPECT_EQ(obs::RoundTraceId(2, 17), obs::RoundTraceId(2, 17));
  EXPECT_NE(obs::RoundTraceId(2, 17), obs::RoundTraceId(2, 18));
  EXPECT_NE(obs::RoundTraceId(2, 17), obs::RoundTraceId(3, 17));
  // The single-node id (-1) must not collide with real node 0.
  EXPECT_NE(obs::RoundTraceId(-1, 5), obs::RoundTraceId(0, 5));

  const uint64_t trace = obs::RoundTraceId(2, 17);
  const uint64_t root = obs::RootSpanId(trace);
  EXPECT_NE(root, 0u);
  EXPECT_NE(root, trace);
  EXPECT_NE(obs::ChildSpanId(root, obs::SpanStage::kTransfer, 0),
            obs::ChildSpanId(root, obs::SpanStage::kTransfer, 1));
  EXPECT_NE(obs::ChildSpanId(root, obs::SpanStage::kTransfer, 0),
            obs::ChildSpanId(root, obs::SpanStage::kSeek, 0));
  EXPECT_NE(obs::ChildSpanId(root, obs::SpanStage::kWave, 0),
            obs::ChildSpanId(obs::RootSpanId(obs::RoundTraceId(2, 18)), obs::SpanStage::kWave, 0));
}

// One planned-round workload on one spindle with spans on: the analyzer
// sits between the scheduler and the tee, the strict auditor checks every
// span and verdict inline.
struct SpanRun {
  std::vector<obs::RoundCriticalPath> rounds;
  std::string critical_path_json;
  std::string folded;
  std::string static_json;  // CriticalPathAnalyzer::Analyze over the log
  bool auditor_clean = false;
  std::string auditor_report;
  int64_t span_events = 0;
};

SpanRun RunSpanWorkload(bool fault_disk) {
  constexpr int kStreams = 3;
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);

  obs::TraceLog log;
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee;
  tee.Add(&log);
  tee.Add(&auditor);
  obs::CriticalPathAnalyzer analyzer(obs::CriticalPathOptions{&tee});

  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  EXPECT_TRUE(placement.ok());
  std::vector<PlaybackRequest> requests;
  for (int i = 0; i < kStreams; ++i) {
    VideoSource source(TestVideo(), 100 + static_cast<uint64_t>(i));
    Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, 3.0);
    EXPECT_TRUE(recorded.ok());
    Result<const Strand*> strand = store.Get(recorded->strand);
    EXPECT_TRUE(strand.ok());
    PlaybackRequest request;
    for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
      request.blocks.push_back(*(*strand)->index().Lookup(b));
    }
    request.block_duration = (*strand)->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement->granularity};
    requests.push_back(std::move(request));
  }

  if (fault_disk) {
    disk.fault_injector().set_read_fault_rate(0.2);
  }

  Simulator sim;
  SchedulerOptions options;
  options.trace = &analyzer;
  options.emit_spans = true;
  options.service_order = ServiceOrder::kPlanned;
  const double avg = std::max(store.AverageScatteringSec(), 1e-4);
  ServiceScheduler scheduler(&store, &sim, AdmissionControl(TestStorage(), avg), options);
  for (PlaybackRequest& request : requests) {
    EXPECT_TRUE(scheduler.SubmitPlayback(std::move(request)).ok());
  }
  scheduler.RunUntilIdle();

  SpanRun run;
  run.rounds = analyzer.rounds();
  run.critical_path_json = analyzer.ToJson();
  run.folded = obs::CriticalPathAnalyzer::FoldedStacks(log.events());
  run.static_json = obs::CriticalPathAnalyzer::ToJson(obs::CriticalPathAnalyzer::Analyze(log.events()));
  run.auditor_clean = auditor.Clean();
  run.auditor_report = auditor.Report();
  for (const obs::TraceEvent& event : log.events()) {
    run.span_events += event.kind == obs::TraceEventKind::kSpan ? 1 : 0;
  }
  return run;
}

TEST(CriticalPathTest, StageLedgerSumsToRoundDuration) {
  const SpanRun run = RunSpanWorkload(/*fault_disk=*/false);
  EXPECT_TRUE(run.auditor_clean) << run.auditor_report;
  ASSERT_GT(run.rounds.size(), 1u);
  EXPECT_GT(run.span_events, 0);
  for (const obs::RoundCriticalPath& round : run.rounds) {
    // The exact-partition invariant: every advanced microsecond charged to
    // one stage, queue residual non-negative.
    EXPECT_LE(std::abs(round.stages.Total() - round.duration),
              obs::ContinuityAuditor::kStageSumEpsilonUsec)
        << "round " << round.round;
    EXPECT_GE(round.stages.queue, 0) << "round " << round.round;
    // The dominant verdict names the largest charge.
    const SimDuration charges[] = {round.stages.queue,     round.stages.seek,
                                   round.stages.transfer,  round.stages.retry,
                                   round.stages.cache,     round.stages.merge_patch,
                                   round.stages.append};
    EXPECT_EQ(round.dominant_usec, *std::max_element(std::begin(charges), std::end(charges)))
        << "round " << round.round;
  }
}

TEST(CriticalPathTest, FaultedDiskChargesRetryStage) {
  const SpanRun run = RunSpanWorkload(/*fault_disk=*/true);
  EXPECT_TRUE(run.auditor_clean) << run.auditor_report;
  ASSERT_FALSE(run.rounds.empty());
  SimDuration retry_total = 0;
  for (const obs::RoundCriticalPath& round : run.rounds) {
    retry_total += round.stages.retry;
    EXPECT_LE(std::abs(round.stages.Total() - round.duration),
              obs::ContinuityAuditor::kStageSumEpsilonUsec)
        << "round " << round.round;
  }
  EXPECT_GT(retry_total, 0) << "faulted reads produced no retry charge";
}

TEST(CriticalPathTest, StreamingAndStaticWalksAgree) {
  const SpanRun run = RunSpanWorkload(/*fault_disk=*/false);
  EXPECT_EQ(run.critical_path_json, run.static_json);
}

TEST(CriticalPathTest, ArtifactsAreWellFormed) {
  const SpanRun run = RunSpanWorkload(/*fault_disk=*/false);
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(run.critical_path_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->StringOr("kind", ""), "vafs.critical_path");
  const obs::JsonValue* rounds = parsed->Find("rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->array.size(), run.rounds.size());

  // Folded stacks: "frame;frame usec" lines, every count positive.
  ASSERT_FALSE(run.folded.empty());
  size_t start = 0;
  while (start < run.folded.size()) {
    size_t end = run.folded.find('\n', start);
    if (end == std::string::npos) {
      end = run.folded.size();
    }
    const std::string line = run.folded.substr(start, end - start);
    if (!line.empty()) {
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
      EXPECT_NE(line.find("round r"), std::string::npos) << "no round root in: " << line;
    }
    start = end + 1;
  }
}

// --- Parallel node epochs: byte-identity across worker counts -------------

// One faulted cluster run on `workers` wall-clock workers, every external
// artifact rendered to bytes.
struct ClusterImage {
  std::string signature;
  std::string slo_json;
  std::string critical_path_json;
  std::string node_traces;
  std::string shared_trace;  // the template sink every node forwards to
  std::string census;
  std::string viewers;
  std::string perfetto;
  std::string prometheus;
  std::string snapshots;
  std::string folded;
  int64_t shared_events = 0;
  int first_window_nodes = 0;  // nodes that admitted a viewer in epoch 0
};

// Two scenarios, both killing node 0 mid-epoch at 1.4 s:
//  - 2 nodes, one hot title, three viewers;
//  - 4 nodes, one hot and three cold titles, eight viewers of every title
//    arriving in the first two epochs, so several nodes admit inside the
//    same window (the kill then sheds the cold title node 0 alone held and
//    fails the hot title's viewers over).
ClusterImage RunFaultedCluster(int workers, int nodes) {
  WorkerPool pool(workers);
  obs::TraceLog shared(0);  // outlives the coordinator
  cluster::ClusterOptions options;
  options.nodes = nodes;
  options.node_config = TestConfig();
  options.node_config.scheduler.service_order = ServiceOrder::kPlanned;
  options.node_config.scheduler.worker_pool = &pool;
  options.node_config.scheduler.trace = &shared;
  options.node_config.block_cache.capacity_bytes = 1 << 22;
  options.node_config.sessions.batch_window_sec = 1.0;
  options.node_config.sessions.max_patch_blocks = 64;
  options.node_config.telemetry.enabled = true;
  options.node_config.telemetry.trace_capacity = 0;  // retain everything
  options.node_config.telemetry.spans = true;
  options.media = TestVideo();
  options.epoch_sec = 0.25;
  options.hot_replicas = 2;
  options.cold_replicas = 1;
  options.failover_bound_epochs = 2;
  cluster::ClusterCoordinator coordinator(options);
  const int64_t titles = nodes == 2 ? 1 : nodes;
  for (int64_t t = 0; t < titles; ++t) {
    EXPECT_TRUE(coordinator.AddTitle(t, 100 + static_cast<uint64_t>(t), 4.0, /*hot=*/t == 0).ok());
  }
  EXPECT_TRUE(coordinator.CheckpointAll().ok());

  std::vector<sim::WorkloadArrival> arrivals;
  const std::vector<double> times =
      nodes == 2 ? std::vector<double>{0.1, 0.2, 0.5} : std::vector<double>{0.05, 0.3};
  for (const double time_sec : times) {
    for (int64_t t = 0; t < titles; ++t) {
      for (int copy = 0; copy < (nodes == 2 ? 1 : 4); ++copy) {
        sim::WorkloadArrival arrival;
        arrival.time_sec = time_sec + 0.01 * static_cast<double>(t * 4 + copy);
        arrival.title = t;
        arrivals.push_back(arrival);
      }
    }
  }
  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 1.4;
  kill.node = 0;
  coordinator.Run(arrivals, {kill}, 8.0);

  ClusterImage image;
  image.signature = coordinator.Signature();
  image.slo_json = coordinator.ClusterSloJson();
  for (const obs::TraceEvent& event : shared.events()) {
    image.shared_trace += obs::TraceEventSummary(event);
    image.shared_trace += '\n';
  }
  image.shared_events = static_cast<int64_t>(shared.events().size());
  const cluster::ClusterCensus& census = coordinator.census();
  for (const int64_t count :
       {census.admitted, census.rejected, census.finished, census.failed_over, census.shed,
        census.nodes_killed, census.nodes_restarted, census.re_replications,
        census.repair_blocks, census.repair_failures}) {
    image.census += std::to_string(count) + " ";
  }
  std::vector<bool> first_window(static_cast<size_t>(nodes), false);
  for (const cluster::ViewerRecord& viewer : coordinator.viewers()) {
    image.viewers += std::to_string(viewer.id) + " node=" + std::to_string(viewer.node) +
                     " state=" + std::to_string(static_cast<int>(viewer.state)) +
                     " open=" + std::to_string(viewer.open_sec) +
                     " start=" + std::to_string(viewer.start_sec) +
                     " request=" + std::to_string(viewer.ticket.request) +
                     " failovers=" + std::to_string(viewer.failovers) + "\n";
    if (viewer.failovers == 0 && viewer.node >= 0 && viewer.open_sec < options.epoch_sec &&
        viewer.state != cluster::ViewerRecord::State::kRejected) {
      first_window[static_cast<size_t>(viewer.node)] = true;
    }
  }
  image.first_window_nodes =
      static_cast<int>(std::count(first_window.begin(), first_window.end(), true));
  std::vector<obs::RoundCriticalPath> merged;
  for (int n = 0; n < coordinator.nodes(); ++n) {
    MultimediaFileSystem& fs = coordinator.node(n).fs();
    obs::TraceLog* log = fs.trace_log();
    EXPECT_NE(log, nullptr);
    for (const obs::TraceEvent& event : log->events()) {
      image.node_traces += obs::TraceEventSummary(event);
      image.node_traces += '\n';
    }
    image.perfetto += obs::PerfettoExporter(&log->events()).Export();
    image.prometheus += obs::PrometheusExporter(fs.metrics(), log).Export();
    image.snapshots += fs.TelemetrySnapshotJson();
    image.folded += obs::CriticalPathAnalyzer::FoldedStacks(log->events());
    if (const obs::CriticalPathAnalyzer* analyzer = fs.critical_path(); analyzer != nullptr) {
      merged.insert(merged.end(), analyzer->rounds().begin(), analyzer->rounds().end());
    }
  }
  image.critical_path_json = obs::CriticalPathAnalyzer::ToJson(merged);
  EXPECT_TRUE(coordinator.AuditsClean()) << coordinator.AuditReport();
  return image;
}

void ExpectSameClusterImage(const ClusterImage& image, const ClusterImage& reference,
                            int workers) {
  EXPECT_EQ(image.signature, reference.signature) << "workers=" << workers;
  EXPECT_EQ(image.slo_json, reference.slo_json) << "workers=" << workers;
  EXPECT_EQ(image.critical_path_json, reference.critical_path_json) << "workers=" << workers;
  EXPECT_EQ(image.node_traces, reference.node_traces) << "workers=" << workers;
  EXPECT_EQ(image.shared_trace, reference.shared_trace) << "workers=" << workers;
  EXPECT_EQ(image.census, reference.census) << "workers=" << workers;
  EXPECT_EQ(image.viewers, reference.viewers) << "workers=" << workers;
  EXPECT_EQ(image.perfetto, reference.perfetto) << "workers=" << workers;
  EXPECT_EQ(image.prometheus, reference.prometheus) << "workers=" << workers;
  EXPECT_EQ(image.snapshots, reference.snapshots) << "workers=" << workers;
  EXPECT_EQ(image.folded, reference.folded) << "workers=" << workers;
}

TEST(SpanClusterDeterminismTest, ExportsAreByteIdenticalAcrossWorkerCounts) {
  const ClusterImage reference = RunFaultedCluster(1, /*nodes=*/2);
  EXPECT_FALSE(reference.node_traces.empty());
  EXPECT_NE(reference.node_traces.find("span"), std::string::npos)
      << "no spans in the node trace stream";
  EXPECT_NE(reference.critical_path_json.find("\"rounds\":["), std::string::npos);
  // The faulted node's death must be visible, and the snapshot must carry
  // the critical-path table.
  EXPECT_NE(reference.signature.find("state=dead"), std::string::npos);
  EXPECT_NE(reference.snapshots.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(reference.prometheus.find("vafs_trace_events_dropped_total"), std::string::npos);
  // Every node forwards to the shared sink: it holds the nodes' streams
  // (fencing and failover included) and nothing else.
  EXPECT_GT(reference.shared_events, 0);
  EXPECT_LE(reference.shared_trace.size(), reference.node_traces.size());

  for (int workers : {2, 8}) {
    ExpectSameClusterImage(RunFaultedCluster(workers, /*nodes=*/2), reference, workers);
  }
}

TEST(SpanClusterDeterminismTest, ConcurrentAdmissionsAcrossFourNodesAreByteIdentical) {
  const ClusterImage reference = RunFaultedCluster(1, /*nodes=*/4);
  EXPECT_GE(reference.first_window_nodes, 3) << "too few nodes admitted in the first epoch";
  EXPECT_NE(reference.signature.find("state=dead"), std::string::npos);
  EXPECT_NE(reference.viewers.find("failovers=1"), std::string::npos) << "nobody failed over";
  for (int workers : {2, 8}) {
    ExpectSameClusterImage(RunFaultedCluster(workers, /*nodes=*/4), reference, workers);
  }
}

}  // namespace
}  // namespace vafs
