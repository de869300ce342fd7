// cluster_16: sixteen storage nodes behind a ClusterCoordinator, each at
// the vod_node operating point with a small share of its load.
//
// A Zipf library (the hot head on two replicas) draws viewers over the
// run, one flash crowd included; one node is killed mid-run and its viewers
// fail over to replicas. Spans are on and every node runs
// its strict auditor. All nodes share one WorkerPool of min(nproc, 4)
// workers through node_config.scheduler.worker_pool. The benchmark drives
// one epoch per ClusterCoordinator::Run call.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/cluster/cluster.h"
#include "src/media/media.h"
#include "src/sim/workload.h"
#include "src/util/prng.h"
#include "src/util/worker_pool.h"

namespace vafs {
namespace perfbench {
namespace {

constexpr int kNodes = 16;
constexpr int64_t kTitles = 32;
constexpr int64_t kHotTitles = 4;
constexpr double kTitleSec = 12.0;
constexpr double kEpochSec = 0.25;
constexpr int64_t kFailoverBoundEpochs = 2;
// About 500 live streams per node, ~20k viewers over a 10 s run.
constexpr double kArrivalsPerSec = 700.0;
// Simulated seconds of arrivals per host second of --seconds, set so the
// measured phase takes about --seconds on a 4-core x86 host.
constexpr double kArrivalSecPerHostSec = 3.0;
// The run continues past the last arrival until every viewer has finished.
constexpr double kDrainSec = kTitleSec + 4.0;
constexpr int64_t kNodeCacheBytes = int64_t{8} << 20;

struct Pass {
  Status status = Status::Ok();
  std::vector<double> setup_s;
  std::vector<double> epoch_s;
  double run_s = 0.0;   // inside ClusterCoordinator::Run
  double wall_s = 0.0;  // the whole measured phase
  double failover_epoch_s = 0.0;
  int killed_node = -1;
  cluster::ClusterCensus census;
  int64_t viewers = 0;
  int64_t unaccounted = 0;  // left in kViewing or kPending
  int64_t failovers = 0;
  int64_t late_failovers = 0;
  bool audits_clean = false;
  std::string audit_report;
  Delivered live;    // every node but the killed one
  Delivered fenced;  // the killed node, whose streams the kill degraded
  double node_blocks_skew = 1.0;
  int64_t sim_events = 0;
  double media_bytes = 0.0;
  // Traced pass only.
  EventTally::Counts total_counts;
  EventTally::Counts run_counts;
  int64_t cache_evictions = 0;
  size_t first_timed_span = 0;
};

cluster::ClusterOptions Options(EventTally* tally, WorkerPool* pool) {
  cluster::ClusterOptions options;
  options.nodes = kNodes;
  options.node_config = VodOperatingPoint(tally);
  options.node_config.block_cache.capacity_bytes = kNodeCacheBytes;
  // CheckpointAll verifies each node's catalog by reading it back.
  options.node_config.retain_data = true;
  options.node_config.telemetry.spans = true;
  options.node_config.scheduler.worker_pool = pool;
  options.media = UvcCompressedVideo();
  options.epoch_sec = kEpochSec;
  options.hot_replicas = 2;
  options.cold_replicas = 1;
  options.failover_bound_epochs = kFailoverBoundEpochs;
  return options;
}

Pass RunPass(const BenchOptions& options, Clock::time_point setup_start, Probe* probe,
             EventTally* tally) {
  Pass pass;
  WorkerPool pool(static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  for (int rep = 0; rep < SetupRepetitions(options); ++rep) {
    coordinator.reset();
    const Clock::time_point start = rep == 0 ? setup_start : Clock::now();
    coordinator = std::make_unique<cluster::ClusterCoordinator>(Options(tally, &pool));
    pass.media_bytes = 0.0;
    for (int64_t t = 0; t < kTitles && pass.status.ok(); ++t) {
      Call call(probe, "cluster.add_title", static_cast<uint64_t>(t));
      pass.status = coordinator->AddTitle(t, options.seed * 1000 + static_cast<uint64_t>(t),
                                          kTitleSec, t < kHotTitles);
      pass.media_bytes += kTitleSec * UvcCompressedVideo().BitRate() / 8.0 *
                          (t < kHotTitles ? 2.0 : 1.0);
    }
    if (pass.status.ok()) {
      Call call(probe, "cluster.checkpoint_all");
      pass.status = coordinator->CheckpointAll();
    }
    if (!pass.status.ok()) {
      return pass;
    }
    pass.setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  const EventTally::Counts setup_counts =
      tally != nullptr ? tally->counts() : EventTally::Counts{};
  pass.first_timed_span = probe != nullptr ? probe->spans().size() : 0;

  // Inputs: the arrival trace and the failure schedule.
  Prng prng(options.seed ^ 0xc2b2ae3d27d4eb4fULL);
  const double window_sec = kArrivalSecPerHostSec * options.seconds;
  sim::WorkloadOptions workload;
  workload.titles = kTitles;
  workload.zipf_exponent = 1.0;
  workload.duration_sec = window_sec;
  workload.arrival_rate_per_sec = kArrivalsPerSec;
  workload.flash_start_sec = 0.3 * window_sec;
  workload.flash_duration_sec = 1.0;
  workload.flash_rate_multiplier = 3.0;
  workload.flash_title_bias = 0.9;
  workload.flash_title = static_cast<int64_t>(prng.NextBelow(kHotTitles));
  // One node dies mid-epoch, halfway through the arrivals, and stays dead:
  // after a restart the node's own auditor replays a slot ledger that
  // disagrees with the rebuilt scheduler, so AuditsClean() cannot hold.
  sim::WorkloadOptions::NodeFailure kill;
  kill.node = static_cast<int64_t>(prng.NextBelow(kNodes));
  kill.time_sec = kEpochSec * std::floor(0.5 * window_sec / kEpochSec) + 0.4 * kEpochSec;
  workload.node_failures = {kill};
  workload.seed = options.seed;
  const sim::WorkloadEngine engine(workload);
  const std::vector<sim::WorkloadArrival> arrivals = engine.Generate();
  const std::vector<sim::WorkloadOptions::NodeFailure> failures = engine.FailureSchedule();
  pass.killed_node = static_cast<int>(kill.node);
  pass.viewers = static_cast<int64_t>(arrivals.size());
  const int64_t epochs = static_cast<int64_t>(std::ceil((window_sec + kDrainSec) / kEpochSec));

  cluster::ClusterCoordinator& cluster = *coordinator;
  int64_t events_before = 0;
  for (int n = 0; n < kNodes; ++n) {
    events_before += cluster.node(n).fs().simulator().events_executed();
  }
  size_t next = 0;
  const Clock::time_point wall_start = Clock::now();
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    const double start_sec = static_cast<double>(epoch) * kEpochSec;
    const double end_sec = static_cast<double>(epoch + 1) * kEpochSec;
    size_t last = next;
    while (last < arrivals.size() && arrivals[last].time_sec < end_sec) {
      ++last;
    }
    const std::vector<sim::WorkloadArrival> slice(
        arrivals.begin() + static_cast<std::ptrdiff_t>(next),
        arrivals.begin() + static_cast<std::ptrdiff_t>(last));
    next = last;
    std::vector<sim::WorkloadOptions::NodeFailure> kills;
    for (const sim::WorkloadOptions::NodeFailure& failure : failures) {
      if (failure.time_sec >= start_sec && failure.time_sec < end_sec) {
        kills.push_back(failure);
      }
    }
    const cluster::ClusterCensus before = cluster.census();
    Call call(probe, "cluster.epoch", static_cast<uint64_t>(epoch));
    cluster.Run(slice, kills, end_sec);
    const double seconds = call.Stop();
    pass.epoch_s.push_back(seconds);
    pass.run_s += seconds;
    if (cluster.census().nodes_killed > before.nodes_killed) {
      pass.failover_epoch_s = seconds;
    }
  }
  pass.wall_s = SecondsBetween(wall_start, Clock::now());

  std::vector<double> node_blocks;
  for (int n = 0; n < kNodes; ++n) {
    MultimediaFileSystem& fs = cluster.node(n).fs();
    const Delivered delivered = SumDelivered([&fs](RequestId id) { return fs.Stats(id); });
    (n == pass.killed_node ? pass.fenced : pass.live) += delivered;
    node_blocks.push_back(static_cast<double>(delivered.blocks));
    pass.sim_events += fs.simulator().events_executed();
  }
  pass.sim_events -= events_before;
  pass.node_blocks_skew =
      Ratio(*std::max_element(node_blocks.begin(), node_blocks.end()),
            std::accumulate(node_blocks.begin(), node_blocks.end(), 0.0) / kNodes);
  pass.census = cluster.census();
  for (const cluster::ViewerRecord& viewer : cluster.viewers()) {
    if (viewer.state == cluster::ViewerRecord::State::kViewing ||
        viewer.state == cluster::ViewerRecord::State::kPending) {
      ++pass.unaccounted;
    }
  }
  for (const obs::TraceEvent& event : cluster.trace_log().events()) {
    if (event.kind == obs::TraceEventKind::kFailover) {
      ++pass.failovers;
      if (event.duration > event.round_budget) {
        ++pass.late_failovers;
      }
    }
  }
  pass.audits_clean = cluster.AuditsClean();
  if (!pass.audits_clean) {
    pass.audit_report = cluster.AuditReport();
  }
  if (tally != nullptr) {
    pass.total_counts = tally->counts();
    pass.run_counts = tally->counts() - setup_counts;
    pass.cache_evictions = tally->cache_evictions();
  }
  return pass;
}

void AddChecks(const Pass& pass, const std::string& label, Report* report) {
  report->Check(pass.status.ok(), label + "set-up succeeds" +
                                      (pass.status.ok() ? "" : ": " + pass.status.ToString()));
  report->Check(pass.unaccounted == 0, label + "no viewer is left in kViewing or kPending (" +
                                           std::to_string(pass.unaccounted) + " of " +
                                           std::to_string(pass.viewers) + ")");
  report->Check(pass.late_failovers == 0,
                label + "every failover is within its stamped bound (" +
                    std::to_string(pass.failovers) + " failovers, " +
                    std::to_string(pass.late_failovers) + " late)");
  report->Check(pass.audits_clean, label + "AuditsClean() holds" +
                                       (pass.audits_clean ? "" : ":\n" + pass.audit_report));
  report->Check(pass.census.nodes_killed == 1, label + "the node kill happened");
}

}  // namespace

void RunCluster16(const BenchOptions& options, Report* report) {
  const Pass plain = RunPass(options, options.process_start, nullptr, nullptr);
  report->Note("cluster_16: " + std::to_string(plain.viewers) + " viewers, " +
               std::to_string(plain.census.admitted) + " admitted, " +
               std::to_string(plain.census.rejected) + " rejected, " +
               std::to_string(plain.census.failed_over) + " failed over, " +
               std::to_string(plain.census.shed) + " shed; node " +
               std::to_string(plain.killed_node) + " killed; " +
               std::to_string(plain.fenced.glitched_requests) +
               " streams degraded on it before failover; " + std::to_string(plain.epoch_s.size()) +
               " epochs");
  AddChecks(plain, "", report);
  report->Attempt(plain.viewers);
  // Streams the kill degraded inside the failover bound are the designed
  // fault, counted in the note above; every other glitch is a failure.
  report->Fail(plain.census.rejected + plain.census.shed + plain.live.glitched_requests +
               plain.late_failovers);
  report->Add("cluster.rejected", static_cast<double>(plain.census.rejected), "count", 1);
  report->Add("cluster.shed", static_cast<double>(plain.census.shed), "count", 1);

  if (!options.trace) {
    const int64_t blocks = plain.live.blocks + plain.fenced.blocks;
    report->Add("blocks_per_s", Ratio(blocks, plain.run_s), "blocks/s", blocks);
    report->AddPercentile("op_ms_p50", plain.epoch_s, 50.0, 1e3, "ms");
    report->AddPercentile("op_ms_p90", plain.epoch_s, 90.0, 1e3, "ms");
    report->Add("setup_s", Median(plain.setup_s), "s",
                static_cast<int64_t>(plain.setup_s.size()));
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report->AddPercentile("epoch_ms_p50", plain.epoch_s, 50.0, 1e3, "ms");
    report->AddPercentile("epoch_ms_p90", plain.epoch_s, 90.0, 1e3, "ms");
    report->Add("cluster.failover_epoch_ms", plain.failover_epoch_s * 1e3, "ms", 1);
    return;
  }

  Probe probe;
  EventTally tally;
  std::vector<std::unique_ptr<ShadowSinks>> shadows;
  for (int n = 0; n < kNodes; ++n) {
    shadows.push_back(std::make_unique<ShadowSinks>());
  }
  std::vector<std::vector<obs::TraceEvent>> by_node(kNodes);
  int64_t current_node = 0;
  probe.set_top_level_hook([&]() {
    // The nodes share one tally and advance one after another inside an
    // epoch, so an event without a node stamp belongs to the node that
    // emitted the last stamped one.
    for (obs::TraceEvent& event : tally.TakeBuffer()) {
      if (event.node >= 0 && event.node < kNodes) {
        current_node = event.node;
      }
      by_node[static_cast<size_t>(current_node)].push_back(std::move(event));
    }
    for (int n = 0; n < kNodes; ++n) {
      shadows[static_cast<size_t>(n)]->Replay(by_node[static_cast<size_t>(n)], &probe,
                                              static_cast<uint64_t>(n));
      by_node[static_cast<size_t>(n)].clear();
    }
  });
  const Pass traced = RunPass(options, Clock::now(), &probe, &tally);
  AddChecks(traced, "traced: ", report);
  report->Check(traced.viewers == plain.viewers &&
                    traced.census.admitted == plain.census.admitted &&
                    traced.live.blocks == plain.live.blocks &&
                    traced.fenced.blocks == plain.fenced.blocks,
                "the traced pass repeats the untraced pass's counts (the probe changes no "
                "service decision)");
  // The node auditors behind AuditsClean() are this workload's oracle. The
  // shadow auditors only price auditing: an event without a node stamp is
  // routed to the last stamped node, which is not always its emitter.
  int64_t shadow_findings = 0;
  for (const std::unique_ptr<ShadowSinks>& shadow : shadows) {
    shadow_findings += static_cast<int64_t>(shadow->auditor().violations().size());
  }
  report->Note("shadow auditors: " + std::to_string(shadow_findings) +
               " findings on approximately routed events");

  LayerInputs in;
  in.probe = &probe;
  in.first_timed_span = traced.first_timed_span;
  in.traced_wall_s = traced.wall_s;
  in.untraced_wall_s = plain.wall_s;
  in.untraced_round_s = plain.run_s;
  in.total_counts = traced.total_counts;
  in.run_counts = traced.run_counts;
  in.cache_evictions = traced.cache_evictions;
  for (const std::unique_ptr<ShadowSinks>& shadow : shadows) {
    in.shadows.push_back(shadow.get());
  }
  in.real_sinks = {ShadowSinks::kLog,     ShadowSinks::kMetrics, ShadowSinks::kSlo,
                   ShadowSinks::kFlight,  ShadowSinks::kAuditor, ShadowSinks::kCriticalPath};
  in.delivered_blocks = traced.live.blocks + traced.fenced.blocks;
  in.round_recorded_blocks = traced.live.recorded + traced.fenced.recorded;
  in.sim_events = traced.sim_events;
  in.media_bytes_recorded = traced.media_bytes;
  in.node_blocks_skew = traced.node_blocks_skew;
  in.repair_blocks = traced.census.repair_blocks;
  AddLayerMetrics(in, report);
  AddSpanMedian(probe, "cluster.add_title", "cluster.add_title_ms_p50", 1e3, "ms", report);
  AddSpanMedian(probe, "cluster.checkpoint_all", "cluster.checkpoint_all_ms", 1e3, "ms",
                report);
  WriteSpans(probe, options, report);
}

}  // namespace perfbench
}  // namespace vafs
