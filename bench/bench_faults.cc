// Graceful degradation under disk faults: a 4-stream playback workload is
// swept across transient read-fault rates, and the table reports how much
// fault handling (re-reads within the round's Eq. 11 slack, degraded
// playback for the rest) costs in continuity terms. The paper assumes a
// fault-free disk; this bench quantifies how far that assumption can be
// relaxed before streams actually glitch.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"

namespace vafs {
namespace {

// Every scenario folds its trace into one registry, dumped as JSON at exit.
obs::MetricsRegistry g_metrics;
obs::MetricsSink g_metrics_sink(&g_metrics);

struct FaultSweepResult {
  int streams_completed = 0;
  int64_t faults_seen = 0;
  int64_t blocks_retried = 0;
  int64_t blocks_skipped = 0;
  int64_t continuity_violations = 0;
  bool auditor_clean = false;
};

FaultSweepResult RunScenario(double read_fault_rate, int streams, double seconds,
                             obs::TraceLog* log = nullptr, obs::SloTracker* slo = nullptr) {
  const MediaProfile video = UvcCompressedVideo();
  FaultOptions faults;
  faults.seed = 2024;
  faults.read_fault_rate = read_fault_rate;
  DiskOptions disk_options;
  disk_options.retain_data = false;
  disk_options.faults = faults;
  Disk disk(FutureDisk(), disk_options);
  StrandStore store(&disk);
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee;
  tee.Add(&auditor);
  tee.Add(&g_metrics_sink);
  if (log != nullptr) {
    tee.Add(log);
  }
  if (slo != nullptr) {
    tee.Add(slo);
  }
  store.set_trace_sink(&tee);
  // The device feeds the same tee so the Perfetto export carries the disk
  // timeline next to the scheduler's (the auditor ignores device events).
  disk.set_trace_sink(&tee);

  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);

  // Record the strands up front (writes are fault-free in this sweep, and
  // the read-fault coin is never consulted during recording, so the
  // playback fault schedule is identical across policies).
  std::vector<std::vector<PrimaryEntry>> strands;
  for (int s = 0; s < streams; ++s) {
    VideoSource source(video, static_cast<uint64_t>(s) + 1);
    RecordingResult recorded = *RecordVideo(&store, &source, placement, seconds);
    const Strand* strand = *store.Get(recorded.strand);
    std::vector<PrimaryEntry> blocks;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      blocks.push_back(*strand->index().Lookup(b));
    }
    strands.push_back(std::move(blocks));
  }

  Simulator sim;
  AdmissionControl admission(StorageTimings::FromDiskModel(disk.model()),
                             store.AverageScatteringSec());
  SchedulerOptions options;
  options.trace = &tee;
  ServiceScheduler scheduler(&store, &sim, admission, options);

  std::vector<RequestId> ids;
  for (int s = 0; s < streams; ++s) {
    PlaybackRequest request;
    request.blocks = strands[static_cast<size_t>(s)];
    request.block_duration =
        SecondsToUsec(static_cast<double>(placement.granularity) / video.units_per_sec);
    request.spec = RequestSpec{video, placement.granularity};
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    if (id.ok()) {
      ids.push_back(*id);
    }
  }
  scheduler.RunUntilIdle();

  FaultSweepResult result;
  for (RequestId id : ids) {
    const RequestStats stats = *scheduler.stats(id);
    if (stats.completed) {
      ++result.streams_completed;
    }
    result.faults_seen += stats.faults_seen;
    result.blocks_retried += stats.blocks_retried;
    result.blocks_skipped += stats.blocks_skipped;
    result.continuity_violations += stats.continuity_violations;
  }
  result.auditor_clean = auditor.Clean();
  return result;
}

void PrintFaultTable() {
  PrintHeader("fault injection", "retry-within-slack vs degraded playback");
  PrintOperatingPoint(FutureDisk());
  const int streams = 4;
  const double seconds = 20.0;
  std::printf("4 streams x %.0f s playback; retries only while the round fits its\n"
              "Eq. 11 budget, skipped blocks play as silence (degraded frame)\n\n",
              seconds);
  std::printf("%10s | %9s %7s %8s %8s %11s %8s %8s %7s\n", "fault rate", "completed", "faults",
              "retried", "skipped", "violations", "auditor", "within%", "degr%");
  for (double rate : {0.0, 0.005, 0.01, 0.05, 0.25}) {
    // Each rate gets its own trace log and SLO tracker; the clean run and
    // the heaviest fault run also leave artifacts for CI.
    obs::TraceLog log(1 << 16);
    obs::SloTracker slo;
    const FaultSweepResult result = RunScenario(rate, streams, seconds, &log, &slo);
    const obs::SloReport report = slo.Report();
    double min_within = 1.0;
    double max_degraded = 0.0;
    for (const obs::StreamSlo& stream : report.streams) {
      min_within = std::min(min_within, stream.WithinBudgetFraction());
      max_degraded = std::max(max_degraded, stream.DegradedRatio());
    }
    std::printf("%9.1f%% | %7d/%d %7" PRId64 " %8" PRId64 " %8" PRId64 " %11" PRId64
                " %8s %7.2f%% %6.2f%%\n",
                rate * 100.0, result.streams_completed, streams, result.faults_seen,
                result.blocks_retried, result.blocks_skipped, result.continuity_violations,
                result.auditor_clean ? "clean" : "FLAGGED", min_within * 100.0,
                max_degraded * 100.0);
    if (rate == 0.0) {
      WriteSloJson(report, "faults_clean");
    } else if (rate == 0.25) {
      WriteSloJson(report, "faults");
      WriteBenchArtifact(obs::PerfettoExporter(&log.events()), "faults");
      WriteBenchArtifact(obs::PrometheusExporter(&g_metrics), "faults");
    }
  }
  std::printf("(faults = injected transient read errors seen by the scheduler;\n"
              " retried = re-reads issued inside the round's continuity slack;\n"
              " skipped = blocks given up on and played as silence;\n"
              " within%% = min over streams of accounted rounds inside the Eq. 11 budget;\n"
              " degr%% = max over streams of blocks rendered as silence)\n");
}

void BM_FourStreamsAt1Percent(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunScenario(0.01, 4, 5.0).streams_completed);
  }
}
BENCHMARK(BM_FourStreamsAt1Percent)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintFaultTable();
  vafs::WriteMetricsJson(vafs::g_metrics, "faults");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
