// Section 6.2 extension: seek-ordered (SCAN) request servicing.
//
// The paper's admission control assumes round-robin servicing in arrival
// order, charging every inter-request switch a full worst-case reposition
// — "as a result, the estimates of the maximum number of requests that
// can be simultaneously serviced are pessimistic." This bench measures
// what the proposed seek-order optimization actually buys: the same
// stream population serviced FIFO vs SCAN, comparing realized disk busy
// time and, past the pessimistic admission ceiling, who glitches first.

#include <benchmark/benchmark.h>

#include <cinttypes>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/util/prng.h"

namespace vafs {
namespace {

// Every run folds its trace into one registry, dumped as JSON at exit.
obs::MetricsRegistry g_metrics;
obs::MetricsSink g_metrics_sink(&g_metrics);

struct Outcome {
  int64_t violations = 0;
  double busy_sec = 0.0;
  double stream_sec = 0.0;  // content duration serviced
};

// A seek-dominated configuration: fast media rate (transfers are cheap),
// low rotational latency, slow arm. This is where service order matters:
// the switch cost IS the round cost.
DiskParameters ScanDisk() {
  DiskParameters params;
  params.cylinders = 5000;
  params.surfaces = 16;
  params.sectors_per_track = 256;  // R_dt ~ 262 Mbit/s
  params.rpm = 15000.0;            // 2 ms average latency
  params.min_seek_ms = 5.0;
  params.max_seek_ms = 50.0;
  return params;
}

Outcome RunStreams(ServiceOrder order, int n, int64_t forced_k) {
  const MediaProfile video = UvcCompressedVideo();
  const double duration = 20.0;
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(ScanDisk(), disk_options);
  StrandStore store(&disk);
  const StorageTimings storage = StorageTimings::FromDiskModel(disk.model());
  ContinuityModel model(storage, UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);

  // Spread the strands across the whole disk, one region per stream (a
  // realistic library: titles recorded over the device's lifetime).
  std::vector<std::vector<PrimaryEntry>> strands;
  const int64_t blocks_per_stream =
      static_cast<int64_t>(duration * video.units_per_sec) / placement.granularity;
  const std::vector<uint8_t> payload(
      static_cast<size_t>(placement.granularity * video.bits_per_unit / 8), 0);
  for (int s = 0; s < n; ++s) {
    Result<std::unique_ptr<StrandWriter>> writer = store.CreateStrand(video, placement);
    (*writer)->SetAllocationHint(s * (disk.total_sectors() / n));
    for (int64_t b = 0; b < blocks_per_stream; ++b) {
      (void)(*writer)->AppendBlock(payload);
    }
    const StrandId id = *(*writer)->Finish(blocks_per_stream * placement.granularity);
    const Strand* strand = *store.Get(id);
    std::vector<PrimaryEntry> blocks;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      blocks.push_back(*strand->index().Lookup(b));
    }
    strands.push_back(std::move(blocks));
  }

  Simulator sim;
  AdmissionControl admission(storage, store.AverageScatteringSec());
  SchedulerOptions options;
  options.service_order = order;
  options.forced_k = forced_k;  // admit everyone: measure past the pessimistic ceiling
  options.trace = &g_metrics_sink;
  disk.set_trace_sink(&g_metrics_sink);
  store.set_trace_sink(&g_metrics_sink);
  ServiceScheduler scheduler(&store, &sim, admission, options);

  // Arrival order is a random permutation of disk order: FIFO then pays a
  // random walk across the platters every round, while SCAN re-sorts.
  std::vector<int> arrival(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    arrival[static_cast<size_t>(s)] = s;
  }
  Prng prng(2718);
  for (size_t i = arrival.size(); i > 1; --i) {
    std::swap(arrival[i - 1], arrival[prng.NextBelow(i)]);
  }

  const SimDuration busy_before = disk.busy_time();
  std::vector<RequestId> ids;
  for (int s : arrival) {
    PlaybackRequest request;
    request.blocks = strands[static_cast<size_t>(s)];
    request.block_duration =
        SecondsToUsec(static_cast<double>(placement.granularity) / video.units_per_sec);
    request.spec = RequestSpec{video, placement.granularity};
    ids.push_back(*scheduler.SubmitPlayback(std::move(request)));
  }
  scheduler.RunUntilIdle();

  Outcome outcome;
  for (RequestId id : ids) {
    outcome.violations += scheduler.stats(id)->continuity_violations;
  }
  outcome.busy_sec = UsecToSeconds(disk.busy_time() - busy_before);
  outcome.stream_sec = duration * n;
  return outcome;
}

void PrintScanTable() {
  PrintHeader("Section 6.2 (SCAN)", "FIFO vs seek-ordered servicing, fixed k = 8");
  PrintOperatingPoint(ScanDisk());
  const StorageTimings storage = StorageTimings::FromDiskModel(DiskModel(ScanDisk()));
  AdmissionControl admission(storage, storage.avg_rotational_latency_sec);
  const int64_t n_max = admission.Analyze({RequestSpec{UvcCompressedVideo(), 4}}).n_max;
  std::printf("round-robin admission ceiling n_max = %lld (worst-case switch charge)\n",
              static_cast<long long>(n_max));
  std::printf("%4s | %16s %14s | %16s %14s\n", "n", "FIFO glitches", "disk busy", "SCAN glitches",
              "disk busy");
  // The table's machine-readable twin, pinned exactly by check_regression.py.
  std::string json = "{\n  \"scan\": {\n    \"n_max\": " + std::to_string(n_max) +
                     ",\n    \"rows\": [\n";
  bool first = true;
  for (int n : {8, 16, 24, 28, 32}) {
    const Outcome fifo = RunStreams(ServiceOrder::kRoundRobin, n, 8);
    const Outcome scan = RunStreams(ServiceOrder::kSeekScan, n, 8);
    std::printf("%4d | %16" PRId64 " %12.1f s | %16" PRId64 " %12.1f s\n", n, fifo.violations,
                fifo.busy_sec, scan.violations, scan.busy_sec);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s      {\"n\": %d, \"fifo_glitches\": %" PRId64
                  ", \"fifo_busy_sec\": %.6f, \"scan_glitches\": %" PRId64
                  ", \"scan_busy_sec\": %.6f}",
                  first ? "" : ",\n", n, fifo.violations, fifo.busy_sec, scan.violations,
                  scan.busy_sec);
    json += row;
    first = false;
  }
  json += "\n    ]\n  }\n}";
  std::printf("(same workload and round size; SCAN's sorted rounds cut inter-request\n"
              " repositioning, sustaining more streams past the pessimistic ceiling)\n");
  WriteTextArtifact(json, "scan", "_table_metrics.json", "table");
}

void BM_ScanRound(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStreams(ServiceOrder::kSeekScan, 4, 4).violations);
  }
}
BENCHMARK(BM_ScanRound)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintScanTable();
  vafs::WriteMetricsJson(vafs::g_metrics, "scan");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
