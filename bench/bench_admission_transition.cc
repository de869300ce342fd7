// Section 3.4 transition argument: admitting request n+1 raises the round
// size k; jumping straight to the new k makes the transition round outlast
// the blocks buffered under the old k, glitching in-flight streams, while
// raising k one step per round (Eq. 18) is seamless.
//
// The bench starts streams one at a time on a loaded disk and reports the
// continuity violations suffered by the streams that were ALREADY playing
// when each newcomer arrived, under the naive-jump and stepped policies.

#include <benchmark/benchmark.h>

#include <cinttypes>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"

namespace vafs {
namespace {

// Every scenario folds its trace into one registry, dumped as JSON at exit.
obs::MetricsRegistry g_metrics;
obs::MetricsSink g_metrics_sink(&g_metrics);

struct TransitionResult {
  int streams_admitted = 0;
  int64_t preexisting_violations = 0;  // violations on streams admitted earlier
  int64_t final_k = 0;
};

TransitionResult RunScenario(bool stepped, int target_streams) {
  const MediaProfile video = UvcCompressedVideo();
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(FutureDisk(), disk_options);
  StrandStore store(&disk);
  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);

  // Record the strands up front.
  std::vector<std::vector<PrimaryEntry>> strands;
  for (int s = 0; s < target_streams; ++s) {
    VideoSource source(video, static_cast<uint64_t>(s) + 1);
    RecordingResult recorded = *RecordVideo(&store, &source, placement, 30.0);
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
  options.stepped_transitions = stepped;
  options.trace = &g_metrics_sink;
  disk.set_trace_sink(&g_metrics_sink);
  store.set_trace_sink(&g_metrics_sink);
  ServiceScheduler scheduler(&store, &sim, admission, options);

  TransitionResult result;
  std::vector<RequestId> ids;
  for (int s = 0; s < target_streams; ++s) {
    // Snapshot the violations of everyone already playing.
    int64_t violations_before = 0;
    for (RequestId id : ids) {
      violations_before += scheduler.stats(id)->continuity_violations;
    }
    PlaybackRequest request;
    request.blocks = strands[static_cast<size_t>(s)];
    request.block_duration =
        SecondsToUsec(static_cast<double>(placement.granularity) / video.units_per_sec);
    request.spec = RequestSpec{video, placement.granularity};
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    if (!id.ok()) {
      break;
    }
    ids.push_back(*id);
    ++result.streams_admitted;
    // Let the admission transition and a second of playback elapse.
    sim.RunUntil(sim.Now() + SecondsToUsec(1.0));
    int64_t violations_after = 0;
    for (size_t i = 0; i + 1 < ids.size(); ++i) {
      violations_after += scheduler.stats(ids[i])->continuity_violations;
    }
    result.preexisting_violations += violations_after - violations_before;
  }
  scheduler.RunUntilIdle();
  result.final_k = scheduler.current_k();
  // Total violations over whole playback for pre-existing streams only
  // (the last-admitted stream never had anyone admitted after it).
  int64_t total = 0;
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    total += scheduler.stats(ids[i])->continuity_violations;
  }
  result.preexisting_violations = total;
  return result;
}

void PrintTransitionTable() {
  PrintHeader("Section 3.4", "glitch-free phase-in: stepped k vs naive jump");
  PrintOperatingPoint(FutureDisk());
  std::printf("%8s | %22s | %22s\n", "streams", "stepped (Eq. 18)", "naive jump");
  std::printf("%8s | %10s %11s | %10s %11s\n", "", "admitted", "glitches", "admitted",
              "glitches");
  // The table's machine-readable twin, pinned exactly by check_regression.py.
  std::string json = "{\n  \"transition\": {\n    \"rows\": [\n";
  bool first = true;
  for (int target : {4, 8, 12}) {
    const TransitionResult stepped = RunScenario(true, target);
    const TransitionResult naive = RunScenario(false, target);
    std::printf("%8d | %10d %11" PRId64 " | %10d %11" PRId64 "\n", target,
                stepped.streams_admitted, stepped.preexisting_violations,
                naive.streams_admitted, naive.preexisting_violations);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s      {\"streams\": %d, \"stepped_admitted\": %d, "
                  "\"stepped_glitches\": %" PRId64 ", \"naive_admitted\": %d, "
                  "\"naive_glitches\": %" PRId64 "}",
                  first ? "" : ",\n", target, stepped.streams_admitted,
                  stepped.preexisting_violations, naive.streams_admitted,
                  naive.preexisting_violations);
    json += row;
    first = false;
  }
  json += "\n    ]\n  }\n}";
  std::printf("(glitches = continuity violations on streams that were already playing\n"
              " when a newcomer was admitted)\n");
  WriteTextArtifact(json, "admission_transition", "_table_metrics.json", "table");
}

void BM_AdmitOneStream(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunScenario(true, 2).streams_admitted);
  }
}
BENCHMARK(BM_AdmitOneStream)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintTransitionTable();
  vafs::WriteMetricsJson(vafs::g_metrics, "admission_transition");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
