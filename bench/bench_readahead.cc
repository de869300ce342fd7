// Section 3.3.2 + Eq. 4: buffering and read-ahead requirements.
//
// Reproduces the paper's buffer-count table (strict vs k-block average
// continuity across the three architectures), the extra read-ahead h a
// stream needs before the disk switches to another task (Eq. 4), and a
// simulated slow-motion run showing that bounded device buffers cap
// accumulation (the disk "switches to some other task" when they fill).

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"

namespace vafs {
namespace {

void PrintBufferingTable() {
  PrintHeader("Section 3.3.2", "read-ahead / device buffers per architecture");
  const StorageTimings storage = StorageTimings::FromDiskModel(DiskModel(TestbedDisk()));
  ContinuityModel model(storage, UvcDisplay(), 4);
  std::printf("%4s | %18s | %18s | %18s\n", "k", "sequential", "pipelined",
              "concurrent p=4");
  std::printf("%4s | %8s %9s | %8s %9s | %8s %9s\n", "", "r-ahead", "buffers", "r-ahead",
              "buffers", "r-ahead", "buffers");
  for (int64_t k : {1, 2, 4, 8}) {
    const auto seq = model.PlanBuffering(RetrievalArchitecture::kSequential, k);
    const auto pipe = model.PlanBuffering(RetrievalArchitecture::kPipelined, k);
    const auto conc = model.PlanBuffering(RetrievalArchitecture::kConcurrent, k);
    std::printf("%4lld | %8lld %9lld | %8lld %9lld | %8lld %9lld\n",
                static_cast<long long>(k), static_cast<long long>(seq.read_ahead_blocks),
                static_cast<long long>(seq.device_buffers),
                static_cast<long long>(pipe.read_ahead_blocks),
                static_cast<long long>(pipe.device_buffers),
                static_cast<long long>(conc.read_ahead_blocks),
                static_cast<long long>(conc.device_buffers));
  }
  std::printf("(k = 1 is the strict continuity requirement)\n");
}

void PrintTaskSwitchReadAhead() {
  PrintHeader("Equation 4", "extra read-ahead h before the disk switches tasks");
  std::printf("%-28s %6s %14s %6s\n", "medium", "q", "block dur (ms)", "h");
  for (const DiskParameters& disk_params : {TestbedDisk(), FutureDisk()}) {
    const StorageTimings storage = StorageTimings::FromDiskModel(DiskModel(disk_params));
    ContinuityModel model(storage, UvcDisplay());
    std::printf("-- l_seek_max = %.1f ms --\n", storage.max_access_gap_sec * 1e3);
    struct Case {
      MediaProfile media;
      int64_t q;
    };
    for (const Case& c : {Case{UvcCompressedVideo(), 1}, Case{UvcCompressedVideo(), 4},
                          Case{TelephoneAudio(), 8000}, Case{CdAudio(), 44100}}) {
      const double duration = ContinuityModel::BlockPlaybackDuration(c.media, c.q);
      std::printf("%-28s %6lld %14.1f %6lld\n", c.media.ToString().c_str(),
                  static_cast<long long>(c.q), duration * 1e3,
                  static_cast<long long>(model.ExtraReadAheadForTaskSwitch(c.media, c.q)));
    }
  }
}

void RunSlowMotion() {
  PrintHeader("Section 3.3.2", "slow motion: bounded buffers stop accumulation");
  const MediaProfile video = UvcCompressedVideo();
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestbedDisk(), disk_options);
  StrandStore store(&disk);
  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);
  VideoSource source(video, 3);
  RecordingResult recorded = *RecordVideo(&store, &source, placement, 20.0);
  const Strand* strand = *store.Get(recorded.strand);

  std::printf("%10s %12s %14s %12s\n", "rate", "buffer cap", "max buffered", "glitches");
  for (double rate : {1.0, 0.5, 0.25}) {
    for (int64_t cap : {4, 16, 4096 /* effectively unbounded */}) {
      Simulator sim;
      AdmissionControl admission(StorageTimings::FromDiskModel(disk.model()),
                                 store.AverageScatteringSec());
      ServiceScheduler scheduler(&store, &sim, admission);
      PlaybackRequest request;
      for (int64_t b = 0; b < strand->block_count(); ++b) {
        request.blocks.push_back(*strand->index().Lookup(b));
      }
      request.block_duration = strand->info().BlockDuration();
      request.spec = RequestSpec{video, placement.granularity};
      request.rate_multiplier = rate;  // < 1 = slow motion
      request.device_buffers = cap;
      RequestId id = *scheduler.SubmitPlayback(std::move(request));
      scheduler.RunUntilIdle();
      const RequestStats stats = *scheduler.stats(id);
      std::printf("%9.2fx %12s %14" PRId64 " %12" PRId64 "\n", rate,
                  cap >= 4096 ? "unbounded" : std::to_string(cap).c_str(),
                  stats.max_buffered_blocks, stats.continuity_violations);
    }
  }
  std::printf("(slow motion over-satisfies continuity; without a cap blocks pile up)\n");
}

void BM_PlanBuffering(benchmark::State& state) {
  ContinuityModel model(StorageTimings::FromDiskModel(DiskModel(TestbedDisk())), UvcDisplay(),
                        4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.PlanBuffering(RetrievalArchitecture::kConcurrent, 8).device_buffers);
    benchmark::DoNotOptimize(model.ExtraReadAheadForTaskSwitch(UvcCompressedVideo(), 4));
  }
}
BENCHMARK(BM_PlanBuffering);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintBufferingTable();
  vafs::PrintTaskSwitchReadAhead();
  vafs::RunSlowMotion();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
