// Section 6.2 extension: variable-rate compression.
//
// "Variable rate compression of video [...] can result in varying but
// smaller sizes of video frames, thereby yielding better bounds for
// granularity and scattering." The bench records the same footage CBR
// (every frame at the intra size) and VBR (differencing encoder), and
// compares storage, the scattering bound computed at the realized mean
// rate, and simulated playback with the burst-covering read-ahead.

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "bench/bench_support.h"
#include "src/media/vbr_source.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"

namespace vafs {
namespace {

VbrProfile NewsVbr() {
  VbrProfile vbr;
  vbr.group_of_pictures = 15;
  vbr.delta_mean_fraction = 0.2;
  vbr.scene_change_per_sec = 0.3;
  return vbr;
}

void RunComparison() {
  PrintHeader("Section 6.2 (VBR)", "constant vs variable rate video, 60 s of footage");
  PrintOperatingPoint(TestbedDisk());
  const MediaProfile video = UvcCompressedVideo();
  const double duration = 60.0;

  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestbedDisk(), disk_options);
  StrandStore store(&disk);
  const StorageTimings storage = StorageTimings::FromDiskModel(disk.model());
  ContinuityModel model(storage, UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);

  const int64_t free_start = store.allocator().free_sectors();
  VideoSource cbr_source(video, 1);
  RecordingResult cbr = *RecordVideo(&store, &cbr_source, placement, duration);
  const int64_t cbr_sectors = free_start - store.allocator().free_sectors();

  const int64_t free_mid = store.allocator().free_sectors();
  VbrVideoSource vbr_source(video, NewsVbr(), 1);
  RecordingResult vbr = *RecordVbrVideo(&store, &vbr_source, placement, duration);
  const int64_t vbr_sectors = free_mid - store.allocator().free_sectors();

  const VbrStrandStats stats = AnalyzeVbrBlocks(vbr.block_bits);
  const double block_duration_sec =
      static_cast<double>(placement.granularity) / video.units_per_sec;
  const double cbr_block_bits =
      static_cast<double>(placement.granularity * video.bits_per_unit);

  std::printf("%24s %14s %14s\n", "", "CBR", "VBR");
  std::printf("%24s %12lld %14lld\n", "sectors used", static_cast<long long>(cbr_sectors),
              static_cast<long long>(vbr_sectors));
  std::printf("%24s %11.1f%% %13.1f%%\n", "of CBR size", 100.0,
              100.0 * static_cast<double>(vbr_sectors) / static_cast<double>(cbr_sectors));
  std::printf("%24s %12.0f %14.0f\n", "mean block bits", cbr_block_bits,
              stats.mean_block_bits);
  // Better scattering bound: budget the transfer at the realized mean.
  const double cbr_bound =
      block_duration_sec - cbr_block_bits / storage.transfer_rate_bits_per_sec;
  const double vbr_bound =
      block_duration_sec - stats.mean_block_bits / storage.transfer_rate_bits_per_sec;
  std::printf("%24s %10.2f ms %12.2f ms\n", "scattering bound l_ds", cbr_bound * 1e3,
              vbr_bound * 1e3);
  const int64_t read_ahead =
      stats.RequiredReadAhead(storage.transfer_rate_bits_per_sec, block_duration_sec);
  std::printf("%24s %12d %14lld\n", "read-ahead blocks", 1,
              static_cast<long long>(read_ahead));

  // Simulated playback of the VBR strand with the computed read-ahead.
  const Strand* strand = *store.Get(vbr.strand);
  Simulator sim;
  AdmissionControl admission(storage, store.AverageScatteringSec());
  ServiceScheduler scheduler(&store, &sim, admission);
  PlaybackRequest request;
  for (int64_t b = 0; b < strand->block_count(); ++b) {
    request.blocks.push_back(*strand->index().Lookup(b));
  }
  request.block_duration = strand->info().BlockDuration();
  MediaProfile mean_profile = video;
  mean_profile.bits_per_unit =
      static_cast<int64_t>(stats.mean_block_bits / static_cast<double>(placement.granularity));
  request.spec = RequestSpec{mean_profile, placement.granularity};
  request.read_ahead_blocks = read_ahead;
  const RequestId id = *scheduler.SubmitPlayback(std::move(request));
  scheduler.RunUntilIdle();
  std::printf("VBR playback: %" PRId64 " blocks, %" PRId64
              " violations with read-ahead %lld\n",
              scheduler.stats(id)->blocks_done, scheduler.stats(id)->continuity_violations,
              static_cast<long long>(read_ahead));

  // Capacity effect: more streams fit at the mean rate.
  AdmissionControl mean_admission(storage, storage.avg_rotational_latency_sec);
  const int64_t cbr_n = mean_admission
                            .Analyze({RequestSpec{video, placement.granularity}})
                            .n_max;
  const int64_t vbr_n = mean_admission
                            .Analyze({RequestSpec{mean_profile, placement.granularity}})
                            .n_max;
  std::printf("service ceiling n_max: CBR %lld -> VBR %lld\n", static_cast<long long>(cbr_n),
              static_cast<long long>(vbr_n));
}

void BM_VbrFrameSizing(benchmark::State& state) {
  VbrVideoSource source(UvcCompressedVideo(), NewsVbr(), 5);
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.FrameBytes(frame++ % 100000));
  }
}
BENCHMARK(BM_VbrFrameSizing);

void BM_VbrBurstAnalysis(benchmark::State& state) {
  VbrVideoSource source(UvcCompressedVideo(), NewsVbr(), 5);
  std::vector<int64_t> blocks;
  for (int64_t b = 0; b < 10000; ++b) {
    int64_t bits = 0;
    for (int64_t f = 0; f < 4; ++f) {
      bits += source.FrameBytes(b * 4 + f) * 8;
    }
    blocks.push_back(bits);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeVbrBlocks(blocks).worst_burst_excess_bits);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(blocks.size()));
}
BENCHMARK(BM_VbrBurstAnalysis);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::RunComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
