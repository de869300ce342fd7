// Figures 1-3 + Table 1: continuity under the sequential, pipelined and
// concurrent retrieval architectures, and the constrained-vs-random
// placement ablation (Section 3's motivation for constrained allocation).
//
// Prints, for each architecture, the maximum scattering parameter l_ds
// that still satisfies the continuity requirement (Eqs. 1-3) as the
// granularity grows, then verifies by simulation that constrained
// placement plays back glitch-free while random placement does not.

#include <benchmark/benchmark.h>

#include <cinttypes>
#include <vector>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/msm/striped.h"
#include "src/util/prng.h"

namespace vafs {
namespace {

void PrintContinuityTable() {
  PrintHeader("Figures 1-3", "max scattering l_ds (ms) per architecture and granularity");
  PrintOperatingPoint(TestbedDisk());
  const MediaProfile video = UvcCompressedVideo();
  std::printf("media: %s\n", video.ToString().c_str());
  const StorageTimings storage = StorageTimings::FromDiskModel(DiskModel(TestbedDisk()));
  ContinuityModel model2(storage, UvcDisplay(), 2);
  ContinuityModel model4(storage, UvcDisplay(), 4);

  std::printf("%4s %14s %14s %16s %16s\n", "q", "sequential", "pipelined", "concurrent p=2",
              "concurrent p=4");
  for (int64_t q = 1; q <= 8; ++q) {
    const double seq =
        model2.MaxScattering(RetrievalArchitecture::kSequential, video, q) * 1e3;
    const double pipe =
        model2.MaxScattering(RetrievalArchitecture::kPipelined, video, q) * 1e3;
    const double con2 =
        model2.MaxScattering(RetrievalArchitecture::kConcurrent, video, q) * 1e3;
    const double con4 =
        model4.MaxScattering(RetrievalArchitecture::kConcurrent, video, q) * 1e3;
    std::printf("%4lld %11.2f %s %11.2f %s %13.2f %s %13.2f %s\n", static_cast<long long>(q),
                seq, seq >= 0 ? "ok" : "--", pipe, pipe >= 0 ? "ok" : "--", con2,
                con2 >= 0 ? "ok" : "--", con4, con4 >= 0 ? "ok" : "--");
  }

  for (RetrievalArchitecture arch :
       {RetrievalArchitecture::kSequential, RetrievalArchitecture::kPipelined,
        RetrievalArchitecture::kConcurrent}) {
    Result<StrandPlacement> placement = model2.DerivePlacement(arch, video);
    if (placement.ok()) {
      std::printf("derived placement (%s): q = %lld, l_ds <= %.2f ms\n", ArchitectureName(arch),
                  static_cast<long long>(placement->granularity),
                  placement->max_scattering_sec * 1e3);
    } else {
      std::printf("derived placement (%s): infeasible\n", ArchitectureName(arch));
    }
  }
}

// Simulated ablation: constrained vs random placement under increasing
// concurrency. Random placement pays ~3x the positioning cost per block,
// so it starts glitching (and hits the service ceiling) at a lower stream
// count — the paper's argument for constrained allocation.
struct AblationRow {
  bool admitted = false;
  int64_t violations = 0;
  double avg_gap_ms = 0.0;
};

AblationRow RunStreams(bool constrained, int n) {
  const MediaProfile video = UvcCompressedVideo();
  const double duration_sec = 20.0;
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(FutureDisk(), disk_options);
  StrandStore store(&disk);
  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);
  const int64_t block_sectors = (placement.granularity * video.bits_per_unit / 8 + 511) / 512;
  const int64_t blocks_per_stream =
      static_cast<int64_t>(duration_sec * video.units_per_sec) / placement.granularity;

  // Lay out n strands.
  Prng prng(1234);
  std::vector<std::vector<PrimaryEntry>> strands(static_cast<size_t>(n));
  double total_gap = 0.0;
  int64_t gap_count = 0;
  for (int s = 0; s < n; ++s) {
    if (constrained) {
      VideoSource source(video, static_cast<uint64_t>(s) + 1);
      RecordingResult recorded = *RecordVideo(&store, &source, placement, duration_sec);
      const Strand* strand = *store.Get(recorded.strand);
      for (int64_t b = 0; b < strand->block_count(); ++b) {
        strands[static_cast<size_t>(s)].push_back(*strand->index().Lookup(b));
      }
      total_gap += recorded.avg_gap_sec * static_cast<double>(strand->block_count() - 1);
      gap_count += strand->block_count() - 1;
    } else {
      int64_t previous_end = -1;
      for (int64_t b = 0; b < blocks_per_stream; ++b) {
        while (true) {
          const int64_t start = prng.NextInRange(0, disk.total_sectors() - block_sectors - 1);
          if (store.allocator().AllocateExact(Extent{start, block_sectors}).ok()) {
            strands[static_cast<size_t>(s)].push_back(PrimaryEntry{start, block_sectors});
            if (previous_end > 0) {
              total_gap += UsecToSeconds(disk.model().AccessGap(previous_end - 1, start));
              ++gap_count;
            }
            previous_end = start + block_sectors;
            break;
          }
        }
      }
    }
  }

  // Admission assumes the placement contract's average; the realized gap
  // of random placement silently exceeds it.
  Simulator sim;
  AdmissionControl admission(StorageTimings::FromDiskModel(disk.model()),
                             UsecToSeconds(disk.model().AverageRotationalLatency()));
  ServiceScheduler scheduler(&store, &sim, admission);
  std::vector<RequestId> ids;
  AblationRow row;
  row.avg_gap_ms = gap_count > 0 ? total_gap / static_cast<double>(gap_count) * 1e3 : 0.0;
  for (int s = 0; s < n; ++s) {
    PlaybackRequest request;
    request.blocks = strands[static_cast<size_t>(s)];
    request.block_duration =
        SecondsToUsec(static_cast<double>(placement.granularity) / video.units_per_sec);
    request.spec = RequestSpec{video, placement.granularity};
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    if (!id.ok()) {
      return row;  // admission ceiling reached
    }
    ids.push_back(*id);
  }
  row.admitted = true;
  scheduler.RunUntilIdle();
  for (RequestId id : ids) {
    row.violations += scheduler.stats(id)->continuity_violations;
  }
  return row;
}

void RunPlacementAblation() {
  PrintHeader("Section 3 ablation",
              "constrained vs random placement, n concurrent streams (future disk)");
  PrintOperatingPoint(FutureDisk());
  std::printf("%4s | %12s %10s | %12s %10s\n", "n", "constrained", "avg gap", "random",
              "avg gap");
  for (int n = 1; n <= 14; ++n) {
    const AblationRow constrained = RunStreams(true, n);
    const AblationRow random = RunStreams(false, n);
    auto cell = [](const AblationRow& r) {
      static char buffer[2][32];
      static int which = 0;
      which ^= 1;
      if (!r.admitted) {
        std::snprintf(buffer[which], sizeof(buffer[which]), "rejected");
      } else {
        std::snprintf(buffer[which], sizeof(buffer[which]), "%lld viol",
                      static_cast<long long>(r.violations));
      }
      return buffer[which];
    };
    std::printf("%4d | %12s %8.2fms | %12s %8.2fms\n", n, cell(constrained),
                constrained.avg_gap_ms, cell(random), random.avg_gap_ms);
    if (!constrained.admitted && !random.admitted) {
      break;
    }
  }
}

// Figure 3, operational: a stream too fast for one member disk plays
// cleanly from a striped array fetching p blocks in parallel.
void RunConcurrentSimulation() {
  PrintHeader("Figure 3", "concurrent architecture: striped playback across p members");
  const DiskModel member(TestbedDisk());
  const StorageTimings member_timings = StorageTimings::FromDiskModel(member);
  // ~1.7x one member's R_dt.
  const MediaProfile heavy{Medium::kVideo, 30.0,
                           static_cast<int64_t>(member_timings.transfer_rate_bits_per_sec *
                                                1.7 / 30.0)};
  std::printf("stream: %.1f Mbit/s vs member R_dt %.1f Mbit/s\n", heavy.BitRate() / 1e6,
              member_timings.transfer_rate_bits_per_sec / 1e6);
  for (int p : {1, 2, 4}) {
    ContinuityModel model(member_timings, DeviceProfile{heavy.BitRate() * 4.0, 4 * p}, p);
    const RetrievalArchitecture arch =
        p == 1 ? RetrievalArchitecture::kPipelined : RetrievalArchitecture::kConcurrent;
    Result<StrandPlacement> placement = model.DerivePlacement(arch, heavy);
    if (!placement.ok()) {
      std::printf("  p=%d: infeasible (%s)\n", p,
                  p == 1 ? "transfer exceeds playback on one disk"
                         : placement.status().message().c_str());
      continue;
    }
    DiskOptions disk_options;
    disk_options.retain_data = false;
    DiskArray array(TestbedDisk(), p, disk_options);
    StripedStore store(&array);
    Result<StripedStrand> strand = store.Record(heavy, *placement, 15.0);
    if (!strand.ok()) {
      std::printf("  p=%d: recording failed (%s)\n", p, strand.status().message().c_str());
      continue;
    }
    Result<StripedStore::PlaybackOutcome> outcome = store.Play(*strand);
    std::printf("  p=%d: q=%lld, %" PRId64 " blocks, %" PRId64 " violations\n", p,
                static_cast<long long>(placement->granularity), outcome->blocks_done,
                outcome->violations);
  }
}

void BM_MaxScatteringEvaluation(benchmark::State& state) {
  ContinuityModel model(StorageTimings::FromDiskModel(DiskModel(TestbedDisk())), UvcDisplay(),
                        4);
  const MediaProfile video = UvcCompressedVideo();
  int64_t q = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.MaxScattering(RetrievalArchitecture::kConcurrent, video, q));
    q = q % 8 + 1;
  }
}
BENCHMARK(BM_MaxScatteringEvaluation);

void BM_ConstrainedAllocate(benchmark::State& state) {
  DiskModel model(TestbedDisk());
  for (auto _ : state) {
    state.PauseTiming();
    ConstrainedAllocator allocator(&model);
    state.ResumeTiming();
    int64_t previous_end = 1;
    for (int i = 0; i < 100; ++i) {
      Result<Extent> extent = allocator.AllocateNear(previous_end, 94, 40);
      benchmark::DoNotOptimize(extent.ok());
      previous_end = extent->end_sector();
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ConstrainedAllocate);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintContinuityTable();
  vafs::RunPlacementAblation();
  vafs::RunConcurrentSimulation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
