// Section 4.2 (Eqs. 19-20) and Figures 9-10: bounded copying during
// editing.
//
// Sweeps disk occupancy and measures how many blocks the scattering repair
// actually copies to bridge an edit seam, against the paper's analytic
// bounds C = l_seek_max / (2 * l_ds_lower) (sparse) and
// C = l_seek_max / l_ds_lower (dense). Then reproduces Figure 9's INSERT
// as a rope-level operation with repair statistics.

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "bench/bench_support.h"
#include "src/core/editing_bounds.h"
#include "src/msm/recorder.h"
#include "src/msm/scattering_repair.h"
#include "src/rope/rope_server.h"

namespace vafs {
namespace {

struct RepairMeasurement {
  double occupancy = 0.0;
  bool repaired = false;
  bool failed = false;
  int64_t copies = 0;
  double copy_ms = 0.0;
};

// Disk for the editing experiments: linear seek curve and low rotational
// latency, matching the additive-seek arithmetic behind Eqs. 19-20.
DiskParameters EditDisk() {
  DiskParameters params;
  params.cylinders = 2000;
  params.surfaces = 16;
  params.sectors_per_track = 128;
  params.bytes_per_sector = 512;
  params.rpm = 15000.0;  // 4 ms rotation, 2 ms average latency
  params.min_seek_ms = 2.0;
  params.max_seek_ms = 30.0;
  params.seek_curve = SeekCurve::kLinear;
  return params;
}

// The strand placement contract for the editing experiments: scattering
// in [8 ms, 20 ms], i.e. l_upper = 2.5 * l_lower, comfortably within the
// UVC continuity bound on this disk.
StrandPlacement EditPlacement() { return StrandPlacement{4, 0.008, 0.020}; }

// Fills every cylinder in [first, last] except multiples of `free_period`,
// leaving a regular grid of free cylinders for the copy chain.
void FillCylinders(StrandStore* store, int64_t first, int64_t last, int64_t free_period) {
  const int64_t per_cylinder = store->model().params().SectorsPerCylinder();
  for (int64_t cyl = first; cyl <= last; ++cyl) {
    if (free_period > 0 && cyl % free_period == 0) {
      continue;
    }
    (void)store->allocator().AllocateExact(Extent{cyl * per_cylinder, per_cylinder});
  }
}

RepairMeasurement MeasureRepair(int64_t free_period) {
  const MediaProfile video = UvcCompressedVideo();
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(EditDisk(), disk_options);
  StrandStore store(&disk);
  const int64_t cylinders = disk.model().params().cylinders;
  const int64_t per_cylinder = disk.model().params().SectorsPerCylinder();

  auto record_at = [&](int64_t cylinder, int64_t blocks, const StrandPlacement& placement) {
    Result<std::unique_ptr<StrandWriter>> writer = store.CreateStrand(video, placement);
    (void)(*writer)->SetAnchor(cylinder * per_cylinder + 1);
    const std::vector<uint8_t> payload(
        static_cast<size_t>(placement.granularity * video.bits_per_unit / 8), 0);
    for (int64_t b = 0; b < blocks; ++b) {
      if (!(*writer)->AppendBlock(payload).ok()) {
        return kNullStrand;
      }
    }
    Result<StrandId> id = (*writer)->Finish(blocks * placement.granularity);
    return id.ok() ? *id : kNullStrand;
  };
  // Strand A packs tightly near the front; strand B carries the editing
  // placement contract (the repair chain inherits its bounds) at the back.
  StrandPlacement contiguous = EditPlacement();
  contiguous.min_scattering_sec = 0.0;
  const StrandId a = record_at(2, 5, contiguous);
  const StrandId b = record_at(cylinders - 12, 10, EditPlacement());

  // Fill the middle with the requested density (0 = leave it all free).
  if (free_period > 0) {
    FillCylinders(&store, 8, cylinders - 30, free_period);
  }

  RepairMeasurement measurement;
  measurement.occupancy = store.allocator().Occupancy();
  if (a == kNullStrand || b == kNullStrand) {
    measurement.failed = true;
    return measurement;
  }
  Result<RepairOutcome> outcome = RepairSeam(&store, a, 4, b, 0, 10);
  if (!outcome.ok()) {
    measurement.failed = true;
    return measurement;
  }
  measurement.repaired = !outcome->already_continuous;
  measurement.copies = outcome->blocks_copied;
  measurement.copy_ms = UsecToSeconds(outcome->copy_time) * 1e3;
  return measurement;
}

void PrintCopySweep() {
  PrintHeader("Eqs. 19-20", "blocks copied at an edit seam vs disk occupancy");
  PrintOperatingPoint(EditDisk());
  const DiskModel model(EditDisk());
  const StorageTimings storage = StorageTimings::FromDiskModel(model);
  const StrandPlacement placement = EditPlacement();
  const int64_t sparse_bound = EditCopyBound(storage.max_access_gap_sec,
                                             placement.min_scattering_sec, DiskOccupancy::kSparse);
  const int64_t dense_bound = EditCopyBound(storage.max_access_gap_sec,
                                            placement.min_scattering_sec, DiskOccupancy::kDense);
  std::printf("scattering window: l_ds in [%.1f, %.1f] ms; analytic copy bounds: "
              "sparse %lld, dense %lld\n",
              placement.min_scattering_sec * 1e3, placement.max_scattering_sec * 1e3,
              static_cast<long long>(sparse_bound), static_cast<long long>(dense_bound));
  std::printf("%14s %10s | %10s %10s %12s\n", "free spacing", "occupancy", "copies",
              "copy ms", "verdict");
  for (int64_t free_period : {0, 100, 200, 300, 400, 500, 700, 1100, 1300}) {
    const RepairMeasurement m = MeasureRepair(free_period);
    const char* verdict = m.failed                   ? "no placement"
                          : !m.repaired              ? "no repair"
                          : m.copies <= sparse_bound ? "<= sparse"
                          : m.copies <= dense_bound  ? "<= dense"
                                                     : "OVER BOUND";
    if (free_period == 0) {
      std::printf("%14s %9.1f%% | %10lld %10.2f %12s\n", "disk empty", m.occupancy * 100.0,
                  static_cast<long long>(m.copies), m.copy_ms, verdict);
    } else {
      std::printf("%11lld cyl %9.1f%% | %10lld %10.2f %12s\n",
                  static_cast<long long>(free_period), m.occupancy * 100.0,
                  static_cast<long long>(m.copies), m.copy_ms, verdict);
    }
  }
  std::printf("(denser disks force shorter hops, so the chain copies more blocks,\n"
              " approaching the dense bound; a disk with no free cylinder within the\n"
              " scattering window admits no placement at all -- the Section 6.2\n"
              " reorganization case)\n");
}

void PrintInsertExample() {
  PrintHeader("Figures 9-10", "INSERT on a rope, with seam repair");
  Disk disk(FutureDisk());
  StrandStore store(&disk);
  RopeServer server(&store);
  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, UvcCompressedVideo());

  auto record_rope = [&](uint64_t seed, double seconds) {
    VideoSource source(UvcCompressedVideo(), seed);
    RecordingResult recorded = *RecordVideo(&store, &source, placement, seconds);
    return *server.CreateRope("editor", recorded.strand, kNullStrand);
  };
  const RopeId rope1 = record_rope(1, 10.0);
  const RopeId rope2 = record_rope(2, 6.0);

  std::printf("Rope1: %.1f s, Rope2: %.1f s\n", (*server.Find(rope1))->LengthSec(),
              (*server.Find(rope2))->LengthSec());
  (void)server.Insert("editor", rope1, 3.3, MediaSelector::kVideo, rope2,
                      TimeInterval{0.0, 6.0});
  const Rope* rope = *server.Find(rope1);
  std::printf("after INSERT[base: Rope1, position: 3.3s, with: Rope2[0, 6s]]: %.1f s, "
              "%zu intervals\n",
              rope->LengthSec(), rope->video().segments.size());
  for (const SyncInterval& interval : rope->SynchronizationInfo()) {
    std::printf("  [%6.2fs +%5.2fs] video strand %llu, block %lld\n", interval.start_sec,
                interval.length_sec, static_cast<unsigned long long>(interval.video_strand),
                static_cast<long long>(interval.video_block));
  }
  Result<RopeServer::RopeRepairStats> stats = server.RepairRope(rope1, Medium::kVideo);
  std::printf("repair: %lld seams checked, %lld repaired, %lld blocks copied (%.2f ms disk)\n",
              static_cast<long long>(stats->seams_checked),
              static_cast<long long>(stats->seams_repaired),
              static_cast<long long>(stats->blocks_copied),
              UsecToSeconds(stats->copy_time) * 1e3);
  std::printf("strands now: %lld (copies are new immutable strands; interests track sharing)\n",
              static_cast<long long>(store.strand_count()));
}

void BM_RepairSeam(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureRepair(4).copies);
  }
}
BENCHMARK(BM_RepairSeam)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintCopySweep();
  vafs::PrintInsertExample();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
