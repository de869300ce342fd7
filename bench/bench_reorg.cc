// Section 6.2 extension: storage reorganization.
//
// "When it becomes impossible to place new media strands in such a way
// that their scattering bounds are satisfied, the storage of existing
// media strands on the disk may have to be reorganized." The bench
// fragments a disk through churn (record/delete cycles), shows a new
// recording failing for lack of a contiguous window, compacts, and
// retries; plus the anomaly-smoothing path: strands audited against a
// tighter recomputed bound get relocated.

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/reorganizer.h"
#include "src/rope/rope_server.h"

namespace vafs {
namespace {

void RunCompactionStory() {
  PrintHeader("Section 6.2 (reorganization)", "fragmentation -> compaction -> placement");
  const MediaProfile video = UvcCompressedVideo();
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestbedDisk(), disk_options);
  StrandStore store(&disk);
  RopeServer server(&store);
  const StorageTimings storage = StorageTimings::FromDiskModel(disk.model());
  ContinuityModel model(storage, UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);

  // Churn: fill the disk with short clips, then delete half of them at
  // random, leaving Swiss cheese.
  std::vector<RopeId> ropes;
  int recorded = 0;
  while (true) {
    VideoSource source(video, static_cast<uint64_t>(recorded) + 1);
    Result<RecordingResult> result = RecordVideo(&store, &source, placement, 6.0);
    if (!result.ok()) {
      break;  // disk full
    }
    ropes.push_back(*server.CreateRope("churn", result->strand, kNullStrand));
    ++recorded;
  }
  Prng prng(7);
  int deleted = 0;
  for (size_t i = 0; i < ropes.size(); ++i) {
    if (prng.NextDouble() < 0.5) {
      (void)server.DeleteRope("churn", ropes[i]);
      ++deleted;
    }
  }
  (void)server.CollectGarbage();
  std::printf("churn: %d clips recorded, %d deleted; occupancy %.1f%%\n", recorded, deleted,
              store.allocator().Occupancy() * 100.0);
  std::printf("free space: %lld sectors in %lld fragments; largest run %lld\n",
              static_cast<long long>(store.allocator().free_sectors()),
              static_cast<long long>(store.allocator().FreeExtentCount()),
              static_cast<long long>(store.allocator().LargestFreeExtent()));

  // Record a demanding strand — a tight 15 ms scattering contract, whose
  // allocation window spans only ~17 cylinders — into the fragmented
  // space. The churn holes are farther apart than the window, so the
  // placement fails until compaction consolidates the free space.
  const StrandPlacement tight{4, 0.0, 0.015};
  auto try_record = [&]() -> std::string {
    VideoSource source(video, 999);
    Result<RecordingResult> result = RecordVideo(&store, &source, tight, 60.0);
    if (!result.ok()) {
      return "FAILS (" + result.status().message() + ")";
    }
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "fits: avg gap %.2f ms, max %.2f ms",
                  result->avg_gap_sec * 1e3, result->max_gap_sec * 1e3);
    (void)store.Delete(result->strand);  // keep it out of later accounting
    return buffer;
  };
  std::printf("60 s recording at a tight 15 ms bound, before compaction: %s\n",
              try_record().c_str());

  Result<RopeServer::StorageReorgStats> stats = server.CompactStorage();
  std::printf("compaction: %lld strands moved (%lld blocks, %.1f s of disk time)\n",
              static_cast<long long>(stats->strands_relocated),
              static_cast<long long>(stats->blocks_moved),
              UsecToSeconds(stats->copy_time));
  std::printf("largest free run: %lld -> %lld sectors\n",
              static_cast<long long>(stats->largest_free_extent_before),
              static_cast<long long>(stats->largest_free_extent_after));
  std::printf("60 s recording at a tight 15 ms bound, after compaction:  %s\n",
              try_record().c_str());
}

void RunAnomalyStory() {
  PrintHeader("Section 6.2 (anomaly smoothing)", "audit against a recomputed bound");
  const MediaProfile video = UvcCompressedVideo();
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestbedDisk(), disk_options);
  StrandStore store(&disk);
  RopeServer server(&store);

  // Strands recorded under a lax 60 ms contract; the operator then
  // tightens the target bound to 20 ms (say, for a faster display rate).
  for (int i = 0; i < 4; ++i) {
    Result<std::unique_ptr<StrandWriter>> writer =
        store.CreateStrand(video, StrandPlacement{4, 0.0, 0.060});
    // Strew every other strand across the disk.
    const std::vector<uint8_t> payload(4 * 96000 / 8, 0);
    for (int64_t b = 0; b < 20; ++b) {
      if (i % 2 == 1) {
        (*writer)->SetPlacementPreference(b % 2 == 0 ? PlacementPreference::kFarthestForward
                                                     : PlacementPreference::kFarthestBackward);
      }
      (void)(*writer)->AppendBlock(payload);
    }
    Result<StrandId> id = (*writer)->Finish(80);
    (void)server.CreateRope("ops", *id, kNullStrand);
  }

  const double new_bound = 0.020;
  int anomalous = 0;
  for (StrandId id : store.AllIds()) {
    Result<StrandHealth> health = AuditStrand(&store, id, new_bound);
    if (health.ok() && health->NeedsRepair()) {
      ++anomalous;
    }
  }
  std::printf("strands: %lld total, %d anomalous at the recomputed %.0f ms bound\n",
              static_cast<long long>(store.strand_count()), anomalous, new_bound * 1e3);

  Result<RopeServer::StorageReorgStats> stats = server.ReorganizeStorage(new_bound);
  std::printf("reorganize: %lld audited, %lld relocated, %lld blocks moved\n",
              static_cast<long long>(stats->strands_audited),
              static_cast<long long>(stats->strands_relocated),
              static_cast<long long>(stats->blocks_moved));
  int still_anomalous = 0;
  for (StrandId id : store.AllIds()) {
    Result<StrandHealth> health = AuditStrand(&store, id, new_bound);
    if (health.ok() && health->NeedsRepair()) {
      ++still_anomalous;
    }
  }
  std::printf("anomalous after reorganization: %d\n", still_anomalous);
}

void BM_AuditStrand(benchmark::State& state) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestbedDisk(), disk_options);
  StrandStore store(&disk);
  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, UvcCompressedVideo());
  VideoSource source(UvcCompressedVideo(), 1);
  const StrandId id = RecordVideo(&store, &source, placement, 60.0)->strand;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AuditStrand(&store, id)->max_gap_sec);
  }
}
BENCHMARK(BM_AuditStrand);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::RunCompactionStory();
  vafs::RunAnomalyStory();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
