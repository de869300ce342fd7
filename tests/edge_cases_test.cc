// Failure injection and boundary conditions across module seams.

#include <gtest/gtest.h>

#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/vafs/file_system.h"
#include "src/util/prng.h"
#include "src/vafs/persistence.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

TEST(DiskFullTest, RecordingFailsCleanlyAndLeaksNothing) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  // Leave only a sliver of space.
  const int64_t total = store.allocator().total_sectors();
  ASSERT_TRUE(store.allocator().AllocateExact(Extent{0, total - 64}).ok());
  const int64_t free_before = store.allocator().free_sectors();

  VideoSource source(TestVideo(), 1);
  Result<RecordingResult> result =
      RecordVideo(&store, &source, StrandPlacement{4, 0.0, 1.0}, 60.0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNoSpace);
  // The aborted writer returned every sector it had taken.
  EXPECT_EQ(store.allocator().free_sectors(), free_before);
  EXPECT_EQ(store.strand_count(), 0);
}

TEST(DiskFullTest, FacadeRecordPropagatesNoSpace) {
  FileSystemConfig config = TestConfig();
  MultimediaFileSystem fs(config);
  const int64_t total = fs.storage_manager().allocator().total_sectors();
  ASSERT_TRUE(fs.storage_manager().allocator().AllocateExact(Extent{0, total - 8}).ok());
  VideoSource video(TestVideo(), 1);
  Result<MultimediaFileSystem::RecordResult> result = fs.Record("alice", &video, nullptr, 10.0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNoSpace);
}

TEST(CaptureOverflowTest, SlowDiskOverflowsSmallCaptureBuffers) {
  // A recording whose bit rate is close to the disk's, with competing
  // playback traffic: writes fall behind capture and the bounded device
  // buffer pool overflows — detected, not hidden.
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestDiskParameters(), disk_options);
  StrandStore store(&disk);
  // Heavy video: 7 Mbit/s against the ~8.6 Mbit/s disk.
  const MediaProfile heavy{Medium::kVideo, 30.0, 233'000};
  ContinuityModel model(TestStorage(), DeviceProfile{heavy.BitRate() * 4, 8});
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, heavy);
  ASSERT_TRUE(placement.ok());

  // A competing playback stream to steal disk time.
  VideoSource source(TestVideo(), 1);
  ContinuityModel light_model(TestStorage(), TestVideoDevice());
  const StrandPlacement light_placement =
      *light_model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  RecordingResult light = *RecordVideo(&store, &source, light_placement, 5.0);
  const Strand* light_strand = *store.Get(light.strand);

  Simulator sim;
  AdmissionControl admission(TestStorage(), std::max(store.AverageScatteringSec(), 1e-4));
  SchedulerOptions options;
  options.forced_k = 4;  // admit everyone: force the overload
  ServiceScheduler scheduler(&store, &sim, admission, options);

  PlaybackRequest playback;
  for (int64_t b = 0; b < light_strand->block_count(); ++b) {
    playback.blocks.push_back(*light_strand->index().Lookup(b));
  }
  playback.block_duration = light_strand->info().BlockDuration();
  playback.spec = RequestSpec{TestVideo(), light_placement.granularity};
  ASSERT_TRUE(scheduler.SubmitPlayback(std::move(playback)).ok());

  RecordingRequest recording;
  recording.profile = heavy;
  recording.placement = *placement;
  recording.total_blocks = 40;  // ~9 MB on the small test disk
  recording.capture_buffers = 2;  // tiny pool
  Result<RequestId> record_id = scheduler.SubmitRecording(recording);
  ASSERT_TRUE(record_id.ok());
  scheduler.RunUntilIdle();

  Result<RequestStats> stats = scheduler.stats(*record_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_GT(stats->capture_overflows, 0);

  // The same recording with ample buffers absorbs the contention.
  RecordingRequest roomy = recording;
  roomy.capture_buffers = 64;
  Result<RequestId> roomy_id = scheduler.SubmitRecording(roomy);
  ASSERT_TRUE(roomy_id.ok());
  scheduler.RunUntilIdle();
  EXPECT_LT(scheduler.stats(*roomy_id)->capture_overflows, stats->capture_overflows);
}

TEST(CorruptImageTest, GarbageRootSectorRejected) {
  Disk disk(TestDiskParameters());
  // Write noise over the root sector.
  std::vector<uint8_t> noise(512);
  for (size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  ASSERT_TRUE(disk.Write(disk.total_sectors() - 1, 1, noise).ok());
  Result<LoadedImage> image = LoadImage(&disk);
  EXPECT_FALSE(image.ok());
}

TEST(CorruptImageTest, TruncatedCatalogRejected) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  RopeServer server(&store);
  VideoSource source(TestVideo(), 1);
  ContinuityModel model(TestStorage(), TestVideoDevice());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  RecordingResult recorded = *RecordVideo(&store, &source, placement, 1.0);
  (void)server.CreateRope("alice", recorded.strand, kNullStrand);
  Result<ImageReceipt> receipt = SaveImage(&store, &server, nullptr);
  ASSERT_TRUE(receipt.ok());

  // Zero the catalog body; the root still points at it.
  const std::vector<uint8_t> zeros(
      static_cast<size_t>(receipt->catalog_extent.sectors) * 512, 0);
  ASSERT_TRUE(disk.Write(receipt->catalog_extent.start_sector,
                         receipt->catalog_extent.sectors, zeros)
                  .ok());
  EXPECT_FALSE(LoadImage(&disk).ok());
}

TEST(CorruptImageTest, RandomCorruptionNeverCrashesRecovery) {
  // Flip random bytes in the saved image (root, catalog, or index blocks)
  // and require LoadImage to either fail cleanly or succeed; it must never
  // crash or read out of bounds (the ASan build checks the latter).
  Prng prng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    Disk disk(TestDiskParameters());
    StrandStore store(&disk);
    RopeServer server(&store);
    VideoSource source(TestVideo(), static_cast<uint64_t>(trial) + 1);
    ContinuityModel model(TestStorage(), TestVideoDevice());
    const StrandPlacement placement =
        *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
    RecordingResult recorded = *RecordVideo(&store, &source, placement, 1.0);
    (void)server.CreateRope("alice", recorded.strand, kNullStrand);
    ASSERT_TRUE(SaveImage(&store, &server, nullptr).ok());

    // Corrupt a handful of random sectors near the end of the disk, where
    // the catalog and root live (plus whatever else is hit).
    for (int flips = 0; flips < 4; ++flips) {
      const int64_t sector =
          disk.total_sectors() - 1 - prng.NextInRange(0, 40);
      std::vector<uint8_t> data;
      ASSERT_TRUE(disk.Read(sector, 1, &data).ok());
      data[static_cast<size_t>(prng.NextBelow(data.size()))] ^=
          static_cast<uint8_t>(1 + prng.NextBelow(255));
      ASSERT_TRUE(disk.Write(sector, 1, data).ok());
    }
    Result<LoadedImage> image = LoadImage(&disk);
    // Either outcome is acceptable; crashing is not.
    if (image.ok()) {
      EXPECT_GE(image->strands_recovered, 0);
    }
  }
}

TEST(LinearSeekTest, CalibrationAndMonotonicity) {
  DiskParameters params = TestDiskParameters();
  params.seek_curve = SeekCurve::kLinear;
  DiskModel model(params);
  EXPECT_EQ(model.SeekTimeForDistance(0), 0);
  EXPECT_NEAR(model.SeekTimeForDistance(1), 2000, 1);
  EXPECT_NEAR(model.SeekTimeForDistance(params.cylinders - 1), 20000, 1);
  // Linear: the midpoint distance costs the midpoint time.
  const SimDuration mid = model.SeekTimeForDistance((params.cylinders - 1 + 1) / 2);
  EXPECT_NEAR(static_cast<double>(mid), (2000 + 20000) / 2.0, 60.0);
  // Additivity (the Eqs. 19-20 assumption): two half seeks ~ one full seek
  // up to one base cost.
  const SimDuration half = model.SeekTimeForDistance((params.cylinders - 1) / 2);
  const SimDuration full = model.SeekTimeForDistance(params.cylinders - 1);
  // 2*seek(d) - seek(2d) equals the base (settle) cost, which is one
  // coefficient below seek(1) by calibration.
  EXPECT_NEAR(static_cast<double>(2 * half - full),
              static_cast<double>(model.SeekTimeForDistance(1)), 250.0);
}

TEST(ZeroLengthOpsTest, EmptyIntervalsAreHarmless) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  RopeServer server(&store);
  VideoSource source(TestVideo(), 1);
  ContinuityModel model(TestStorage(), TestVideoDevice());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  RecordingResult recorded = *RecordVideo(&store, &source, placement, 2.0);
  Result<RopeId> rope = server.CreateRope("alice", recorded.strand, kNullStrand);
  ASSERT_TRUE(rope.ok());

  const double length_before = (*server.Find(*rope))->LengthSec();
  EXPECT_TRUE(server
                  .Delete("alice", *rope, MediaSelector::kAudioVisual,
                          TimeInterval{1.0, 0.0})
                  .ok());
  EXPECT_DOUBLE_EQ((*server.Find(*rope))->LengthSec(), length_before);

  Result<std::vector<PrimaryEntry>> blocks =
      server.ResolveBlocks("alice", *rope, Medium::kVideo, TimeInterval{1.0, 0.0});
  ASSERT_TRUE(blocks.ok());
  EXPECT_TRUE(blocks->empty());

  Result<RopeId> empty_sub =
      server.Substring("alice", *rope, MediaSelector::kAudioVisual, TimeInterval{1.0, 0.0});
  ASSERT_TRUE(empty_sub.ok());
  EXPECT_DOUBLE_EQ((*server.Find(*empty_sub))->LengthSec(), 0.0);
}

TEST(SchedulerEdgeTest, StopDuringTransitionIsSafe) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  VideoSource source(TestVideo(), 1);
  ContinuityModel model(TestStorage(), TestVideoDevice());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  RecordingResult recorded = *RecordVideo(&store, &source, placement, 5.0);
  const Strand* strand = *store.Get(recorded.strand);

  Simulator sim;
  AdmissionControl admission(TestStorage(), std::max(store.AverageScatteringSec(), 1e-4));
  ServiceScheduler scheduler(&store, &sim, admission);
  auto make_request = [&] {
    PlaybackRequest request;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      request.blocks.push_back(*strand->index().Lookup(b));
    }
    request.block_duration = strand->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement.granularity};
    return request;
  };
  Result<RequestId> first = scheduler.SubmitPlayback(make_request());
  ASSERT_TRUE(first.ok());
  Result<RequestId> second = scheduler.SubmitPlayback(make_request());
  ASSERT_TRUE(second.ok());
  // Stop the second request while it is still pending admission.
  ASSERT_TRUE(scheduler.Stop(*second).ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*first)->completed);
  EXPECT_TRUE(scheduler.stats(*second)->completed);
  EXPECT_EQ(scheduler.stats(*second)->blocks_done, 0);
}

TEST(SchedulerEdgeTest, StopRecordingKeepsPartialStrand) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  Simulator sim;
  AdmissionControl admission(TestStorage(), 1e-3);
  ServiceScheduler scheduler(&store, &sim, admission);
  RecordingRequest recording;
  recording.profile = TestVideo();
  recording.placement = StrandPlacement{4, 0.0, 0.05};
  recording.total_blocks = 100;
  Result<RequestId> id = scheduler.SubmitRecording(recording);
  ASSERT_TRUE(id.ok());
  sim.RunUntil(SecondsToUsec(3.0));  // ~22 blocks captured
  ASSERT_TRUE(scheduler.Stop(*id).ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->blocks_done, 0);
  EXPECT_LT(stats->blocks_done, 100);
  ASSERT_NE(stats->recorded_strand, kNullStrand);
  Result<const Strand*> strand = store.Get(stats->recorded_strand);
  ASSERT_TRUE(strand.ok());
  EXPECT_EQ((*strand)->block_count(), stats->blocks_done);
}

}  // namespace
}  // namespace vafs
