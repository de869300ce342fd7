#include <gtest/gtest.h>

#include "src/msm/striped.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// Media whose bit rate exceeds one test-disk member (R_dt ~ 7.9 Mbit/s
// per member at 3600 RPM x 32 sectors): 9 Mbit/s video.
MediaProfile HeavyVideo() { return MediaProfile{Medium::kVideo, 30.0, 300'000}; }

class StripedTest : public ::testing::Test {
 protected:
  StrandPlacement PlacementFor(int p, const MediaProfile& media) {
    const DiskModel model(TestDiskParameters());
    ContinuityModel continuity(StorageTimings::FromDiskModel(model),
                               DeviceProfile{media.BitRate() * 4.0, 4 * p}, p);
    Result<StrandPlacement> placement =
        continuity.DerivePlacement(RetrievalArchitecture::kConcurrent, media);
    EXPECT_TRUE(placement.ok()) << placement.status().ToString();
    return placement.ok() ? *placement : StrandPlacement{};
  }
};

TEST_F(StripedTest, RecordStripesRoundRobin) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  DiskArray array(TestDiskParameters(), 4, disk_options);
  StripedStore store(&array);
  const StrandPlacement placement = PlacementFor(4, TestVideo());
  Result<StripedStrand> strand = store.Record(TestVideo(), placement, 4.0);
  ASSERT_TRUE(strand.ok());
  const int64_t blocks = static_cast<int64_t>(strand->blocks.size());
  EXPECT_EQ(blocks, (120 + placement.granularity - 1) / placement.granularity);
  // Every member received writes.
  for (int m = 0; m < 4; ++m) {
    EXPECT_GT(array.member(m).writes(), 0) << "member " << m;
  }
}

TEST_F(StripedTest, PerMemberPlacementHonorsWindow) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  DiskArray array(TestDiskParameters(), 2, disk_options);
  StripedStore store(&array);
  const StrandPlacement placement = PlacementFor(2, TestVideo());
  Result<StripedStrand> strand = store.Record(TestVideo(), placement, 6.0);
  ASSERT_TRUE(strand.ok());
  const DiskModel& model = array.member_model();
  // Consecutive blocks on the SAME member stay within the window.
  for (size_t b = 2; b < strand->blocks.size(); ++b) {
    const PrimaryEntry& prev = strand->blocks[b - 2];
    const PrimaryEntry& cur = strand->blocks[b];
    const double gap = UsecToSeconds(
        model.AccessGap(prev.sector + prev.sector_count - 1, cur.sector));
    EXPECT_LE(gap, placement.max_scattering_sec + 1e-9) << "block " << b;
  }
}

TEST_F(StripedTest, PlaybackMeetsEquation3) {
  // The heavy stream is infeasible on one member but clean on four.
  const DiskModel model(TestDiskParameters());
  const StorageTimings member_timings = StorageTimings::FromDiskModel(model);
  ASSERT_GT(HeavyVideo().BitRate(), member_timings.transfer_rate_bits_per_sec);

  ContinuityModel single(member_timings, DeviceProfile{HeavyVideo().BitRate() * 4.0, 8}, 1);
  EXPECT_FALSE(
      single.DerivePlacement(RetrievalArchitecture::kPipelined, HeavyVideo()).ok());

  DiskOptions disk_options;
  disk_options.retain_data = false;
  DiskArray array(TestDiskParameters(), 4, disk_options);
  StripedStore store(&array);
  const StrandPlacement placement = PlacementFor(4, HeavyVideo());
  Result<StripedStrand> strand = store.Record(HeavyVideo(), placement, 5.0);
  ASSERT_TRUE(strand.ok());
  Result<StripedStore::PlaybackOutcome> outcome = store.Play(*strand);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->blocks_done, static_cast<int64_t>(strand->blocks.size()));
  EXPECT_EQ(outcome->violations, 0);
}

TEST_F(StripedTest, BufferCapBoundsAccumulation) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  DiskArray array(TestDiskParameters(), 4, disk_options);
  StripedStore store(&array);
  const StrandPlacement placement = PlacementFor(4, TestVideo());
  Result<StripedStrand> strand = store.Record(TestVideo(), placement, 6.0);
  ASSERT_TRUE(strand.ok());
  Result<StripedStore::PlaybackOutcome> outcome = store.Play(*strand, /*buffer_cap=*/8);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->violations, 0);
  EXPECT_LE(outcome->max_buffered_blocks, 8 + 4);  // cap + one batch in flight
}

TEST_F(StripedTest, FreeReturnsAllSpace) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  DiskArray array(TestDiskParameters(), 3, disk_options);
  StripedStore store(&array);
  const StrandPlacement placement = PlacementFor(3, TestVideo());
  Result<StripedStrand> strand = store.Record(TestVideo(), placement, 3.0);
  ASSERT_TRUE(strand.ok());
  ASSERT_TRUE(store.Free(*strand).ok());
  // A re-record of the same size succeeds (space came back).
  Result<StripedStrand> again = store.Record(TestVideo(), placement, 3.0);
  EXPECT_TRUE(again.ok());
}

TEST_F(StripedTest, EmptyPlayRejected) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  DiskArray array(TestDiskParameters(), 2, disk_options);
  StripedStore store(&array);
  EXPECT_FALSE(store.Play(StripedStrand{}).ok());
}

}  // namespace
}  // namespace vafs
