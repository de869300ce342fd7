#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/disk/disk.h"
#include "src/disk/disk_array.h"
#include "src/disk/disk_model.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

TEST(DiskModelTest, GeometryDerivedQuantities) {
  DiskModel model(TestDiskParameters());
  EXPECT_EQ(model.params().TotalSectors(), 200 * 4 * 32);
  EXPECT_EQ(model.params().SectorsPerCylinder(), 128);
  EXPECT_EQ(model.params().CapacityBytes(), 200LL * 4 * 32 * 512);
}

TEST(DiskModelTest, SectorToChsRoundTrips) {
  DiskModel model(TestDiskParameters());
  const Chs chs = model.SectorToChs(128 * 3 + 32 * 2 + 7);
  EXPECT_EQ(chs.cylinder, 3);
  EXPECT_EQ(chs.surface, 2);
  EXPECT_EQ(chs.sector, 7);
  EXPECT_EQ(model.SectorToCylinder(128 * 3), 3);
}

TEST(DiskModelTest, SeekTimeCalibration) {
  DiskModel model(TestDiskParameters());
  EXPECT_EQ(model.SeekTimeForDistance(0), 0);
  // seek(1) == min_seek, seek(full stroke) == max_seek.
  EXPECT_NEAR(model.SeekTimeForDistance(1), 2000, 1);
  EXPECT_NEAR(model.SeekTimeForDistance(199), 20000, 1);
}

TEST(DiskModelTest, SeekTimeMonotone) {
  DiskModel model(TestDiskParameters());
  SimDuration previous = -1;
  for (int64_t d = 0; d < 200; ++d) {
    const SimDuration seek = model.SeekTimeForDistance(d);
    EXPECT_GE(seek, previous) << "distance " << d;
    previous = seek;
  }
}

TEST(DiskModelTest, SeekConcavity) {
  // sqrt model: marginal cost of extra distance decreases.
  DiskModel model(TestDiskParameters());
  const SimDuration d10 = model.SeekTimeForDistance(10) - model.SeekTimeForDistance(5);
  const SimDuration d100 = model.SeekTimeForDistance(105) - model.SeekTimeForDistance(100);
  EXPECT_GT(d10, d100);
}

TEST(DiskModelTest, RotationAndTransfer) {
  DiskModel model(TestDiskParameters());
  // 3600 rpm = 60 rotations/sec -> 16667 usec per rotation.
  EXPECT_NEAR(model.RotationTime(), 16667, 2);
  EXPECT_EQ(model.AverageRotationalLatency(), model.RotationTime() / 2);
  // One track of 32 sectors transfers in one rotation.
  EXPECT_NEAR(model.TransferTime(32), model.RotationTime(), 40);
  // Transfer rate: 32 sectors * 512 B * 60 rot/s * 8 bits.
  EXPECT_NEAR(model.TransferRateBitsPerSec(), 32.0 * 512 * 60 * 8, 1.0);
}

TEST(DiskModelTest, MaxAccessGapIsFullStrokePlusRotation) {
  DiskModel model(TestDiskParameters());
  EXPECT_EQ(model.MaxAccessGap(),
            model.SeekTimeForDistance(199) + model.WorstRotationalLatency());
}

TEST(DiskModelTest, MaxCylinderDistanceForGapInvertsSeek) {
  DiskModel model(TestDiskParameters());
  for (int64_t d : {1, 5, 50, 150, 199}) {
    const SimDuration gap = model.SeekTimeForDistance(d) + model.AverageRotationalLatency();
    EXPECT_EQ(model.MaxCylinderDistanceForGap(gap), d) << "distance " << d;
    // One microsecond less cannot cover distance d.
    EXPECT_LT(model.MaxCylinderDistanceForGap(gap - 1), d);
  }
  // Gap smaller than rotational latency: not even distance 0 fits.
  EXPECT_EQ(model.MaxCylinderDistanceForGap(model.AverageRotationalLatency() - 1), -1);
}

TEST(DiskTest, WriteReadRoundTrip) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> payload(512 * 3);
  std::iota(payload.begin(), payload.end(), 0);
  ASSERT_TRUE(disk.Write(100, 3, payload).ok());
  std::vector<uint8_t> read_back;
  ASSERT_TRUE(disk.Read(100, 3, &read_back).ok());
  EXPECT_EQ(read_back, payload);
}

TEST(DiskTest, UnwrittenSectorsReadZero) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> data;
  ASSERT_TRUE(disk.Read(5, 2, &data).ok());
  EXPECT_EQ(data.size(), 1024u);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(), [](uint8_t b) { return b == 0; }));
}

TEST(DiskTest, RejectsOutOfRangeExtents) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> out;
  EXPECT_EQ(disk.Read(-1, 1, &out).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.Read(disk.total_sectors(), 1, &out).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.Read(disk.total_sectors() - 1, 2, &out).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.Write(0, 0, {}).status().code(), ErrorCode::kOutOfRange);
}

TEST(DiskTest, RejectsMisSizedWrite) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> payload(100);  // not 512
  EXPECT_EQ(disk.Write(0, 1, payload).status().code(), ErrorCode::kInvalidArgument);
}

TEST(DiskTest, ServiceTimeIncludesSeekLatencyTransfer) {
  Disk disk(TestDiskParameters());
  const DiskModel& model = disk.model();
  disk.MoveHeadToCylinder(0);
  std::vector<uint8_t> out;
  // Read on cylinder 50 (sector 50*128), 4 sectors.
  Result<SimDuration> service = disk.Read(50 * 128, 4, &out);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(*service, model.SeekTime(0, 50) + model.AverageRotationalLatency() +
                          model.TransferTime(4));
  // Head is now at cylinder 50: a re-read pays no seek.
  Result<SimDuration> again = disk.Read(50 * 128, 4, &out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, model.AverageRotationalLatency() + model.TransferTime(4));
}

TEST(DiskTest, PeekMatchesRead) {
  Disk disk(TestDiskParameters());
  const SimDuration peek = disk.PeekServiceTime(1000, 8);
  std::vector<uint8_t> out;
  Result<SimDuration> service = disk.Read(1000, 8, &out);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(peek, *service);
}

TEST(DiskTest, CountersAccumulate) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> out;
  ASSERT_TRUE(disk.Read(0, 1, &out).ok());
  ASSERT_TRUE(disk.Write(10, 1, std::vector<uint8_t>(512, 1)).ok());
  EXPECT_EQ(disk.reads(), 1);
  EXPECT_EQ(disk.writes(), 1);
  EXPECT_GT(disk.busy_time(), 0);
}

TEST(DiskTest, TimingOnlyModeSkipsData) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestDiskParameters(), disk_options);
  ASSERT_TRUE(disk.Write(0, 2, {}).ok());
  std::vector<uint8_t> out{1, 2, 3};
  ASSERT_TRUE(disk.Read(0, 2, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(DiskArrayTest, StripesBlocksAcrossMembers) {
  DiskArray array(TestDiskParameters(), 4);
  EXPECT_EQ(array.members(), 4);
  EXPECT_EQ(array.MemberForBlock(0), 0);
  EXPECT_EQ(array.MemberForBlock(5), 1);
  EXPECT_EQ(array.MemberForBlock(7), 3);
}

TEST(DiskArrayTest, BatchCompletesWithSlowestMember) {
  DiskArray array(TestDiskParameters(), 2);
  // Member 0 reads near its head; member 1 must seek across the disk.
  array.member(0).MoveHeadToCylinder(0);
  array.member(1).MoveHeadToCylinder(0);
  std::vector<DiskArray::BatchRequest> batch = {
      {0, 0, 4},
      {1, 199 * 128, 4},
  };
  const SimDuration fast = array.member(0).PeekServiceTime(0, 4);
  const SimDuration slow = array.member(1).PeekServiceTime(199 * 128, 4);
  ASSERT_LT(fast, slow);
  std::vector<std::vector<uint8_t>> out;
  Result<DiskArray::BatchOutcome> outcome = array.ReadBatch(batch, &out);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->completion_time, slow);
  ASSERT_EQ(outcome->per_request.size(), 2u);
  EXPECT_TRUE(outcome->per_request[0].status.ok());
  EXPECT_TRUE(outcome->per_request[1].status.ok());
  EXPECT_EQ(outcome->per_request[0].service, fast);
  EXPECT_EQ(outcome->per_request[1].service, slow);
  EXPECT_EQ(out.size(), 2u);
}

TEST(DiskArrayTest, RejectsTwoRequestsOnOneMember) {
  DiskArray array(TestDiskParameters(), 2);
  std::vector<DiskArray::BatchRequest> batch = {{0, 0, 1}, {0, 128, 1}};
  EXPECT_EQ(array.ReadBatch(batch, nullptr).status().code(), ErrorCode::kInvalidArgument);
}

TEST(DiskArrayTest, WriteReadRoundTripPerMember) {
  DiskArray array(TestDiskParameters(), 3);
  std::vector<DiskArray::BatchRequest> batch = {{0, 10, 1}, {1, 20, 1}, {2, 30, 1}};
  std::vector<std::vector<uint8_t>> payloads(3, std::vector<uint8_t>(512));
  payloads[0].assign(512, 0xaa);
  payloads[1].assign(512, 0xbb);
  payloads[2].assign(512, 0xcc);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(array.member(batch[i].member)
                    .Write(batch[i].start_sector, batch[i].sectors, payloads[i])
                    .ok());
  }
  std::vector<std::vector<uint8_t>> out;
  Result<DiskArray::BatchOutcome> read = array.ReadBatch(batch, &out);
  ASSERT_TRUE(read.ok());
  for (const DiskArray::MemberOutcome& fate : read->per_request) {
    EXPECT_TRUE(fate.status.ok());
  }
  EXPECT_EQ(out, payloads);
}

// Property sweep: the seek-model inversion holds across geometries.
class SeekInversionTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SeekInversionTest, InversionConsistent) {
  DiskParameters params = TestDiskParameters();
  params.cylinders = GetParam();
  DiskModel model(params);
  for (int64_t d = 0; d < params.cylinders; d += std::max<int64_t>(1, params.cylinders / 17)) {
    const SimDuration gap = model.SeekTimeForDistance(d) + model.AverageRotationalLatency();
    EXPECT_GE(model.MaxCylinderDistanceForGap(gap), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, SeekInversionTest,
                         ::testing::Values<int64_t>(2, 10, 100, 1000, 5000));

}  // namespace
}  // namespace vafs
