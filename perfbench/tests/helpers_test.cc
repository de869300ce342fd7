// Tests for the benchmark's own helpers: the percentile rule, span self
// time, and delivered-block counting over retired request ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/workloads.h"
#include "src/media/media.h"
#include "src/media/sources.h"

namespace vafs {
namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values(static_cast<size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

double ValueOf(const std::optional<double>& value) {
  EXPECT_TRUE(value.has_value());
  return value.value_or(-1.0);
}

TEST(PercentileTest, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(ValueOf(Percentile(OneTo(1000), 99.0)), 990.0);
  EXPECT_FALSE(Percentile(OneTo(999), 99.0).has_value());
  EXPECT_EQ(ValueOf(Percentile(OneTo(100), 90.0)), 90.0);
  EXPECT_FALSE(Percentile(OneTo(99), 90.0).has_value());
  EXPECT_EQ(ValueOf(Percentile(OneTo(20), 50.0)), 10.0);
  EXPECT_FALSE(Percentile(OneTo(19), 50.0).has_value());
}

TEST(PercentileTest, IgnoresSampleOrder) {
  std::vector<double> values = OneTo(200);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(ValueOf(Percentile(values, 50.0)), 100.0);
  EXPECT_EQ(ValueOf(Percentile(values, 90.0)), 180.0);
}

TEST(SelfTimeTest, SubtractsTheIntervalChildrenCover) {
  std::vector<Span> spans(5);
  spans[0] = Span{"root", 0, 100, -1, 0};
  spans[1] = Span{"a", 10, 40, 0, 0};
  spans[2] = Span{"b", 30, 60, 0, 0};        // overlaps a: [30, 40) counts once
  spans[3] = Span{"a.child", 15, 20, 1, 0};  // a grandchild of root
  spans[4] = Span{"c", 90, 120, 0, 0};       // outlives root: [90, 100) is covered
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTimeTest, ProbeNestsCallsAndRunsTheHookPerTopLevelSpan) {
  Probe probe;
  int hooks = 0;
  probe.set_top_level_hook([&hooks]() { ++hooks; });
  {
    Call outer(&probe, "outer", 7);
    Call inner(&probe, "inner");
    inner.Stop();
  }
  { Call second(&probe, "second"); }
  const std::vector<Span>& spans = probe.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].tag, 7u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(hooks, 2);
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns));
}

TEST(DeliveredTest, SumsStatsUpToTheFirstUnknownId) {
  const auto stats = [](RequestId id) -> Result<RequestStats> {
    if (id > 3) {
      return Status(ErrorCode::kNotFound, "unknown request");
    }
    RequestStats found;
    found.id = id;
    found.blocks_done = static_cast<int64_t>(id) * 10;
    found.is_recording = id == 2;
    found.blocks_skipped = id == 3 ? 1 : 0;
    return found;
  };
  const Delivered delivered = SumDelivered(stats);
  EXPECT_EQ(delivered.requests, 3);
  EXPECT_EQ(delivered.blocks, 60);
  EXPECT_EQ(delivered.recorded, 20);
  EXPECT_EQ(delivered.played, 40);
  EXPECT_EQ(delivered.glitched_requests, 1);
}

TEST(DeliveredTest, CountsRetiredRequests) {
  MultimediaFileSystem fs(VodOperatingPoint(nullptr));
  VideoSource source(UvcCompressedVideo(), 11);
  const Result<MultimediaFileSystem::RecordResult> title =
      fs.Record("test", &source, nullptr, 3.0);
  ASSERT_TRUE(title.ok());
  // The short stream completes and is retired while the long one plays on.
  const Result<RequestId> short_play =
      fs.Play("test", title->rope, Medium::kVideo, TimeInterval{0.0, 1.0});
  const Result<RequestId> long_play =
      fs.Play("test", title->rope, Medium::kVideo, TimeInterval{0.0, 3.0});
  ASSERT_TRUE(short_play.ok());
  ASSERT_TRUE(long_play.ok());
  fs.RunUntilIdle();
  const Delivered delivered = SumDelivered([&fs](RequestId id) { return fs.Stats(id); });
  EXPECT_EQ(delivered.requests, 2);
  EXPECT_GT(fs.Stats(*short_play)->blocks_done, 0);
  EXPECT_EQ(delivered.blocks,
            fs.Stats(*short_play)->blocks_done + fs.Stats(*long_play)->blocks_done);
  EXPECT_EQ(delivered.glitched_requests, 0);
}

}  // namespace
}  // namespace perfbench
}  // namespace vafs
