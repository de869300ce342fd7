// Scale smoke test for the flat request table and the round planner.
//
// DESIGN.md section 15: the round hot path was rebuilt around a flat,
// generation-stamped slot table and arena-reused round plans so one node
// can carry tens of thousands of concurrent streams. This test drives ~5k
// concurrent streams through a couple of planned rounds on one spindle,
// with metrics and SLO sinks attached, under a strict continuity auditor.
// Block playback is stretched far past the round time so the run must be
// *clean* under Eq. 11: at this population a slot-ledger bug or a planner
// ordering bug shows up as an audit violation or a lost block.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

constexpr int kCatalog = 8;       // distinct recorded strands
constexpr int64_t kStreams = 5000;
constexpr int64_t kBlocksPerStream = 2;  // ~2 rounds at forced_k = 1

TEST(ScaleSmokeTest, FiveThousandStreamsRunCleanUnderStrictAudit) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);

  obs::TraceLog log;
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics_sink(&registry);
  obs::SloTracker slo;
  obs::TeeSink tee;
  tee.Add(&log);
  tee.Add(&auditor);
  tee.Add(&metrics_sink);
  tee.Add(&slo);

  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  ASSERT_TRUE(placement.ok());
  std::vector<std::vector<PrimaryEntry>> catalog;
  for (int i = 0; i < kCatalog; ++i) {
    VideoSource source(TestVideo(), 500 + static_cast<uint64_t>(i));
    Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, 1.0);
    ASSERT_TRUE(recorded.ok());
    Result<const Strand*> strand = store.Get(recorded->strand);
    ASSERT_TRUE(strand.ok());
    std::vector<PrimaryEntry> blocks;
    const int64_t count = std::min<int64_t>(kBlocksPerStream, (*strand)->block_count());
    for (int64_t b = 0; b < count; ++b) {
      blocks.push_back(*(*strand)->index().Lookup(b));
    }
    catalog.push_back(std::move(blocks));
  }

  Simulator sim;
  SchedulerOptions options;
  options.trace = &tee;
  options.service_order = ServiceOrder::kPlanned;
  options.forced_k = 1;  // admit everyone: the hot path is under test, not Eq. 17
  options.batch_activation = true;  // all 5k join the rotation in one round
  const double avg = std::max(store.AverageScatteringSec(), 1e-4);
  ServiceScheduler scheduler(&store, &sim, AdmissionControl(TestStorage(), avg), options);

  std::vector<RequestId> ids;
  ids.reserve(static_cast<size_t>(kStreams));
  for (int64_t i = 0; i < kStreams; ++i) {
    PlaybackRequest request;
    request.blocks = catalog[static_cast<size_t>(i) % catalog.size()];
    // Stretch one block's playback far past the mechanical round time:
    // Eq. 11 then holds even with 5k streams in one rotation, so the
    // auditor must come back fully clean, not merely deterministic.
    request.block_duration = SecondsToUsec(600.0);
    request.spec = RequestSpec{TestVideo(), placement->granularity};
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  scheduler.RunUntilIdle();

  EXPECT_TRUE(auditor.Clean()) << auditor.Report();
  EXPECT_GE(scheduler.rounds_executed(), 2);
  EXPECT_FALSE(log.events().empty());
  int64_t blocks_done = 0;
  for (RequestId id : ids) {
    Result<RequestStats> stats = scheduler.stats(id);
    ASSERT_TRUE(stats.ok());
    blocks_done += stats->blocks_done;
  }
  EXPECT_EQ(blocks_done, kStreams * kBlocksPerStream);
}

}  // namespace
}  // namespace vafs
