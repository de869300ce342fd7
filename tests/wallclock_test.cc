// Wall-clock execution engine: the disk-array waves every node runs
// inline inside its epoch task.
//
// The engine (DESIGN.md section 12) spends host cores only on whole
// cluster nodes between epoch barriers; tests/criticalpath_test.cc and
// tests/cluster_test.cc hold those runs byte-identical across worker
// counts. Here the contract is the wave path itself: a planned-round
// workload over a disk array audits clean when healthy and takes the
// degraded path when a member faults, a faulted arm's mechanical time is
// charged into wave completion, and payloads round-trip byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/disk/disk_array.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

constexpr int kMembers = 4;
constexpr int kStreams = 3;

// One scheduler run's trace, rendered to bytes, and its outcome.
struct RunImage {
  std::string trace;  // TraceEventSummary of the full log
  int64_t rounds = 0;
  int64_t blocks_done = 0;
  int64_t blocks_skipped = 0;
  bool auditor_clean = false;
  std::string auditor_report;
};

// One fully deterministic planned-round workload over a kMembers array.
// With `fault_member`, member 1 carries a whole-disk bad range, so every
// wave touching it faults mid-wave and the de-coalesced retry/skip path
// runs.
RunImage RunWorkload(bool fault_member) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);

  obs::TraceLog log;
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee;
  tee.Add(&log);
  tee.Add(&auditor);
  store.set_trace_sink(&tee);

  // Record the strands (seeded, before any scheduling).
  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  EXPECT_TRUE(placement.ok());
  std::vector<PlaybackRequest> requests;
  for (int i = 0; i < kStreams; ++i) {
    VideoSource source(TestVideo(), 100 + static_cast<uint64_t>(i));
    Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, 3.0);
    EXPECT_TRUE(recorded.ok());
    Result<const Strand*> strand = store.Get(recorded->strand);
    EXPECT_TRUE(strand.ok());
    PlaybackRequest request;
    for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
      request.blocks.push_back(*(*strand)->index().Lookup(b));
    }
    request.block_duration = (*strand)->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement->granularity};
    requests.push_back(std::move(request));
  }

  DiskArray array(TestDiskParameters(), kMembers);
  for (int m = 0; m < kMembers; ++m) {
    array.member(m).set_trace_sink(&tee);
  }
  if (fault_member) {
    array.member(1).fault_injector().MarkBad(0, array.member(1).total_sectors());
  }

  Simulator sim;
  SchedulerOptions options;
  options.trace = &tee;
  options.service_order = ServiceOrder::kPlanned;
  options.disk_array = &array;
  const double avg = std::max(store.AverageScatteringSec(), 1e-4);
  ServiceScheduler scheduler(&store, &sim, AdmissionControl(TestStorage(), avg), options);

  std::vector<RequestId> ids;
  for (PlaybackRequest& request : requests) {
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    EXPECT_TRUE(id.ok());
    if (id.ok()) {
      ids.push_back(*id);
    }
  }
  scheduler.RunUntilIdle();

  RunImage image;
  for (const obs::TraceEvent& event : log.events()) {
    image.trace += obs::TraceEventSummary(event);
    image.trace += '\n';
  }
  image.rounds = scheduler.rounds_executed();
  for (RequestId id : ids) {
    Result<RequestStats> stats = scheduler.stats(id);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) {
      image.blocks_done += stats->blocks_done;
      image.blocks_skipped += stats->blocks_skipped;
    }
  }
  image.auditor_clean = auditor.Clean();
  image.auditor_report = auditor.Report();
  return image;
}

TEST(WallclockPlannedArrayTest, FaultedMemberTakesTheDegradedPath) {
  const RunImage healthy = RunWorkload(/*fault_member=*/false);
  EXPECT_TRUE(healthy.auditor_clean) << healthy.auditor_report;
  EXPECT_GT(healthy.rounds, 1);
  EXPECT_GT(healthy.blocks_done, 0);
  EXPECT_FALSE(healthy.trace.empty());
  // One member's platter is all bad range: waves fault mid-round, retries
  // run, blocks get skipped, and the trace carries the degraded path.
  const RunImage faulted = RunWorkload(/*fault_member=*/true);
  EXPECT_GT(faulted.blocks_skipped, 0);
  EXPECT_NE(faulted.trace, healthy.trace);
}

TEST(WallclockDiskArrayTest, FaultedMemberChargesMechanicalTimeIntoCompletion) {
  // Eq. 11 accounting under faults: the batch is not done until the
  // slowest arm stops, and a faulted member's arm still moved — its
  // last_fault_service() must be inside completion_time.
  DiskArray array(TestDiskParameters(), 2);
  array.member(1).fault_injector().MarkBad(100, 8);
  const std::vector<DiskArray::BatchRequest> batch = {{0, 0, 8}, {1, 100, 8}};
  Result<DiskArray::BatchOutcome> outcome = array.ReadBatch(batch, nullptr);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->per_request.size(), 2u);
  EXPECT_TRUE(outcome->per_request[0].status.ok());
  EXPECT_FALSE(outcome->per_request[1].status.ok());
  EXPECT_GT(outcome->per_request[1].service, 0) << "faulted arm consumed no mechanism";
  EXPECT_EQ(outcome->per_request[1].service, array.member(1).last_fault_service());
  EXPECT_EQ(outcome->completion_time,
            std::max(outcome->per_request[0].service, outcome->per_request[1].service));
}

TEST(WallclockDiskArrayTest, PayloadsRoundTrip) {
  // Write distinct payloads to each member, then read them back: every
  // request returns exactly the bytes written to its member.
  DiskArray array(TestDiskParameters(), 3);
  const int64_t sector_bytes = array.member(0).bytes_per_sector();
  std::vector<std::vector<uint8_t>> data;
  std::vector<DiskArray::BatchRequest> batch;
  for (int m = 0; m < 3; ++m) {
    batch.push_back(DiskArray::BatchRequest{m, 64 * (m + 1), 4});
    data.push_back(
        std::vector<uint8_t>(static_cast<size_t>(4 * sector_bytes), static_cast<uint8_t>(m + 7)));
  }
  Result<DiskArray::BatchOutcome> wrote = array.WriteBatch(batch, data);
  ASSERT_TRUE(wrote.ok());
  ASSERT_TRUE(wrote->AllOk());
  std::vector<std::vector<uint8_t>> read;
  Result<DiskArray::BatchOutcome> outcome = array.ReadBatch(batch, &read);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->AllOk());
  EXPECT_EQ(read, data);
}

}  // namespace
}  // namespace vafs
