#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/msm/recorder.h"
#include "src/msm/round_planner.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/trace.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// --- BuildRoundPlan (pure planner) --------------------------------------

class RoundPlannerTest : public ::testing::Test {
 protected:
  RoundPlannerTest() : model_(TestDiskParameters()) {}

  // A candidate whose extent starts at the first sector of `cylinder`.
  PlanCandidate AtCylinder(int64_t ordinal, int64_t cylinder, int64_t sectors = 4) {
    PlanCandidate candidate;
    candidate.ordinal = ordinal;
    candidate.sector = cylinder * model_.params().SectorsPerCylinder();
    candidate.sectors = sectors;
    return candidate;
  }

  PlanCandidate AtSector(int64_t ordinal, int64_t sector, int64_t sectors) {
    PlanCandidate candidate;
    candidate.ordinal = ordinal;
    candidate.sector = sector;
    candidate.sectors = sectors;
    return candidate;
  }

  PlanCandidate Silence(int64_t ordinal) {
    PlanCandidate candidate;
    candidate.ordinal = ordinal;
    candidate.silence = true;
    return candidate;
  }

  int64_t CylinderOf(const PlannedTransfer& transfer) const {
    return model_.SectorToCylinder(transfer.start_sector);
  }

  DiskModel model_;
};

TEST_F(RoundPlannerTest, CScanWrapsPastTheOutermostCylinder) {
  // Head at cylinder 40; wants at 50, 10 and 90. The elevator sweeps up
  // from the arm (50, then 90) and wraps for the one behind it (10).
  PlanInput input;
  input.request = 1;
  input.blocks = {AtCylinder(0, 50), AtCylinder(1, 10), AtCylinder(2, 90)};
  const RoundPlan plan = BuildRoundPlan(model_, 40, {input});
  ASSERT_EQ(plan.transfers.size(), 3u);
  EXPECT_EQ(CylinderOf(plan.transfers[0]), 50);
  EXPECT_EQ(CylinderOf(plan.transfers[1]), 90);
  EXPECT_EQ(CylinderOf(plan.transfers[2]), 10);
  EXPECT_EQ(plan.read_transfers, 3);
  EXPECT_EQ(plan.data_blocks, 3);
  EXPECT_EQ(plan.coalesced_blocks, 0);
}

TEST_F(RoundPlannerTest, SingleTransferRound) {
  PlanInput input;
  input.request = 1;
  input.blocks = {AtCylinder(0, 7)};
  const RoundPlan plan = BuildRoundPlan(model_, 100, {input});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.read_transfers, 1);
  EXPECT_EQ(plan.data_blocks, 1);
  ASSERT_EQ(plan.riders_of(plan.transfers[0]).size(), 1u);
  EXPECT_EQ(plan.riders_of(plan.transfers[0])[0].request, 1u);
}

TEST_F(RoundPlannerTest, ContiguousBlocksCoalesceIntoOneTransfer) {
  PlanInput input;
  input.request = 1;
  input.blocks = {AtSector(0, 100, 4), AtSector(1, 104, 4), AtSector(2, 108, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, 0, {input});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.transfers[0].start_sector, 100);
  EXPECT_EQ(plan.transfers[0].sectors, 12);
  EXPECT_EQ(plan.riders_of(plan.transfers[0]).size(), 3u);
  EXPECT_EQ(plan.coalesced_blocks, 2);
  EXPECT_EQ(plan.read_transfers, 1);
}

TEST_F(RoundPlannerTest, SilenceGapBreaksCoalescingEvenWhenExtentsAbut) {
  // An eliminated-silence entry sits between two physically adjacent
  // extents: a timeline boundary, so they must stay separate transfers.
  PlanInput input;
  input.request = 1;
  input.blocks = {AtSector(0, 100, 4), Silence(1), AtSector(2, 104, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, 0, {input});
  ASSERT_EQ(plan.transfers.size(), 2u);
  EXPECT_EQ(plan.coalesced_blocks, 0);
  EXPECT_EQ(plan.read_transfers, 2);
  EXPECT_EQ(plan.data_blocks, 2);  // silence is not a data block
}

TEST_F(RoundPlannerTest, NonAdjacentBlocksOfOneRequestDoNotCoalesce) {
  PlanInput input;
  input.request = 1;
  input.blocks = {AtSector(0, 100, 4), AtSector(1, 112, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, 0, {input});
  EXPECT_EQ(plan.transfers.size(), 2u);
  EXPECT_EQ(plan.coalesced_blocks, 0);
}

TEST_F(RoundPlannerTest, SharedExtentDedupsAcrossRequests) {
  PlanInput a;
  a.request = 1;
  a.blocks = {AtSector(0, 100, 4)};
  PlanInput b;
  b.request = 2;
  b.blocks = {AtSector(5, 100, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, 0, {a, b});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.riders_of(plan.transfers[0]).size(), 2u);
  EXPECT_EQ(plan.deduped_blocks, 1);
  EXPECT_EQ(plan.read_transfers, 1);
  EXPECT_EQ(plan.data_blocks, 2);
}

TEST_F(RoundPlannerTest, CacheHitsPlanNoTransfer) {
  PlanInput input;
  input.request = 1;
  PlanCandidate hit = AtSector(0, 100, 4);
  hit.cache_hit = true;
  input.blocks = {hit, AtSector(1, 104, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, 0, {input});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.transfers[0].start_sector, 104);
  EXPECT_EQ(plan.cache_hits, 1);
  EXPECT_EQ(plan.data_blocks, 2);
}

TEST_F(RoundPlannerTest, SameStartDifferentLengthsStaySeparateInEncounterOrder) {
  // Dedup keys on the whole extent: a shorter read from the same sector is
  // a different transfer, and equal sort keys keep encounter order.
  PlanInput longer;
  longer.request = 1;
  longer.blocks = {AtSector(0, 100, 8)};
  PlanInput shorter;
  shorter.request = 2;
  shorter.blocks = {AtSector(0, 100, 4)};
  for (const bool longer_first : {true, false}) {
    SCOPED_TRACE(longer_first ? "longer first" : "shorter first");
    const std::vector<PlanInput> inputs =
        longer_first ? std::vector<PlanInput>{longer, shorter}
                     : std::vector<PlanInput>{shorter, longer};
    const RoundPlan plan = BuildRoundPlan(model_, 0, inputs);
    ASSERT_EQ(plan.transfers.size(), 2u);
    EXPECT_EQ(plan.read_transfers, 2);
    EXPECT_EQ(plan.deduped_blocks, 0);
    for (size_t i = 0; i < 2; ++i) {
      const PlannedTransfer& transfer = plan.transfers[i];
      EXPECT_EQ(transfer.start_sector, 100);
      EXPECT_EQ(transfer.sectors, inputs[i].blocks[0].sectors);
      ASSERT_EQ(plan.riders_of(transfer).size(), 1u);
      EXPECT_EQ(plan.riders_of(transfer)[0].request, inputs[i].request);
    }
  }
}

TEST_F(RoundPlannerTest, AppendsSortIntoTheSweepAtTheirPosition) {
  // Head at cylinder 40; reads at 50, 90 and 10; one recording appends at
  // cylinder 70 (ahead of the arm), another at 20 (behind it, after the
  // wrap). Appends carry no riders and are not read transfers.
  PlanInput reader;
  reader.request = 1;
  reader.blocks = {AtCylinder(0, 50), AtCylinder(1, 90), AtCylinder(2, 10)};
  PlanInput ahead;
  ahead.request = 2;
  ahead.append_blocks = 3;
  ahead.append_position_sector = 70 * model_.params().SectorsPerCylinder();
  PlanInput behind;
  behind.request = 3;
  behind.append_blocks = 1;
  behind.append_position_sector = 20 * model_.params().SectorsPerCylinder();
  const RoundPlan plan = BuildRoundPlan(model_, 40, {reader, ahead, behind});
  ASSERT_EQ(plan.transfers.size(), 5u);
  const std::vector<int64_t> expected_cylinders = {50, 70, 90, 10, 20};
  for (size_t i = 0; i < plan.transfers.size(); ++i) {
    EXPECT_EQ(CylinderOf(plan.transfers[i]), expected_cylinders[i]) << "transfer " << i;
  }
  EXPECT_TRUE(plan.transfers[1].is_append);
  EXPECT_EQ(plan.transfers[1].append_request, 2u);
  EXPECT_EQ(plan.transfers[1].append_blocks, 3);
  EXPECT_EQ(plan.transfers[1].rider_count, 0u);
  EXPECT_TRUE(plan.transfers[4].is_append);
  EXPECT_EQ(plan.transfers[4].append_request, 3u);
  EXPECT_EQ(plan.transfers[4].append_blocks, 1);
  EXPECT_EQ(plan.read_transfers, 3);
  EXPECT_EQ(plan.data_blocks, 3);
}

void ExpectSamePlan(const RoundPlan& actual, const RoundPlan& expected) {
  ASSERT_EQ(actual.transfers.size(), expected.transfers.size());
  for (size_t i = 0; i < expected.transfers.size(); ++i) {
    SCOPED_TRACE("transfer " + std::to_string(i));
    const PlannedTransfer& a = actual.transfers[i];
    const PlannedTransfer& e = expected.transfers[i];
    EXPECT_EQ(a.is_append, e.is_append);
    EXPECT_EQ(a.start_sector, e.start_sector);
    EXPECT_EQ(a.sectors, e.sectors);
    EXPECT_EQ(a.rider_begin, e.rider_begin);
    EXPECT_EQ(a.rider_count, e.rider_count);
    EXPECT_EQ(a.append_request, e.append_request);
    EXPECT_EQ(a.append_blocks, e.append_blocks);
  }
  ASSERT_EQ(actual.riders.size(), expected.riders.size());
  for (size_t i = 0; i < expected.riders.size(); ++i) {
    SCOPED_TRACE("rider " + std::to_string(i));
    const PlannedBlock& a = actual.riders[i];
    const PlannedBlock& e = expected.riders[i];
    EXPECT_EQ(a.request, e.request);
    EXPECT_EQ(a.ordinal, e.ordinal);
    EXPECT_EQ(a.sector, e.sector);
    EXPECT_EQ(a.sectors, e.sectors);
    EXPECT_EQ(a.slot, e.slot);
  }
  EXPECT_EQ(actual.data_blocks, expected.data_blocks);
  EXPECT_EQ(actual.cache_hits, expected.cache_hits);
  EXPECT_EQ(actual.read_transfers, expected.read_transfers);
  EXPECT_EQ(actual.coalesced_blocks, expected.coalesced_blocks);
  EXPECT_EQ(actual.deduped_blocks, expected.deduped_blocks);
}

TEST_F(RoundPlannerTest, ReusedPlanEqualsFreshPlan) {
  // The scheduler plans every round into one RoundPlan it owns. A plan
  // that carried a larger round (coalescing, dedup, a cache hit, an
  // append) must hold exactly a fresh plan's program after the next one.
  PlanInput lead;
  lead.request = 1;
  lead.blocks = {AtSector(0, 100, 4), AtSector(1, 104, 4), AtSector(2, 108, 4),
                 AtCylinder(3, 60)};
  PlanInput follower = lead;  // lockstep viewer: every extent dedups
  follower.request = 2;
  PlanInput cached;
  cached.request = 3;
  PlanCandidate hit = AtCylinder(0, 30);
  hit.cache_hit = true;
  cached.blocks = {hit, Silence(1), AtCylinder(2, 80)};
  PlanInput recorder;
  recorder.request = 4;
  recorder.append_blocks = 2;
  recorder.append_position_sector = 45 * model_.params().SectorsPerCylinder();

  RoundPlan reused;
  BuildRoundPlanInto(model_, 40, {lead, follower, cached, recorder}, &reused);
  ASSERT_GT(reused.deduped_blocks, 0);
  ASSERT_GT(reused.coalesced_blocks, 0);
  ASSERT_EQ(reused.transfers.size(), 4u);  // 100..112, cyl 60, cyl 80, append
  ASSERT_EQ(reused.riders.size(), 9u);

  PlanInput next;
  next.request = 2;
  next.blocks = {AtCylinder(4, 20), AtSector(5, 104, 4)};
  const std::vector<PlanInput> smaller = {next};
  BuildRoundPlanInto(model_, 60, smaller, &reused);
  const RoundPlan fresh = BuildRoundPlan(model_, 60, smaller);
  ExpectSamePlan(reused, fresh);
  EXPECT_EQ(reused.transfers.size(), 2u);
  EXPECT_EQ(reused.deduped_blocks, 0);
  EXPECT_EQ(reused.cache_hits, 0);
}

// SCAN (seek-ordered) servicing, the paper's Section 6.2 optimization.
class ScanOrderTest : public ::testing::Test {
 protected:
  ScanOrderTest() : disk_(TestDiskParameters()), store_(&disk_) {}

  StrandPlacement VideoPlacement() {
    ContinuityModel model(TestStorage(), TestVideoDevice());
    return *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  }

  PlaybackRequest MakePlayback(double duration_sec, uint64_t seed) {
    VideoSource source(TestVideo(), seed);
    const StrandPlacement placement = VideoPlacement();
    RecordingResult recorded = *RecordVideo(&store_, &source, placement, duration_sec);
    const Strand* strand = *store_.Get(recorded.strand);
    PlaybackRequest request;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      request.blocks.push_back(*strand->index().Lookup(b));
    }
    request.block_duration = strand->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement.granularity};
    return request;
  }

  // Runs n identical streams under the given order; returns total disk
  // busy time (positioning + transfer actually paid).
  struct RunOutcome {
    SimDuration busy_time = 0;
    int64_t violations = 0;
    bool all_admitted = true;
  };
  RunOutcome Run(ServiceOrder order, int n, bool bypass) {
    Simulator sim;
    AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
    SchedulerOptions options;
    options.service_order = order;
    options.forced_k = bypass ? 4 : 0;
    ServiceScheduler scheduler(&store_, &sim, admission, options);
    const SimDuration busy_before = disk_.busy_time();
    std::vector<RequestId> ids;
    RunOutcome outcome;
    for (int i = 0; i < n; ++i) {
      Result<RequestId> id = scheduler.SubmitPlayback(MakePlayback(3.0, 100 + i));
      if (!id.ok()) {
        outcome.all_admitted = false;
        break;
      }
      ids.push_back(*id);
    }
    scheduler.RunUntilIdle();
    for (RequestId id : ids) {
      outcome.violations += scheduler.stats(id)->continuity_violations;
    }
    outcome.busy_time = disk_.busy_time() - busy_before;
    return outcome;
  }

  Disk disk_;
  StrandStore store_;
};

TEST_F(ScanOrderTest, ScanCompletesCleanly) {
  const RunOutcome outcome = Run(ServiceOrder::kSeekScan, 2, false);
  EXPECT_TRUE(outcome.all_admitted);
  EXPECT_EQ(outcome.violations, 0);
}

TEST_F(ScanOrderTest, ScanSpendsNoMoreDiskTimeThanFifo) {
  // Same workload, same admission: SCAN's sorted service order can only
  // shrink the inter-request repositioning cost.
  const RunOutcome fifo = Run(ServiceOrder::kRoundRobin, 2, true);
  const RunOutcome scan = Run(ServiceOrder::kSeekScan, 2, true);
  EXPECT_LE(scan.busy_time, fifo.busy_time);
}

TEST_F(ScanOrderTest, BypassAdmissionAdmitsBeyondCeiling) {
  AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  const RunOutcome overloaded =
      Run(ServiceOrder::kRoundRobin, static_cast<int>(n_max) + 2, true);
  EXPECT_TRUE(overloaded.all_admitted);  // nothing was rejected
}

// Planned rounds (block-level C-SCAN + coalescing + dedup) through the
// full scheduler, replayed strict through the continuity auditor.
class PlannedOrderTest : public ScanOrderTest {
 protected:
  PlannedOrderTest() {
    tee_.Add(&log_);
    tee_.Add(&auditor_);
  }

  void TearDown() override { EXPECT_TRUE(auditor_.Clean()) << auditor_.Report(); }

  RunOutcome RunTraced(ServiceOrder order, int n, bool bypass, BlockCache* cache) {
    Simulator sim;
    AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
    SchedulerOptions options;
    options.service_order = order;
    options.forced_k = bypass ? 4 : 0;
    options.block_cache = cache;
    options.trace = &tee_;
    ServiceScheduler scheduler(&store_, &sim, admission, options);
    const SimDuration busy_before = disk_.busy_time();
    std::vector<RequestId> ids;
    RunOutcome outcome;
    for (int i = 0; i < n; ++i) {
      Result<RequestId> id = scheduler.SubmitPlayback(MakePlayback(3.0, 300 + i));
      if (!id.ok()) {
        outcome.all_admitted = false;
        break;
      }
      ids.push_back(*id);
    }
    scheduler.RunUntilIdle();
    for (RequestId id : ids) {
      outcome.violations += scheduler.stats(id)->continuity_violations;
    }
    outcome.busy_time = disk_.busy_time() - busy_before;
    return outcome;
  }

  obs::TraceLog log_;
  obs::ContinuityAuditor auditor_{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee_;
};

TEST_F(PlannedOrderTest, PlannedCompletesCleanlyUnderStrictAudit) {
  const RunOutcome outcome = RunTraced(ServiceOrder::kPlanned, 2, false, nullptr);
  EXPECT_TRUE(outcome.all_admitted);
  EXPECT_EQ(outcome.violations, 0);
}

TEST_F(PlannedOrderTest, PlannedSpendsNoMoreDiskTimeThanPerRequestScan) {
  // Same admitted workload: ordering per transfer (and coalescing
  // contiguous blocks) can only shrink the arm travel the per-request
  // SCAN sort pays.
  const RunOutcome scan = Run(ServiceOrder::kSeekScan, 2, true);
  const RunOutcome planned = RunTraced(ServiceOrder::kPlanned, 2, true, nullptr);
  EXPECT_LE(planned.busy_time, scan.busy_time);
  EXPECT_EQ(planned.violations, 0);
}

TEST_F(PlannedOrderTest, PlannedRoundsEmitSeekAccounting) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  const RunOutcome outcome = RunTraced(ServiceOrder::kPlanned, 2, false, &cache);
  EXPECT_EQ(outcome.violations, 0);
  int64_t planned_rounds = 0;
  int64_t seek_events = 0;
  for (const obs::TraceEvent& event : log_.events()) {
    if (event.kind == obs::TraceEventKind::kRoundPlanned) {
      ++planned_rounds;
      EXPECT_GE(event.transfers, 0);
      EXPECT_LE(event.transfers + event.cache_hits + event.coalesced_blocks +
                    event.deduped_blocks,
                event.blocks + event.transfers);
    }
    if (event.kind == obs::TraceEventKind::kSeekAccounting) {
      ++seek_events;
      // Measured arm travel never exceeds the alpha-model worst case the
      // admission math charged (the auditor enforces this too).
      EXPECT_LE(event.seek_cylinders, event.seek_cylinders_worst);
    }
  }
  EXPECT_GT(planned_rounds, 0);
  EXPECT_GT(seek_events, 0);
}

TEST_F(ScanOrderTest, ScanToleratesOverloadBetterThanFifo) {
  // Slightly past the (pessimistic) ceiling, SCAN's cheaper switches keep
  // more deadlines than FIFO order does.
  AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  const int n = static_cast<int>(n_max) + 1;
  const RunOutcome fifo = Run(ServiceOrder::kRoundRobin, n, true);
  const RunOutcome scan = Run(ServiceOrder::kSeekScan, n, true);
  EXPECT_LE(scan.violations, fifo.violations);
}

}  // namespace
}  // namespace vafs
