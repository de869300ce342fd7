// Fault injection and graceful degradation: the injector's determinism
// contract, the disk/array fault surface, the scheduler's
// retry-within-slack policy, and the repair/relocation machinery that
// rescues data from latent defects.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/disk/disk.h"
#include "src/disk/disk_array.h"
#include "src/disk/fault_injector.h"
#include "src/msm/recorder.h"
#include "src/msm/scattering_repair.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// --- Injector determinism ----------------------------------------------------

std::vector<FaultKind> ReadSchedule(FaultOptions options, int ops) {
  FaultInjector injector(options);
  std::vector<FaultKind> schedule;
  for (int i = 0; i < ops; ++i) {
    schedule.push_back(injector.OnRead(i * 8, 8));
  }
  return schedule;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultOptions options;
  options.seed = 5;
  options.read_fault_rate = 0.3;
  const std::vector<FaultKind> first = ReadSchedule(options, 200);
  const std::vector<FaultKind> second = ReadSchedule(options, 200);
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), FaultKind::kTransient), 0);
}

TEST(FaultInjectorTest, DifferentSeedDifferentSchedule) {
  FaultOptions options;
  options.read_fault_rate = 0.3;
  options.seed = 5;
  const std::vector<FaultKind> first = ReadSchedule(options, 200);
  options.seed = 6;
  const std::vector<FaultKind> second = ReadSchedule(options, 200);
  EXPECT_NE(first, second);
}

TEST(FaultInjectorTest, DisabledInjectorNeverFaults) {
  FaultOptions options;
  options.seed = 99;  // a seed alone must not cause anything
  FaultInjector injector(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.OnRead(i, 4), FaultKind::kNone);
    EXPECT_EQ(injector.OnWrite(i, 4), FaultKind::kNone);
  }
  EXPECT_EQ(injector.transient_read_faults(), 0);
  EXPECT_EQ(injector.transient_write_faults(), 0);
}

TEST(FaultInjectorTest, BadRangesDominateAndClear) {
  FaultOptions options;
  options.read_fault_rate = 0.0;
  options.bad_ranges.push_back(BadRange{100, 10});
  FaultInjector injector(options);
  EXPECT_EQ(injector.OnRead(105, 2), FaultKind::kBadSector);
  EXPECT_EQ(injector.OnRead(95, 6), FaultKind::kBadSector);   // overlaps the head
  EXPECT_EQ(injector.OnRead(90, 10), FaultKind::kNone);       // ends at 100, no overlap
  EXPECT_EQ(injector.OnWrite(109, 1), FaultKind::kBadSector);
  EXPECT_EQ(injector.bad_sector_hits(), 3);
  injector.ClearBad(100, 10);
  EXPECT_EQ(injector.OnRead(105, 2), FaultKind::kNone);
}

// --- Disk-level fault surface ------------------------------------------------

TEST(FaultyDiskTest, TransientFaultChargesTheMechanism) {
  FaultOptions faults;
  faults.read_fault_rate = 1.0;  // every read faults
  DiskOptions disk_options;
  disk_options.faults = faults;
  Disk disk(TestDiskParameters(), disk_options);
  const SimDuration expected = disk.PeekServiceTime(5000, 8);
  Result<SimDuration> read = disk.Read(5000, 8, nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kIoError);
  // The arm moved and the platter turned even though the data is missing.
  EXPECT_EQ(disk.last_fault_service(), expected);
  EXPECT_EQ(disk.busy_time(), expected);
  EXPECT_EQ(disk.reads(), 1);
  EXPECT_EQ(disk.head_cylinder(), disk.model().SectorToCylinder(5000 + 8 - 1));
}

TEST(FaultyDiskTest, BadRangeFailsUntilRelocatedSalvageSucceeds) {
  FaultOptions faults;
  faults.bad_ranges.push_back(BadRange{1000, 16});
  faults.salvage_cost_multiplier = 3.0;
  DiskOptions disk_options;
  disk_options.faults = faults;
  Disk disk(TestDiskParameters(), disk_options);

  Result<SimDuration> read = disk.Read(1000, 16, nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kBadSector);

  // Salvage pays triple the mechanical time but is immune to the defect.
  const SimDuration normal = disk.PeekServiceTime(1000, 16);
  Result<SimDuration> salvage = disk.ReadSalvage(1000, 16, nullptr);
  ASSERT_TRUE(salvage.ok());
  EXPECT_EQ(*salvage, static_cast<SimDuration>(static_cast<double>(normal) * 3.0));
}

TEST(FaultyDiskTest, DeviceFailureAnswersInstantly) {
  Disk disk(TestDiskParameters());
  disk.set_failed(true);
  Result<SimDuration> read = disk.Read(0, 4, nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(disk.last_fault_service(), 0);
  EXPECT_FALSE(disk.Write(0, 4, {}).ok());
  EXPECT_FALSE(disk.ReadSalvage(0, 4, nullptr).ok());
  disk.set_failed(false);
  EXPECT_TRUE(disk.Read(0, 4, nullptr).ok());
}

TEST(FaultyDiskTest, DisabledFaultsAreBitIdenticalToNoInjector) {
  Disk plain(TestDiskParameters());
  FaultOptions seeded_but_off;
  seeded_but_off.seed = 424242;
  DiskOptions disk_options;
  disk_options.faults = seeded_but_off;
  Disk seeded(TestDiskParameters(), disk_options);
  for (int i = 0; i < 50; ++i) {
    const int64_t sector = (i * 977) % 20000;
    Result<SimDuration> a = plain.Read(sector, 8, nullptr);
    Result<SimDuration> b = seeded.Read(sector, 8, nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
  EXPECT_EQ(plain.busy_time(), seeded.busy_time());
}

// --- Array-level fault surface -----------------------------------------------

TEST(FaultyArrayTest, BatchReportsPerMemberOutcomes) {
  DiskArray array(TestDiskParameters(), 3);
  array.member(1).set_failed(true);
  std::vector<DiskArray::BatchRequest> batch = {{0, 0, 4}, {1, 0, 4}, {2, 0, 4}};
  Result<DiskArray::BatchOutcome> outcome = array.ReadBatch(batch, nullptr);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->per_request.size(), 3u);
  EXPECT_TRUE(outcome->per_request[0].status.ok());
  EXPECT_EQ(outcome->per_request[1].status.code(), ErrorCode::kIoError);
  EXPECT_TRUE(outcome->per_request[2].status.ok());
  // A dead member answers instantly; the healthy members set the pace.
  EXPECT_EQ(outcome->per_request[1].service, 0);
  EXPECT_EQ(outcome->completion_time, outcome->per_request[0].service);
  array.member(1).set_failed(false);
  Result<DiskArray::BatchOutcome> healed = array.ReadBatch(batch, nullptr);
  ASSERT_TRUE(healed.ok());
  for (const DiskArray::MemberOutcome& fate : healed->per_request) {
    EXPECT_TRUE(fate.status.ok());
  }
}

TEST(FaultyArrayTest, FaultedMemberChargesMechanicalTimeIntoCompletion) {
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

TEST(FaultyArrayTest, MemberFaultSchedulesAreDecorrelated) {
  FaultOptions faults;
  faults.seed = 11;
  faults.read_fault_rate = 0.5;
  DiskOptions disk_options;
  disk_options.faults = faults;
  DiskArray array(TestDiskParameters(), 2, disk_options);
  std::vector<FaultKind> member0;
  std::vector<FaultKind> member1;
  for (int i = 0; i < 100; ++i) {
    member0.push_back(array.member(0).fault_injector().OnRead(i * 8, 8));
    member1.push_back(array.member(1).fault_injector().OnRead(i * 8, 8));
  }
  // Same base seed, different members: a 50% rate must not fault both
  // members on the same ops (that would double a batch's loss rate).
  EXPECT_NE(member0, member1);
}

// --- Scheduler: retry within slack, degraded playback ------------------------

struct WorkloadResult {
  std::vector<RequestStats> stats;
  bool auditor_clean = false;
  std::string auditor_report;
  int64_t faults = 0;
  int64_t retried = 0;
  int64_t skipped = 0;
  int64_t violations = 0;
  int64_t metrics_retries = 0;
  int64_t metrics_skips = 0;
  SimTime end_time = 0;
};

// Records `streams` identical-length strands fault-free (write rate is
// zero), then plays them all back concurrently under the given fault
// options, with the full trace pipeline (log + strict auditor + metrics)
// attached.
WorkloadResult RunFaultedWorkload(const FaultOptions& faults, int streams,
                                  double duration_sec) {
  DiskOptions disk_options;
  disk_options.faults = faults;
  Disk disk(TestDiskParameters(), disk_options);
  StrandStore store(&disk);
  obs::TraceLog log;
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(&registry);
  obs::TeeSink tee;
  tee.Add(&log);
  tee.Add(&auditor);
  tee.Add(&metrics);
  store.set_trace_sink(&tee);
  disk.set_trace_sink(&metrics);  // device events feed metrics only

  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  EXPECT_TRUE(placement.ok());

  std::vector<PlaybackRequest> requests;
  for (int i = 0; i < streams; ++i) {
    VideoSource source(TestVideo(), 1000 + static_cast<uint64_t>(i));
    Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, duration_sec);
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

  Simulator sim;
  AdmissionControl admission(TestStorage(), std::max(store.AverageScatteringSec(), 1e-4));
  SchedulerOptions options;
  options.trace = &tee;
  ServiceScheduler scheduler(&store, &sim, admission, options);
  std::vector<RequestId> ids;
  for (PlaybackRequest& request : requests) {
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    EXPECT_TRUE(id.ok()) << id.status().message();
    if (id.ok()) {
      ids.push_back(*id);
    }
  }
  scheduler.RunUntilIdle();

  WorkloadResult result;
  for (RequestId id : ids) {
    Result<RequestStats> stats = scheduler.stats(id);
    EXPECT_TRUE(stats.ok());
    result.stats.push_back(*stats);
    result.faults += stats->faults_seen;
    result.retried += stats->blocks_retried;
    result.skipped += stats->blocks_skipped;
    result.violations += stats->continuity_violations;
  }
  result.auditor_clean = auditor.Clean();
  result.auditor_report = auditor.Report();
  result.metrics_retries = registry.counter("scheduler.block_retries").value();
  result.metrics_skips = registry.counter("scheduler.blocks_skipped").value();
  result.end_time = sim.Now();
  return result;
}

TEST(FaultySchedulerTest, FourStreamsSurviveTransientFaults) {
  FaultOptions faults;
  faults.seed = 42;
  faults.read_fault_rate = 0.01;
  const WorkloadResult result = RunFaultedWorkload(faults, 4, 12.0);
  ASSERT_EQ(result.stats.size(), 4u);
  for (const RequestStats& stats : result.stats) {
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.blocks_done, stats.blocks_total);
    EXPECT_EQ(stats.continuity_violations, 0) << "request " << stats.id;
  }
  // The schedule must actually have exercised the fault path.
  EXPECT_GT(result.faults, 0);
  EXPECT_GT(result.retried, 0);
  // Retries stayed inside the Eq. 11 slack: the strict auditor is clean.
  EXPECT_TRUE(result.auditor_clean) << result.auditor_report;
  // The metrics pipeline agrees with the per-request counters.
  EXPECT_EQ(result.metrics_retries, result.retried);
  EXPECT_EQ(result.metrics_skips, result.skipped);
}

TEST(FaultySchedulerTest, SameSeedReproducesTheRun) {
  FaultOptions faults;
  faults.seed = 7;
  faults.read_fault_rate = 0.02;
  const WorkloadResult first = RunFaultedWorkload(faults, 3, 4.0);
  const WorkloadResult second = RunFaultedWorkload(faults, 3, 4.0);
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_EQ(first.retried, second.retried);
  EXPECT_EQ(first.skipped, second.skipped);
  EXPECT_EQ(first.end_time, second.end_time);
  ASSERT_EQ(first.stats.size(), second.stats.size());
  for (size_t i = 0; i < first.stats.size(); ++i) {
    EXPECT_EQ(first.stats[i].completion_time, second.stats[i].completion_time);
    EXPECT_EQ(first.stats[i].faults_seen, second.stats[i].faults_seen);
  }
}

TEST(FaultySchedulerTest, DisabledInjectionIsBitIdenticalToSeed) {
  const WorkloadResult plain = RunFaultedWorkload(FaultOptions{}, 2, 3.0);
  FaultOptions seeded_but_off;
  seeded_but_off.seed = 123456;
  const WorkloadResult seeded = RunFaultedWorkload(seeded_but_off, 2, 3.0);
  EXPECT_EQ(plain.faults, 0);
  EXPECT_EQ(seeded.faults, 0);
  EXPECT_EQ(plain.end_time, seeded.end_time);
  ASSERT_EQ(plain.stats.size(), seeded.stats.size());
  for (size_t i = 0; i < plain.stats.size(); ++i) {
    EXPECT_EQ(plain.stats[i].completion_time, seeded.stats[i].completion_time);
    EXPECT_EQ(plain.stats[i].startup_latency, seeded.stats[i].startup_latency);
  }
}

TEST(FaultySchedulerTest, BadBlockIsSkippedNotFatal) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  ASSERT_TRUE(placement.ok());
  VideoSource source(TestVideo(), 77);
  Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, 4.0);
  ASSERT_TRUE(recorded.ok());
  Result<const Strand*> strand = store.Get(recorded->strand);
  ASSERT_TRUE(strand.ok());

  // Condemn the middle block's extent after recording.
  const int64_t victim = (*strand)->block_count() / 2;
  Result<PrimaryEntry> entry = (*strand)->index().Lookup(victim);
  ASSERT_TRUE(entry.ok());
  disk.fault_injector().MarkBad(entry->sector, entry->sector_count);

  PlaybackRequest request;
  for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
    request.blocks.push_back(*(*strand)->index().Lookup(b));
  }
  request.block_duration = (*strand)->info().BlockDuration();
  request.spec = RequestSpec{TestVideo(), placement->granularity};
  const int64_t total = static_cast<int64_t>(request.blocks.size());

  Simulator sim;
  AdmissionControl admission(TestStorage(), std::max(store.AverageScatteringSec(), 1e-4));
  ServiceScheduler scheduler(&store, &sim, admission);
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->blocks_done, total);     // the stream ran to the end
  EXPECT_EQ(stats->blocks_skipped, 1);      // one degraded frame
  EXPECT_EQ(stats->blocks_retried, 0);      // bad sectors are not retried
  EXPECT_EQ(stats->faults_seen, 1);
}

TEST(FaultySchedulerTest, ResumeAfterSlotGivenAwayIsRejectedUnderFaults) {
  FaultOptions faults;
  faults.seed = 9;
  faults.read_fault_rate = 0.01;
  DiskOptions disk_options;
  disk_options.faults = faults;
  Disk disk(TestDiskParameters(), disk_options);
  StrandStore store(&disk);
  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  ASSERT_TRUE(placement.ok());
  VideoSource source(TestVideo(), 31);
  Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, 2.0);
  ASSERT_TRUE(recorded.ok());
  Result<const Strand*> strand = store.Get(recorded->strand);
  ASSERT_TRUE(strand.ok());
  PlaybackRequest prototype;
  for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
    prototype.blocks.push_back(*(*strand)->index().Lookup(b));
  }
  prototype.block_duration = (*strand)->info().BlockDuration();
  prototype.spec = RequestSpec{TestVideo(), placement->granularity};

  Simulator sim;
  AdmissionControl admission(TestStorage(), std::max(store.AverageScatteringSec(), 1e-4));
  ServiceScheduler scheduler(&store, &sim, admission);

  // Fill the admission ceiling.
  std::vector<RequestId> admitted;
  for (int i = 0; i < 64; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(prototype);
    if (!id.ok()) {
      break;
    }
    admitted.push_back(*id);
  }
  ASSERT_GE(admitted.size(), 2u);

  // A destructive pause releases the slot; a newcomer takes it.
  ASSERT_TRUE(scheduler.Pause(admitted.front(), /*destructive=*/true).ok());
  Result<RequestId> newcomer = scheduler.SubmitPlayback(prototype);
  ASSERT_TRUE(newcomer.ok());

  // The paused request's slot is gone: Resume must re-run admission and
  // fail, fault-induced retry load notwithstanding.
  Status resume = scheduler.Resume(admitted.front());
  EXPECT_FALSE(resume.ok());
  EXPECT_EQ(resume.code(), ErrorCode::kAdmissionRejected);
}

// --- Repair interruption and relocation --------------------------------------

class FaultyRepairTest : public ::testing::Test {
 protected:
  FaultyRepairTest() : disk_(TestDiskParameters()), store_(&disk_) {}

  StrandId StrandNearCylinder(int64_t cylinder, int64_t blocks, double max_scattering_sec) {
    const StrandPlacement placement{2, 0.0, max_scattering_sec};
    Result<std::unique_ptr<StrandWriter>> writer = store_.CreateStrand(TestVideo(), placement);
    EXPECT_TRUE(writer.ok());
    const int64_t per_cylinder = disk_.model().params().SectorsPerCylinder();
    EXPECT_TRUE((*writer)->SetAnchor(cylinder * per_cylinder + 1).ok());
    const int64_t block_bytes = 2 * 16384 / 8;
    for (int64_t b = 0; b < blocks; ++b) {
      EXPECT_TRUE((*writer)->AppendBlock(
          std::vector<uint8_t>(block_bytes, static_cast<uint8_t>(b + 1))).ok());
    }
    Result<StrandId> id = (*writer)->Finish(blocks * 2);
    EXPECT_TRUE(id.ok());
    return *id;
  }

  Disk disk_;
  StrandStore store_;
};

TEST_F(FaultyRepairTest, SeamRepairInterruptedMidChainIsResumable) {
  const double bound = 0.020;
  const StrandId a = StrandNearCylinder(5, 3, bound);
  const StrandId b = StrandNearCylinder(190, 40, bound);

  // Dry run on the healthy store tells us the chain length.
  Result<RepairOutcome> dry = RepairSeam(&store_, a, 2, b, 0, 40);
  ASSERT_TRUE(dry.ok());
  ASSERT_FALSE(dry->interrupted);
  ASSERT_GT(dry->blocks_copied, 1) << "seam too easy to exercise interruption";
  ASSERT_TRUE(store_.Delete(dry->copy_strand).ok());

  // Condemn the original of the second chain block; the re-run copies one
  // block, then faults, finishes the partial copy and reports resumably.
  Result<const Strand*> strand_b = store_.Get(b);
  ASSERT_TRUE(strand_b.ok());
  Result<PrimaryEntry> victim = (*strand_b)->index().Lookup(1);
  ASSERT_TRUE(victim.ok());
  disk_.fault_injector().MarkBad(victim->sector, victim->sector_count);

  Result<RepairOutcome> outcome = RepairSeam(&store_, a, 2, b, 0, 40);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->interrupted);
  EXPECT_EQ(outcome->fault.code(), ErrorCode::kBadSector);
  EXPECT_EQ(outcome->blocks_copied, 1);
  ASSERT_NE(outcome->copy_strand, kNullStrand);

  // The partial copy is a real strand whose seam to `a` is healed.
  Result<double> new_gap = SeamGapSec(&store_, a, 2, outcome->copy_strand, 0);
  ASSERT_TRUE(new_gap.ok());
  EXPECT_LE(*new_gap, bound + 1e-9);

  // Relocating the condemned block heals the source for the next pass.
  Result<BlockRelocationOutcome> relocated = RelocateBlocks(&store_, b, 1, 1);
  ASSERT_TRUE(relocated.ok());
  EXPECT_EQ(relocated->blocks_copied, 1);
  ASSERT_NE(relocated->copy_strand, kNullStrand);
  std::vector<uint8_t> rescued;
  ASSERT_TRUE(store_.ReadBlock(relocated->copy_strand, 0, &rescued).ok());
  ASSERT_FALSE(rescued.empty());
  EXPECT_EQ(rescued[0], 2);  // block 1's fill byte survived the salvage
}

TEST_F(FaultyRepairTest, InterruptionOnFirstBlockCopiesNothing) {
  const double bound = 0.020;
  const StrandId a = StrandNearCylinder(5, 3, bound);
  const StrandId b = StrandNearCylinder(190, 40, bound);
  Result<const Strand*> strand_b = store_.Get(b);
  ASSERT_TRUE(strand_b.ok());
  Result<PrimaryEntry> first = (*strand_b)->index().Lookup(0);
  ASSERT_TRUE(first.ok());
  disk_.fault_injector().MarkBad(first->sector, first->sector_count);

  Result<RepairOutcome> outcome = RepairSeam(&store_, a, 2, b, 0, 40);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->interrupted);
  EXPECT_EQ(outcome->blocks_copied, 0);
  EXPECT_EQ(outcome->copy_strand, kNullStrand);
}

TEST_F(FaultyRepairTest, RelocationEmitsTraceEvents) {
  obs::TraceLog log;
  store_.set_trace_sink(&log);
  const StrandId id = StrandNearCylinder(50, 4, 0.020);
  Result<const Strand*> strand = store_.Get(id);
  ASSERT_TRUE(strand.ok());
  Result<PrimaryEntry> victim = (*strand)->index().Lookup(2);
  ASSERT_TRUE(victim.ok());
  disk_.fault_injector().MarkBad(victim->sector, victim->sector_count);

  Result<BlockRelocationOutcome> outcome = RelocateBlocks(&store_, id, 2, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->blocks_copied, 2);
  int64_t relocation_events = 0;
  for (const obs::TraceEvent& event : log.events()) {
    if (event.kind == obs::TraceEventKind::kBlockRelocated) {
      ++relocation_events;
    }
  }
  EXPECT_EQ(relocation_events, 2);
}

// --- StrandWriter leak regression --------------------------------------------

TEST(StrandWriterFaultTest, FailedAppendReturnsItsExtent) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);
  const StrandPlacement placement{2, 0.0, 0.020};
  Result<std::unique_ptr<StrandWriter>> writer = store.CreateStrand(TestVideo(), placement);
  ASSERT_TRUE(writer.ok());
  const int64_t free_before = store.allocator().free_sectors();

  // Every write fails: the whole disk is condemned.
  disk.fault_injector().MarkBad(0, disk.total_sectors());
  const std::vector<uint8_t> payload(2 * 16384 / 8, 1);
  Result<SimDuration> append = (*writer)->AppendBlock(payload);
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), ErrorCode::kBadSector);
  // The failed block's extent went back to the pool (the historic leak).
  EXPECT_EQ(store.allocator().free_sectors(), free_before);

  // After the defect clears, the same writer can continue.
  disk.fault_injector().ClearBad(0, disk.total_sectors());
  EXPECT_TRUE((*writer)->AppendBlock(payload).ok());
  EXPECT_TRUE((*writer)->Finish(2).ok());
}

}  // namespace
}  // namespace vafs
