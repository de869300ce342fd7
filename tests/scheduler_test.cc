#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/media/silence.h"
#include "src/msm/block_cache.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/prng.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : disk_(TestDiskParameters()), store_(&disk_) {
    tee_.Add(&log_);
    tee_.Add(&auditor_);
    store_.set_trace_sink(&tee_);
  }

  // Strict mode: every test's full trace (scheduler rounds, admission
  // decisions, strand placements) must replay clean through the auditor.
  void TearDown() override { EXPECT_TRUE(auditor_.Clean()) << auditor_.Report(); }

  // Scheduler options with the trace pipeline attached.
  SchedulerOptions Traced() {
    SchedulerOptions options;
    options.trace = &tee_;
    return options;
  }

  StrandPlacement VideoPlacement() {
    ContinuityModel model(TestStorage(), TestVideoDevice());
    Result<StrandPlacement> placement =
        model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
    EXPECT_TRUE(placement.ok());
    return *placement;
  }

  // Records a strand and returns a playback request over all its blocks.
  PlaybackRequest MakePlayback(double duration_sec, uint64_t seed) {
    VideoSource source(TestVideo(), seed);
    const StrandPlacement placement = VideoPlacement();
    Result<RecordingResult> recorded = RecordVideo(&store_, &source, placement, duration_sec);
    EXPECT_TRUE(recorded.ok());
    Result<const Strand*> strand = store_.Get(recorded->strand);
    EXPECT_TRUE(strand.ok());
    PlaybackRequest request;
    for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
      request.blocks.push_back(*(*strand)->index().Lookup(b));
    }
    request.block_duration = (*strand)->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement.granularity};
    return request;
  }

  // Records an audio strand (512-sample blocks, silence eliminated) and
  // returns a playback request over all its blocks.
  PlaybackRequest MakeAudioPlayback(double duration_sec, uint64_t seed) {
    AudioSource source(TestAudio(), SpeechProfile{}, seed);
    const StrandPlacement placement{512, 0.0, 0.1};
    Result<RecordingResult> recorded =
        RecordAudio(&store_, &source, SilenceDetector(), placement, duration_sec);
    EXPECT_TRUE(recorded.ok());
    Result<const Strand*> strand = store_.Get(recorded->strand);
    EXPECT_TRUE(strand.ok());
    PlaybackRequest request;
    for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
      request.blocks.push_back(*(*strand)->index().Lookup(b));
    }
    request.block_duration = (*strand)->info().BlockDuration();
    request.spec = RequestSpec{TestAudio(), placement.granularity};
    return request;
  }

  AdmissionControl MakeAdmission() {
    // Use the realized average scattering so admission is representative.
    const double avg = std::max(store_.AverageScatteringSec(), 1e-4);
    return AdmissionControl(TestStorage(), avg);
  }

  Disk disk_;
  StrandStore store_;
  Simulator sim_;
  // Trace pipeline: record + audit every event of the test (strict mode).
  // Admission plans against the fleet-average scattering (Eq. 13), so at
  // full load a round whose strands scatter worse than average can exceed
  // its Eq. 11 budget by a small statistical margin; 5% slack absorbs that
  // spread while still catching systematic overruns.
  obs::TraceLog log_;
  obs::ContinuityAuditor auditor_{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee_;
};

TEST_F(SchedulerTest, SinglePlaybackCompletesWithoutViolations) {
  PlaybackRequest request = MakePlayback(5.0, 1);
  const int64_t total_blocks = static_cast<int64_t>(request.blocks.size());
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();

  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->blocks_done, total_blocks);
  EXPECT_EQ(stats->continuity_violations, 0);
  EXPECT_GT(stats->completion_time, 0);
  EXPECT_GE(stats->startup_latency, 0);
}

TEST_F(SchedulerTest, ManyConcurrentPlaybacksMeetDeadlines) {
  std::vector<PlaybackRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(MakePlayback(4.0, 100 + i));
  }
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  std::vector<RequestId> ids;
  for (PlaybackRequest& request : requests) {
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  scheduler.RunUntilIdle();
  for (RequestId id : ids) {
    Result<RequestStats> stats = scheduler.stats(id);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->completed);
    EXPECT_EQ(stats->continuity_violations, 0) << "request " << id;
  }
  EXPECT_GT(scheduler.rounds_executed(), 1);
}

TEST_F(SchedulerTest, AdmissionRejectsBeyondCeiling) {
  AdmissionControl admission = MakeAdmission();
  // Build the smallest strand once; submit the same blocks many times.
  PlaybackRequest prototype = MakePlayback(2.0, 7);
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  ServiceScheduler scheduler(&store_, &sim_, admission, Traced());
  int admitted = 0;
  int rejected = 0;
  for (int64_t i = 0; i < n_max + 3; ++i) {
    PlaybackRequest request = prototype;
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    if (id.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(id.status().code(), ErrorCode::kAdmissionRejected);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted, n_max);
  EXPECT_EQ(rejected, 3);
  scheduler.RunUntilIdle();
}

TEST_F(SchedulerTest, SteppedAdmissionRaisesKGradually) {
  PlaybackRequest first = MakePlayback(6.0, 11);
  PlaybackRequest second = MakePlayback(6.0, 12);
  PlaybackRequest third = MakePlayback(6.0, 13);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  ASSERT_TRUE(scheduler.SubmitPlayback(std::move(first)).ok());
  // Let the first request get going.
  sim_.RunUntil(SecondsToUsec(1.0));
  const int64_t k_before = scheduler.current_k();
  ASSERT_TRUE(scheduler.SubmitPlayback(std::move(second)).ok());
  ASSERT_TRUE(scheduler.SubmitPlayback(std::move(third)).ok());
  scheduler.RunUntilIdle();
  EXPECT_GE(scheduler.current_k(), k_before);
}

TEST_F(SchedulerTest, LateJoinerDoesNotGlitchExistingStreams) {
  // Start one stream, then admit two more mid-flight; the stepped
  // transition must keep the first stream's deadlines intact.
  PlaybackRequest first = MakePlayback(8.0, 21);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> first_id = scheduler.SubmitPlayback(std::move(first));
  ASSERT_TRUE(first_id.ok());
  sim_.RunUntil(SecondsToUsec(2.0));

  PlaybackRequest second = MakePlayback(4.0, 22);
  PlaybackRequest third = MakePlayback(4.0, 23);
  ASSERT_TRUE(scheduler.SubmitPlayback(std::move(second)).ok());
  ASSERT_TRUE(scheduler.SubmitPlayback(std::move(third)).ok());
  scheduler.RunUntilIdle();

  Result<RequestStats> stats = scheduler.stats(*first_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->continuity_violations, 0);
}

TEST_F(SchedulerTest, StopHaltsARequest) {
  PlaybackRequest request = MakePlayback(10.0, 31);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(SecondsToUsec(1.0));
  ASSERT_TRUE(scheduler.Stop(*id).ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_LT(stats->blocks_done, static_cast<int64_t>(stats->blocks_total));
  EXPECT_EQ(scheduler.active_request_count(), 0);
}

TEST_F(SchedulerTest, NonDestructivePauseResumes) {
  PlaybackRequest request = MakePlayback(6.0, 41);
  const int64_t total = static_cast<int64_t>(request.blocks.size());
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(SecondsToUsec(1.0));
  ASSERT_TRUE(scheduler.Pause(*id, /*destructive=*/false).ok());
  const int64_t done_at_pause = scheduler.stats(*id)->blocks_done;
  sim_.RunUntil(SecondsToUsec(3.0));
  // Nothing advanced while paused.
  EXPECT_EQ(scheduler.stats(*id)->blocks_done, done_at_pause);
  ASSERT_TRUE(scheduler.Resume(*id).ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->blocks_done, total);
}

TEST_F(SchedulerTest, DestructivePauseReRunsAdmission) {
  PlaybackRequest request = MakePlayback(6.0, 51);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(SecondsToUsec(1.0));
  ASSERT_TRUE(scheduler.Pause(*id, /*destructive=*/true).ok());
  ASSERT_TRUE(scheduler.Resume(*id).ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*id)->completed);
}

TEST_F(SchedulerTest, PauseStateTransitionsValidated) {
  PlaybackRequest request = MakePlayback(3.0, 61);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(scheduler.Resume(*id).code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(scheduler.Pause(*id, false).ok());
  EXPECT_EQ(scheduler.Pause(*id, false).code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(scheduler.Resume(*id).ok());
  scheduler.RunUntilIdle();
  EXPECT_EQ(scheduler.stats(999).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(scheduler.Stop(999).code(), ErrorCode::kNotFound);
}

TEST_F(SchedulerTest, LifecycleListenerHearsTransitionsWithoutATraceSink) {
  // The listener is control, not telemetry: with no trace sink attached it
  // still hears every completion, stop, destructive pause and resume (both
  // paths), and nothing for a non-destructive pause.
  using Lifecycle = ServiceScheduler::LifecycleListener::Lifecycle;
  struct Recorder : ServiceScheduler::LifecycleListener {
    void OnLifecycle(RequestId id, Lifecycle transition) override {
      seen.emplace_back(id, transition);
    }
    std::vector<std::pair<RequestId, Lifecycle>> seen;
  };
  PlaybackRequest short_request = MakePlayback(2.0, 71);
  PlaybackRequest long_request = MakePlayback(4.0, 72);
  PlaybackRequest stopped_request = MakePlayback(4.0, 73);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), SchedulerOptions());
  Recorder recorder;
  scheduler.set_lifecycle_listener(&recorder);
  const RequestId a = *scheduler.SubmitPlayback(std::move(short_request));
  const RequestId b = *scheduler.SubmitPlayback(std::move(long_request));
  const RequestId c = *scheduler.SubmitPlayback(std::move(stopped_request));
  sim_.RunUntil(SecondsToUsec(0.5));

  ASSERT_TRUE(scheduler.Pause(a, /*destructive=*/false).ok());
  EXPECT_TRUE(recorder.seen.empty()) << "a non-destructive pause is not reported";
  ASSERT_TRUE(scheduler.Resume(a).ok());
  ASSERT_TRUE(scheduler.Pause(b, /*destructive=*/true).ok());
  ASSERT_TRUE(scheduler.Resume(b).ok());
  ASSERT_TRUE(scheduler.Stop(c).ok());
  scheduler.RunUntilIdle();

  const std::vector<std::pair<RequestId, Lifecycle>> expected = {
      {a, Lifecycle::kResumed}, {b, Lifecycle::kPausedDestructive}, {b, Lifecycle::kResumed},
      {c, Lifecycle::kStopped}, {a, Lifecycle::kCompleted},         {b, Lifecycle::kCompleted},
  };
  EXPECT_EQ(recorder.seen, expected);
}

TEST_F(SchedulerTest, RecordingWritesAStrand) {
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  RecordingRequest request;
  request.profile = TestVideo();
  request.placement = VideoPlacement();
  request.total_blocks = 20;
  Result<RequestId> id = scheduler.SubmitRecording(request);
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->blocks_done, 20);
  EXPECT_EQ(stats->capture_overflows, 0);
  ASSERT_NE(stats->recorded_strand, kNullStrand);
  Result<const Strand*> strand = store_.Get(stats->recorded_strand);
  ASSERT_TRUE(strand.ok());
  EXPECT_EQ((*strand)->block_count(), 20);
}

TEST_F(SchedulerTest, MixedRecordAndPlaybackCoexist) {
  PlaybackRequest playback = MakePlayback(4.0, 71);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> play_id = scheduler.SubmitPlayback(std::move(playback));
  ASSERT_TRUE(play_id.ok());
  RecordingRequest recording;
  recording.profile = TestVideo();
  recording.placement = VideoPlacement();
  recording.total_blocks = 15;
  Result<RequestId> record_id = scheduler.SubmitRecording(recording);
  ASSERT_TRUE(record_id.ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*play_id)->completed);
  EXPECT_EQ(scheduler.stats(*play_id)->continuity_violations, 0);
  EXPECT_TRUE(scheduler.stats(*record_id)->completed);
  EXPECT_EQ(scheduler.stats(*record_id)->capture_overflows, 0);
}

TEST_F(SchedulerTest, SilenceBlocksPlayForFree) {
  // A playback plan that is mostly silence finishes with almost no disk
  // traffic.
  PlaybackRequest request = MakePlayback(1.0, 81);
  const size_t data_blocks = request.blocks.size();
  for (int i = 0; i < 100; ++i) {
    request.blocks.push_back(PrimaryEntry{kSilenceSector, 0});
  }
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  const int64_t reads_before = disk_.reads();
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*id)->completed);
  EXPECT_EQ(disk_.reads() - reads_before, static_cast<int64_t>(data_blocks));
}

TEST_F(SchedulerTest, FastForwardDoublesConsumptionRate) {
  PlaybackRequest normal = MakePlayback(4.0, 91);
  PlaybackRequest fast = normal;
  fast.rate_multiplier = 2.0;
  {
    Simulator sim;
    ServiceScheduler scheduler(&store_, &sim, MakeAdmission(), Traced());
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(normal));
    ASSERT_TRUE(id.ok());
    scheduler.RunUntilIdle();
    // Normal speed: completes around the content duration.
    EXPECT_TRUE(scheduler.stats(*id)->completed);
  }
  {
    Simulator sim;
    ServiceScheduler scheduler(&store_, &sim, MakeAdmission(), Traced());
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(fast));
    ASSERT_TRUE(id.ok());
    scheduler.RunUntilIdle();
    Result<RequestStats> stats = scheduler.stats(*id);
    EXPECT_TRUE(stats->completed);
    // The small test disk can sustain 2x for this stream.
    EXPECT_EQ(stats->continuity_violations, 0);
  }
}

TEST_F(SchedulerTest, BufferCapLimitsPrefetch) {
  PlaybackRequest request = MakePlayback(6.0, 95);
  request.device_buffers = 2;
  request.read_ahead_blocks = 1;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_LE(stats->max_buffered_blocks, 2 + 1);  // cap plus the one in flight
}

TEST_F(SchedulerTest, DestructivePauseFreesSlotForNewStream) {
  // Fill the scheduler to exactly n_max streams...
  AdmissionControl admission = MakeAdmission();
  PlaybackRequest prototype = MakePlayback(6.0, 201);
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  ASSERT_GE(n_max, 2);
  ServiceScheduler scheduler(&store_, &sim_, admission, Traced());
  std::vector<RequestId> ids;
  for (int64_t i = 0; i < n_max; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(prototype);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  sim_.RunUntil(SecondsToUsec(0.5));
  // ...so a further stream bounces off the ceiling...
  EXPECT_EQ(scheduler.SubmitPlayback(prototype).status().code(), ErrorCode::kAdmissionRejected);
  // ...until a destructive pause gives its slot back.
  ASSERT_TRUE(scheduler.Pause(ids[0], /*destructive=*/true).ok());
  Result<RequestId> newcomer = scheduler.SubmitPlayback(prototype);
  EXPECT_TRUE(newcomer.ok()) << newcomer.status().message();
  scheduler.RunUntilIdle();
}

TEST_F(SchedulerTest, ResumeAfterDestructivePauseNotDoubleCounted) {
  // At exactly n_max streams, destructively pause one and resume it. The
  // resumed request must be presented to admission only as the candidate
  // (n_max - 1 holders + 1 = n_max: feasible); counting it among the
  // existing set too would push the tally to n_max + 1 and bounce a resume
  // that the paper guarantees fits.
  AdmissionControl admission = MakeAdmission();
  PlaybackRequest prototype = MakePlayback(6.0, 211);
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  ASSERT_GE(n_max, 2);
  ServiceScheduler scheduler(&store_, &sim_, admission, Traced());
  std::vector<RequestId> ids;
  for (int64_t i = 0; i < n_max; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(prototype);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  sim_.RunUntil(SecondsToUsec(0.5));
  ASSERT_TRUE(scheduler.Pause(ids[0], /*destructive=*/true).ok());
  Status resumed = scheduler.Resume(ids[0]);
  EXPECT_TRUE(resumed.ok()) << resumed.message();
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(ids[0])->completed);
}

TEST_F(SchedulerTest, ResumeRejectedWhenSlotGivenAway) {
  // Destructive PAUSE means the slot can be handed to someone else; the
  // RESUME then re-runs admission and loses.
  AdmissionControl admission = MakeAdmission();
  PlaybackRequest prototype = MakePlayback(6.0, 221);
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  ASSERT_GE(n_max, 2);
  ServiceScheduler scheduler(&store_, &sim_, admission, Traced());
  std::vector<RequestId> ids;
  for (int64_t i = 0; i < n_max; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(prototype);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  sim_.RunUntil(SecondsToUsec(0.5));
  ASSERT_TRUE(scheduler.Pause(ids[0], /*destructive=*/true).ok());
  ASSERT_TRUE(scheduler.SubmitPlayback(prototype).ok());  // slot retaken
  EXPECT_EQ(scheduler.Resume(ids[0]).code(), ErrorCode::kAdmissionRejected);
  scheduler.RunUntilIdle();
  EXPECT_FALSE(scheduler.stats(ids[0])->completed);
}

TEST_F(SchedulerTest, StopBeforeFirstBlockAbortsRecording) {
  // Stop a recording whose capture device has not yet produced a block: the
  // writer is aborted outright, leaving no strand (and no leaked extents)
  // behind.
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  const int64_t strands_before = store_.strand_count();
  RecordingRequest request;
  request.profile = TestVideo();
  request.placement = VideoPlacement();
  request.total_blocks = 20;
  Result<RequestId> id = scheduler.SubmitRecording(request);
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(1);  // first round: writer created, capture still busy
  Result<RequestStats> before = scheduler.stats(*id);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->blocks_done, 0);
  ASSERT_TRUE(scheduler.Stop(*id).ok());
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->recorded_strand, kNullStrand);
  EXPECT_EQ(store_.strand_count(), strands_before);
}

TEST_F(SchedulerTest, StartupLatencyStaysUnsetWhenStoppedBeforeStart) {
  // Zero is a legitimate startup latency, so "never started" must be the
  // explicit unset marker rather than 0.
  PlaybackRequest request = MakePlayback(3.0, 231);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.Stop(*id).ok());  // before the first round ever ran
  scheduler.RunUntilIdle();
  Result<RequestStats> stats = scheduler.stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->blocks_done, 0);
  EXPECT_EQ(stats->startup_latency, RequestStats::kUnsetLatency);
}

TEST_F(SchedulerTest, CacheAdmitRevocationKeepsTheSlotLedgerBalanced) {
  // Regression: a cache-admitted viewer never held an Eq. 17 slot, so the
  // revocation path (destructive pause) must not release one, and a later
  // Resume that succeeds under plain admission must take exactly one. The
  // strict auditor replays the whole lifecycle against the slot ledger.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  SchedulerOptions options = Traced();
  options.service_order = ServiceOrder::kPlanned;
  options.block_cache = &cache;
  options.cache_aware_admission = true;
  PlaybackRequest shared = MakePlayback(4.0, 401);
  const int64_t total = static_cast<int64_t>(shared.blocks.size());
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);

  // A leader on the shared strand, then distinct-strand fillers up to the
  // Eq. 17 ceiling. The cache is cold and no filler shares a strand, so
  // the first failure is a genuine rejection, not a cache admit.
  PlaybackRequest leader_request = shared;
  Result<RequestId> leader = scheduler.SubmitPlayback(std::move(leader_request));
  ASSERT_TRUE(leader.ok());
  std::vector<RequestId> fillers;
  for (int i = 0; i < 64; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(MakePlayback(4.0, 500 + i));
    if (!id.ok()) {
      break;
    }
    fillers.push_back(*id);
  }
  ASSERT_LT(fillers.size(), 64u) << "never reached the admission ceiling";

  // A lockstep viewer of the leader's strand rides its scheduled reads:
  // expected coverage ~1.0, admitted past the full Eq. 17 table.
  Result<RequestId> rider = scheduler.SubmitPlayback(std::move(shared));
  ASSERT_TRUE(rider.ok());
  ASSERT_TRUE(scheduler.stats(*rider)->cache_admitted);

  // Run to mid-stream, then kill the leader: the rider's next rounds find
  // neither cached extents nor shared transfers, and the collapse detector
  // must revoke the cache admission.
  int guard = 0;
  while (scheduler.stats(*leader)->blocks_done < total / 2) {
    ASSERT_LT(++guard, 1000) << "leader never reached mid-stream";
    sim_.RunUntil(sim_.Now() + 100'000);
  }
  ASSERT_TRUE(scheduler.Stop(*leader).ok());
  guard = 0;
  while (!scheduler.stats(*rider)->paused && !scheduler.stats(*rider)->completed) {
    ASSERT_LT(++guard, 1000) << "rider neither revoked nor completed";
    sim_.RunUntil(sim_.Now() + 100'000);
  }
  ASSERT_TRUE(scheduler.stats(*rider)->paused);
  bool revoked = false;
  for (const obs::TraceEvent& event : log_.events()) {
    revoked = revoked || (event.kind == obs::TraceEventKind::kCacheAdmitRevoked &&
                          event.request == *rider);
  }
  EXPECT_TRUE(revoked);

  // The leader's slot is free now, so Resume re-applies under plain
  // admission: the rider holds a regular slot, not a cache tenancy.
  ASSERT_TRUE(scheduler.Resume(*rider).ok());
  EXPECT_FALSE(scheduler.stats(*rider)->cache_admitted);
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*rider)->completed);
  EXPECT_GT(scheduler.stats(*rider)->blocks_done, 0);
  for (RequestId id : fillers) {
    EXPECT_TRUE(scheduler.stats(id)->completed);
  }
}

TEST_F(SchedulerTest, AdmitStopCyclesLeaveNoPinnedResidue) {
  // Regression: prelude read-ahead pages are pinned before playback
  // starts; a Stop (or revocation) before consumption must unpin exactly
  // the pins that landed. A request that recorded pins its inserts never
  // took would slowly turn the cache into unevictable pinned residue.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  SchedulerOptions options = Traced();
  options.service_order = ServiceOrder::kPlanned;
  options.block_cache = &cache;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  const PlaybackRequest prototype = MakePlayback(3.0, 461);
  for (int cycle = 0; cycle < 6; ++cycle) {
    PlaybackRequest request = prototype;
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    ASSERT_TRUE(id.ok());
    // Stop at a different point each cycle: immediately, mid-prelude, and
    // after playback start all exercise a different unpin path.
    sim_.RunUntil(sim_.Now() + cycle * 40'000);
    ASSERT_TRUE(scheduler.Stop(*id).ok());
    scheduler.RunUntilIdle();
    EXPECT_EQ(cache.stats().pinned_entries, 0) << "cycle " << cycle;
  }
}

TEST_F(SchedulerTest, FaultedCoalescedReadChargesItsReReadsToTheRequest) {
  // A coalesced read that faults is de-coalesced: its distinct extents are
  // re-read one by one. Those re-reads are the request's disk time just
  // like the failed merged attempt: with one stream (nothing shared to
  // split), every round's kRequestServiced duration must equal the round's
  // summed disk reads and faults.
  PlaybackRequest request = MakePlayback(5.0, 78);
  // Point the entries at abutting extents so each round's k blocks merge
  // into one transfer.
  int64_t sector = request.blocks.front().sector;
  for (PrimaryEntry& entry : request.blocks) {
    entry.sector = sector;
    sector += entry.sector_count;
  }
  ASSERT_LE(sector, disk_.total_sectors());
  request.device_buffers = 1000;  // buffer room never cuts a round short of k
  disk_.set_trace_sink(&tee_);
  disk_.fault_injector().set_read_fault_rate(0.25);
  SchedulerOptions options = Traced();
  options.service_order = ServiceOrder::kPlanned;
  options.forced_k = 4;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();

  SimDuration disk_time = 0;
  bool faulted = false;
  int64_t coalesced = 0;
  int64_t rounds = 0;
  int64_t faulted_rounds = 0;
  for (const obs::TraceEvent& event : log_.events()) {
    if (event.kind == obs::TraceEventKind::kRoundStart) {
      disk_time = 0;
      faulted = false;
    } else if (event.kind == obs::TraceEventKind::kRoundPlanned) {
      coalesced += event.coalesced_blocks;
    } else if (event.kind == obs::TraceEventKind::kDiskRead ||
               event.kind == obs::TraceEventKind::kDiskFault) {
      disk_time += event.duration;
      faulted = faulted || event.kind == obs::TraceEventKind::kDiskFault;
    } else if (event.kind == obs::TraceEventKind::kRequestServiced) {
      EXPECT_EQ(event.duration, disk_time) << "round " << event.round;
      ++rounds;
      faulted_rounds += faulted ? 1 : 0;
    }
  }
  EXPECT_GT(coalesced, 0);
  EXPECT_GT(faulted_rounds, 0);
  EXPECT_GT(rounds, faulted_rounds);
  EXPECT_GT(scheduler.stats(*id)->blocks_retried, 0);
}

TEST_F(SchedulerTest, BatchActivationStillStepsKOncePerRound) {
  // With batch activation the admission loop still takes at most one
  // Eq. 18 step per round: a pending head that needs several steps climbs
  // them one round at a time, and the admissions queued behind it, whose
  // ramp the head's climb covers, join in the head's final round.
  std::vector<PlaybackRequest> strands;
  for (int i = 0; i < 14; ++i) {
    strands.push_back(MakePlayback(8.0, 241 + i));
  }
  AdmissionControl admission = MakeAdmission();
  const RequestSpec spec = strands.front().spec;
  const auto k_for = [&admission, &spec](int64_t n) {
    return *admission.TransientSafeBlocksPerRound(std::vector<RequestSpec>(n, spec));
  };
  // The smallest rotation (of at least 3) whose next admission needs >= 2
  // k steps; it runs on distinct strands, like the fleet admission plans for.
  const int64_t n_max = admission.Analyze({spec}).n_max;
  int64_t running = 3;
  while (running < n_max && k_for(running + 1) - k_for(running) < 2) {
    ++running;
  }
  ASSERT_LT(running, n_max) << "no two-step admission below the ceiling";
  ASSERT_LE(running + 3, static_cast<int64_t>(strands.size()));

  SchedulerOptions options = Traced();
  options.batch_activation = true;
  ServiceScheduler scheduler(&store_, &sim_, admission, options);
  std::vector<RequestId> ids;
  for (int64_t i = 0; i < running; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(strands[static_cast<size_t>(i)]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  int guard = 0;
  while (scheduler.active_request_count() < running) {
    ASSERT_LT(++guard, 1000) << "the rotation never filled";
    sim_.RunUntil(sim_.Now() + 10'000);
  }
  ASSERT_EQ(scheduler.current_k(), k_for(running));

  // The head needs >= 2 steps. Two stops then free room for followers: the
  // first fits the current k, the second needs exactly the head's ramp.
  Result<RequestId> head = scheduler.SubmitPlayback(strands[static_cast<size_t>(running)]);
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(scheduler.Stop(ids[0]).ok());
  ASSERT_TRUE(scheduler.Stop(ids[1]).ok());
  std::vector<RequestId> followers;
  for (int64_t i = 1; i <= 2; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(strands[static_cast<size_t>(running + i)]);
    ASSERT_TRUE(id.ok());
    followers.push_back(*id);
  }
  scheduler.RunUntilIdle();

  int64_t previous_k = -1;
  int64_t steps = 0;
  int64_t head_round = -1;
  std::vector<int64_t> follower_rounds;
  for (const obs::TraceEvent& event : log_.events()) {
    if (event.kind == obs::TraceEventKind::kRoundStart) {
      if (previous_k >= 0) {
        EXPECT_LE(event.k, previous_k + 1) << "round " << event.round;
        steps += event.k > previous_k ? 1 : 0;
      }
      previous_k = event.k;
    } else if (event.kind == obs::TraceEventKind::kActivated && event.request == *head) {
      head_round = event.round;
    } else if (event.kind == obs::TraceEventKind::kActivated &&
               std::find(followers.begin(), followers.end(), event.request) != followers.end()) {
      follower_rounds.push_back(event.round);
    }
  }
  EXPECT_EQ(previous_k, k_for(running + 1));
  EXPECT_GE(steps, 2);
  ASSERT_GE(head_round, 0);
  ASSERT_EQ(follower_rounds.size(), 2u);
  for (int64_t round : follower_rounds) {
    EXPECT_EQ(round, head_round);
  }
}

TEST_F(SchedulerTest, DestructivelyPausedRiderResumesAsCacheTenant) {
  // Resume shares Submit's cache second chance: a lockstep rider that gave
  // its slot up finds the table refilled, fails the Eq. 17 test, and comes
  // back as a cache tenant riding its leader's reads. The strict auditor
  // replays the slot ledger across the whole lifecycle.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  SchedulerOptions options = Traced();
  options.service_order = ServiceOrder::kPlanned;
  options.block_cache = &cache;
  options.cache_aware_admission = true;
  PlaybackRequest shared = MakePlayback(4.0, 601);
  PlaybackRequest refill = MakePlayback(4.0, 602);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);

  // Leader and rider hold regular slots; distinct-strand fillers then take
  // the table to the Eq. 17 ceiling.
  Result<RequestId> leader = scheduler.SubmitPlayback(shared);
  ASSERT_TRUE(leader.ok());
  Result<RequestId> rider = scheduler.SubmitPlayback(shared);
  ASSERT_TRUE(rider.ok());
  ASSERT_FALSE(scheduler.stats(*rider)->cache_admitted);
  int fillers = 0;
  while (scheduler.SubmitPlayback(MakePlayback(4.0, 610 + fillers)).ok()) {
    ASSERT_LT(++fillers, 64) << "never reached the admission ceiling";
  }
  sim_.RunUntil(SecondsToUsec(0.5));

  // The rider gives its slot up, a newcomer takes it, and the rider's
  // Resume can only come back on the leader's coverage.
  ASSERT_TRUE(scheduler.Pause(*rider, /*destructive=*/true).ok());
  Result<RequestId> newcomer = scheduler.SubmitPlayback(std::move(refill));
  ASSERT_TRUE(newcomer.ok()) << newcomer.status().message();
  ASSERT_FALSE(scheduler.stats(*newcomer)->cache_admitted);
  const size_t resume_from = log_.events().size();
  Status resumed = scheduler.Resume(*rider);
  ASSERT_TRUE(resumed.ok()) << resumed.message();
  EXPECT_TRUE(scheduler.stats(*rider)->cache_admitted);
  std::vector<obs::TraceEventKind> rider_events;
  for (size_t i = resume_from; i < log_.events().size(); ++i) {
    if (log_.events()[i].request == *rider) {
      rider_events.push_back(log_.events()[i].kind);
    }
  }
  EXPECT_EQ(rider_events, (std::vector<obs::TraceEventKind>{obs::TraceEventKind::kCacheAdmit,
                                                             obs::TraceEventKind::kResume}));
  scheduler.RunUntilIdle();
  EXPECT_GT(scheduler.stats(*rider)->blocks_done, 0);
}

// Keeps the scheduler's admission decisions (kAdmissionPlan and
// kAdmissionReject) in the order they were taken.
class DecisionLog : public obs::TraceSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceEventKind::kAdmissionPlan ||
        event.kind == obs::TraceEventKind::kAdmissionReject) {
      decisions.push_back(event);
    }
  }
  std::vector<obs::TraceEvent> decisions;
};

TEST_F(SchedulerTest, AdmissionFromLedgerSumsMatchesTheVectorPath) {
  // The scheduler admits from running Eq. 12-14 sums kept beside its slot
  // ledger. Every decision must equal AdmissionControl's vector path over
  // an independent list of the slot holders (active, pending and
  // non-destructively paused; not destructively paused, not cache tenants,
  // not finished): accept or reject, the existing count, n_max and the k
  // schedule. Random audio, video and recording requests come and go
  // through pauses of both kinds, resumes, stops and natural completions,
  // next to cache tenants, one of them revoked.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  DecisionLog decisions;
  obs::TeeSink sinks;
  sinks.Add(&tee_);
  sinks.Add(&decisions);
  SchedulerOptions options = Traced();
  options.trace = &sinks;
  options.service_order = ServiceOrder::kPlanned;
  options.block_cache = &cache;
  options.cache_aware_admission = true;
  const AdmissionControl admission = MakeAdmission();
  ServiceScheduler scheduler(&store_, &sim_, admission, options);
  DecisionLog reference_decisions;
  AdmissionControl reference = admission;
  reference.set_trace_sink(&reference_decisions);

  // Enough distinct titles to reach the Eq. 17 ceiling and go on drawing.
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  std::vector<PlaybackRequest> videos;
  for (int64_t i = 0; i < n_max + 4; ++i) {
    videos.push_back(MakePlayback(3.0, 700 + static_cast<uint64_t>(i)));
  }
  std::vector<PlaybackRequest> audios;
  for (int i = 0; i < 3; ++i) {
    audios.push_back(MakeAudioPlayback(3.0, 730 + i));
  }

  // The test's own slot table: each request's spec, and whether its pause
  // (if any) is the test's non-destructive one. A paused request without
  // that mark paused destructively, by the test or by a revocation.
  struct Tracked {
    RequestSpec spec;
    bool held_pause = false;
  };
  std::map<RequestId, Tracked> tracked;
  const auto slot_holders = [&] {
    std::vector<RequestSpec> specs;
    for (const auto& [id, request] : tracked) {
      const RequestStats stats = *scheduler.stats(id);
      if (stats.completed || stats.cache_admitted || (stats.paused && !request.held_pause)) {
        continue;
      }
      specs.push_back(request.spec);
    }
    return specs;
  };
  int64_t tenant_decisions = 0;    // taken while a cache tenant was live
  int64_t released_decisions = 0;  // taken while a destructive pause was live
  const auto count_context = [&] {
    bool tenant = false;
    bool released = false;
    for (const auto& [id, request] : tracked) {
      const RequestStats stats = *scheduler.stats(id);
      tenant = tenant || (!stats.completed && stats.cache_admitted);
      released = released || (!stats.completed && stats.paused && !request.held_pause);
    }
    tenant_decisions += tenant ? 1 : 0;
    released_decisions += released ? 1 : 0;
  };
  // Runs one admission-checked call and compares its single decision with
  // the vector path's over the slot holders at call time.
  const auto decide = [&](const RequestSpec& candidate, const auto& call) {
    const std::vector<RequestSpec> existing = slot_holders();
    const int64_t k = scheduler.current_k();
    count_context();
    const size_t before = decisions.decisions.size();
    const auto result = call();
    EXPECT_EQ(decisions.decisions.size(), before + 1);
    if (decisions.decisions.size() != before + 1) {
      return result;
    }
    const obs::TraceEvent& got = decisions.decisions.back();
    Result<std::vector<int64_t>> expected = reference.PlanAdmission(existing, candidate, k);
    const obs::TraceEvent& want = reference_decisions.decisions.back();
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.existing, static_cast<int64_t>(existing.size()));
    EXPECT_EQ(got.existing, want.existing);
    EXPECT_EQ(got.n_max, want.n_max);
    EXPECT_EQ(got.k, k);
    EXPECT_EQ(got.target_k, want.target_k);
    EXPECT_EQ(got.detail, want.detail);
    if (expected.ok() && got.kind == obs::TraceEventKind::kAdmissionPlan) {
      // The schedule is {k} when k already covers the set, else every k
      // from k + 1 to the traced target.
      std::vector<int64_t> schedule;
      for (int64_t step = k + 1; step <= got.target_k; ++step) {
        schedule.push_back(step);
      }
      if (schedule.empty()) {
        schedule.push_back(k);
      }
      EXPECT_EQ(schedule, *expected);
    }
    return result;
  };
  const auto submit = [&](PlaybackRequest request) {
    const RequestSpec spec = request.spec;
    Result<RequestId> id =
        decide(spec, [&] { return scheduler.SubmitPlayback(std::move(request)); });
    if (id.ok()) {
      tracked[*id] = Tracked{spec};
    }
    return id;
  };
  const auto submit_recording = [&](bool audio, int64_t blocks) {
    RecordingRequest request;
    request.profile = audio ? TestAudio() : TestVideo();
    request.placement = audio ? StrandPlacement{512, 0.0, 0.1} : VideoPlacement();
    request.total_blocks = blocks;
    const RequestSpec spec = request.Spec();
    Result<RequestId> id = decide(spec, [&] { return scheduler.SubmitRecording(request); });
    if (id.ok()) {
      tracked[*id] = Tracked{spec};
    }
    return id;
  };
  const auto pause = [&](RequestId id, bool destructive) {
    const bool tenant = scheduler.stats(id)->cache_admitted;
    const int64_t k = scheduler.current_k();
    ASSERT_TRUE(scheduler.Pause(id, destructive).ok());
    tracked[id].held_pause = !destructive;
    if (destructive && !tenant) {
      // The released slot lets k settle to the remaining holders' Eq. 18 k.
      Result<int64_t> settled = reference.TransientSafeBlocksPerRound(slot_holders());
      EXPECT_EQ(scheduler.current_k(), settled.ok() ? std::min(k, *settled) : k);
    } else {
      EXPECT_EQ(scheduler.current_k(), k);
    }
  };
  const auto resume = [&](RequestId id) {
    if (tracked[id].held_pause) {
      ASSERT_TRUE(scheduler.Resume(id).ok());
      tracked[id].held_pause = false;
      return;
    }
    decide(tracked[id].spec, [&] { return scheduler.Resume(id); });
  };

  // A leader, then distinct-strand fillers up to the Eq. 17 ceiling.
  Result<RequestId> leader = submit(videos[0]);
  ASSERT_TRUE(leader.ok());
  size_t next_video = 1;
  while (submit(videos[next_video]).ok()) {
    ASSERT_LT(++next_video, videos.size()) << "never reached the admission ceiling";
  }
  ++next_video;
  // A lockstep viewer of the leader's strand comes in as a cache tenant;
  // later admissions must not charge it.
  Result<RequestId> tenant = submit(videos[0]);
  ASSERT_TRUE(tenant.ok());
  ASSERT_TRUE(scheduler.stats(*tenant)->cache_admitted);
  submit(videos[next_video++]);
  sim_.RunUntil(SecondsToUsec(0.5));
  // A destructive pause releases a slot: the next admissions see one fewer.
  pause(*leader + 1, /*destructive=*/true);
  submit(audios[0]);
  submit(videos[next_video++]);
  // The leader stops: the tenant's coverage collapses and it is revoked.
  ASSERT_TRUE(scheduler.Stop(*leader).ok());
  int guard = 0;
  while (!scheduler.stats(*tenant)->paused && !scheduler.stats(*tenant)->completed) {
    ASSERT_LT(++guard, 1000) << "tenant neither revoked nor completed";
    sim_.RunUntil(sim_.Now() + 50'000);
  }
  ASSERT_TRUE(scheduler.stats(*tenant)->paused);

  // Random traffic. Each submission draws a strand at random, so lockstep
  // viewers of a live strand (cache tenants past the ceiling) recur.
  Prng prng(0xAD3155);
  const auto pick = [&](bool want_paused) -> RequestId {
    std::vector<RequestId> candidates;
    for (const auto& [id, request] : tracked) {
      const RequestStats stats = *scheduler.stats(id);
      if (!stats.completed && stats.paused == want_paused) {
        candidates.push_back(id);
      }
    }
    return candidates.empty() ? 0 : candidates[prng.NextBelow(candidates.size())];
  };
  for (int op = 0; op < 200; ++op) {
    const uint64_t roll = prng.NextBelow(100);
    if (roll < 40) {
      submit(prng.NextBelow(4) == 0 ? audios[prng.NextBelow(audios.size())]
                                    : videos[prng.NextBelow(videos.size())]);
    } else if (roll < 48) {
      submit_recording(prng.NextBelow(2) == 0, 4 + static_cast<int64_t>(prng.NextBelow(12)));
    } else if (roll < 60) {
      if (const RequestId id = pick(/*want_paused=*/false); id != 0) {
        pause(id, /*destructive=*/prng.NextBelow(2) == 0);
      }
    } else if (roll < 72) {
      if (const RequestId id = pick(/*want_paused=*/true); id != 0) {
        resume(id);
      }
    } else if (roll < 76) {
      if (const RequestId id = pick(/*want_paused=*/false); id != 0) {
        ASSERT_TRUE(scheduler.Stop(id).ok());
      }
    } else {
      sim_.RunUntil(sim_.Now() + static_cast<SimTime>(prng.NextBelow(400'000)));
    }
  }
  for (const auto& [id, request] : tracked) {
    if (scheduler.stats(id)->paused) {
      ASSERT_TRUE(scheduler.Stop(id).ok());
    }
  }
  scheduler.RunUntilIdle();

  int64_t accepted = 0;
  int64_t rejected = 0;
  for (const obs::TraceEvent& event : decisions.decisions) {
    (event.kind == obs::TraceEventKind::kAdmissionPlan ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 5);
  EXPECT_GT(tenant_decisions, 0);
  EXPECT_GT(released_decisions, 0);
  int64_t completions = 0;
  for (const auto& [id, request] : tracked) {
    const RequestStats stats = *scheduler.stats(id);
    completions += stats.completed && stats.blocks_done == stats.blocks_total ? 1 : 0;
  }
  EXPECT_GT(completions, 0);
}

// Eviction-bias fixture: a small cache (14 blocks) under the pressure of
// three distinct-strand fillers, whose fills are plain entries. Survivors
// are read between rounds (one simulator event each) with Contains.
class EvictionBiasTest : public SchedulerTest {
 protected:
  static constexpr int64_t kCacheBlocks = 14;

  EvictionBiasTest() {
    for (int i = 0; i < 3; ++i) {
      fillers_.push_back(MakePlayback(4.0, 800 + i));
    }
    const int64_t block_bytes = fillers_[0].blocks[0].sector_count * disk_.bytes_per_sector();
    cache_ = std::make_unique<BlockCache>(
        BlockCacheOptions{.capacity_bytes = kCacheBlocks * block_bytes});
    SchedulerOptions options = Traced();
    options.service_order = ServiceOrder::kPlanned;
    options.block_cache = cache_.get();
    scheduler_ = std::make_unique<ServiceScheduler>(&store_, &sim_, MakeAdmission(), options);
  }

  RequestId Submit(PlaybackRequest request) {
    request.read_ahead_blocks = 1;  // unpin prelude pages after one block
    Result<RequestId> id = scheduler_->SubmitPlayback(std::move(request));
    EXPECT_TRUE(id.ok());
    return id.ok() ? *id : 0;
  }
  void SubmitFillers() {
    for (const PlaybackRequest& filler : fillers_) {
      Submit(filler);
    }
  }
  int64_t Done(RequestId id) const { return scheduler_->stats(id)->blocks_done; }
  bool Resident(const PlaybackRequest& request, int64_t block) const {
    const PrimaryEntry& entry = request.blocks[static_cast<size_t>(block)];
    return cache_->Contains(entry.sector, entry.sector_count);
  }

  std::vector<PlaybackRequest> fillers_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<ServiceScheduler> scheduler_;
};

TEST_F(EvictionBiasTest, LeadersFillsOutliveItsTrailersWindow) {
  // Two viewers of one title, 4 blocks apart: every block the leader reads
  // sits in the trailer's window, so its entry is biased and outlives the
  // fillers' plain entries until the trailer has read it.
  const PlaybackRequest title = MakePlayback(4.0, 820);
  const RequestId leader = Submit(title);
  SubmitFillers();
  while (Done(leader) < 4) {
    ASSERT_TRUE(sim_.Step());
  }
  const RequestId trailer = Submit(title);
  int64_t first_biased = -1;
  int64_t checked = 0;
  int64_t filler_gap_evicted = 0;
  while (!scheduler_->stats(leader)->completed && sim_.Step()) {
    if (first_biased < 0) {
      // From the trailer's activation on, the leader's reads fall in its window.
      if (scheduler_->stats(trailer)->start_time >= 0) {
        first_biased = Done(leader);
      }
      continue;
    }
    for (int64_t b = std::max(first_biased, Done(trailer)); b < Done(leader); ++b) {
      EXPECT_TRUE(Resident(title, b)) << "block " << b << " evicted before the trailer read it";
      ++checked;
    }
    // A filler's fills of the same age are plain: some are gone already.
    const RequestId filler = trailer - 1;
    const int64_t filler_done = Done(filler);
    for (int64_t b = std::max<int64_t>(filler_done - (Done(leader) - Done(trailer)), 0);
         b < filler_done; ++b) {
      filler_gap_evicted += Resident(fillers_.back(), b) ? 0 : 1;
    }
  }
  EXPECT_GT(checked, 40);
  EXPECT_GT(filler_gap_evicted, 0);
  EXPECT_GT(cache_->stats().evictions, 0);
  scheduler_->RunUntilIdle();
}

TEST_F(EvictionBiasTest, LoneViewersFillsLeaveBeforeAnInterval) {
  // A lone viewer's blocks are in its own window once, so its fills are
  // plain: under pressure its newest fill leaves the cache while an older
  // interval, which a trailer has yet to read, stays resident.
  const PlaybackRequest lone_title = MakePlayback(4.0, 821);
  const PlaybackRequest shared_title = MakePlayback(4.0, 823);
  const RequestId leader = Submit(shared_title);
  const RequestId lone = Submit(lone_title);
  Submit(fillers_[0]);
  Submit(fillers_[1]);
  while (Done(leader) < 4) {
    ASSERT_TRUE(sim_.Step());
  }
  const RequestId trailer = Submit(shared_title);
  int64_t first_biased = -1;
  int64_t lone_fill_gone = 0;
  while (!scheduler_->stats(leader)->completed && !scheduler_->stats(lone)->completed &&
         sim_.Step()) {
    if (first_biased < 0) {
      if (scheduler_->stats(trailer)->start_time >= 0) {
        first_biased = Done(leader);
      }
      continue;
    }
    const int64_t interval_begin = std::max(first_biased, Done(trailer));
    bool interval_kept = interval_begin < Done(leader);
    for (int64_t b = interval_begin; b < Done(leader); ++b) {
      interval_kept = interval_kept && Resident(shared_title, b);
    }
    if (interval_kept && Done(lone) > 1 && !Resident(lone_title, Done(lone) - 1)) {
      ++lone_fill_gone;
    }
  }
  EXPECT_GT(lone_fill_gone, 0);
  scheduler_->RunUntilIdle();
}

TEST_F(EvictionBiasTest, RepeatedClipInOneWindowCountsTwice) {
  // A rope that plays a 3-block clip, 2 other blocks, then the clip again:
  // the viewer's window holds each clip block twice when it first reads
  // it, which biases the fill though no other stream shares the title. The
  // clip outlives the plain fills read after it, up to its second play.
  const PlaybackRequest title = MakePlayback(4.0, 822);
  constexpr int64_t kClip = 12;  // the clip starts once the rotation is steady
  PlaybackRequest rope = title;
  rope.blocks.assign(title.blocks.begin(), title.blocks.begin() + kClip + 5);
  rope.blocks.insert(rope.blocks.end(), title.blocks.begin() + kClip,
                     title.blocks.begin() + kClip + 3);
  rope.blocks.insert(rope.blocks.end(), title.blocks.begin() + kClip + 5, title.blocks.end());
  const RequestId viewer = Submit(rope);
  SubmitFillers();
  int64_t checked = 0;
  while (Done(viewer) <= kClip + 5 && sim_.Step()) {
    for (int64_t b = kClip; b < std::min(Done(viewer), kClip + 3); ++b) {
      EXPECT_TRUE(Resident(rope, b)) << "clip block " << b << " evicted before its repeat";
      ++checked;
    }
  }
  EXPECT_GT(checked, 3);
  EXPECT_GT(cache_->stats().evictions, 0);
  scheduler_->RunUntilIdle();
}

TEST_F(SchedulerTest, EmptyRequestsRejected) {
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Traced());
  EXPECT_EQ(scheduler.SubmitPlayback(PlaybackRequest{}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(scheduler.SubmitRecording(RecordingRequest{}).status().code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace vafs
