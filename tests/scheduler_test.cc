#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/media/silence.h"
#include "src/msm/block_cache.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/msm/session_manager.h"
#include "src/obs/auditor.h"
#include "src/obs/slo.h"
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

// Runs in which most stream-rounds find the device buffer full, so the
// scheduler's per-slot round record answers for them. Each run forces one
// way the record must be dropped or must miss, and pins the run's trace and
// SLO report as the scheduler computed them before the record existed.
class RoundRecordTest : public SchedulerTest {
 protected:
  RoundRecordTest() : cache_(BlockCacheOptions{.capacity_bytes = 24 * 8192}) {
    tee_.Add(&slo_);
    tee_.Add(&probe_);
  }

  // Remembers the blocks of each request's latest kRequestServiced, and
  // the k of the first round of its current run of full rounds.
  class ServicedProbe : public obs::TraceSink {
   public:
    void OnEvent(const obs::TraceEvent& event) override {
      if (event.kind != obs::TraceEventKind::kRequestServiced) {
        return;
      }
      if (event.blocks != 0) {
        full_since_k_[event.request] = -1;
      } else if (LastBlocks(event.request) != 0) {
        full_since_k_[event.request] = event.k;
      }
      last_blocks_[event.request] = event.blocks;
    }
    int64_t LastBlocks(RequestId id) const {
      const auto it = last_blocks_.find(id);
      return it == last_blocks_.end() ? -1 : it->second;
    }
    int64_t FullSinceK(RequestId id) const {
      const auto it = full_since_k_.find(id);
      return it == full_since_k_.end() ? -1 : it->second;
    }

   private:
    std::map<RequestId, int64_t> last_blocks_;
    std::map<RequestId, int64_t> full_since_k_;
  };

  // Steps the simulator until the request's latest round found its buffer
  // full (serviced, nothing moved).
  void StepUntilFull(RequestId id) {
    do {
      ASSERT_TRUE(sim_.Step());
    } while (probe_.LastBlocks(id) != 0);
  }

  SchedulerOptions Planned() {
    SchedulerOptions options = Traced();
    options.service_order = ServiceOrder::kPlanned;
    options.block_cache = &cache_;
    return options;
  }

  static uint64_t Fnv(const std::string& text, uint64_t digest = 14695981039346656037ULL) {
    for (const char c : text) {
      digest = (digest ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
    return digest;
  }
  // Every logged event's rendered line plus the fields it leaves out: the
  // serviced event's block playback and the slot ledger.
  uint64_t TraceDigest() const {
    uint64_t digest = 14695981039346656037ULL;
    for (const obs::TraceEvent& event : log_.events()) {
      const obs::SlotSnapshot& slots = event.slots;
      digest = Fnv(obs::TraceEventSummary(event) + " playback=" +
                       std::to_string(event.block_playback) + " slots=" +
                       std::to_string(slots.active) + "/" + std::to_string(slots.pending) + "/" +
                       std::to_string(slots.paused_nondestructive) + "/" +
                       std::to_string(slots.paused_destructive) + "/" +
                       std::to_string(slots.cache_tenants) + "\n",
                   digest);
    }
    return digest;
  }
  uint64_t SloDigest() const { return Fnv(slo_.Report().ToJson()); }
  // A playback on 2 device buffers: past the Eq. 17 ceiling k is large, and
  // only a small cap still leaves its buffer full for whole rounds.
  PlaybackRequest OnTwoBuffers(double duration_sec, uint64_t seed) {
    PlaybackRequest request = MakePlayback(duration_sec, seed);
    request.device_buffers = 2;
    return request;
  }
  // Serviced stream-rounds that moved nothing.
  int64_t IdleStreamRounds() const {
    int64_t idle = 0;
    for (const obs::TraceEvent& event : log_.events()) {
      idle += event.kind == obs::TraceEventKind::kRequestServiced && event.blocks == 0 ? 1 : 0;
    }
    return idle;
  }
  // The run went through the record often, and its trace and SLO report
  // are the pinned ones.
  void ExpectPinned(uint64_t trace, uint64_t slo) {
    EXPECT_GT(IdleStreamRounds(), 50);
    EXPECT_EQ(TraceDigest(), trace);
    EXPECT_EQ(SloDigest(), slo);
  }

  BlockCache cache_;
  obs::SloTracker slo_;
  ServicedProbe probe_;
};

TEST_F(RoundRecordTest, KStepMovesTheCapOfAFullStream) {
  // Two viewers fill their 2k buffers at k = 1 and idle between drains;
  // later arrivals raise k one step per round, and each step raises the cap
  // of the full streams, which then have room again.
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Planned());
  std::vector<PlaybackRequest> titles;
  for (int i = 0; i < 8; ++i) {
    titles.push_back(MakePlayback(4.0, 900 + i));
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(scheduler.SubmitPlayback(titles[static_cast<size_t>(i)]).ok());
  }
  sim_.RunUntil(SecondsToUsec(1.0));
  for (size_t i = 2; i < titles.size(); ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(titles[i]);
    if (!id.ok()) {
      break;
    }
  }
  scheduler.RunUntilIdle();
  ExpectPinned(0x3154b8b9e62cedfcULL, 0xd49c694b7f1a088aULL);
}

TEST_F(RoundRecordTest, NonDestructivePauseOfABufferedStream) {
  // Paused while full, the viewer leaves the rounds until it resumes, and
  // then restarts its prelude: the pause must end the full run.
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Planned());
  std::vector<RequestId> ids;
  for (int i = 0; i < 3; ++i) {
    Result<RequestId> id = scheduler.SubmitPlayback(MakePlayback(4.0, 920 + i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  sim_.RunUntil(SecondsToUsec(1.0));
  StepUntilFull(ids[1]);
  ASSERT_TRUE(scheduler.Pause(ids[1], /*destructive=*/false).ok());
  sim_.RunUntil(SecondsToUsec(1.5));
  ASSERT_TRUE(scheduler.Resume(ids[1]).ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(ids[1])->completed);
  ExpectPinned(0x74aa5ed63addc171ULL, 0xf6eaf8e14e05a0a3ULL);
}

TEST_F(RoundRecordTest, StopOfABufferedStream) {
  // Cache-aware admission counts the live streams' windows. A stopped
  // leader's window must not count: a viewer of its remaining blocks past
  // the Eq. 17 ceiling finds nothing scheduled and is rejected.
  SchedulerOptions options = Planned();
  options.cache_aware_admission = true;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  const PlaybackRequest title = OnTwoBuffers(4.0, 930);
  Result<RequestId> leader = scheduler.SubmitPlayback(title);
  ASSERT_TRUE(leader.ok());
  for (int i = 0; i < 64; ++i) {
    if (!scheduler.SubmitPlayback(OnTwoBuffers(4.0, 931 + i)).ok()) {
      break;
    }
  }
  sim_.RunUntil(SecondsToUsec(1.5));
  StepUntilFull(*leader);
  const int64_t done = scheduler.stats(*leader)->blocks_done;
  ASSERT_TRUE(scheduler.Stop(*leader).ok());
  // The leader's slot goes to a fresh filler; the late viewer finds none.
  ASSERT_TRUE(scheduler.SubmitPlayback(OnTwoBuffers(4.0, 999)).ok());
  PlaybackRequest rest = title;
  rest.blocks.erase(rest.blocks.begin(), rest.blocks.begin() + done);
  EXPECT_FALSE(scheduler.SubmitPlayback(rest).ok());
  scheduler.RunUntilIdle();
  ExpectPinned(0xb25a488493ba10b9ULL, 0x2dce4448a288da74ULL);
}

TEST_F(RoundRecordTest, CoverageCountsEachLiveWindowAsItStands) {
  // Cache-aware admission counts the live streams' lookahead windows of W
  // = max(4k, 8) blocks. A candidate for the title a live stream plays,
  // starting 0.4 W blocks past that stream, is covered on exactly 60% of
  // its window by it: admitted only if that window is counted as it
  // stands, after the stream's latest reads and at the current k. The
  // candidates claim a 1000x frame rate, which the Eq. 17 test rejects.
  SchedulerOptions options = Planned();
  options.cache_aware_admission = true;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  PlaybackRequest title = MakePlayback(8.0, 970);
  title.device_buffers = 2;
  Result<RequestId> viewer = scheduler.SubmitPlayback(title);
  ASSERT_TRUE(viewer.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(scheduler.SubmitPlayback(MakePlayback(8.0, 971 + i)).ok());
  }
  const auto submit_candidate = [&]() {
    const int64_t window = std::max<int64_t>(4 * scheduler.current_k(), 8);
    const int64_t from = scheduler.stats(*viewer)->blocks_done + 2 * window / 5;
    PlaybackRequest candidate = title;
    candidate.blocks.erase(candidate.blocks.begin(), candidate.blocks.begin() + from);
    candidate.spec.profile.units_per_sec *= 1000;
    Result<RequestId> id = scheduler.SubmitPlayback(candidate);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() && scheduler.stats(*id)->cache_admitted;
  };

  // Right after the viewer's first read that follows a full round.
  sim_.RunUntil(SecondsToUsec(1.0));
  StepUntilFull(*viewer);
  while (probe_.LastBlocks(*viewer) == 0) {
    ASSERT_TRUE(sim_.Step());
  }
  EXPECT_TRUE(submit_candidate());

  // While the viewer stays full across k steps that grow W.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(scheduler.SubmitPlayback(MakePlayback(8.0, 973 + i)).ok());
  }
  const auto window_of = [](int64_t k) { return std::max<int64_t>(4 * k, 8); };
  do {
    ASSERT_TRUE(sim_.Step());
  } while (probe_.LastBlocks(*viewer) != 0 || probe_.FullSinceK(*viewer) < 0 ||
           window_of(probe_.FullSinceK(*viewer)) == window_of(scheduler.current_k()));
  EXPECT_TRUE(submit_candidate());
  scheduler.RunUntilIdle();
  ExpectPinned(0x72ec3fea66fa8734ULL, 0x4e5a1418f9f7a515ULL);
}

TEST_F(RoundRecordTest, SessionPatchMergesAndIsStopped) {
  // A catch-up patch completes and merges into its leader; stopping the
  // done patch is a no-op, and the leader is then stopped mid-title.
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), Planned());
  SessionManager sessions(&scheduler, &sim_, &cache_, &tee_,
                          SessionOptions{.enabled = true,
                                         .batch_window_sec = 0.5,
                                         .max_patch_blocks = 64,
                                         .runway_margin_blocks = 0});
  scheduler.set_lifecycle_listener(&sessions);
  const PlaybackRequest title = MakePlayback(4.0, 940);
  Result<SessionTicket> leader = sessions.Open(/*title=*/0, title);
  ASSERT_TRUE(leader.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(scheduler.SubmitPlayback(MakePlayback(4.0, 941 + i)).ok());
  }
  sim_.RunUntil(SecondsToUsec(1.0));
  Result<SessionTicket> rider = sessions.Open(/*title=*/0, title);
  ASSERT_TRUE(rider.ok());
  ASSERT_EQ(rider->mode, SessionTicket::Mode::kPatched);
  while (sessions.census().merged == 0) {
    ASSERT_TRUE(sim_.Step());
  }
  ASSERT_TRUE(scheduler.Stop(rider->patch_request).ok());
  sim_.RunUntil(sim_.Now() + SecondsToUsec(0.5));
  ASSERT_TRUE(scheduler.Stop(leader->request).ok());
  scheduler.RunUntilIdle();
  EXPECT_EQ(sessions.census().merged, 1);
  scheduler.set_lifecycle_listener(nullptr);
  ExpectPinned(0xca0f1cd38c081e26ULL, 0xa3c1d1eda3c46ae0ULL);
}

TEST_F(RoundRecordTest, CacheAdmissionRevocation) {
  // A cache-admitted rider loses its leader mid-title; the revocation
  // destructively pauses it, and it resumes under plain admission.
  SchedulerOptions options = Planned();
  options.cache_aware_admission = true;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  const PlaybackRequest title = OnTwoBuffers(4.0, 950);
  Result<RequestId> leader = scheduler.SubmitPlayback(title);
  ASSERT_TRUE(leader.ok());
  for (int i = 0; i < 64; ++i) {
    if (!scheduler.SubmitPlayback(OnTwoBuffers(4.0, 951 + i)).ok()) {
      break;
    }
  }
  Result<RequestId> rider = scheduler.SubmitPlayback(title);
  ASSERT_TRUE(rider.ok());
  ASSERT_TRUE(scheduler.stats(*rider)->cache_admitted);
  sim_.RunUntil(SecondsToUsec(1.5));
  ASSERT_TRUE(scheduler.Stop(*leader).ok());
  while (!scheduler.stats(*rider)->paused && !scheduler.stats(*rider)->completed) {
    ASSERT_TRUE(sim_.Step());
  }
  ASSERT_TRUE(scheduler.stats(*rider)->paused);
  sim_.RunUntil(sim_.Now() + SecondsToUsec(0.2));
  ASSERT_TRUE(scheduler.Resume(*rider).ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*rider)->completed);
  ExpectPinned(0x4cad20588730ab97ULL, 0xd7b59ddcd89f1242ULL);
}

TEST_F(RoundRecordTest, RepeatedClipRopeCountsItsWindowTwice) {
  // A rope that plays a 3-block clip, 2 other blocks, then the clip again,
  // several times over: a full viewer's window holds each clip block twice
  // when it first reads it, so those fills are biased and outlive the
  // fillers' plain ones in a small cache.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 6 * 8192});
  SchedulerOptions options = Planned();
  options.block_cache = &cache;
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  const PlaybackRequest title = MakePlayback(8.0, 960);
  PlaybackRequest rope = title;
  for (int64_t clip = 50; clip >= 5; clip -= 9) {
    rope.blocks.insert(rope.blocks.begin() + clip + 5, title.blocks.begin() + clip,
                       title.blocks.begin() + clip + 3);
  }
  ASSERT_TRUE(scheduler.SubmitPlayback(rope).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(scheduler.SubmitPlayback(MakePlayback(6.0, 961 + i)).ok());
  }
  scheduler.RunUntilIdle();
  EXPECT_GT(cache.stats().evictions, 0);
  ExpectPinned(0x7f4855cab6c942b1ULL, 0xb8e5b91be3483ec9ULL);
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
