#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/obs/auditor.h"
#include "src/sim/workload.h"
#include "src/util/time.h"
#include "src/vafs/file_system.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// --- Workload engine ----------------------------------------------------

TEST(WorkloadTest, SameSeedReproducesTheExactTrace) {
  sim::WorkloadOptions options;
  options.titles = 10;
  options.duration_sec = 200.0;
  options.arrival_rate_per_sec = 2.0;
  options.seed = 42;
  const std::vector<sim::WorkloadArrival> a = sim::WorkloadEngine(options).Generate();
  const std::vector<sim::WorkloadArrival> b = sim::WorkloadEngine(options).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_sec, b[i].time_sec);
    EXPECT_EQ(a[i].title, b[i].title);
  }
  // Sanity of the shape: sorted, inside the window, plausibly Poisson.
  ASSERT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].time_sec, a[i - 1].time_sec);
  }
  EXPECT_LT(a.back().time_sec, options.duration_sec);
  EXPECT_GT(a.size(), 200u);  // ~400 expected at rate 2 over 200 s
  EXPECT_LT(a.size(), 800u);
}

TEST(WorkloadTest, ZipfSkewsTowardTheHeadTitles) {
  sim::ZipfPopularity zipf(10, 1.0);
  double total = 0.0;
  for (int64_t t = 0; t < zipf.titles(); ++t) {
    total += zipf.Probability(t);
    if (t > 0) {
      EXPECT_LT(zipf.Probability(t), zipf.Probability(t - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  sim::WorkloadOptions options;
  options.titles = 10;
  options.zipf_exponent = 1.0;
  options.duration_sec = 500.0;
  options.arrival_rate_per_sec = 2.0;
  options.seed = 7;
  std::map<int64_t, int64_t> counts;
  for (const sim::WorkloadArrival& arrival : sim::WorkloadEngine(options).Generate()) {
    ++counts[arrival.title];
  }
  // The head title dominates the tail by a wide margin under s = 1.
  EXPECT_GT(counts[0], 3 * counts[9]);
}

TEST(WorkloadTest, FlashCrowdConcentratesArrivalsOnOneTitle) {
  sim::WorkloadOptions options;
  options.titles = 8;
  options.duration_sec = 100.0;
  options.arrival_rate_per_sec = 1.0;
  options.flash_start_sec = 40.0;
  options.flash_duration_sec = 10.0;
  options.flash_rate_multiplier = 8.0;
  options.flash_title_bias = 0.9;
  options.flash_title = 3;
  options.seed = 11;
  int64_t in_flash = 0;
  int64_t in_flash_on_title = 0;
  int64_t outside = 0;
  for (const sim::WorkloadArrival& arrival : sim::WorkloadEngine(options).Generate()) {
    const bool window = arrival.time_sec >= options.flash_start_sec &&
                        arrival.time_sec < options.flash_start_sec + options.flash_duration_sec;
    EXPECT_EQ(arrival.flash, window);
    if (window) {
      ++in_flash;
      in_flash_on_title += arrival.title == options.flash_title ? 1 : 0;
    } else {
      ++outside;
    }
  }
  // The burst runs ~8x the base rate over 1/9 of the window: it should
  // out-number the entire off-flash trace and point mostly at one title.
  EXPECT_GT(in_flash, outside / 2);
  EXPECT_GT(in_flash_on_title * 10, in_flash * 7);

  // Widening the flash must not disturb the trace before it.
  sim::WorkloadOptions wider = options;
  wider.flash_duration_sec = 30.0;
  const std::vector<sim::WorkloadArrival> narrow = sim::WorkloadEngine(options).Generate();
  const std::vector<sim::WorkloadArrival> wide = sim::WorkloadEngine(wider).Generate();
  for (size_t i = 0; i < narrow.size() && i < wide.size(); ++i) {
    if (narrow[i].time_sec >= options.flash_start_sec) {
      break;
    }
    EXPECT_DOUBLE_EQ(narrow[i].time_sec, wide[i].time_sec);
    EXPECT_EQ(narrow[i].title, wide[i].title);
  }
}

// --- Session layer ------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  // Planned scheduler + shared cache + telemetry + sessions, with the
  // strict auditor riding the telemetry tee as the user trace sink.
  FileSystemConfig SessionConfig() {
    FileSystemConfig config = TestConfig();
    config.scheduler.service_order = ServiceOrder::kPlanned;
    config.scheduler.cache_aware_admission = true;
    config.scheduler.trace = &auditor_;
    config.block_cache.capacity_bytes = 1 << 22;
    config.telemetry.enabled = true;
    config.sessions.enabled = true;
    config.sessions.batch_window_sec = 1.0;
    config.sessions.max_patch_blocks = 64;
    config.sessions.runway_margin_blocks = 0;  // bound = the leader's remainder
    return config;
  }

  void TearDown() override { EXPECT_TRUE(auditor_.Clean()) << auditor_.Report(); }

  static RopeId RecordTitle(MultimediaFileSystem* fs, double duration_sec, uint64_t seed) {
    VideoSource video(TestVideo(), seed);
    Result<MultimediaFileSystem::RecordResult> recorded =
        fs->Record("studio", &video, nullptr, duration_sec);
    EXPECT_TRUE(recorded.ok()) << recorded.status().ToString();
    return recorded->rope;
  }

  // One flash-crowd run: two recorded titles, Zipf arrivals (seed 33) with
  // a burst on title 0, every viewer admitted through OpenSession, driven
  // to idle.
  struct FlashCrowdRun {
    size_t arrivals = 0;
    std::vector<SessionTicket> admitted;
    int rejected = 0;
    SessionCensus census;
    int64_t live_viewers = 0;
    std::vector<RequestStats> requests;  // every physical stream, by id
  };

  static FlashCrowdRun RunFlashCrowd(const FileSystemConfig& config) {
    MultimediaFileSystem fs(config);
    std::vector<RopeId> ropes;
    ropes.push_back(RecordTitle(&fs, 4.0, 17));
    ropes.push_back(RecordTitle(&fs, 4.0, 19));

    sim::WorkloadOptions options;
    options.titles = 4;
    options.duration_sec = 6.0;
    options.arrival_rate_per_sec = 0.8;
    options.flash_start_sec = 1.0;
    options.flash_duration_sec = 2.0;
    options.flash_rate_multiplier = 6.0;
    options.flash_title_bias = 1.0;
    options.flash_title = 0;
    options.seed = 33;
    const std::vector<sim::WorkloadArrival> arrivals = sim::WorkloadEngine(options).Generate();

    FlashCrowdRun run;
    run.arrivals = arrivals.size();
    const SimTime base = fs.simulator().Now();
    for (const sim::WorkloadArrival& arrival : arrivals) {
      const RopeId rope = ropes[static_cast<size_t>(arrival.title) % ropes.size()];
      fs.simulator().ScheduleAt(base + SecondsToUsec(arrival.time_sec), [&fs, &run, rope]() {
        Result<SessionTicket> ticket =
            fs.OpenSession("crowd", rope, Medium::kVideo, TimeInterval{0.0, 4.0});
        if (ticket.ok()) {
          run.admitted.push_back(*ticket);
        } else {
          ++run.rejected;
        }
      });
    }
    fs.RunUntilIdle();

    if (fs.session_manager() == nullptr) {
      ADD_FAILURE() << "no session layer was built";
      return run;
    }
    run.census = fs.session_manager()->census();
    run.live_viewers = fs.session_manager()->LiveViewers();
    // Request ids are issued from 1 upward, so this walks every stream the
    // scheduler ran: leaders, solo streams and patches alike.
    for (RequestId id = 1;; ++id) {
      Result<RequestStats> stats = fs.Stats(id);
      if (!stats.ok()) {
        break;
      }
      run.requests.push_back(*stats);
    }
    return run;
  }

  obs::ContinuityAuditor auditor_{obs::AuditorOptions{.round_time_slack = 0.05}};
};

TEST_F(SessionTest, DisabledSessionsRejectOpen) {
  FileSystemConfig config = TestConfig();
  MultimediaFileSystem fs(config);
  const RopeId rope = RecordTitle(&fs, 1.0, 3);
  EXPECT_EQ(fs.OpenSession("alice", rope, Medium::kVideo, TimeInterval{0.0, 1.0}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(SessionTest, ArrivalAtTheBatchWindowEdgeStillRides) {
  MultimediaFileSystem fs(SessionConfig());
  const RopeId rope = RecordTitle(&fs, 4.0, 5);
  const TimeInterval interval{0.0, 4.0};
  Result<SessionTicket> leader = fs.OpenSession("alice", rope, Medium::kVideo, interval);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  EXPECT_EQ(leader->mode, SessionTicket::Mode::kLeader);
  const SimTime opened = fs.simulator().Now();
  // Exactly at the window edge: inclusive, so the viewer attaches as a
  // rider on the leader's stream and holds no request of its own.
  fs.simulator().RunUntil(opened + SecondsToUsec(1.0));
  Result<SessionTicket> rider = fs.OpenSession("bob", rope, Medium::kVideo, interval);
  ASSERT_TRUE(rider.ok()) << rider.status().ToString();
  EXPECT_EQ(rider->mode, SessionTicket::Mode::kBatched);
  EXPECT_EQ(rider->request, leader->request);
  EXPECT_GT(rider->gap_blocks, 0);
  fs.RunUntilIdle();
  EXPECT_TRUE(fs.Stats(leader->request)->completed);
  EXPECT_EQ(fs.session_manager()->census().batched, 1);
  EXPECT_EQ(fs.SloSnapshot().sessions_batched, 1);
}

TEST_F(SessionTest, ArrivalPastTheWindowOpensItsOwnStreamWithoutPatching) {
  FileSystemConfig config = SessionConfig();
  config.sessions.max_patch_blocks = 0;  // patching off: window is a cliff
  MultimediaFileSystem fs(config);
  const RopeId rope = RecordTitle(&fs, 4.0, 9);
  const TimeInterval interval{0.0, 4.0};
  Result<SessionTicket> leader = fs.OpenSession("alice", rope, Medium::kVideo, interval);
  ASSERT_TRUE(leader.ok());
  const SimTime opened = fs.simulator().Now();
  fs.simulator().RunUntil(opened + SecondsToUsec(1.0) + 1);
  Result<SessionTicket> late = fs.OpenSession("bob", rope, Medium::kVideo, interval);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->mode, SessionTicket::Mode::kLeader);
  EXPECT_NE(late->request, leader->request);
  fs.RunUntilIdle();
  EXPECT_TRUE(fs.Stats(leader->request)->completed);
  EXPECT_TRUE(fs.Stats(late->request)->completed);
  EXPECT_EQ(fs.session_manager()->census().batched, 0);
  EXPECT_EQ(fs.session_manager()->census().leaders, 2);
}

TEST_F(SessionTest, PatchedRiderMergesAndSeesByteIdenticalContent) {
  MultimediaFileSystem fs(SessionConfig());
  VideoSource video(TestVideo(), 13);
  Result<MultimediaFileSystem::RecordResult> recorded =
      fs.Record("studio", &video, nullptr, 4.0);
  ASSERT_TRUE(recorded.ok());
  const TimeInterval interval{0.0, 4.0};
  Result<SessionTicket> leader = fs.OpenSession("alice", recorded->rope, Medium::kVideo, interval);
  ASSERT_TRUE(leader.ok());
  const SimTime opened = fs.simulator().Now();
  // Past the batch window but well inside patch range.
  fs.simulator().RunUntil(opened + SecondsToUsec(1.5));
  Result<SessionTicket> rider = fs.OpenSession("bob", recorded->rope, Medium::kVideo, interval);
  ASSERT_TRUE(rider.ok()) << rider.status().ToString();
  ASSERT_EQ(rider->mode, SessionTicket::Mode::kPatched);
  EXPECT_EQ(rider->request, leader->request);
  ASSERT_NE(rider->patch_request, 0u);
  ASSERT_GT(rider->gap_blocks, 0);
  EXPECT_GT(rider->runway_bound, 0);
  fs.RunUntilIdle();

  // The patch read exactly the missed prefix, then merged; the leader
  // carried the rest of the title for both viewers.
  const SessionCensus& census = fs.session_manager()->census();
  EXPECT_EQ(census.patched, 1);
  EXPECT_EQ(census.merged, 1);
  EXPECT_EQ(census.degraded, 0);
  EXPECT_EQ(fs.SloSnapshot().sessions_merged, 1);
  Result<const Strand*> strand = fs.storage_manager().Get(recorded->video_strand);
  ASSERT_TRUE(strand.ok());
  const int64_t total = (*strand)->block_count();
  const int64_t gap = rider->gap_blocks;
  EXPECT_EQ(fs.Stats(rider->patch_request)->blocks_done, gap);
  EXPECT_EQ(fs.Stats(leader->request)->blocks_done, total);

  // Byte identity: the rider's sequence — patch deliveries over [0, gap)
  // followed by the leader's from gap on — must equal a solo pass. Both
  // resolve through the storage manager's untimed read path.
  for (int64_t b = 0; b < total; ++b) {
    std::vector<uint8_t> rider_bytes;
    std::vector<uint8_t> solo_bytes;
    const StrandId source = recorded->video_strand;  // patch and leader share it
    ASSERT_TRUE(fs.storage_manager().ReadBlock(source, b, &rider_bytes).ok());
    ASSERT_TRUE(fs.storage_manager().ReadBlock(recorded->video_strand, b, &solo_bytes).ok());
    ASSERT_EQ(rider_bytes, solo_bytes) << "block " << b << (b < gap ? " (patch)" : " (leader)");
  }
}

TEST_F(SessionTest, LeaderRevokedDuringPatchDegradesToSoloWithoutDoubleRelease) {
  FileSystemConfig config = SessionConfig();
  config.block_cache.capacity_bytes = 1 << 23;  // hot title + filler churn stay resident
  MultimediaFileSystem fs(config);
  const RopeId hot = RecordTitle(&fs, 4.0, 21);
  const TimeInterval interval{0.0, 4.0};

  // Prime: one full solo pass leaves the hot title resident in the cache.
  Result<RequestId> primer = fs.Play("primer", hot, Medium::kVideo, interval);
  ASSERT_TRUE(primer.ok()) << primer.status().ToString();
  fs.RunUntilIdle();

  // Saturate the Eq. 17 slots with distinct cold titles (streams of one
  // shared title would cover each other's lookahead and cache-admit) so
  // the next viewer of the hot title only fits as a cache tenant.
  std::vector<RequestId> fillers;
  for (int i = 0;; ++i) {
    ASSERT_LT(i, 40) << "admission never saturated";
    const RopeId cold = RecordTitle(&fs, 2.5, 100 + i);
    Result<RequestId> id = fs.Play("filler", cold, Medium::kVideo, TimeInterval{0.0, 2.5});
    if (!id.ok()) {
      break;
    }
    fillers.push_back(*id);
  }
  ASSERT_FALSE(fillers.empty());

  Result<SessionTicket> leader = fs.OpenSession("alice", hot, Medium::kVideo, interval);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  ASSERT_EQ(leader->mode, SessionTicket::Mode::kLeader);
  ASSERT_TRUE(fs.Stats(leader->request)->cache_admitted);

  const SimTime opened = fs.simulator().Now();
  fs.simulator().RunUntil(opened + SecondsToUsec(1.5));
  Result<SessionTicket> rider = fs.OpenSession("bob", hot, Medium::kVideo, interval);
  ASSERT_TRUE(rider.ok()) << rider.status().ToString();
  ASSERT_EQ(rider->mode, SessionTicket::Mode::kPatched);
  ASSERT_NE(rider->patch_request, 0u);

  // Collapse the coverage both cache tenants were admitted on: the next
  // planned round revokes the leader and the patch together, in one pass.
  fs.simulator().ScheduleAfter(SecondsToUsec(0.1),
                               [&fs]() { fs.block_cache()->InvalidateAll(); });
  fs.RunUntilIdle();

  int64_t revoked = 0;
  for (const obs::TraceEvent& event : fs.trace_log()->events()) {
    if (event.kind == obs::TraceEventKind::kCacheAdmitRevoked) {
      ++revoked;
    }
  }
  EXPECT_GE(revoked, 2) << "leader and patch should both lose their cache admission";

  // The rider degrades to solo exactly once even though it lost its leader
  // and its patch in the same round, and the leader's trail pins come off
  // exactly once: nothing stays pinned, nothing underflows.
  const SessionCensus& census = fs.session_manager()->census();
  EXPECT_EQ(census.patched, 1);
  EXPECT_EQ(census.merged, 0);
  EXPECT_EQ(census.degraded, 1);
  EXPECT_EQ(fs.session_manager()->LiveViewers(), 0);
  EXPECT_EQ(fs.block_cache()->stats().pinned_entries, 0);
  // The solo patch got its one deferred resume; with the slots still full
  // and the cache cold it stays parked rather than completing.
  EXPECT_TRUE(fs.Stats(rider->patch_request)->paused);
  EXPECT_FALSE(fs.Stats(rider->patch_request)->completed);
  for (RequestId id : fillers) {
    EXPECT_TRUE(fs.Stats(id)->completed);
  }
}

TEST_F(SessionTest, FlashCrowdAdmitsRidersUnderStrictAudit) {
  const FlashCrowdRun run = RunFlashCrowd(SessionConfig());
  ASSERT_GT(run.arrivals, 4u);

  const SessionCensus& census = run.census;
  EXPECT_EQ(census.viewers, static_cast<int64_t>(run.admitted.size()));
  EXPECT_EQ(static_cast<size_t>(census.viewers) + run.rejected, run.arrivals);
  // The flash crowd shares streams: the layer must admit more viewers than
  // it opened physical streams, with nobody degraded.
  EXPECT_GT(census.batched + census.patched, 0);
  EXPECT_GT(census.viewers, census.leaders);
  EXPECT_EQ(census.degraded, 0);
  EXPECT_EQ(run.live_viewers, 0);
  for (const SessionTicket& ticket : run.admitted) {
    ASSERT_LE(ticket.request, run.requests.size());
    EXPECT_TRUE(run.requests[ticket.request - 1].completed) << "session " << ticket.session;
  }
}

TEST_F(SessionTest, SessionsServeTheSameWithTelemetryOff) {
  // Control never rides the telemetry bus: turning telemetry off changes
  // no session decision and no stream's service. Each run gets its own
  // strict auditor as the user sink.
  obs::ContinuityAuditor auditor_on{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::ContinuityAuditor auditor_off{obs::AuditorOptions{.round_time_slack = 0.05}};
  FileSystemConfig on = SessionConfig();
  on.scheduler.trace = &auditor_on;
  FileSystemConfig off = SessionConfig();
  off.scheduler.trace = &auditor_off;
  off.telemetry.enabled = false;
  const FlashCrowdRun with = RunFlashCrowd(on);
  const FlashCrowdRun without = RunFlashCrowd(off);
  EXPECT_TRUE(auditor_on.Clean()) << auditor_on.Report();
  EXPECT_TRUE(auditor_off.Clean()) << auditor_off.Report();

  EXPECT_GT(with.census.batched + with.census.patched, 0);
  EXPECT_EQ(without.census.viewers, with.census.viewers);
  EXPECT_EQ(without.census.leaders, with.census.leaders);
  EXPECT_EQ(without.census.batched, with.census.batched);
  EXPECT_EQ(without.census.patched, with.census.patched);
  EXPECT_EQ(without.census.merged, with.census.merged);
  EXPECT_EQ(without.census.degraded, with.census.degraded);
  ASSERT_EQ(without.requests.size(), with.requests.size());
  for (size_t i = 0; i < with.requests.size(); ++i) {
    const RequestStats& a = with.requests[i];
    const RequestStats& b = without.requests[i];
    EXPECT_EQ(b.blocks_done, a.blocks_done) << "request " << a.id;
    EXPECT_EQ(b.completion_time, a.completion_time) << "request " << a.id;
    EXPECT_EQ(b.startup_latency, a.startup_latency) << "request " << a.id;
    EXPECT_EQ(b.continuity_violations, a.continuity_violations) << "request " << a.id;
    EXPECT_EQ(b.blocks_skipped, a.blocks_skipped) << "request " << a.id;
  }
}

TEST_F(SessionTest, LiveFsckLeavesSessionsRunning) {
  // An offline check over a live system is not a recovery: the patch must
  // still merge, the leader-trail pins must come off, and the strict
  // auditor's slot ledger must not be reset under running streams.
  MultimediaFileSystem fs(SessionConfig());
  const RopeId rope = RecordTitle(&fs, 4.0, 13);
  ASSERT_TRUE(fs.Checkpoint().ok());
  const TimeInterval interval{0.0, 4.0};
  Result<SessionTicket> leader = fs.OpenSession("alice", rope, Medium::kVideo, interval);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  fs.simulator().RunUntil(fs.simulator().Now() + SecondsToUsec(1.5));
  Result<SessionTicket> rider = fs.OpenSession("bob", rope, Medium::kVideo, interval);
  ASSERT_TRUE(rider.ok()) << rider.status().ToString();
  ASSERT_EQ(rider->mode, SessionTicket::Mode::kPatched);
  ASSERT_GT(fs.block_cache()->stats().pinned_entries, 0);
  fs.simulator().RunUntil(fs.simulator().Now() + SecondsToUsec(0.1));
  ASSERT_FALSE(fs.Stats(rider->patch_request)->completed) << "the patch must still be running";

  Result<FsckReport> report = fs.RunFsck();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  fs.RunUntilIdle();

  EXPECT_TRUE(fs.Stats(rider->patch_request)->completed);
  EXPECT_EQ(fs.session_manager()->census().merged, 1);
  EXPECT_EQ(fs.block_cache()->stats().pinned_entries, 0);
  EXPECT_EQ(fs.SloSnapshot().sessions_merged, 1);
}

}  // namespace
}  // namespace vafs
