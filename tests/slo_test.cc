#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace vafs {
namespace obs {
namespace {

TraceEvent Submit(uint64_t request, SimTime time) {
  TraceEvent event;
  event.kind = TraceEventKind::kSubmitAccepted;
  event.request = request;
  event.time = time;
  return event;
}

TraceEvent RoundStart(int64_t round, int64_t k, SimTime time) {
  TraceEvent event;
  event.kind = TraceEventKind::kRoundStart;
  event.round = round;
  event.k = k;
  event.time = time;
  return event;
}

TraceEvent Serviced(uint64_t request, int64_t blocks, SimDuration block_playback, SimTime time) {
  TraceEvent event;
  event.kind = TraceEventKind::kRequestServiced;
  event.request = request;
  event.blocks = blocks;
  event.block_playback = block_playback;
  event.time = time;
  return event;
}

TraceEvent RoundEnd(int64_t round, SimDuration duration, SimTime time) {
  TraceEvent event;
  event.kind = TraceEventKind::kRoundEnd;
  event.round = round;
  event.duration = duration;
  event.time = time;
  return event;
}

// Hand-computed Eq. 11 accounting: k = 2 blocks of d = 1000 us playback give
// every saturated round a 2000 us budget.
TEST(SloTrackerTest, SlackMathMatchesHandComputedBudgets) {
  SloTracker tracker;  // defaults: 10% slack target at 99.9%
  tracker.OnEvent(Submit(1, 0));

  // Round 0: duration 1500 of budget 2000 -> slack 0.25, utilization 75%.
  tracker.OnEvent(RoundStart(0, 2, 1000));
  tracker.OnEvent(Serviced(1, 2, 1000, 2500));
  tracker.OnEvent(RoundEnd(0, 1500, 2500));
  // Round 1: duration 1800 -> slack exactly 0.10 (still meets the target).
  // Service spacing 4800 - 2500 = 2300 vs the 2000 us contract: jitter 300.
  tracker.OnEvent(RoundStart(1, 2, 3000));
  tracker.OnEvent(Serviced(1, 2, 1000, 4800));
  tracker.OnEvent(RoundEnd(1, 1800, 4800));
  // Round 2: only 1 of k=2 blocks fetched (completion tail) -> exempt.
  tracker.OnEvent(RoundStart(2, 2, 5000));
  tracker.OnEvent(Serviced(1, 1, 1000, 5600));
  tracker.OnEvent(RoundEnd(2, 600, 5600));

  TraceEvent completed;
  completed.kind = TraceEventKind::kCompleted;
  completed.request = 1;
  tracker.OnEvent(completed);

  const SloReport report = tracker.Report();
  ASSERT_EQ(report.streams.size(), 1u);
  const StreamSlo& slo = report.streams[0];
  EXPECT_EQ(slo.request, 1u);
  EXPECT_TRUE(slo.completed);
  EXPECT_EQ(slo.startup_latency, 2500);  // first service completion - submit
  EXPECT_EQ(slo.rounds_accounted, 2);
  EXPECT_EQ(slo.rounds_exempt, 1);
  EXPECT_EQ(slo.rounds_within_budget, 2);
  EXPECT_EQ(slo.rounds_meeting_slack, 2);
  EXPECT_DOUBLE_EQ(slo.min_slack_fraction, 0.10);
  EXPECT_DOUBLE_EQ(slo.WithinBudgetFraction(), 1.0);
  EXPECT_DOUBLE_EQ(slo.MeetingSlackFraction(), 1.0);
  EXPECT_DOUBLE_EQ(slo.MeanBudgetUtilizationPct(), (75.0 + 90.0) / 2.0);
  EXPECT_EQ(slo.blocks_transferred, 5);
  EXPECT_EQ(slo.jitter_usec.count(), 2);  // rounds 0->1 and 1->2 spacings
  EXPECT_TRUE(slo.ContinuityMet(report.options));
  EXPECT_TRUE(tracker.AllStreamsMeetSlo());
  EXPECT_EQ(report.BreachedStreams(), 0);
  EXPECT_EQ(report.rounds_total, 3);
}

TEST(SloTrackerTest, OverrunBreachesAndFiresHandlerOnce) {
  SloTracker tracker;
  std::vector<std::string> breaches;
  tracker.set_breach_handler([&breaches](uint64_t request, const std::string& description) {
    EXPECT_EQ(request, 7u);
    breaches.push_back(description);
  });
  tracker.OnEvent(Submit(7, 0));
  // Budget 2000 us, round took 2500 us: the deadline was missed outright.
  tracker.OnEvent(RoundStart(0, 2, 0));
  tracker.OnEvent(Serviced(7, 2, 1000, 2500));
  tracker.OnEvent(RoundEnd(0, 2500, 2500));
  // A second bad round must not re-fire the handler.
  tracker.OnEvent(RoundStart(1, 2, 3000));
  tracker.OnEvent(Serviced(7, 2, 1000, 5600));
  tracker.OnEvent(RoundEnd(1, 2600, 5600));

  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_NE(breaches[0].find("stream 7 breached continuity SLO"), std::string::npos);
  const SloReport report = tracker.Report();
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(report.streams[0].WithinBudgetFraction(), 0.0);
  EXPECT_LT(report.streams[0].min_slack_fraction, 0.0);
  EXPECT_FALSE(tracker.AllStreamsMeetSlo());
  EXPECT_EQ(report.BreachedStreams(), 1);
}

TEST(SloTrackerTest, DegradedRatioCountsSkippedBlocks) {
  SloTracker tracker;
  tracker.OnEvent(Submit(1, 0));
  tracker.OnEvent(RoundStart(0, 4, 0));
  tracker.OnEvent(Serviced(1, 3, 1000, 2000));

  TraceEvent retried;
  retried.kind = TraceEventKind::kBlockRetried;
  retried.request = 1;
  tracker.OnEvent(retried);
  TraceEvent skipped;
  skipped.kind = TraceEventKind::kBlockSkipped;
  skipped.request = 1;
  tracker.OnEvent(skipped);
  tracker.OnEvent(RoundEnd(0, 2000, 2000));

  const SloReport report = tracker.Report();
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_EQ(report.streams[0].blocks_retried, 1);
  EXPECT_EQ(report.streams[0].blocks_skipped, 1);
  // 1 skipped of (3 transferred + 1 skipped).
  EXPECT_DOUBLE_EQ(report.streams[0].DegradedRatio(), 0.25);
}

TEST(SloTrackerTest, UnknownStreamsAndStrayEventsAreIgnored) {
  SloTracker tracker;
  // Service for a stream never submitted, and a round end with no round
  // start: neither may create state or crash.
  tracker.OnEvent(Serviced(9, 2, 1000, 100));
  tracker.OnEvent(RoundEnd(0, 100, 100));
  EXPECT_TRUE(tracker.Report().streams.empty());
  EXPECT_EQ(tracker.Report().rounds_total, 1);
}

TEST(SloTrackerTest, AnyRequestIdWorksAndReportOrdersStreamsById) {
  SloTracker tracker;
  const uint64_t big = (uint64_t{1} << 40) + 7;
  std::vector<uint64_t> breached;
  tracker.set_breach_handler(
      [&breached](uint64_t request, const std::string&) { breached.push_back(request); });

  tracker.OnEvent(Submit(big, 0));
  tracker.OnEvent(RoundStart(0, 2, 0));
  tracker.OnEvent(Serviced(2, 2, 1000, 500));  // before stream 2's submit: ignored
  tracker.OnEvent(Submit(2, 600));
  tracker.OnEvent(Submit(3, 650));  // never serviced
  tracker.OnEvent(Submit(1, 700));
  tracker.OnEvent(Serviced(big, 2, 1000, 1000));
  tracker.OnEvent(Serviced(1, 2, 1000, 1200));
  tracker.OnEvent(Serviced(2, 1, 1000, 1400));  // unsaturated: exempt
  tracker.OnEvent(RoundEnd(0, 1500, 1500));
  tracker.OnEvent(Submit(1, 1600));  // resubmitted: the same stream, counts kept
  tracker.OnEvent(RoundStart(1, 2, 1600));
  tracker.OnEvent(Serviced(1, 2, 1000, 2500));
  tracker.OnEvent(Serviced(big, 2, 1000, 2600));
  tracker.OnEvent(RoundEnd(1, 2500, 2600));  // overruns the 2000 us budget

  const SloReport report = tracker.Report();
  EXPECT_EQ(report.rounds_total, 2);
  ASSERT_EQ(report.streams.size(), 4u);
  const StreamSlo& one = report.streams[0];
  const StreamSlo& two = report.streams[1];
  const StreamSlo& idle = report.streams[2];
  const StreamSlo& third = report.streams[3];
  EXPECT_EQ(one.request, 1u);
  EXPECT_EQ(two.request, 2u);
  EXPECT_EQ(idle.request, 3u);
  EXPECT_EQ(third.request, big);

  EXPECT_EQ(one.submit_time, 1600);
  EXPECT_EQ(one.startup_latency, 500);
  EXPECT_EQ(one.blocks_transferred, 4);
  EXPECT_EQ(one.rounds_accounted, 2);
  EXPECT_EQ(one.rounds_within_budget, 1);
  EXPECT_EQ(one.jitter_usec.count(), 1);

  EXPECT_EQ(two.startup_latency, 800);
  EXPECT_EQ(two.blocks_transferred, 1);
  EXPECT_EQ(two.rounds_accounted, 0);
  EXPECT_EQ(two.rounds_exempt, 1);

  EXPECT_EQ(idle.startup_latency, -1);
  EXPECT_EQ(idle.blocks_transferred, 0);

  EXPECT_EQ(third.startup_latency, 1000);
  EXPECT_EQ(third.blocks_transferred, 4);
  EXPECT_EQ(third.rounds_accounted, 2);
  EXPECT_EQ(third.rounds_within_budget, 1);
  EXPECT_DOUBLE_EQ(third.min_slack_fraction, -0.25);

  // The overrun breaches both saturated streams, in service order.
  EXPECT_EQ(breached, (std::vector<uint64_t>{1, big}));
  EXPECT_FALSE(tracker.AllStreamsMeetSlo());
  EXPECT_EQ(report.BreachedStreams(), 2);
}

TEST(SloTrackerTest, ReportJsonRoundTripsThroughParser) {
  SloTracker tracker;
  tracker.OnEvent(Submit(3, 0));
  tracker.OnEvent(RoundStart(0, 1, 0));
  tracker.OnEvent(Serviced(3, 1, 2000, 1500));
  tracker.OnEvent(RoundEnd(0, 1500, 1500));

  Result<JsonValue> parsed = JsonValue::Parse(tracker.Report().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->StringOr("kind", ""), "vafs.slo.report");
  EXPECT_EQ(parsed->NumberOr("version", 0), 1.0);
  EXPECT_EQ(parsed->NumberOr("rounds_total", 0), 1.0);
  const JsonValue* streams = parsed->Find("streams");
  ASSERT_NE(streams, nullptr);
  ASSERT_TRUE(streams->is_array());
  ASSERT_EQ(streams->array.size(), 1u);
  const JsonValue& stream = streams->array[0];
  EXPECT_EQ(stream.NumberOr("request", 0), 3.0);
  EXPECT_EQ(stream.NumberOr("rounds_accounted", 0), 1.0);
  // Slack = (2000 - 1500) / 2000 = 25%.
  EXPECT_NEAR(stream.NumberOr("slack_pct_p50", 0), 25.0, 1e-6);
  EXPECT_EQ(stream.NumberOr("continuity_met", 0), 1.0);
}

TEST(FlightRecorderTest, ClassifiesBySeverity) {
  TraceEvent event;
  event.kind = TraceEventKind::kRoundEnd;
  EXPECT_EQ(ClassifyTraceEvent(event), TraceSeverity::kInfo);
  event.kind = TraceEventKind::kDiskFault;
  EXPECT_EQ(ClassifyTraceEvent(event), TraceSeverity::kWarning);
  event.kind = TraceEventKind::kPowerCut;
  EXPECT_EQ(ClassifyTraceEvent(event), TraceSeverity::kCritical);
  EXPECT_STREQ(TraceSeverityName(TraceSeverity::kCritical), "crit");
}

TEST(FlightRecorderTest, RingsDropOldestPerSeverity) {
  FlightRecorder recorder(FlightRecorderOptions{.ring_capacity = 4, .dump_once = true});
  TraceEvent info;
  info.kind = TraceEventKind::kRoundEnd;
  for (int i = 0; i < 10; ++i) {
    info.round = i;
    recorder.OnEvent(info);
  }
  EXPECT_EQ(recorder.events_seen(), 10);
  EXPECT_EQ(recorder.dropped(TraceSeverity::kInfo), 6);
  EXPECT_EQ(recorder.dropped(TraceSeverity::kWarning), 0);
  // The dump keeps the 4 newest info events and reports the drop count.
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("4 events retained"), std::string::npos) << dump;
  EXPECT_NE(dump.find("6 info dropped"), std::string::npos) << dump;
  EXPECT_NE(dump.find("round=9"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("round=5"), std::string::npos) << dump;
}

TEST(FlightRecorderTest, InterleavedSeveritiesKeepTheNewestOfEachInArrivalOrder) {
  FlightRecorder recorder(FlightRecorderOptions{.ring_capacity = 4, .dump_once = true});
  // Severities by position: every 3rd event is a warning, every 5th a
  // critical (criticals win), the rest info.
  std::vector<TraceEvent> events;
  std::vector<TraceSeverity> severities;
  for (int i = 0; i < 40; ++i) {
    TraceEvent event;
    event.round = i;
    event.kind = i % 5 == 4   ? TraceEventKind::kBlockSkipped
                 : i % 3 == 2 ? TraceEventKind::kDiskFault
                              : TraceEventKind::kRoundEnd;
    events.push_back(event);
    severities.push_back(ClassifyTraceEvent(event));
    recorder.OnEvent(event);
  }

  // Expected: the 4 newest events of each severity, merged by arrival.
  int seen[3] = {0, 0, 0};
  int total[3] = {0, 0, 0};
  for (TraceSeverity severity : severities) {
    ++total[static_cast<int>(severity)];
  }
  std::string lines;
  int retained = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const int s = static_cast<int>(severities[i]);
    if (++seen[s] > total[s] - 4) {
      lines += std::string("[") + TraceSeverityName(severities[i]) + "] " +
               TraceEventSummary(events[i]) + "\n";
      ++retained;
    }
  }
  ASSERT_EQ(total[0], 21);
  ASSERT_EQ(total[1], 11);
  ASSERT_EQ(total[2], 8);
  const std::string expected = "flight recorder: " + std::to_string(retained) +
                               " events retained, 17 info dropped, 7 warn dropped, "
                               "4 crit dropped\n" + lines;
  EXPECT_EQ(retained, 12);
  EXPECT_EQ(recorder.Dump(), expected);
  EXPECT_EQ(recorder.dropped(TraceSeverity::kInfo), 17);
  EXPECT_EQ(recorder.dropped(TraceSeverity::kWarning), 7);
  EXPECT_EQ(recorder.dropped(TraceSeverity::kCritical), 4);
  EXPECT_EQ(recorder.events_seen(), 40);
}

TEST(FlightRecorderTest, CriticalEventAutoDumpsOnceUntilRearmed) {
  FlightRecorder recorder;
  std::vector<std::string> reasons;
  recorder.set_dump_handler([&reasons](const std::string& reason, const std::string& dump) {
    reasons.push_back(reason);
    EXPECT_NE(dump.find("flight recorder:"), std::string::npos);
  });

  TraceEvent info;
  info.kind = TraceEventKind::kRequestServiced;
  info.request = 1;
  recorder.OnEvent(info);
  TraceEvent cut;
  cut.kind = TraceEventKind::kPowerCut;
  recorder.OnEvent(cut);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "power_cut");
  // The dump merges rings in arrival order: info before the cut.
  EXPECT_LT(recorder.last_dump().find("request_serviced"),
            recorder.last_dump().find("power_cut"));

  // Later criticals are counted but do not re-dump while armed-once.
  recorder.OnEvent(cut);
  EXPECT_EQ(reasons.size(), 1u);
  EXPECT_EQ(recorder.triggers(), 2);
  recorder.Rearm();
  recorder.OnEvent(cut);
  EXPECT_EQ(reasons.size(), 2u);
}

TEST(FlightRecorderTest, ExternalTriggerCarriesReason) {
  FlightRecorder recorder;
  TraceEvent info;
  info.kind = TraceEventKind::kRoundStart;
  recorder.OnEvent(info);
  recorder.TriggerDump("stream 4 breached continuity SLO");
  EXPECT_EQ(recorder.triggers(), 1);
  EXPECT_EQ(recorder.last_dump_reason(), "stream 4 breached continuity SLO");
  EXPECT_NE(recorder.last_dump().find("round_start"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace vafs
