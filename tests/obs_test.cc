#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/auditor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace vafs {
namespace obs {
namespace {

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry registry;
  registry.counter("events").Increment();
  registry.counter("events").Increment(4);
  registry.gauge("k").Set(3.0);
  registry.gauge("k").Set(5.0);
  EXPECT_EQ(registry.counter("events").value(), 5);
  EXPECT_EQ(registry.gauge("k").value(), 5.0);
  ASSERT_NE(registry.FindCounter("events"), nullptr);
  EXPECT_EQ(registry.FindCounter("events")->value(), 5);
  EXPECT_EQ(registry.FindCounter("never"), nullptr);
  EXPECT_EQ(registry.FindGauge("never"), nullptr);
  EXPECT_EQ(registry.FindHistogram("never"), nullptr);
}

TEST(MetricsTest, HistogramBuckets) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.Mean(), 0.0);
  histogram.Record(0.0);   // bucket 0
  histogram.Record(1.0);   // bucket 0 (<= 1)
  histogram.Record(2.0);   // bucket 1 ((1, 2])
  histogram.Record(3.0);   // bucket 2 ((2, 4])
  histogram.Record(100.0); // bucket 7 ((64, 128])
  EXPECT_EQ(histogram.count(), 5);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 100.0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 106.0);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 106.0 / 5.0);
  EXPECT_EQ(histogram.buckets()[0], 2);
  EXPECT_EQ(histogram.buckets()[1], 1);
  EXPECT_EQ(histogram.buckets()[2], 1);
  EXPECT_EQ(histogram.buckets()[7], 1);
  // Overflow absorbs into the last bucket.
  histogram.Record(1e30);
  EXPECT_EQ(histogram.buckets()[Histogram::kBuckets - 1], 1);
}

TEST(MetricsTest, JsonImageIsDeterministic) {
  MetricsRegistry registry;
  registry.counter("b.count").Increment(2);
  registry.counter("a.count").Increment(1);
  registry.gauge("k").Set(4.0);
  registry.histogram("round_usec").Record(100.0);
  const std::string json = registry.ToJson();
  // Name-sorted, so a.count precedes b.count.
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.count\": 2"), std::string::npos) << json;
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"round_usec\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(TraceTest, LogRecordsAndTeeFansOut) {
  TraceLog log_a;
  TraceLog log_b;
  TeeSink tee;
  tee.Add(&log_a);
  tee.Add(&log_b);
  TraceEvent event;
  event.kind = TraceEventKind::kRoundStart;
  event.round = 7;
  tee.OnEvent(event);
  ASSERT_EQ(log_a.events().size(), 1u);
  ASSERT_EQ(log_b.events().size(), 1u);
  EXPECT_EQ(log_a.events()[0].round, 7);
  log_a.Clear();
  EXPECT_TRUE(log_a.events().empty());
}

TEST(TraceTest, EventKindNamesAreStable) {
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kSubmitAccepted), "submit_accepted");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kRoundEnd), "round_end");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kStrandWrite), "strand_write");
}

TEST(TraceTest, MetricsSinkFoldsEvents) {
  MetricsRegistry registry;
  MetricsSink sink(&registry);

  TraceEvent submit;
  submit.kind = TraceEventKind::kSubmitAccepted;
  sink.OnEvent(submit);
  TraceEvent round;
  round.kind = TraceEventKind::kRoundEnd;
  round.k = 3;
  round.blocks = 6;
  round.duration = 1500;
  round.slots.active = 2;
  sink.OnEvent(round);
  TraceEvent read;
  read.kind = TraceEventKind::kDiskRead;
  read.blocks = 64;
  read.duration = 900;
  sink.OnEvent(read);

  EXPECT_EQ(registry.FindCounter("scheduler.submits_accepted")->value(), 1);
  EXPECT_EQ(registry.FindCounter("scheduler.rounds")->value(), 1);
  EXPECT_EQ(registry.FindGauge("scheduler.current_k")->value(), 3.0);
  EXPECT_EQ(registry.FindGauge("scheduler.slots_active")->value(), 2.0);
  EXPECT_EQ(registry.FindHistogram("scheduler.round_duration_usec")->count(), 1);
  EXPECT_DOUBLE_EQ(registry.FindHistogram("scheduler.round_duration_usec")->sum(), 1500.0);
  EXPECT_EQ(registry.FindCounter("disk.reads")->value(), 1);
  EXPECT_EQ(registry.FindCounter("disk.sectors_read")->value(), 64);
}

TEST(TraceTest, MetricsSinkCreatesAnInstrumentOnlyWhenAnEventTouchesIt) {
  MetricsRegistry registry;
  MetricsSink sink(&registry);
  EXPECT_EQ(registry.ToJson(), MetricsRegistry().ToJson());

  // A zero-duration service counts blocks but records no service time.
  TraceEvent serviced;
  serviced.kind = TraceEventKind::kRequestServiced;
  serviced.blocks = 3;
  sink.OnEvent(serviced);
  ASSERT_NE(registry.FindCounter("scheduler.blocks_serviced"), nullptr);
  EXPECT_EQ(registry.FindCounter("scheduler.blocks_serviced")->value(), 3);
  EXPECT_EQ(registry.FindHistogram("scheduler.request_service_usec"), nullptr);
  EXPECT_EQ(registry.ToJson().find("request_service_usec"), std::string::npos);
  serviced.duration = 40;
  sink.OnEvent(serviced);
  ASSERT_NE(registry.FindHistogram("scheduler.request_service_usec"), nullptr);
  EXPECT_EQ(registry.FindHistogram("scheduler.request_service_usec")->count(), 1);
  EXPECT_EQ(registry.FindCounter("scheduler.blocks_serviced")->value(), 6);

  // A plan with no cache probes and a seek with nothing saved leave their
  // conditional counters absent.
  TraceEvent planned;
  planned.kind = TraceEventKind::kRoundPlanned;
  sink.OnEvent(planned);
  EXPECT_NE(registry.FindCounter("plan.rounds"), nullptr);
  EXPECT_EQ(registry.FindCounter("cache.lookups"), nullptr);
  TraceEvent seek;
  seek.kind = TraceEventKind::kSeekAccounting;
  sink.OnEvent(seek);
  EXPECT_NE(registry.FindHistogram("plan.seek_cylinders_worst"), nullptr);
  EXPECT_EQ(registry.FindCounter("plan.seek_cylinders_saved"), nullptr);

  // The dominant-stage counter exists per stage that has dominated a round.
  TraceEvent verdict;
  verdict.kind = TraceEventKind::kCriticalPath;
  verdict.span_stage = static_cast<int64_t>(SpanStage::kSeek);
  sink.OnEvent(verdict);
  sink.OnEvent(verdict);
  ASSERT_NE(registry.FindCounter("critical_path.dominant.seek"), nullptr);
  EXPECT_EQ(registry.FindCounter("critical_path.dominant.seek")->value(), 2);
  EXPECT_EQ(registry.FindCounter("critical_path.dominant.transfer"), nullptr);
  EXPECT_EQ(registry.FindHistogram("critical_path.retry_usec"), nullptr);
  verdict.span_stage = 99;  // out of range: named as SpanStageName renders it
  sink.OnEvent(verdict);
  ASSERT_NE(registry.FindCounter("critical_path.dominant.?"), nullptr);
  EXPECT_EQ(registry.FindCounter("critical_path.dominant.?")->value(), 1);
}

TEST(TraceTest, MetricsSinksOnTwoRegistriesShareNoHandles) {
  MetricsRegistry first_registry;
  MetricsRegistry second_registry;
  MetricsSink first(&first_registry);
  MetricsSink second(&second_registry);
  TraceEvent round;
  round.kind = TraceEventKind::kRoundEnd;
  round.k = 2;
  first.OnEvent(round);
  round.k = 5;
  second.OnEvent(round);
  second.OnEvent(round);
  TraceEvent read;
  read.kind = TraceEventKind::kDiskRead;
  read.blocks = 8;
  second.OnEvent(read);
  TraceEvent verdict;
  verdict.kind = TraceEventKind::kCriticalPath;
  verdict.span_stage = static_cast<int64_t>(SpanStage::kQueue);
  first.OnEvent(verdict);
  second.OnEvent(verdict);
  second.OnEvent(verdict);

  EXPECT_EQ(first_registry.FindCounter("critical_path.dominant.queue")->value(), 1);
  EXPECT_EQ(second_registry.FindCounter("critical_path.dominant.queue")->value(), 2);
  EXPECT_EQ(first_registry.FindCounter("scheduler.rounds")->value(), 1);
  EXPECT_EQ(first_registry.FindGauge("scheduler.current_k")->value(), 2.0);
  EXPECT_EQ(first_registry.FindCounter("disk.reads"), nullptr);
  EXPECT_EQ(second_registry.FindCounter("scheduler.rounds")->value(), 2);
  EXPECT_EQ(second_registry.FindGauge("scheduler.current_k")->value(), 5.0);
  EXPECT_EQ(second_registry.FindCounter("disk.sectors_read")->value(), 8);
}

// --- Auditor -------------------------------------------------------------

// Builders for a synthetic, internally consistent trace.
TraceEvent Lifecycle(TraceEventKind kind, uint64_t request, SlotSnapshot slots) {
  TraceEvent event;
  event.kind = kind;
  event.request = request;
  event.slots = slots;
  return event;
}

TraceEvent RoundStart(int64_t round, int64_t k, SlotSnapshot slots) {
  TraceEvent event;
  event.kind = TraceEventKind::kRoundStart;
  event.round = round;
  event.k = k;
  event.slots = slots;
  return event;
}

TraceEvent Serviced(int64_t round, uint64_t request, int64_t blocks, SimDuration playback) {
  TraceEvent event;
  event.kind = TraceEventKind::kRequestServiced;
  event.round = round;
  event.request = request;
  event.blocks = blocks;
  event.block_playback = playback;
  return event;
}

TraceEvent RoundEnd(int64_t round, int64_t k, SimDuration duration, SlotSnapshot slots) {
  TraceEvent event;
  event.kind = TraceEventKind::kRoundEnd;
  event.round = round;
  event.k = k;
  event.duration = duration;
  event.slots = slots;
  return event;
}

TEST(AuditorTest, CleanTraceAudits) {
  const SlotSnapshot one_pending{.pending = 1};
  const SlotSnapshot one_active{.active = 1};
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, one_pending));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 1, one_active));
  events.push_back(RoundStart(1, 1, one_active));
  events.push_back(Serviced(1, 1, 1, 2000));
  events.push_back(RoundEnd(1, 1, 1500, one_active));
  events.push_back(Lifecycle(TraceEventKind::kCompleted, 1, SlotSnapshot{}));
  ContinuityAuditor auditor;
  for (const TraceEvent& event : events) {
    auditor.OnEvent(event);
  }
  EXPECT_TRUE(auditor.Clean()) << auditor.Report();
  EXPECT_EQ(auditor.Report(), "audit clean");
}

TEST(AuditorTest, FlagsAdmissionDoubleCount) {
  // One pending slot holder, but admission claims to have seen two existing
  // requests: the candidate was pre-counted (the historic Resume bug).
  std::vector<TraceEvent> events;
  events.push_back(
      Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  TraceEvent plan;
  plan.kind = TraceEventKind::kAdmissionPlan;
  plan.existing = 2;
  events.push_back(plan);
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("double-count"), std::string::npos);
}

TEST(AuditorTest, FlagsKJumpBeyondOneStep) {
  const SlotSnapshot one_active{.active = 1};
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 1, one_active));
  events.push_back(RoundStart(1, 1, one_active));
  events.push_back(RoundEnd(1, 1, 0, one_active));
  events.push_back(RoundStart(2, 3, one_active));
  events.push_back(RoundEnd(2, 3, 0, one_active));  // 1 -> 3 in one round
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("jumped"), std::string::npos);
  // The naive-jump policy opts out of the stepping check.
  EXPECT_TRUE(
      ContinuityAuditor::Replay(events, AuditorOptions{.stepped_transitions = false}).empty());
}

TEST(AuditorTest, FlagsKShrinkWithoutSlotRelease) {
  const SlotSnapshot one_active{.active = 1};
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 1, one_active));
  events.push_back(RoundStart(1, 2, one_active));
  events.push_back(RoundEnd(1, 2, 0, one_active));
  events.push_back(RoundStart(2, 1, one_active));
  events.push_back(RoundEnd(2, 1, 0, one_active));  // shrank with no release
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("shrank"), std::string::npos);
}

TEST(AuditorTest, DestructivePauseJustifiesKShrink) {
  const SlotSnapshot two_active{.active = 2};
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 1, SlotSnapshot{.active = 1}));
  events.push_back(
      Lifecycle(TraceEventKind::kSubmitAccepted, 2, SlotSnapshot{.active = 1, .pending = 1}));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 2, two_active));
  events.push_back(RoundStart(1, 2, two_active));
  events.push_back(RoundEnd(1, 2, 0, two_active));
  TraceEvent pause =
      Lifecycle(TraceEventKind::kPause, 2, SlotSnapshot{.active = 1, .paused_destructive = 1});
  pause.destructive = true;
  events.push_back(pause);
  const SlotSnapshot after_pause{.active = 1, .paused_destructive = 1};
  events.push_back(RoundStart(2, 1, after_pause));
  events.push_back(RoundEnd(2, 1, 0, after_pause));  // shrink is justified
  EXPECT_TRUE(ContinuityAuditor::Replay(events).empty());
}

TEST(AuditorTest, FlagsRoundOverrunOnSaturatedRound) {
  const SlotSnapshot one_active{.active = 1};
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 1, one_active));
  events.push_back(RoundStart(1, 2, one_active));
  events.push_back(Serviced(1, 1, 2, 1000));       // budget: 2 blocks * 1000 us
  events.push_back(RoundEnd(1, 2, 2500, one_active));  // took 2500 us: Eq. 11 broken
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("Eq. 11"), std::string::npos);
  // An unsaturated round (completion tail) is exempt...
  events[3] = Serviced(1, 1, 1, 1000);
  EXPECT_TRUE(ContinuityAuditor::Replay(events).empty());
  // ...and slack can absorb a legitimate overshoot.
  events[3] = Serviced(1, 1, 2, 1000);
  EXPECT_TRUE(
      ContinuityAuditor::Replay(events, AuditorOptions{.round_time_slack = 0.3}).empty());
}

TEST(AuditorTest, FlagsLedgerMismatch) {
  std::vector<TraceEvent> events;
  // Scheduler claims two pending but only one submit was ever traced.
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 2}));
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("disagrees"), std::string::npos);
}

TEST(AuditorTest, FlagsIllegalLifecycleTransitions) {
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kResume, 9, SlotSnapshot{}));  // never submitted
  events.push_back(Lifecycle(TraceEventKind::kCompleted, 9, SlotSnapshot{}));
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay(events);
  // Resume of an unknown request, then completion of an unknown request.
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[0].what.find("not paused"), std::string::npos);
  EXPECT_NE(violations[1].what.find("unknown"), std::string::npos);
}

TEST(AuditorTest, RecoveryResetsReplayedLedger) {
  // A restart rebuilds the scheduler empty: the request in flight at the
  // crash dies with it, so the rebuilt scheduler's first admission sees no
  // existing requests and its first submit holds the only slot.
  ContinuityAuditor auditor;
  auditor.OnEvent(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  TraceEvent recovery;
  recovery.kind = TraceEventKind::kRecovery;
  auditor.OnEvent(recovery);
  TraceEvent plan;
  plan.kind = TraceEventKind::kAdmissionPlan;
  plan.existing = 0;
  auditor.OnEvent(plan);
  auditor.OnEvent(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  EXPECT_TRUE(auditor.Clean()) << auditor.Report();
}

TEST(AuditorTest, FlagsScatteringContractBreach) {
  TraceEvent write;
  write.kind = TraceEventKind::kStrandWrite;
  write.sector = 4096;
  write.gap_sec = 0.010;
  write.gap_bound_sec = 0.004;
  const std::vector<AuditViolation> violations = ContinuityAuditor::Replay({write});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("scattering contract"), std::string::npos);
  // Within the bound (or the first block of a strand) is fine.
  write.gap_sec = 0.004;
  EXPECT_TRUE(ContinuityAuditor::Replay({write}).empty());
  write.gap_sec = -1.0;
  EXPECT_TRUE(ContinuityAuditor::Replay({write}).empty());
}

TEST(MetricsTest, QuantileInterpolatesWithinBuckets) {
  Histogram histogram;
  // 100 samples spread 1..100: p50 should land near 50, p99 near 100.
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 100.0);
  EXPECT_NEAR(histogram.Quantile(0.50), 50.0, 14.0);  // bucket (32,64] interpolation
  EXPECT_NEAR(histogram.Quantile(0.99), 100.0, 4.0);
  // Estimates never leave the sampled range, whatever the bucket edges say.
  EXPECT_GE(histogram.Quantile(0.01), 1.0);
  EXPECT_LE(histogram.Quantile(0.999), 100.0);
}

TEST(MetricsTest, QuantileSingleValueAndEmpty) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  histogram.Record(42.0);
  // One sample: every quantile is that sample (min == max clamps the bucket).
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 42.0);
}

TEST(MetricsTest, HistogramRejectsNonFiniteSamples) {
  Histogram histogram;
  histogram.Record(10.0);
  // A NaN must not poison min/max or count; infinities must not reach the
  // JSON image, where "inf" does not parse.
  histogram.Record(std::nan(""));
  histogram.Record(std::numeric_limits<double>::infinity());
  histogram.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_EQ(histogram.rejected(), 3);
  EXPECT_DOUBLE_EQ(histogram.min(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 10.0);
  // A NaN as the FIRST sample must not seed min/max either.
  Histogram fresh;
  fresh.Record(std::nan(""));
  EXPECT_EQ(fresh.count(), 0);
  fresh.Record(7.0);
  EXPECT_DOUBLE_EQ(fresh.min(), 7.0);
  EXPECT_DOUBLE_EQ(fresh.max(), 7.0);
}

TEST(MetricsTest, HistogramHugeValuesLandInOverflowBucket) {
  Histogram histogram;
  // Values at and beyond 2^64, where ceil-then-cast to uint64 is undefined
  // behaviour: they must land in the overflow bucket, not crash or scatter.
  histogram.Record(std::ldexp(1.0, 64));
  histogram.Record(std::ldexp(1.0, 100));
  histogram.Record(std::numeric_limits<double>::max());
  EXPECT_EQ(histogram.count(), 3);
  EXPECT_EQ(histogram.buckets()[Histogram::kBuckets - 1], 3);
  // The overflow-bucket quantile stays inside the observed range.
  EXPECT_GE(histogram.Quantile(0.5), std::ldexp(1.0, 64));
  EXPECT_LE(histogram.Quantile(0.99), std::numeric_limits<double>::max());
  // Just below the first power-of-two edge vs. exactly on it.
  Histogram edges;
  edges.Record(std::ldexp(1.0, Histogram::kBuckets - 1) - 1.0);
  EXPECT_EQ(edges.buckets()[Histogram::kBuckets - 1], 1);
}

TEST(MetricsTest, HistogramNegativeSamplesStayInBucketZero) {
  Histogram histogram;
  histogram.Record(-5.0);
  histogram.Record(-1e30);
  EXPECT_EQ(histogram.count(), 2);
  EXPECT_EQ(histogram.buckets()[0], 2);
  // The sign bug stays visible in min instead of crashing.
  EXPECT_DOUBLE_EQ(histogram.min(), -1e30);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), -1e30);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), -5.0);
}

TEST(MetricsTest, HistogramBucketBoundaryValues) {
  Histogram histogram;
  // Powers of two sit at bucket upper edges: 2^i lands in bucket i
  // ((2^(i-1), 2^i]); one past it spills into bucket i+1.
  histogram.Record(2.0);
  histogram.Record(4.0);
  histogram.Record(4.0 + 1e-9);
  histogram.Record(1024.0);
  EXPECT_EQ(histogram.buckets()[1], 1);
  EXPECT_EQ(histogram.buckets()[2], 1);
  EXPECT_EQ(histogram.buckets()[3], 1);
  EXPECT_EQ(histogram.buckets()[10], 1);
}

TEST(MetricsTest, ToJsonCarriesQuantiles) {
  MetricsRegistry registry;
  for (int i = 0; i < 10; ++i) {
    registry.histogram("h").Record(8.0);
  }
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"p50\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 8"), std::string::npos) << json;
}

TEST(MetricsTest, JsonEscapesInstrumentNamesAndControlCharacters) {
  std::string escaped;
  AppendJsonEscaped(&escaped, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\te\\u0001");

  MetricsRegistry registry;
  registry.counter("weird\"name\\with\nescapes").Increment();
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nescapes\": 1"), std::string::npos) << json;
  // The raw quote must never appear unescaped inside the key.
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
}

std::vector<int64_t> RetainedRounds(const TraceLog& log) {
  std::vector<int64_t> rounds;
  for (const TraceEvent& event : log.events()) {
    rounds.push_back(event.round);
  }
  return rounds;
}

std::vector<int64_t> Range(int64_t first, int64_t last) {
  std::vector<int64_t> rounds;
  for (int64_t round = first; round <= last; ++round) {
    rounds.push_back(round);
  }
  return rounds;
}

TEST(TraceTest, BoundedLogDropsOldestAndCounts) {
  TraceLog log(/*capacity=*/8);
  EXPECT_EQ(log.capacity(), 8u);
  TraceEvent event;
  event.kind = TraceEventKind::kRoundEnd;
  for (int i = 0; i < 20; ++i) {
    event.round = i;
    log.OnEvent(event);
  }
  // A full log drops its oldest quarter (2 of 8) in one step when the next
  // event arrives: 20 events leave exactly rounds 12..19.
  EXPECT_EQ(RetainedRounds(log), Range(12, 19));
  EXPECT_EQ(log.dropped(), 12);
  // Reading between writes changes nothing about what is retained next.
  event.round = 20;
  log.OnEvent(event);
  EXPECT_EQ(RetainedRounds(log), Range(14, 20));
  EXPECT_EQ(log.dropped(), 14);
  for (int i = 21; i < 30; ++i) {
    event.round = i;
    log.OnEvent(event);
    if (i == 25) {
      EXPECT_EQ(RetainedRounds(log), Range(18, 25));
    }
  }
  EXPECT_EQ(RetainedRounds(log), Range(22, 29));
  EXPECT_EQ(log.dropped(), 22);
  log.Clear();
  EXPECT_EQ(log.dropped(), 0);
  EXPECT_TRUE(log.events().empty());
  event.round = 40;
  log.OnEvent(event);
  EXPECT_EQ(RetainedRounds(log), Range(40, 40));

  // Capacity 1 still drops max(1, 1/4) = 1: the newest event survives.
  TraceLog single(/*capacity=*/1);
  for (int i = 0; i < 5; ++i) {
    event.round = i;
    single.OnEvent(event);
    EXPECT_EQ(RetainedRounds(single), Range(i, i));
  }
  EXPECT_EQ(single.dropped(), 4);
}

TEST(TraceTest, UnboundedLogKeepsEverything) {
  TraceLog log;  // capacity 0
  TraceEvent event;
  for (int i = 0; i < 1000; ++i) {
    event.round = i;
    log.OnEvent(event);
    if (i % 97 == 0) {
      EXPECT_EQ(RetainedRounds(log), Range(0, i));
    }
  }
  EXPECT_EQ(RetainedRounds(log), Range(0, 999));
  EXPECT_EQ(log.dropped(), 0);
}

TEST(TraceTest, BackToBackPowerCutsCountAsDistinctCrashPoints) {
  MetricsRegistry registry;
  MetricsSink sink(&registry);
  TraceEvent cut;
  cut.kind = TraceEventKind::kPowerCut;
  TraceEvent recovery;
  recovery.kind = TraceEventKind::kRecovery;

  // Two cuts before the first successful recovery (e.g. a crash during
  // fsck): both are crash points the eventual recovery survived.
  sink.OnEvent(cut);
  sink.OnEvent(cut);
  sink.OnEvent(recovery);
  EXPECT_EQ(registry.FindCounter("disk.power_cuts")->value(), 2);
  EXPECT_EQ(registry.FindCounter("recovery.crash_points_survived")->value(), 2);

  // A later single cut/recovery pair adds exactly one more.
  sink.OnEvent(cut);
  sink.OnEvent(recovery);
  EXPECT_EQ(registry.FindCounter("recovery.crash_points_survived")->value(), 3);
  // A recovery with no preceding cut (plain restart) credits nothing.
  sink.OnEvent(recovery);
  EXPECT_EQ(registry.FindCounter("recovery.crash_points_survived")->value(), 3);
}

TEST(TraceTest, SummaryRendersKeyFields) {
  TraceEvent event;
  event.kind = TraceEventKind::kDiskRead;
  event.time = 1200;
  event.round = 3;
  event.request = 2;
  event.sector = 640;
  event.blocks = 8;
  event.seek_cylinders = 17;
  event.duration = 950;
  event.detail = "why";
  const std::string line = TraceEventSummary(event);
  EXPECT_NE(line.find("t=1200"), std::string::npos) << line;
  EXPECT_NE(line.find("disk_read"), std::string::npos);
  EXPECT_NE(line.find("req=2"), std::string::npos);
  EXPECT_NE(line.find("sector=640"), std::string::npos);
  EXPECT_NE(line.find("seek=17cyl"), std::string::npos);
  EXPECT_NE(line.find("dur=950us"), std::string::npos);
  EXPECT_NE(line.find("[why]"), std::string::npos);
}

TEST(AuditorTest, ViolationHandlerFiresPerViolation) {
  ContinuityAuditor auditor;
  std::vector<std::string> seen;
  auditor.set_violation_handler(
      [&seen](const AuditViolation& violation) { seen.push_back(violation.what); });
  TraceEvent bogus;
  bogus.kind = TraceEventKind::kActivated;
  bogus.request = 99;
  auditor.OnEvent(bogus);  // activation of an unknown request
  ASSERT_GE(seen.size(), 1u);
  EXPECT_NE(seen[0].find("unknown request"), std::string::npos);
}

TEST(AuditorTest, NonDestructiveResumeRestoresLedgerColumn) {
  const SlotSnapshot one_active{.active = 1};
  std::vector<TraceEvent> events;
  events.push_back(Lifecycle(TraceEventKind::kSubmitAccepted, 1, SlotSnapshot{.pending = 1}));
  events.push_back(Lifecycle(TraceEventKind::kActivated, 1, one_active));
  events.push_back(
      Lifecycle(TraceEventKind::kPause, 1, SlotSnapshot{.paused_nondestructive = 1}));
  events.push_back(Lifecycle(TraceEventKind::kResume, 1, one_active));
  events.push_back(Lifecycle(TraceEventKind::kCompleted, 1, SlotSnapshot{}));
  EXPECT_TRUE(ContinuityAuditor::Replay(events).empty());
}

}  // namespace
}  // namespace obs
}  // namespace vafs
