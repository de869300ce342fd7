#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace vafs {
namespace obs {
namespace {

TraceEvent Event(TraceEventKind kind, SimTime time) {
  TraceEvent event;
  event.kind = kind;
  event.time = time;
  return event;
}

// A small but representative trace: one round servicing two requests, with
// a disk transfer and a completion.
std::vector<TraceEvent> SampleTrace() {
  std::vector<TraceEvent> events;

  TraceEvent submit = Event(TraceEventKind::kSubmitAccepted, 100);
  submit.request = 1;
  events.push_back(submit);
  submit.request = 2;
  events.push_back(submit);

  TraceEvent round_start = Event(TraceEventKind::kRoundStart, 1000);
  round_start.round = 0;
  round_start.k = 2;
  events.push_back(round_start);

  TraceEvent read = Event(TraceEventKind::kDiskRead, 2000);
  read.request = 1;
  read.sector = 640;
  read.blocks = 8;  // sectors
  read.seek_cylinders = 17;
  read.duration = 950;
  events.push_back(read);

  TraceEvent serviced = Event(TraceEventKind::kRequestServiced, 2400);
  serviced.request = 1;
  serviced.blocks = 2;
  serviced.k = 2;
  serviced.block_playback = 1000;
  serviced.round_budget = 2000;
  serviced.duration = 900;
  events.push_back(serviced);
  serviced.request = 2;
  serviced.time = 2450;
  events.push_back(serviced);

  TraceEvent round_end = Event(TraceEventKind::kRoundEnd, 2500);
  round_end.round = 0;
  round_end.k = 2;
  round_end.blocks = 4;
  round_end.duration = 1500;
  round_end.round_budget = 2000;
  events.push_back(round_end);

  TraceEvent completed = Event(TraceEventKind::kCompleted, 2600);
  completed.request = 1;
  events.push_back(completed);
  return events;
}

// Events matching a (ph, pid, tid) triple, optionally filtered by name.
std::vector<const JsonValue*> Select(const JsonValue& trace, const std::string& ph, double pid,
                                     double tid, const std::string& name = "") {
  std::vector<const JsonValue*> matches;
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return matches;
  }
  for (const JsonValue& event : events->array) {
    if (event.StringOr("ph", "") != ph || event.NumberOr("pid", -1) != pid ||
        event.NumberOr("tid", -1) != tid) {
      continue;
    }
    if (!name.empty() && event.StringOr("name", "") != name) {
      continue;
    }
    matches.push_back(&event);
  }
  return matches;
}

TEST(PerfettoExporterTest, EmitsValidJsonWithExpectedEnvelope) {
  const std::vector<TraceEvent> events = SampleTrace();
  const PerfettoExporter exporter(&events);
  EXPECT_STREQ(exporter.Format(), "perfetto");
  EXPECT_STREQ(exporter.FileExtension(), ".perfetto.json");

  Result<JsonValue> parsed = JsonValue::Parse(exporter.Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->StringOr("displayTimeUnit", ""), "ms");
  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  EXPECT_FALSE(trace_events->array.empty());
}

TEST(PerfettoExporterTest, NamesProcessesAndOneTrackPerRequest) {
  const std::vector<TraceEvent> events = SampleTrace();
  Result<JsonValue> parsed = JsonValue::Parse(PerfettoExporter(&events).Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());

  // Process naming metadata for scheduler / disk / persistence.
  std::vector<std::string> processes;
  for (const JsonValue& event : trace_events->array) {
    if (event.StringOr("ph", "") == "M" && event.StringOr("name", "") == "process_name") {
      const JsonValue* arguments = event.Find("args");
      ASSERT_NE(arguments, nullptr);
      processes.push_back(arguments->StringOr("name", ""));
    }
  }
  EXPECT_EQ(processes,
            (std::vector<std::string>{"vafs scheduler", "vafs disk", "vafs persistence"}));

  // Exactly one named thread per distinct request id, on the scheduler pid.
  std::vector<std::string> request_threads;
  for (const JsonValue& event : trace_events->array) {
    if (event.StringOr("ph", "") == "M" && event.StringOr("name", "") == "thread_name" &&
        event.NumberOr("pid", -1) == 1 && event.NumberOr("tid", -1) >= 1) {
      const JsonValue* arguments = event.Find("args");
      ASSERT_NE(arguments, nullptr);
      request_threads.push_back(arguments->StringOr("name", ""));
    }
  }
  EXPECT_EQ(request_threads, (std::vector<std::string>{"request 1", "request 2"}));

  // Each request's service window lands on its own track as a complete
  // slice whose ts is completion minus duration.
  for (double request : {1.0, 2.0}) {
    const auto slices = Select(*parsed, "X", 1, request, "service");
    ASSERT_EQ(slices.size(), 1u) << "request " << request;
    EXPECT_EQ(slices[0]->NumberOr("dur", 0), 900.0);
    const JsonValue* arguments = slices[0]->Find("args");
    ASSERT_NE(arguments, nullptr);
    EXPECT_EQ(arguments->NumberOr("blocks", 0), 2.0);
    EXPECT_EQ(arguments->NumberOr("budget_usec", 0), 2000.0);
  }
  const auto service_one = Select(*parsed, "X", 1, 1, "service");
  EXPECT_EQ(service_one[0]->NumberOr("ts", 0), 2400.0 - 900.0);
}

TEST(PerfettoExporterTest, RoundAndDiskSlicesCarryBudgetAndGeometryArgs) {
  const std::vector<TraceEvent> events = SampleTrace();
  Result<JsonValue> parsed = JsonValue::Parse(PerfettoExporter(&events).Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // The round slice sits on the scheduler's rounds track (tid 0) and its
  // args expose the Eq. 11 budget and realized slack.
  const auto rounds = Select(*parsed, "X", 1, 0, "round 0");
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0]->NumberOr("ts", 0), 2500.0 - 1500.0);
  EXPECT_EQ(rounds[0]->NumberOr("dur", 0), 1500.0);
  const JsonValue* round_args = rounds[0]->Find("args");
  ASSERT_NE(round_args, nullptr);
  EXPECT_EQ(round_args->NumberOr("budget_usec", 0), 2000.0);
  EXPECT_EQ(round_args->NumberOr("slack_usec", -1), 500.0);

  // The disk transfer is a slice on the device track with geometry args.
  const auto reads = Select(*parsed, "X", 2, 1, "disk_read");
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0]->NumberOr("dur", 0), 950.0);
  const JsonValue* read_args = reads[0]->Find("args");
  ASSERT_NE(read_args, nullptr);
  EXPECT_EQ(read_args->NumberOr("sector", 0), 640.0);
  EXPECT_EQ(read_args->NumberOr("sectors", 0), 8.0);
  EXPECT_EQ(read_args->NumberOr("seek_cylinders", 0), 17.0);

  // Lifecycle events render as thread-scoped instants.
  const auto completions = Select(*parsed, "i", 1, 1, "completed");
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0]->StringOr("s", ""), "t");
}

TEST(PerfettoExporterTest, EveryEventKindRendersABodyEvent) {
  std::vector<TraceEvent> events;
  for (int kind = 0; kind <= static_cast<int>(TraceEventKind::kCriticalPath); ++kind) {
    TraceEvent event = Event(static_cast<TraceEventKind>(kind), 1000 + kind);
    event.request = 7;
    event.span_id = 1;
    event.span_stage = static_cast<int64_t>(SpanStage::kTransfer);
    event.node = 3;
    events.push_back(event);
  }
  Result<JsonValue> parsed = JsonValue::Parse(PerfettoExporter(&events).Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  size_t body = 0;
  for (const JsonValue& event : trace_events->array) {
    body += event.StringOr("ph", "") != "M" ? 1 : 0;
  }
  EXPECT_EQ(body, events.size());

  // Session events are instants on the request's track with their args.
  const auto merged = Select(*parsed, "i", 1, 7, "session_merged");
  ASSERT_EQ(merged.size(), 1u);
  const JsonValue* merge_args = merged[0]->Find("args");
  ASSERT_NE(merge_args, nullptr);
  for (const char* arg : {"session", "leader", "gap_blocks", "runway_blocks"}) {
    EXPECT_NE(merge_args->Find(arg), nullptr) << arg;
  }
  // Cluster events share one named cluster track; a failover carries its
  // interruption and the bound it had to meet.
  const auto failovers = Select(*parsed, "i", 5, 0, "failover");
  ASSERT_EQ(failovers.size(), 1u);
  const JsonValue* failover_args = failovers[0]->Find("args");
  ASSERT_NE(failover_args, nullptr);
  EXPECT_EQ(failover_args->NumberOr("node", -1), 3.0);
  EXPECT_NE(failover_args->Find("interruption_usec"), nullptr);
  EXPECT_NE(failover_args->Find("bound_usec"), nullptr);
  EXPECT_EQ(Select(*parsed, "i", 5, 0).size(), 5u);
  EXPECT_EQ(Select(*parsed, "M", 5, 0, "thread_name").size(), 1u);
}

TEST(PerfettoExporterTest, BatchedRiderShowsOnItsLeadersTrack) {
  TraceEvent batched = Event(TraceEventKind::kSessionBatched, 500);
  batched.session = 4;
  batched.leader = 9;  // a batched rider has no stream (request 0) of its own
  const std::vector<TraceEvent> events = {batched};
  Result<JsonValue> parsed = JsonValue::Parse(PerfettoExporter(&events).Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto instants = Select(*parsed, "i", 1, 9, "session_batched");
  ASSERT_EQ(instants.size(), 1u);
  const JsonValue* arguments = instants[0]->Find("args");
  ASSERT_NE(arguments, nullptr);
  EXPECT_EQ(arguments->NumberOr("session", 0), 4.0);
  EXPECT_EQ(arguments->NumberOr("leader", 0), 9.0);
  // No cluster event, no cluster process.
  EXPECT_TRUE(Select(*parsed, "M", 5, 0).empty());
}

TEST(PrometheusExporterTest, MetricNameSanitizes) {
  EXPECT_EQ(PrometheusExporter::MetricName("disk.read_service_usec"),
            "vafs_disk_read_service_usec");
  EXPECT_EQ(PrometheusExporter::MetricName("weird-name.x/y"), "vafs_weird_name_x_y");
}

// Minimal exposition-format parser used to round-trip the export: maps
// "name value" and "name{le=\"edge\"} value" lines, and records TYPE lines.
struct Exposition {
  std::map<std::string, std::string> types;          // metric -> counter/gauge/histogram
  std::map<std::string, double> samples;             // plain samples
  std::map<std::string, std::vector<std::pair<std::string, double>>> buckets;

  static Exposition Parse(const std::string& text) {
    Exposition parsed;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) {
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream fields(line.substr(7));
        std::string metric, type;
        fields >> metric >> type;
        parsed.types[metric] = type;
        continue;
      }
      EXPECT_NE(line[0], '#') << "unexpected comment: " << line;
      const size_t space = line.rfind(' ');
      if (space == std::string::npos) {
        ADD_FAILURE() << "malformed sample line: " << line;
        continue;
      }
      const std::string key = line.substr(0, space);
      const double value = std::stod(line.substr(space + 1));
      const size_t brace = key.find('{');
      if (brace == std::string::npos) {
        parsed.samples[key] = value;
        continue;
      }
      // Only the le label is ever emitted.
      const std::string metric = key.substr(0, brace);
      const std::string label = key.substr(brace, key.size() - brace);
      if (label.rfind("{le=\"", 0) != 0) {
        ADD_FAILURE() << "unexpected label set: " << line;
        continue;
      }
      const std::string edge = label.substr(5, label.size() - 7);
      parsed.buckets[metric].emplace_back(edge, value);
    }
    return parsed;
  }
};

TEST(PrometheusExporterTest, ExpositionRoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.counter("scheduler.rounds").Increment(42);
  registry.gauge("scheduler.current_k").Set(3.5);
  Histogram& histogram = registry.histogram("disk.read_service_usec");
  histogram.Record(1.0);    // bucket 0 (<= 1)
  histogram.Record(3.0);    // bucket 2 (2, 4]
  histogram.Record(100.0);  // bucket 7 (64, 128]

  const PrometheusExporter exporter(&registry);
  EXPECT_STREQ(exporter.FileExtension(), ".prom");
  const std::string text = exporter.Export();
  Exposition parsed = Exposition::Parse(text);

  EXPECT_EQ(parsed.types["vafs_scheduler_rounds"], "counter");
  EXPECT_EQ(parsed.types["vafs_scheduler_current_k"], "gauge");
  EXPECT_EQ(parsed.types["vafs_disk_read_service_usec"], "histogram");
  EXPECT_EQ(parsed.samples["vafs_scheduler_rounds"], 42.0);
  EXPECT_EQ(parsed.samples["vafs_scheduler_current_k"], 3.5);
  EXPECT_EQ(parsed.samples["vafs_disk_read_service_usec_sum"], 104.0);
  EXPECT_EQ(parsed.samples["vafs_disk_read_service_usec_count"], 3.0);

  // Buckets are cumulative, non-decreasing, cover every occupied power-of-
  // two edge, and end at +Inf == _count.
  const auto& buckets = parsed.buckets["vafs_disk_read_service_usec_bucket"];
  ASSERT_EQ(buckets.size(), 9u);  // le = 1..128 plus +Inf
  EXPECT_EQ(buckets.front().first, "1");
  EXPECT_EQ(buckets.front().second, 1.0);
  double previous = 0.0;
  for (const auto& [edge, cumulative] : buckets) {
    EXPECT_GE(cumulative, previous) << "le=" << edge;
    previous = cumulative;
  }
  EXPECT_EQ(buckets.back().first, "+Inf");
  EXPECT_EQ(buckets.back().second, 3.0);
  EXPECT_EQ(buckets[7].first, "128");
  EXPECT_EQ(buckets[7].second, 3.0);
}

TEST(JsonSnapshotExporterTest, BundlesMetricsSloAndTraceHealth) {
  MetricsRegistry registry;
  registry.counter("scheduler.rounds").Increment(7);

  TraceLog log(4);
  SloTracker slo;
  for (int i = 0; i < 6; ++i) {
    TraceEvent event = Event(TraceEventKind::kRoundStart, i * 100);
    event.round = i;
    log.OnEvent(event);
    slo.OnEvent(event);
  }

  const JsonSnapshotExporter exporter(&registry, &slo, &log);
  EXPECT_STREQ(exporter.FileExtension(), ".snapshot.json");
  Result<JsonValue> parsed = JsonValue::Parse(exporter.Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->NumberOr("version", 0), 1.0);
  EXPECT_EQ(parsed->StringOr("kind", ""), "vafs.telemetry.snapshot");
  const JsonValue* trace = parsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_object());
  EXPECT_EQ(trace->NumberOr("events_retained", 0),
            static_cast<double>(log.events().size()));
  EXPECT_EQ(trace->NumberOr("events_dropped", -1), static_cast<double>(log.dropped()));
  EXPECT_GT(log.dropped(), 0);
  const JsonValue* slo_json = parsed->Find("slo");
  ASSERT_NE(slo_json, nullptr);
  EXPECT_EQ(slo_json->StringOr("kind", ""), "vafs.slo.report");
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("scheduler.rounds", 0), 7.0);
}

TEST(JsonSnapshotExporterTest, OmittedSourcesSerializeAsNull) {
  MetricsRegistry registry;
  Result<JsonValue> parsed = JsonValue::Parse(JsonSnapshotExporter(&registry).Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* trace = parsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->type, JsonValue::Type::kNull);
  const JsonValue* slo = parsed->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->type, JsonValue::Type::kNull);
}

TEST(WriteExportTest, WritesBodyWithTrailingNewline) {
  MetricsRegistry registry;
  registry.counter("a").Increment(1);
  const PrometheusExporter exporter(&registry);
  const std::string path = ::testing::TempDir() + "vafs_export_test.prom";
  ASSERT_TRUE(WriteExport(exporter, path).ok());
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), exporter.Export() + "\n");
  std::remove(path.c_str());
}

TEST(WriteExportTest, ReportsUnwritablePath) {
  MetricsRegistry registry;
  const PrometheusExporter exporter(&registry);
  const Status status = WriteExport(exporter, "/nonexistent-dir/out.prom");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace obs
}  // namespace vafs
