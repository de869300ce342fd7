#include "src/obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "src/obs/span.h"

namespace vafs {
namespace obs {

Status WriteExport(const Exporter& exporter, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status(ErrorCode::kIoError, "cannot open " + path + " for writing");
  }
  const std::string body = exporter.Export();
  const size_t written = std::fwrite(body.data(), 1, body.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
  if (written != body.size()) {
    return Status(ErrorCode::kIoError, "short write to " + path);
  }
  return Status::Ok();
}

// --- Perfetto --------------------------------------------------------------

namespace {

// Track ids in the trace-event JSON. Requests use their id as tid within
// the scheduler process; the fixed tids below stay clear of them.
constexpr int kSchedulerPid = 1;
constexpr int kDiskPid = 2;
constexpr int kPersistencePid = 3;
constexpr int kSpanPid = 4;
constexpr int kClusterPid = 5;
constexpr int kRoundsTid = 0;
constexpr int kDeviceTid = 1;
constexpr int kCoordinatorTid = 0;

bool IsClusterEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kNodeDown:
    case TraceEventKind::kNodeUp:
    case TraceEventKind::kFailover:
    case TraceEventKind::kReReplicate:
    case TraceEventKind::kShedLoad:
      return true;
    default:
      return false;
  }
}

// Span slices group per storage node: node -1 (single-node) on tid 1.
int64_t SpanTid(const TraceEvent& event) { return event.node + 2; }

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out->append(buffer);
}

class EventWriter {
 public:
  explicit EventWriter(std::string* out) : out_(out) {}

  // Opens one trace event object with the common fields.
  EventWriter& Begin(const char* ph, int64_t pid, int64_t tid, const std::string& name,
                     SimTime ts) {
    if (!first_) {
      *out_ += ",\n";
    }
    first_ = false;
    *out_ += "  {\"ph\": \"";
    *out_ += ph;
    *out_ += "\", \"pid\": " + std::to_string(pid) + ", \"tid\": " + std::to_string(tid);
    *out_ += ", \"ts\": " + std::to_string(ts);
    *out_ += ", \"name\": \"";
    AppendJsonEscaped(out_, name);
    *out_ += "\"";
    args_open_ = false;
    return *this;
  }

  EventWriter& Field(const char* key, const std::string& value) {
    *out_ += ", \"";
    *out_ += key;
    *out_ += "\": \"";
    AppendJsonEscaped(out_, value);
    *out_ += "\"";
    return *this;
  }

  EventWriter& Duration(SimDuration dur) {
    *out_ += ", \"dur\": " + std::to_string(dur);
    return *this;
  }

  EventWriter& Arg(const char* key, int64_t value) {
    OpenArgs();
    *out_ += "\"";
    *out_ += key;
    *out_ += "\": " + std::to_string(value);
    return *this;
  }

  EventWriter& Arg(const char* key, const std::string& value) {
    OpenArgs();
    *out_ += "\"";
    *out_ += key;
    *out_ += "\": \"";
    AppendJsonEscaped(out_, value);
    *out_ += "\"";
    return *this;
  }

  void End() {
    if (args_open_) {
      *out_ += "}";
    }
    *out_ += "}";
  }

 private:
  void OpenArgs() {
    if (!args_open_) {
      *out_ += ", \"args\": {";
      args_open_ = true;
    } else {
      *out_ += ", ";
    }
  }

  std::string* out_;
  bool first_ = true;
  bool args_open_ = false;
};

void WriteBodyEvent(EventWriter& writer, const TraceEvent& event);

}  // namespace

std::string PerfettoExporter::Export() const {
  std::string json = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  EventWriter writer(&json);

  // Naming metadata: processes, the fixed tracks, one thread per request.
  auto name_process = [&](int pid, const char* name) {
    writer.Begin("M", pid, 0, "process_name", 0).Arg("name", std::string(name)).End();
  };
  auto name_thread = [&](int pid, int64_t tid, const std::string& name) {
    writer.Begin("M", pid, tid, "thread_name", 0).Arg("name", name).End();
  };
  const bool has_spans = std::any_of(events_->begin(), events_->end(), [](const TraceEvent& event) {
    return event.kind == TraceEventKind::kSpan || event.kind == TraceEventKind::kCriticalPath;
  });
  const bool has_cluster = std::any_of(events_->begin(), events_->end(), IsClusterEvent);
  name_process(kSchedulerPid, "vafs scheduler");
  name_process(kDiskPid, "vafs disk");
  name_process(kPersistencePid, "vafs persistence");
  if (has_spans) {
    name_process(kSpanPid, "vafs spans");
  }
  if (has_cluster) {
    name_process(kClusterPid, "vafs cluster");
  }
  name_thread(kSchedulerPid, kRoundsTid, "service rounds");
  name_thread(kDiskPid, kDeviceTid, "transfers");
  name_thread(kPersistencePid, kDeviceTid, "checkpoint/journal/fsck");
  if (has_cluster) {
    name_thread(kClusterPid, kCoordinatorTid, "coordinator");
  }
  std::set<uint64_t> requests;
  std::set<int64_t> span_nodes;
  for (const TraceEvent& event : *events_) {
    if (event.request != 0 && requests.insert(event.request).second) {
      name_thread(kSchedulerPid, static_cast<int64_t>(event.request),
                  "request " + std::to_string(event.request));
    }
    if ((event.kind == TraceEventKind::kSpan || event.kind == TraceEventKind::kCriticalPath) &&
        span_nodes.insert(event.node).second) {
      name_thread(kSpanPid, SpanTid(event),
                  event.node >= 0 ? "node " + std::to_string(event.node) + " spans" : "spans");
    }
  }

  for (const TraceEvent& event : *events_) {
    WriteBodyEvent(writer, event);
  }
  json += "\n]}";
  return json;
}

namespace {

void WriteBodyEvent(EventWriter& writer, const TraceEvent& event) {
  const char* kind = TraceEventKindName(event.kind);
  switch (event.kind) {
    case TraceEventKind::kRoundEnd:
      writer
          .Begin("X", kSchedulerPid, kRoundsTid, "round " + std::to_string(event.round),
                 event.time - event.duration)
          .Duration(event.duration)
          .Arg("k", event.k)
          .Arg("blocks", event.blocks)
          .Arg("budget_usec", event.round_budget)
          .Arg("slack_usec", event.round_budget - event.duration)
          .End();
      break;
    case TraceEventKind::kRequestServiced:
      writer
          .Begin("X", kSchedulerPid, static_cast<int64_t>(event.request), "service",
                 event.time - event.duration)
          .Duration(event.duration)
          .Arg("blocks", event.blocks)
          .Arg("k", event.k)
          .Arg("block_playback_usec", event.block_playback)
          .Arg("budget_usec", event.round_budget)
          .End();
      break;
    case TraceEventKind::kSubmitAccepted:
    case TraceEventKind::kActivated:
    case TraceEventKind::kPause:
    case TraceEventKind::kResume:
    case TraceEventKind::kResumeRejected:
    case TraceEventKind::kStop:
    case TraceEventKind::kCompleted:
    case TraceEventKind::kBlockRetried:
    case TraceEventKind::kBlockSkipped:
    case TraceEventKind::kBlockRelocated: {
      EventWriter& open = writer.Begin("i", kSchedulerPid,
                                       static_cast<int64_t>(event.request), kind, event.time)
                              .Field("s", "t");
      if (event.blocks != 0) {
        open.Arg("blocks", event.blocks);
      }
      if (!event.detail.empty()) {
        open.Arg("detail", event.detail);
      }
      open.End();
      break;
    }
    case TraceEventKind::kSubmitRejected:
    case TraceEventKind::kAdmissionPlan:
    case TraceEventKind::kAdmissionReject:
    case TraceEventKind::kCacheAdmit:
    case TraceEventKind::kCacheAdmitRevoked:
    case TraceEventKind::kRoundPlanned:
    case TraceEventKind::kSeekAccounting:
    case TraceEventKind::kRoundStart: {
      EventWriter& open =
          writer.Begin("i", kSchedulerPid, kRoundsTid, kind, event.time).Field("s", "t");
      if (event.kind == TraceEventKind::kAdmissionPlan) {
        open.Arg("existing", event.existing).Arg("target_k", event.target_k).Arg("n_max",
                                                                                 event.n_max);
      }
      if (event.kind == TraceEventKind::kRoundPlanned) {
        open.Arg("transfers", event.transfers)
            .Arg("blocks", event.blocks)
            .Arg("coalesced", event.coalesced_blocks)
            .Arg("deduped", event.deduped_blocks)
            .Arg("cache_hits", event.cache_hits);
      }
      if (event.kind == TraceEventKind::kSeekAccounting) {
        open.Arg("ops", event.transfers)
            .Arg("seek_cylinders", event.seek_cylinders)
            .Arg("seek_cylinders_worst", event.seek_cylinders_worst);
      }
      if (!event.detail.empty()) {
        open.Arg("detail", event.detail);
      }
      open.End();
      break;
    }
    case TraceEventKind::kDiskRead:
    case TraceEventKind::kDiskWrite:
    case TraceEventKind::kDiskSalvage:
    case TraceEventKind::kDiskFault:
    case TraceEventKind::kPowerCut: {
      EventWriter& open = writer
                              .Begin("X", kDiskPid, kDeviceTid, kind,
                                     event.time - event.duration)
                              .Duration(event.duration)
                              .Arg("sector", event.sector)
                              .Arg("sectors", event.blocks)
                              .Arg("seek_cylinders", event.seek_cylinders);
      if (!event.detail.empty()) {
        open.Arg("detail", event.detail);
      }
      open.End();
      break;
    }
    case TraceEventKind::kCacheInvalidate: {
      writer.Begin("i", kDiskPid, kDeviceTid, kind, event.time)
          .Field("s", "t")
          .Arg("sector", event.sector)
          .Arg("entries_dropped", event.blocks)
          .End();
      break;
    }
    case TraceEventKind::kStrandWrite: {
      EventWriter& open =
          writer.Begin("i", kDiskPid, kDeviceTid, kind, event.time).Field("s", "t");
      open.Arg("sector", event.sector);
      if (event.gap_sec >= 0.0) {
        open.Arg("gap_ms", static_cast<int64_t>(event.gap_sec * 1e3));
      }
      open.End();
      break;
    }
    case TraceEventKind::kRootFlip:
    case TraceEventKind::kJournalAppend:
    case TraceEventKind::kJournalReplay:
    case TraceEventKind::kFsckFinding:
    case TraceEventKind::kRecovery: {
      EventWriter& open =
          writer.Begin("i", kPersistencePid, kDeviceTid, kind, event.time).Field("s", "t");
      if (event.sector != 0) {
        open.Arg("sector", event.sector);
      }
      if (!event.detail.empty()) {
        open.Arg("detail", event.detail);
      }
      open.End();
      break;
    }
    case TraceEventKind::kSessionBatched:
    case TraceEventKind::kSessionPatched:
    case TraceEventKind::kSessionMerged: {
      // On the patch stream's track; a batched rider has no stream of its
      // own and shows on its leader's.
      const uint64_t track = event.request != 0 ? event.request : event.leader;
      writer.Begin("i", kSchedulerPid, static_cast<int64_t>(track), kind, event.time)
          .Field("s", "t")
          .Arg("session", static_cast<int64_t>(event.session))
          .Arg("leader", static_cast<int64_t>(event.leader))
          .Arg("gap_blocks", event.gap_blocks)
          .Arg("runway_blocks", event.runway_blocks)
          .End();
      break;
    }
    case TraceEventKind::kNodeDown:
    case TraceEventKind::kNodeUp:
    case TraceEventKind::kFailover:
    case TraceEventKind::kReReplicate:
    case TraceEventKind::kShedLoad: {
      EventWriter& open = writer.Begin("i", kClusterPid, kCoordinatorTid, kind, event.time)
                              .Field("s", "t")
                              .Arg("node", event.node);
      if (event.kind == TraceEventKind::kFailover) {
        open.Arg("interruption_usec", event.duration).Arg("bound_usec", event.round_budget);
      }
      if (event.blocks != 0) {
        open.Arg("blocks", event.blocks);
      }
      if (!event.detail.empty()) {
        open.Arg("detail", event.detail);
      }
      open.End();
      break;
    }
    case TraceEventKind::kSpan: {
      // Parent-linked slice: ids ride as string args (64-bit ids overflow
      // JSON number precision), so ui.perfetto.dev can reconstruct the
      // tree via args.span_id / args.parent_id.
      EventWriter& open = writer
                              .Begin("X", kSpanPid, SpanTid(event), SpanFrameName(event),
                                     event.time - event.duration)
                              .Duration(event.duration)
                              .Arg("trace_id", std::to_string(event.trace_id))
                              .Arg("span_id", std::to_string(event.span_id))
                              .Arg("parent_id", std::to_string(event.parent_span))
                              .Arg("stage",
                                   std::string(SpanStageName(
                                       static_cast<SpanStage>(event.span_stage))));
      if (event.request != 0) {
        open.Arg("request", static_cast<int64_t>(event.request));
      }
      if (event.member >= 0) {
        open.Arg("member", event.member);
      }
      if (event.span_seek > 0) {
        open.Arg("seek_usec", event.span_seek);
      }
      open.End();
      break;
    }
    case TraceEventKind::kCriticalPath: {
      EventWriter& open =
          writer
              .Begin("i", kSpanPid, SpanTid(event),
                     "critical_path " +
                         std::string(SpanStageName(static_cast<SpanStage>(event.span_stage))),
                     event.time)
              .Field("s", "t")
              .Arg("round", event.round)
              .Arg("duration_usec", event.duration)
              .Arg("queue_usec", event.stages.queue)
              .Arg("seek_usec", event.stages.seek)
              .Arg("transfer_usec", event.stages.transfer)
              .Arg("retry_usec", event.stages.retry)
              .Arg("cache_usec", event.stages.cache)
              .Arg("merge_patch_usec", event.stages.merge_patch)
              .Arg("append_usec", event.stages.append)
              .Arg("anomalous", static_cast<int64_t>(event.anomalous ? 1 : 0));
      if (event.request != 0) {
        open.Arg("request", static_cast<int64_t>(event.request));
      }
      if (event.member >= 0) {
        open.Arg("member", event.member);
      }
      open.End();
      break;
    }
  }
}

}  // namespace

// --- Prometheus ------------------------------------------------------------

std::string PrometheusExporter::MetricName(const std::string& instrument) {
  std::string name = "vafs_";
  for (char c : instrument) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_';
    name.push_back(ok ? c : '_');
  }
  return name;
}

std::string PrometheusExporter::Export() const {
  std::string out;
  if (log_ != nullptr) {
    // Telemetry health first: a scrape that reads the rest of this page
    // should know whether the bounded log shed events to produce it.
    out += "# TYPE vafs_trace_events_dropped_total counter\n";
    out += "vafs_trace_events_dropped_total " + std::to_string(log_->dropped()) + "\n";
    out += "# TYPE vafs_trace_events_retained gauge\n";
    out += "vafs_trace_events_retained " + std::to_string(log_->events().size()) + "\n";
  }
  registry_->ForEachCounter([&](const std::string& name, const Counter& counter) {
    const std::string metric = MetricName(name);
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(counter.value()) + "\n";
  });
  registry_->ForEachGauge([&](const std::string& name, const Gauge& gauge) {
    const std::string metric = MetricName(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " ";
    AppendDouble(&out, gauge.value());
    out += "\n";
  });
  registry_->ForEachHistogram([&](const std::string& name, const Histogram& histogram) {
    const std::string metric = MetricName(name);
    out += "# TYPE " + metric + " histogram\n";
    int last_occupied = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (histogram.buckets()[static_cast<size_t>(b)] > 0) {
        last_occupied = b;
      }
    }
    int64_t cumulative = 0;
    for (int b = 0; b <= last_occupied; ++b) {
      cumulative += histogram.buckets()[static_cast<size_t>(b)];
      out += metric + "_bucket{le=\"";
      AppendDouble(&out, std::ldexp(1.0, b));
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(histogram.count()) + "\n";
    out += metric + "_sum ";
    AppendDouble(&out, histogram.sum());
    out += "\n" + metric + "_count " + std::to_string(histogram.count()) + "\n";
    // Samples the histogram refused (non-finite values): silently dropped
    // data would make the distribution above look healthier than it is.
    out += "# TYPE " + metric + "_rejected_total counter\n";
    out += metric + "_rejected_total " + std::to_string(histogram.rejected()) + "\n";
  });
  return out;
}

// --- JSON snapshot ---------------------------------------------------------

std::string JsonSnapshotExporter::Export() const {
  std::string json = "{\"version\": " + std::to_string(kVersion) +
                     ", \"kind\": \"vafs.telemetry.snapshot\", \"trace\": ";
  if (log_ != nullptr) {
    json += "{\"events_retained\": " + std::to_string(log_->events().size()) +
            ", \"events_dropped\": " + std::to_string(log_->dropped()) + "}";
  } else {
    json += "null";
  }
  json += ", \"slo\": ";
  json += slo_ != nullptr ? slo_->Report().ToJson() : "null";
  json += ", \"critical_path\": ";
  json += critical_path_ != nullptr ? critical_path_->ToJson() : "null";
  json += ", \"metrics\": ";
  const std::string metrics = registry_->ToJson();
  // ToJson ends with a newline; trim it so the envelope stays compact.
  json.append(metrics, 0, metrics.size() - (metrics.back() == '\n' ? 1 : 0));
  json += "}";
  return json;
}

}  // namespace obs
}  // namespace vafs
