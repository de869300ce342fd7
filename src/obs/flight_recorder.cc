#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <vector>

namespace vafs {
namespace obs {

const char* TraceSeverityName(TraceSeverity severity) {
  switch (severity) {
    case TraceSeverity::kInfo:
      return "info";
    case TraceSeverity::kWarning:
      return "warn";
    case TraceSeverity::kCritical:
      return "crit";
  }
  return "unknown";
}

TraceSeverity ClassifyTraceEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kBlockSkipped:   // degraded playback reached a user
    case TraceEventKind::kPowerCut:
    case TraceEventKind::kFsckFinding:
    case TraceEventKind::kRecovery:
      return TraceSeverity::kCritical;
    case TraceEventKind::kSubmitRejected:
    case TraceEventKind::kResumeRejected:
    case TraceEventKind::kAdmissionReject:
    case TraceEventKind::kBlockRetried:
    case TraceEventKind::kBlockRelocated:
    case TraceEventKind::kDiskFault:
    case TraceEventKind::kDiskSalvage:
      return TraceSeverity::kWarning;
    default:
      return TraceSeverity::kInfo;
  }
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options),
      rings_{Ring(options.ring_capacity, 1), Ring(options.ring_capacity, 1),
             Ring(options.ring_capacity, 1)} {}

void FlightRecorder::OnEvent(const TraceEvent& event) {
  const TraceSeverity severity = ClassifyTraceEvent(event);
  Entry& entry = rings_[static_cast<size_t>(severity)].Push();
  entry.sequence = events_seen_++;
  entry.event = event;
  if (severity == TraceSeverity::kCritical) {
    TriggerDump(std::string(TraceEventKindName(event.kind)) +
                (event.detail.empty() ? "" : ": " + event.detail));
  }
}

void FlightRecorder::TriggerDump(const std::string& reason) {
  ++triggers_;
  if (options_.dump_once && dumped_) {
    return;
  }
  dumped_ = true;
  last_dump_reason_ = reason;
  last_dump_ = Dump();
  if (dump_handler_) {
    dump_handler_(reason, last_dump_);
  }
}

std::string FlightRecorder::Dump() const {
  // Merge the three rings back into arrival order via the global sequence.
  struct Tagged {
    const Entry* entry;
    TraceSeverity severity;
  };
  std::vector<Tagged> merged;
  for (int s = 0; s < 3; ++s) {
    rings_[s].ForEach([&merged, s](const Entry& entry) {
      merged.push_back(Tagged{&entry, static_cast<TraceSeverity>(s)});
    });
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& a, const Tagged& b) {
    return a.entry->sequence < b.entry->sequence;
  });
  std::string dump = "flight recorder: " + std::to_string(merged.size()) + " events retained";
  for (int s = 0; s < 3; ++s) {
    if (rings_[s].dropped() > 0) {
      dump += ", " + std::to_string(rings_[s].dropped()) + " " +
              TraceSeverityName(static_cast<TraceSeverity>(s)) + " dropped";
    }
  }
  dump += "\n";
  for (const Tagged& tagged : merged) {
    dump += "[";
    dump += TraceSeverityName(tagged.severity);
    dump += "] ";
    dump += TraceEventSummary(tagged.entry->event);
    dump += "\n";
  }
  return dump;
}

}  // namespace obs
}  // namespace vafs
