// Bounded flight recorder over the trace stream.
//
// A full TraceLog of a long simulation is too big to keep around just in
// case something goes wrong; rerunning with one attached changes nothing
// about the failure but costs a second run. The FlightRecorder keeps only
// the most recent N events per severity class in fixed rings — critical
// events (power cuts, degraded blocks, fsck findings, recoveries) survive
// much longer than the info-level round chatter that would otherwise push
// them out — and renders a merged, time-ordered dump on demand.
//
// Dumps fire automatically on the first trigger: a critical trace event
// (recovery, power cut, fsck finding), or an external hook — the
// ContinuityAuditor's violation handler and the SloTracker's breach handler
// both call TriggerDump, so the first SLO breach or invariant violation of
// a run produces a post-mortem without any TraceLog attached.

#ifndef VAFS_SRC_OBS_FLIGHT_RECORDER_H_
#define VAFS_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/obs/trace.h"

namespace vafs {
namespace obs {

enum class TraceSeverity {
  kInfo = 0,      // lifecycle, rounds, healthy transfers
  kWarning = 1,   // faults absorbed by retry/relocation, rejections
  kCritical = 2,  // degraded playback, power cuts, fsck findings, recovery
};

const char* TraceSeverityName(TraceSeverity severity);
TraceSeverity ClassifyTraceEvent(const TraceEvent& event);

struct FlightRecorderOptions {
  // Events retained per severity class.
  size_t ring_capacity = 256;
  // When true (default), only the first trigger dumps; later triggers are
  // counted but do not re-fire the handler. Rearm() resets this.
  bool dump_once = true;
};

class FlightRecorder : public TraceSink {
 public:
  using DumpHandler =
      std::function<void(const std::string& reason, const std::string& dump)>;

  explicit FlightRecorder(FlightRecorderOptions options = FlightRecorderOptions());

  void OnEvent(const TraceEvent& event) override;

  void set_dump_handler(DumpHandler handler) { dump_handler_ = std::move(handler); }

  // Renders the merged rings and fires the dump handler (subject to
  // dump_once). External monitors (auditor violations, SLO breaches) call
  // this; critical trace events call it internally.
  void TriggerDump(const std::string& reason);

  // Merged rings, oldest first, one "[severity] summary" line per event.
  std::string Dump() const;

  void Rearm() { dumped_ = false; }

  int64_t events_seen() const { return events_seen_; }
  int64_t dropped(TraceSeverity severity) const {
    return rings_[static_cast<size_t>(severity)].dropped();
  }
  int64_t triggers() const { return triggers_; }
  const std::string& last_dump_reason() const { return last_dump_reason_; }
  const std::string& last_dump() const { return last_dump_; }

 private:
  struct Entry {
    int64_t sequence = 0;
    TraceEvent event;
  };
  using Ring = EventRing<Entry>;

  FlightRecorderOptions options_;
  DumpHandler dump_handler_;
  // One drop-oldest ring per severity, indexed by TraceSeverity.
  Ring rings_[3];
  int64_t events_seen_ = 0;
  int64_t triggers_ = 0;
  bool dumped_ = false;
  std::string last_dump_reason_;
  std::string last_dump_;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_FLIGHT_RECORDER_H_
