// The benchmark's tracing probe, used only by traced runs.
//
// Spans: one around every call the benchmark makes into the system (facade
// ops, rope edits and repairs, simulator steps, cluster epochs), kept in
// memory and written out at exit. The system itself is not instrumented;
// every span is opened and closed from the benchmark's side of the call.
//
// Event tally: a counting TraceSink attached through
// SchedulerOptions::trace. It tallies events by kind and buffers them;
// after each top-level span closes, the buffer is replayed through shadow
// copies of the facade's telemetry sinks (ShadowSinks), each sink's batch
// timed as a child span, so the cost of every sink per event is measured
// outside the round that produced the events.

#ifndef VAFS_PERFBENCH_SRC_PROBE_H_
#define VAFS_PERFBENCH_SRC_PROBE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "src/obs/auditor.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace vafs {
namespace perfbench {

class Probe {
 public:
  int32_t Open(const char* name, uint64_t tag, int64_t start_ns);
  // Spans close innermost first.
  void Close(int32_t span, int64_t end_ns);
  void Rename(int32_t span, const char* name) { spans_[static_cast<size_t>(span)].name = name; }
  // Runs after every top-level span closes (spans the hook opens do not
  // re-trigger it).
  void set_top_level_hook(std::function<void()> hook) { hook_ = std::move(hook); }
  const std::vector<Span>& spans() const { return spans_; }
  // One span per line: index, name, start_ns, end_ns, parent, tag.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::function<void()> hook_;
  bool in_hook_ = false;
};

int64_t NowNs();

// Times one benchmark call with the steady clock; when a probe is given,
// the call is also recorded as a span.
class Call {
 public:
  Call(Probe* probe, const char* name, uint64_t tag = 0);
  ~Call() { Stop(); }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  void Rename(const char* name);
  // End the call (idempotent) and return its duration.
  int64_t StopNs();
  double Stop() { return static_cast<double>(StopNs()) * 1e-9; }

 private:
  Probe* probe_;
  int32_t span_ = -1;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
};

// Tallies every event by kind plus the fields the per-layer metrics need,
// and buffers the events for shadow replay.
class EventTally : public obs::TraceSink {
 public:
  static constexpr int kKinds = static_cast<int>(obs::TraceEventKind::kCriticalPath) + 1;

  struct Counts {
    std::array<int64_t, kKinds> kinds{};
    int64_t planned_blocks = 0;  // kRoundPlanned
    int64_t transfers = 0;
    int64_t coalesced = 0;
    int64_t deduped = 0;
    int64_t cache_hits = 0;
    int64_t cache_lookups = 0;
    int64_t round_k_sum = 0;             // kRoundEnd
    int64_t admission_existing_sum = 0;  // kAdmissionPlan
    int64_t disk_write_sectors = 0;      // kDiskWrite

    int64_t of(obs::TraceEventKind kind) const { return kinds[static_cast<size_t>(kind)]; }
    int64_t events() const;
    Counts operator-(const Counts& earlier) const;
  };

  void OnEvent(const obs::TraceEvent& event) override;

  const Counts& counts() const { return counts_; }
  // Cumulative cache evictions as last reported by a planned round.
  int64_t cache_evictions() const { return cache_evictions_; }
  // Events since the last call; the tally keeps counting.
  std::vector<obs::TraceEvent> TakeBuffer();

 private:
  Counts counts_;
  int64_t cache_evictions_ = 0;
  std::vector<obs::TraceEvent> buffer_;
};

// Shadow copies of the facade's telemetry sinks (TraceLog, MetricsSink,
// SloTracker, FlightRecorder, wired as the facade wires them) plus a
// ContinuityAuditor, which doubles as a correctness oracle, and a
// CriticalPathAnalyzer.
class ShadowSinks {
 public:
  enum Sink { kLog, kMetrics, kSlo, kFlight, kAuditor, kCriticalPath, kSinkCount };
  static const char* SinkName(int sink);

  ShadowSinks();
  ShadowSinks(const ShadowSinks&) = delete;
  ShadowSinks& operator=(const ShadowSinks&) = delete;

  // Replays `events` through every sink in turn, each sink's batch timed
  // as a child span of one "obs.replay" span.
  void Replay(const std::vector<obs::TraceEvent>& events, Probe* probe, uint64_t tag);

  int64_t sink_ns(int sink) const { return sink_ns_[static_cast<size_t>(sink)]; }
  int64_t events() const { return events_; }
  const obs::ContinuityAuditor& auditor() const { return auditor_; }

 private:
  obs::MetricsRegistry registry_;
  obs::TraceLog log_;
  obs::MetricsSink metrics_{&registry_};
  obs::SloTracker slo_;
  obs::FlightRecorder flight_;
  obs::ContinuityAuditor auditor_;
  obs::CriticalPathAnalyzer critical_path_{obs::CriticalPathOptions{}};
  std::array<int64_t, kSinkCount> sink_ns_{};
  int64_t events_ = 0;
};

}  // namespace perfbench
}  // namespace vafs

#endif  // VAFS_PERFBENCH_SRC_PROBE_H_
