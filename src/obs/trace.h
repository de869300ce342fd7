// Structured round-trace events for the storage manager's service path.
//
// The service scheduler, admission control, disk and strand store emit one
// TraceEvent per interesting transition (request lifecycle, admission
// decision, round execution, disk transfer, strand-block placement) into a
// TraceSink. Sinks compose: TraceLog records the stream for replay, TeeSink
// fans it out, MetricsSink folds it into a MetricsRegistry, and the
// ContinuityAuditor (src/obs/auditor.h) checks the paper's service
// invariants against it after every round.

#ifndef VAFS_SRC_OBS_TRACE_H_
#define VAFS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace vafs {
namespace obs {

enum class TraceEventKind {
  // Request lifecycle (service scheduler).
  kSubmitAccepted,
  kSubmitRejected,
  kActivated,  // left the pending queue, joined the service rotation
  kPause,
  kResume,
  kResumeRejected,
  kStop,
  kCompleted,
  // Admission decisions (admission control).
  kAdmissionPlan,
  kAdmissionReject,
  // Round execution (service scheduler).
  kRoundStart,
  kRequestServiced,
  kRoundEnd,
  // Fault handling (scheduler retry policy and relocation).
  kBlockRetried,    // a faulted block was re-read within the round's slack
  kBlockSkipped,    // retries exhausted or unaffordable: degraded playback
  kBlockRelocated,  // a defective block was copied to a fresh extent
  // Device level.
  kDiskRead,
  kDiskWrite,
  kDiskFault,    // injected fault; `detail` names the FaultKind
  kDiskSalvage,  // heroic recovery read (bypasses injection, costs extra)
  kPowerCut,     // the device lost power mid-write; `blocks` = surviving prefix
  kStrandWrite,
  // Crash consistency (src/vafs/persistence.h).
  kRootFlip,       // a checkpoint committed by flipping the A/B root
  kJournalAppend,  // a metadata intent reached the journal extent
  kJournalReplay,  // recovery applied one journal intent
  kFsckFinding,    // the scavenger reported one finding; `detail` names it
  kRecovery,       // the facade's Recover() rebuilt the layers; `detail` names how
  // Round I/O planner (src/msm/round_planner.h).
  kRoundPlanned,     // a round's transfer program was built
  kSeekAccounting,   // round-end measured vs worst-case arm travel
  kCacheAdmit,       // a stream admitted on expected cache coverage
  kCacheAdmitRevoked,  // coverage collapsed; the stream degraded out
  kCacheInvalidate,  // rewritten sectors dropped resident cache entries
  // Stream-merging session layer (src/msm/session_manager.h).
  kSessionBatched,  // a viewer attached to a leader inside the batch window
  kSessionPatched,  // a late viewer opened a short catch-up stream
  kSessionMerged,   // the patch closed its gap; the rider now follows the leader
  // Cluster sharding and failover (src/cluster/).
  kNodeDown,     // the coordinator declared a node dead; `node` names it
  kNodeUp,       // a node (re)joined after its catalog reconciled
  kFailover,     // a viewer resumed on a replica; `duration` = interruption,
                 // `round_budget` = the stamped failover bound it must meet
  kReReplicate,  // background repair restored one strand's replica count
  kShedLoad,     // no survivor could absorb this viewer; explicitly dropped
  // Causal span tracing (src/obs/span.h) and critical-path attribution
  // (src/obs/critical_path.h).
  kSpan,          // one closed span: (trace_id, span_id, parent_span) + stage
  kCriticalPath,  // per-round stage attribution emitted by the analyzer
};

const char* TraceEventKindName(TraceEventKind kind);

// The analyzer's stage taxonomy. Every span names exactly one stage, and
// every microsecond of a round's service time is charged to exactly one
// stage (kQueue absorbs the residual the transfer path did not claim), so
// a round's stage breakdown sums to its measured duration by construction.
enum class SpanStage {
  kRound = 0,       // root span of one scheduler round
  kQueue,           // round time not spent moving data (dispatch residual)
  kSeek,            // arm repositioning ahead of a transfer
  kTransfer,        // media moving for normal playback/recording
  kRetry,           // faulted service + re-reads within the round's slack
  kCache,           // plan-time cache hits (zero disk time by design)
  kMergePatch,      // transfers feeding a session-layer catch-up stream
  kAppend,          // recording appends riding the round tail
  kWave,            // one parallel DiskArray dispatch wave
  kPlan,            // round-plan construction
  kRoute,           // cluster coordinator routing/failover decision
  kSession,         // session-layer attach/patch bookkeeping
};

const char* SpanStageName(SpanStage stage);

// Per-round service-time attribution (usec). The stages partition the
// round: Total() equals the round's kRoundEnd duration within the
// integer-rounding epsilon checked by the ContinuityAuditor.
struct StageBreakdown {
  SimDuration queue = 0;
  SimDuration seek = 0;
  SimDuration transfer = 0;
  SimDuration retry = 0;
  SimDuration cache = 0;
  SimDuration merge_patch = 0;
  SimDuration append = 0;

  SimDuration Total() const {
    return queue + seek + transfer + retry + cache + merge_patch + append;
  }
  bool operator==(const StageBreakdown&) const = default;
};

struct TraceEvent;

// One-line human-readable rendering ("t=1200 round=3 disk_read req=2
// sector=640+8 dur=950us ..."), for flight-recorder dumps and inspectors.
std::string TraceEventSummary(const TraceEvent& event);

// Snapshot of the scheduler's admission-slot ledger, attached to lifecycle
// and round events. A slot is held by running, pending and non-destructively
// paused requests; a destructive pause gives the slot back. Cache-admitted
// streams are tenants of the cache, not of an Eq. 17 slot: they ride the
// rotation but are counted in their own column and never in Held().
struct SlotSnapshot {
  int64_t active = 0;
  int64_t pending = 0;
  int64_t paused_nondestructive = 0;
  int64_t paused_destructive = 0;
  int64_t cache_tenants = 0;  // cache-admitted, not destructively paused

  int64_t Held() const { return active + pending + paused_nondestructive; }
  bool operator==(const SlotSnapshot&) const = default;
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRoundStart;
  SimTime time = 0;       // simulated time (0 for device-level events)
  int64_t round = 0;      // rounds executed, for round-scoped events
  uint64_t request = 0;   // request id; 0 = not request-scoped
  int64_t k = 0;          // scheduler round size at emission
  int64_t blocks = 0;     // blocks or sectors moved, by kind
  SimDuration duration = 0;        // service time of the round / transfer
  SimDuration block_playback = 0;  // effective playback time of one block
  bool destructive = false;        // kPause / kResume flavor
  int64_t sector = 0;              // device events: first sector touched
  int64_t seek_cylinders = 0;      // device events: arm travel to reach it
  // Admission decisions:
  int64_t existing = 0;  // size of the existing set presented
  int64_t target_k = 0;  // final k of the planned step schedule
  int64_t n_max = 0;     // Eq. 17 ceiling of the combined set
  // Strand writes:
  double gap_sec = 0.0;        // realized gap to the previous block (-1: first)
  double gap_bound_sec = 0.0;  // the strand's max-scattering contract
  // Fault handling: the Eq. 11 round-time budget the scheduler checked a
  // retry against (0 = no budget applied).
  SimDuration round_budget = 0;
  // Round planner (kRoundPlanned / kSeekAccounting): the transfer program
  // and what it saved. `blocks` carries the planned data blocks;
  // `seek_cylinders` the measured per-round arm travel.
  int64_t transfers = 0;         // disk operations the plan dispatches
  int64_t coalesced_blocks = 0;  // blocks merged into a preceding transfer
  int64_t deduped_blocks = 0;    // blocks riding another stream's transfer
  int64_t cache_hits = 0;        // plan-time cache hits this round
  int64_t cache_lookups = 0;     // plan-time cache probes this round
  int64_t seek_cylinders_worst = 0;  // alpha-model bound for the op count
  // Block-cache occupancy at emission (kRoundPlanned).
  int64_t cache_resident_bytes = 0;
  int64_t cache_pinned_entries = 0;
  int64_t cache_evictions = 0;
  double cache_hit_rate = 0.0;  // recent-window rate, [0, 1]
  // Payload page pool at emission (kRoundPlanned); not rendered into the
  // trace digest — wall-clock-side allocator telemetry only.
  int64_t pool_outstanding = 0;  // pages currently checked out
  int64_t pool_recycled = 0;     // cumulative acquisitions served from the pool
  // Session layer (kSessionBatched / kSessionPatched / kSessionMerged).
  uint64_t session = 0;       // session id; 0 = not session-scoped
  uint64_t leader = 0;        // request id of the shared physical stream
  int64_t gap_blocks = 0;     // rider's distance behind the leader at attach
  int64_t runway_blocks = 0;  // patched: Section 3 buffer bound; merged: realized
  // Cluster events: the storage node the event concerns (-1 = not
  // node-scoped; 0 is a valid node id). kFailover additionally uses `node`
  // for the replica that absorbed the viewer and `sector` is unused.
  int64_t node = -1;
  // Causal spans (kSpan) and critical-path verdicts (kCriticalPath). Ids
  // are derived deterministically from (node, round, stage, ordinal) —
  // never from wall clock — so they are byte-identical for any worker
  // count. `member` names the disk-array arm a transfer ran on (-1 = not
  // arm-scoped); `span_seek` is the seek share of a transfer span's
  // duration; `stages` carries the full round attribution on kSpan round
  // roots and on kCriticalPath.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  int64_t span_stage = -1;  // SpanStage as int; -1 = not a span event
  SimDuration span_seek = 0;
  int64_t member = -1;
  bool anomalous = false;  // kCriticalPath: dominant stage broke the trend
  StageBreakdown stages;
  SlotSnapshot slots;
  std::string detail;  // human-readable context, e.g. a rejection reason
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Records the event stream for later replay (the round-trace log). A
// capacity of 0 keeps everything; otherwise the log holds the most recent
// `capacity` events, dropping the oldest (counted in dropped()) so a
// long-lived simulation cannot grow it without bound.
class TraceLog : public TraceSink {
 public:
  explicit TraceLog(size_t capacity = 0) : capacity_(capacity) {}

  void OnEvent(const TraceEvent& event) override;
  const std::vector<TraceEvent>& events() const { return events_; }
  size_t capacity() const { return capacity_; }
  // Events discarded so far to honour the capacity (the trace.events_dropped
  // counter exported by telemetry snapshots).
  int64_t dropped() const { return dropped_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  size_t capacity_;
  int64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

// Buffers events for later ordered replay into another sink. This is the
// determinism seam of the wall-clock execution engine (DESIGN.md section
// 12): while cluster nodes advance an epoch in parallel, each node holds
// what it forwards to a sink shared by all nodes in its own buffer, and
// after the epoch barrier the buffers are flushed in node order — so the
// shared sink sees a byte-identical stream for any worker count,
// including 1. A BufferedTraceSink itself is single-threaded: one owner
// writes it, and flushing happens after the join barrier.
class BufferedTraceSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Replays the buffer into `sink` in recording order and clears it.
  void FlushTo(TraceSink* sink) {
    if (sink != nullptr) {
      for (const TraceEvent& event : events_) {
        sink->OnEvent(event);
      }
    }
    events_.clear();
  }

 private:
  std::vector<TraceEvent> events_;
};

// Fans one event stream out to several sinks (log + auditor + metrics).
class TeeSink : public TraceSink {
 public:
  void Add(TraceSink* sink) { sinks_.push_back(sink); }
  void OnEvent(const TraceEvent& event) override {
    for (TraceSink* sink : sinks_) {
      sink->OnEvent(event);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

// Folds the event stream into registry counters/gauges/histograms; keeps no
// event history of its own.
class MetricsSink : public TraceSink {
 public:
  explicit MetricsSink(MetricsRegistry* registry) : registry_(registry) {}
  void OnEvent(const TraceEvent& event) override;

 private:
  MetricsRegistry* registry_;
  // Power cuts seen since the last kRecovery. Each is a distinct crash
  // point; the recovery that finally lands credits them all, so
  // back-to-back cuts before one recovery are not collapsed into one.
  int64_t power_cuts_pending_ = 0;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_TRACE_H_
