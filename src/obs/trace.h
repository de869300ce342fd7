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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
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
  // A retired disk-array dispatch wave. No producer remains; the enumerator
  // stays because ChildSpanId hashes stage numbers, so removing it would
  // renumber the stages after it and move every span id.
  kWave,
  kPlan,            // round-plan construction
  kRoute,           // cluster coordinator routing/failover decision
  kSession,         // session-layer attach/patch bookkeeping
};

const char* SpanStageName(SpanStage stage);
inline constexpr size_t kSpanStageCount = static_cast<size_t>(SpanStage::kSession) + 1;

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

// Bounded ring that overwrites its oldest entries in place, so keeping an
// entry costs one copy into a reused slot. A capacity of 0 keeps
// everything. Storage grows on demand up to `capacity`; once the ring is
// full, the next Push first drops the oldest `drop_step` entries (1 <=
// drop_step <= capacity) in one step, counted in dropped().
template <typename T>
class EventRing {
 public:
  EventRing(size_t capacity, size_t drop_step) : capacity_(capacity), drop_step_(drop_step) {}

  // Makes room for one more entry and returns its slot. A reused slot still
  // holds a dropped entry: the caller overwrites every field.
  T& Push() {
    if (capacity_ > 0 && size_ == capacity_) {
      head_ = Wrap(head_ + drop_step_);
      size_ -= drop_step_;
      dropped_ += static_cast<int64_t>(drop_step_);
    }
    ++size_;
    if (slots_.size() < capacity_ || capacity_ == 0) {
      return slots_.emplace_back();  // still growing: head_ == 0, no gaps
    }
    return slots_[Wrap(head_ + size_ - 1)];
  }

  size_t capacity() const { return capacity_; }
  int64_t dropped() const { return dropped_; }

  // Visits the retained entries oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < size_; ++i) {
      fn(slots_[capacity_ > 0 ? Wrap(head_ + i) : i]);
    }
  }

  // Rotates the retained entries to the front of the storage, oldest first,
  // and returns them. Free unless entries were dropped since the last call.
  const std::vector<T>& Linearize() {
    if (head_ != 0 || size_ != slots_.size()) {
      std::rotate(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(head_), slots_.end());
      slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(size_), slots_.end());
      head_ = 0;
    }
    return slots_;
  }

  void Clear() {
    slots_.clear();
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

 private:
  // Folds an index below 2 * capacity_ back into the ring.
  size_t Wrap(size_t index) const { return index < capacity_ ? index : index - capacity_; }

  size_t capacity_;
  size_t drop_step_;
  std::vector<T> slots_;
  size_t head_ = 0;  // slot of the oldest retained entry
  size_t size_ = 0;  // retained entries
  int64_t dropped_ = 0;
};

// Records the event stream for later replay (the round-trace log). A
// capacity of 0 keeps everything; otherwise the log holds the most recent
// `capacity` events. A full log drops its oldest quarter in one step
// (counted in dropped()) so a long-lived simulation cannot grow it without
// bound; the digests pinned over retained events depend on that step.
class TraceLog : public TraceSink {
 public:
  explicit TraceLog(size_t capacity = 0) : ring_(capacity, std::max<size_t>(1, capacity / 4)) {}

  void OnEvent(const TraceEvent& event) override { ring_.Push() = event; }
  // The retained events, oldest first. Reading reorders the ring in place,
  // so it must not race another read or a write (cluster nodes' logs are
  // read after the epoch barrier).
  const std::vector<TraceEvent>& events() const { return ring_.Linearize(); }
  size_t capacity() const { return ring_.capacity(); }
  // Events discarded so far to honour the capacity (the trace.events_dropped
  // counter exported by telemetry snapshots).
  int64_t dropped() const { return ring_.dropped(); }
  void Clear() { ring_.Clear(); }

 private:
  mutable EventRing<TraceEvent> ring_;
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
  // One fixed-name instrument, resolved to its registry handle by the first
  // event that touches it: the registry still holds only the instruments
  // some event has reached, and later events skip the by-name lookup.
  template <typename Instrument>
  class Lazy {
   public:
    Lazy(MetricsRegistry* registry, const char* name) : registry_(registry), name_(name) {}
    Instrument* operator->() {
      if (instrument_ == nullptr) {
        if constexpr (std::is_same_v<Instrument, Counter>) {
          instrument_ = &registry_->counter(name_);
        } else if constexpr (std::is_same_v<Instrument, Gauge>) {
          instrument_ = &registry_->gauge(name_);
        } else {
          instrument_ = &registry_->histogram(name_);
        }
      }
      return instrument_;
    }

   private:
    MetricsRegistry* registry_;
    const char* name_;
    Instrument* instrument_ = nullptr;
  };
  using LazyCounter = Lazy<Counter>;
  using LazyGauge = Lazy<Gauge>;
  using LazyHistogram = Lazy<Histogram>;

  MetricsRegistry* registry_;
  // Power cuts seen since the last kRecovery. Each is a distinct crash
  // point; the recovery that finally lands credits them all, so
  // back-to-back cuts before one recovery are not collapsed into one.
  int64_t power_cuts_pending_ = 0;

  // Request lifecycle and admission.
  LazyCounter submits_accepted_{registry_, "scheduler.submits_accepted"};
  LazyCounter submits_rejected_{registry_, "scheduler.submits_rejected"};
  LazyCounter activations_{registry_, "scheduler.activations"};
  LazyCounter pauses_destructive_{registry_, "scheduler.pauses_destructive"};
  LazyCounter pauses_nondestructive_{registry_, "scheduler.pauses_nondestructive"};
  LazyCounter resumes_{registry_, "scheduler.resumes"};
  LazyCounter resumes_rejected_{registry_, "scheduler.resumes_rejected"};
  LazyCounter stops_{registry_, "scheduler.stops"};
  LazyCounter completions_{registry_, "scheduler.completions"};
  LazyCounter plans_accepted_{registry_, "admission.plans_accepted"};
  LazyHistogram transition_steps_{registry_, "admission.transition_steps"};
  LazyCounter rejections_{registry_, "admission.rejections"};
  LazyCounter cache_admits_{registry_, "admission.cache_admits"};
  LazyCounter cache_admit_revocations_{registry_, "admission.cache_admit_revocations"};
  // Rounds and fault handling.
  LazyCounter blocks_serviced_{registry_, "scheduler.blocks_serviced"};
  LazyHistogram request_service_usec_{registry_, "scheduler.request_service_usec"};
  LazyCounter rounds_{registry_, "scheduler.rounds"};
  LazyHistogram round_duration_usec_{registry_, "scheduler.round_duration_usec"};
  LazyHistogram round_blocks_{registry_, "scheduler.round_blocks"};
  LazyGauge current_k_{registry_, "scheduler.current_k"};
  LazyGauge slots_active_{registry_, "scheduler.slots_active"};
  LazyGauge slots_pending_{registry_, "scheduler.slots_pending"};
  LazyGauge slots_paused_nondestructive_{registry_, "scheduler.slots_paused_nondestructive"};
  LazyGauge slots_paused_destructive_{registry_, "scheduler.slots_paused_destructive"};
  LazyGauge slots_cache_tenants_{registry_, "scheduler.slots_cache_tenants"};
  LazyGauge slots_held_{registry_, "scheduler.slots_held"};
  LazyCounter block_retries_{registry_, "scheduler.block_retries"};
  LazyHistogram retry_service_usec_{registry_, "scheduler.retry_service_usec"};
  LazyCounter blocks_skipped_{registry_, "scheduler.blocks_skipped"};
  LazyCounter blocks_relocated_{registry_, "store.blocks_relocated"};
  // Device and strand placement.
  LazyCounter disk_reads_{registry_, "disk.reads"};
  LazyCounter sectors_read_{registry_, "disk.sectors_read"};
  LazyHistogram read_service_usec_{registry_, "disk.read_service_usec"};
  LazyCounter disk_writes_{registry_, "disk.writes"};
  LazyCounter sectors_written_{registry_, "disk.sectors_written"};
  LazyHistogram write_service_usec_{registry_, "disk.write_service_usec"};
  LazyHistogram seek_cylinders_{registry_, "disk.seek_cylinders"};
  LazyCounter disk_faults_{registry_, "disk.faults"};
  LazyHistogram fault_service_usec_{registry_, "disk.fault_service_usec"};
  LazyCounter salvage_reads_{registry_, "disk.salvage_reads"};
  LazyHistogram salvage_service_usec_{registry_, "disk.salvage_service_usec"};
  LazyCounter power_cuts_{registry_, "disk.power_cuts"};
  LazyCounter strand_blocks_written_{registry_, "store.strand_blocks_written"};
  LazyHistogram strand_gap_ms_{registry_, "store.strand_gap_ms"};
  // Crash consistency.
  LazyCounter root_flips_{registry_, "persistence.root_flips"};
  LazyGauge generation_{registry_, "persistence.generation"};
  LazyCounter journal_appends_{registry_, "persistence.journal_appends"};
  LazyCounter journal_replays_{registry_, "persistence.journal_replays"};
  LazyCounter fsck_findings_{registry_, "fsck.findings"};
  LazyCounter recoveries_{registry_, "recovery.completions"};
  LazyCounter crash_points_survived_{registry_, "recovery.crash_points_survived"};
  // Round planner and block cache.
  LazyCounter plan_rounds_{registry_, "plan.rounds"};
  LazyCounter read_transfers_{registry_, "plan.read_transfers"};
  LazyCounter data_blocks_{registry_, "plan.data_blocks"};
  LazyCounter coalesced_blocks_{registry_, "plan.coalesced_blocks"};
  LazyCounter deduped_blocks_{registry_, "plan.deduped_blocks"};
  LazyHistogram transfers_per_round_{registry_, "plan.transfers_per_round"};
  LazyCounter cache_lookups_{registry_, "cache.lookups"};
  LazyCounter cache_hits_{registry_, "cache.hits"};
  LazyGauge cache_resident_bytes_{registry_, "cache.resident_bytes"};
  LazyGauge cache_pinned_entries_{registry_, "cache.pinned_entries"};
  LazyGauge cache_evictions_{registry_, "cache.evictions"};
  LazyGauge cache_hit_rate_recent_{registry_, "cache.hit_rate_recent"};
  LazyGauge pool_outstanding_{registry_, "page_pool.outstanding"};
  LazyGauge pool_recycled_{registry_, "page_pool.recycled"};
  LazyHistogram seek_cylinders_measured_{registry_, "plan.seek_cylinders_measured"};
  LazyHistogram seek_cylinders_worst_{registry_, "plan.seek_cylinders_worst"};
  LazyCounter seek_cylinders_saved_{registry_, "plan.seek_cylinders_saved"};
  LazyCounter cache_invalidations_{registry_, "cache.invalidations"};
  LazyCounter cache_invalidated_entries_{registry_, "cache.invalidated_entries"};
  // Sessions and cluster.
  LazyCounter sessions_batched_{registry_, "sessions.batched"};
  LazyCounter sessions_patched_{registry_, "sessions.patched"};
  LazyHistogram patch_gap_blocks_{registry_, "sessions.patch_gap_blocks"};
  LazyCounter sessions_merged_{registry_, "sessions.merged"};
  LazyHistogram merge_runway_blocks_{registry_, "sessions.merge_runway_blocks"};
  LazyCounter nodes_down_{registry_, "cluster.nodes_down"};
  LazyCounter nodes_up_{registry_, "cluster.nodes_up"};
  LazyCounter failovers_{registry_, "cluster.failovers"};
  LazyHistogram failover_interruption_usec_{registry_, "cluster.failover_interruption_usec"};
  LazyCounter re_replications_{registry_, "cluster.re_replications"};
  LazyCounter repair_blocks_{registry_, "cluster.repair_blocks"};
  LazyCounter viewers_shed_{registry_, "cluster.viewers_shed"};
  // Spans and critical-path verdicts.
  LazyCounter spans_emitted_{registry_, "spans.emitted"};
  LazyCounter critical_path_rounds_{registry_, "critical_path.rounds"};
  LazyCounter critical_path_anomalies_{registry_, "critical_path.anomalies"};
  // critical_path.dominant.<stage>, by stage; stages out of range share the
  // last slot (SpanStageName renders them all as "?").
  std::array<Counter*, kSpanStageCount + 1> dominant_{};
  LazyHistogram queue_usec_{registry_, "critical_path.queue_usec"};
  LazyHistogram seek_usec_{registry_, "critical_path.seek_usec"};
  LazyHistogram transfer_usec_{registry_, "critical_path.transfer_usec"};
  LazyHistogram retry_usec_{registry_, "critical_path.retry_usec"};
  LazyHistogram merge_patch_usec_{registry_, "critical_path.merge_patch_usec"};
  LazyHistogram append_usec_{registry_, "critical_path.append_usec"};
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_TRACE_H_
