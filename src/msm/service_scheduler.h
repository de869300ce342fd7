// Round-robin request servicing with admission control (Section 3.4).
//
// The storage manager services all active requests in rounds: in each
// round it transfers k consecutive blocks per request, paying a worst-case
// reposition when switching between requests and the strand's scattering
// between blocks of one request. k comes from admission control; admitting
// a new request that needs a larger k raises k one step per round (the
// transient-safe transition of Eq. 18) before the newcomer starts, so
// in-flight streams never glitch.
//
// Playback requests feed PlaybackConsumers that check every block against
// its playback deadline; recording requests write captured blocks through
// a StrandWriter, honouring capture-device buffer limits. The scheduler
// runs under the discrete-event simulator: each round is one event, and
// all disk service times come from the disk model.
//
// RunRound owns the round's edges and hands the round to one of two
// executors. The per-request executor (kRoundRobin, kSeekScan) is the
// paper's loop: each request in turn gets up to k blocks. The planned
// executor (kPlanned) runs plan -> dispatch -> account: plan builds a
// coalesced, deduplicated, C-SCAN program with the round I/O planner
// (src/msm/round_planner.h) against a shared BlockCache; dispatch runs it
// in plan order on the store's spindle; account reports readiness in
// playback order. Both share one retry read, one skip record and one
// kRequestServiced emitter. Admission stays planned against the paper's
// worst-case alpha/beta; the planner only converts the difference between
// that bound and the realized mechanism into slack (plus, with cache-aware
// admission, into extra streams).
//
// Every admitted stream is serviced once per round, but a stream whose
// device buffers are full moves nothing (Section 3.3.2), and at flash-class
// speeds that is most stream-rounds. For such a stream the planned round
// keeps a per-slot round record (the instant it next has room, its window
// sectors), so each per-round walk reads the record instead of the request
// and an idle stream-round costs one record read plus its serviced event.

#ifndef VAFS_SRC_MSM_SERVICE_SCHEDULER_H_
#define VAFS_SRC_MSM_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/admission.h"
#include "src/layout/strand_index.h"
#include "src/media/devices.h"
#include "src/msm/block_cache.h"
#include "src/msm/round_planner.h"
#include "src/msm/strand_store.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/result.h"

namespace vafs {

class WorkerPool;

using RequestId = uint64_t;

// A fully resolved playback request: the block locations in playback
// order (silence entries advance time without disk traffic).
struct PlaybackRequest {
  std::vector<PrimaryEntry> blocks;
  SimDuration block_duration = 0;   // playback duration of one block
  RequestSpec spec;                 // admission-control view (q_i, s_i, R_i)
  double rate_multiplier = 1.0;     // >1 = fast-forward without skipping
  int64_t read_ahead_blocks = 0;    // 0: use k at admission time
  int64_t device_buffers = 0;       // 0: use 2k (pipelined double buffering)
};

// A recording request: capture produces blocks at the recording rate into
// `capture_buffers` device buffers; the scheduler writes them to a new
// strand as rounds come by.
struct RecordingRequest {
  MediaProfile profile;
  StrandPlacement placement;
  int64_t total_blocks = 0;
  int64_t capture_buffers = 4;
  RequestSpec Spec() const { return RequestSpec{profile, placement.granularity}; }
};

struct RequestStats {
  RequestId id = 0;
  bool is_recording = false;
  bool completed = false;
  bool paused = false;
  // Admitted on expected block-cache coverage instead of the Eq. 17 test;
  // such a stream is destructively paused if its coverage collapses.
  bool cache_admitted = false;
  SimTime submit_time = 0;
  SimTime start_time = -1;       // first round that serviced it
  SimTime completion_time = -1;
  int64_t blocks_done = 0;
  int64_t blocks_total = 0;
  // Fault handling (src/disk/fault_injector.h): every faulted disk op the
  // request suffered, the retries issued for them, and the blocks finally
  // given up on (played/recorded as silence instead of killing the stream).
  int64_t faults_seen = 0;
  int64_t blocks_retried = 0;
  int64_t blocks_skipped = 0;
  // Playback only:
  int64_t continuity_violations = 0;
  SimDuration total_tardiness = 0;
  int64_t max_buffered_blocks = 0;
  // Submit -> first block's playback start; kUnsetLatency until playback
  // actually starts (zero is a legitimate latency, not a sentinel).
  static constexpr SimDuration kUnsetLatency = -1;
  SimDuration startup_latency = kUnsetLatency;
  // Recording only:
  int64_t capture_overflows = 0;
  StrandId recorded_strand = kNullStrand;
};

// Order in which the requests of one round are serviced. The paper's
// baseline is round-robin in arrival order, charging every switch a
// worst-case reposition; Section 6.2 proposes servicing in the order that
// minimizes inter-request seeks. kSeekScan approximates that by sorting
// each round's *requests* by their next block's position; kPlanned
// supersedes it with per-transfer planning: coalescing, dedup and
// block-level C-SCAN.
enum class ServiceOrder {
  kRoundRobin,
  kSeekScan,
  kPlanned,
};

struct SchedulerOptions {
  // If false, k jumps straight to the new target on admission (the naive
  // policy the paper warns about); if true, k steps by 1 per round.
  bool stepped_transitions = true;
  ServiceOrder service_order = ServiceOrder::kRoundRobin;
  // Experiments only: when > 0, admit every request regardless of the
  // admission test, at this fixed round size.
  int64_t forced_k = 0;
  // Shared block cache probed by kPlanned rounds (see src/msm/block_cache.h).
  // Must outlive the scheduler; null or capacity 0 disables caching. Wire
  // the same cache into the StrandStore (set_block_cache) so writes
  // invalidate.
  BlockCache* block_cache = nullptr;
  // Wall-clock worker pool (DESIGN.md section 12). Only ClusterCoordinator
  // uses it: it runs one task per node per epoch on the pool it finds here
  // in its node template. The scheduler and the facade never touch it, so
  // rounds always run on the calling thread. Must outlive the scheduler.
  WorkerPool* worker_pool = nullptr;
  // Cache-aware admission (kPlanned + cache only): a playback request the
  // Eq. 17 test rejects is still admitted when at least 60% of its
  // upcoming window is expected from memory (resident, or scheduled by
  // another active stream of the same strand). If a round's realized
  // coverage drops below the threshold the stream is destructively paused
  // — the set degrades back to n_max.
  bool cache_aware_admission = false;
  // Optional observability: request lifecycle, admission decisions and
  // per-round service records are reported here (see src/obs/trace.h).
  // The sink must outlive the scheduler.
  obs::TraceSink* trace = nullptr;
  // Activate every pending admission whose k ramp is already satisfied in
  // one round instead of one per round. k itself still steps at most once
  // per round (Eq. 18); only same-k activations batch, so a 20k-stream
  // ramp-in is O(N) rounds -> O(1). Off by default: the paper's rotation
  // admits one newcomer per round and the seed benches count on it.
  bool batch_activation = false;
  // Causal span tracing (src/obs/span.h): every round emits a span tree —
  // round root, per-transfer, retry/append/cache sub-spans — with ids
  // derived from (node, round, stage, ordinal), plus a per-stage
  // service-time ledger on the root that partitions the round exactly.
  // All spans are emitted on the scheduler's thread in dispatch order, so
  // the stream is byte-identical for any worker_pool size.
  bool emit_spans = false;
  // Storage-node id stamped on this scheduler's trace events and woven
  // into its trace ids (-1 = not part of a cluster).
  int64_t node = -1;
};

class ServiceScheduler {
 public:
  // Typed request-lifecycle callbacks for the control layer above the
  // scheduler (the session layer). A listener is part of service, not of
  // telemetry: it is called right after the transition's trace event,
  // whether or not a trace sink is attached. Only the transitions a
  // listener acts on are reported; a non-destructive pause is not.
  class LifecycleListener {
   public:
    enum class Lifecycle {
      kCompleted,          // the request delivered its last block
      kStopped,            // Stop() halted it
      kPausedDestructive,  // a destructive pause released its slot
      kResumed,            // either Resume() path put it back in service
    };
    virtual ~LifecycleListener() = default;
    virtual void OnLifecycle(RequestId id, Lifecycle transition) = 0;
  };
  // The listener must outlive the scheduler (or be cleared first).
  void set_lifecycle_listener(LifecycleListener* listener) { lifecycle_listener_ = listener; }

  ServiceScheduler(StrandStore* store, Simulator* simulator, AdmissionControl admission,
                   SchedulerOptions options = SchedulerOptions());

  // Admission-checked submission. The request starts at the next round
  // boundary once any k transition completes.
  Result<RequestId> SubmitPlayback(PlaybackRequest request);
  Result<RequestId> SubmitRecording(RecordingRequest request);

  // Halts a request; its resources are released at the next round edge.
  Status Stop(RequestId id);

  // PAUSE: a destructive pause releases the request's admission slot
  // immediately — it leaves the service rotation, stops counting against
  // admission, and k may shrink to fit the remaining slot holders; a later
  // RESUME re-runs admission control and may be rejected if the slot was
  // given away. A non-destructive pause keeps the slot occupied,
  // guaranteeing the RESUME.
  Status Pause(RequestId id, bool destructive);
  Status Resume(RequestId id);

  // Drives the simulator until all submitted requests complete (or only
  // paused ones remain).
  void RunUntilIdle();

  Result<RequestStats> stats(RequestId id) const;
  int64_t current_k() const { return current_k_; }
  int64_t active_request_count() const;
  int64_t rounds_executed() const { return rounds_; }

  // Marks a request as a stream-merging patch: its transfers are charged
  // to the merge_patch stage of the round's span ledger instead of
  // transfer. The session layer tags patch tickets through this.
  void set_merge_patch(RequestId id, bool patch);

 private:
  struct ActiveRequest {
    RequestStats stats;
    bool destructively_paused = false;
    // Mirrors membership in pending_ (the admission ramp queue), so the
    // O(1) slot ledger never scans the deque.
    bool pending = false;
    // Stream-merging patch stream: transfers charge the merge_patch stage
    // of the span ledger (set_merge_patch).
    bool merge_patch = false;
    // Playback state.
    std::optional<PlaybackRequest> playback;
    std::unique_ptr<PlaybackConsumer> consumer;
    std::vector<SimTime> prelude_ready_times;  // before read-ahead is met
    int64_t next_block = 0;
    int64_t read_ahead = 1;
    int64_t buffer_cap = 0;
    // Cache extents pinned for this request's anti-jitter prelude; unpinned
    // when playback starts (or the request leaves the rotation).
    std::vector<std::pair<int64_t, int64_t>> pinned_extents;
    // Recording state.
    std::optional<RecordingRequest> recording;
    std::unique_ptr<CaptureProducer> producer;
    std::unique_ptr<StrandWriter> writer;
  };

  // A request waiting to join, with the k values to step through first.
  struct PendingAdmission {
    RequestId id;
    std::deque<int64_t> k_schedule;
  };

  // --- Flat request table (DESIGN.md section 15) ----------------------------
  // Requests live in a dense slot table with a generation-stamped free
  // list; id -> slot is one vector index. A completed request's slot is
  // retired at the next round edge (RetireCompletedRequests) and its final
  // stats move to finished_stats_, so stats() keeps answering forever while
  // the hot path only ever walks live slots.
  struct Slot {
    RequestId id = 0;  // 0 = free
    uint32_t generation = 0;
    ActiveRequest request;
  };

  // --- Round record (DESIGN.md section 15) ----------------------------------
  // One per slot, beside the slot table. BuildPlanInputs fills it for a
  // playback stream whose device buffer holds exactly its cap: until
  // `full_until` the stream has no room, and its next drain is `full_until`.
  // It also keeps the stream's block playback time and, with a cache, the
  // sectors of its lookahead window of `window` blocks. A valid record implies
  // an active, unpaused, uncompleted stream with a consumer and an unchanged
  // next_block: ReportPlaybackReady, Pause and CloseDevices drop it, and a
  // slot is retired only once its record is dropped, so a reused slot starts
  // without one. A k step that moves the 2k cap, or W, makes it miss. Every
  // per-round walk reads the record before the request, so an idle
  // stream-round costs one record read plus its one event.
  struct RoundRecord {
    static constexpr SimTime kDropped = -1;
    SimTime full_until = kDropped;
    int64_t cap = 0;         // the cap full_until was computed for
    int64_t buffer_cap = 0;  // the request's device_buffers (0 = 2k)
    SimDuration block_playback = 0;
    int64_t window = 0;  // W the sectors were filled at; 0 = not filled
    std::vector<int64_t> sectors;

    bool valid() const { return full_until != kDropped; }
  };
  RoundRecord& RecordOf(RequestId id) { return records_[static_cast<size_t>(SlotOf(id))]; }
  const RoundRecord& RecordOf(RequestId id) const {
    return records_[static_cast<size_t>(SlotOf(id))];
  }
  void DropRecord(RequestId id) { RecordOf(id).full_until = RoundRecord::kDropped; }
  // Neither completed nor paused; a valid record answers without the slot.
  bool InService(RequestId id) const;
  int32_t SlotOf(RequestId id) const { return id_to_slot_[static_cast<size_t>(id)]; }
  // Device buffers the stream may fill: its own count, else 2k.
  int64_t CapFor(int64_t buffer_cap) const { return buffer_cap > 0 ? buffer_cap : 2 * current_k_; }

  ActiveRequest* FindRequest(RequestId id);
  const ActiveRequest* FindRequest(RequestId id) const;
  // Must exist (asserts): the hot-path lookup for rotation members.
  ActiveRequest& RequestAt(RequestId id);
  const ActiveRequest& RequestAt(RequestId id) const;
  ActiveRequest& InsertRequest(RequestId id, ActiveRequest request);
  // Moves every completed request's stats to finished_stats_ and frees its
  // slot. Round-edge only: within a round completed entries must stay
  // findable.
  void RetireCompletedRequests();
  // The slot-ledger column the request occupies (one of SlotSnapshot's
  // counters, or none for completed); delta is +-1. A slot holder (active,
  // pending or non-destructively paused) also enters or leaves the Eq. 12-14
  // sums admission plans against.
  void CountSlots(const ActiveRequest& request, int64_t delta);
  // Wraps a state mutation so the O(1) ledger stays exact: the request is
  // removed from its column, mutated, and re-added to its (new) column.
  template <typename Fn>
  void WithSlotUpdate(ActiveRequest& request, Fn&& fn) {
    CountSlots(request, -1);
    fn();
    CountSlots(request, +1);
  }

  Result<RequestId> Submit(ActiveRequest request);
  // Admission for a request joining the rotation as `id` (Submit and a
  // destructive pause's Resume, whose window starts at `from_block`): the
  // Eq. 17/18 schedule, or else the cache-aware second chance, which
  // traces kCacheAdmit and sets `cache_admit`.
  Result<std::vector<int64_t>> PlanJoin(RequestId id, const ActiveRequest& request,
                                        int64_t from_block, bool* cache_admit);
  // The request's admission-control view (q_i, s_i, R_i).
  static RequestSpec AdmissionSpec(const ActiveRequest& request);
  // Slot ledger by lifecycle state, for trace events. O(1): the counters
  // are maintained at every state transition (WithSlotUpdate).
  obs::SlotSnapshot Snapshot() const { return slot_counts_; }
  // Builds a trace event of `kind` about `request`, pre-filled with
  // time/round/k/ledger context; the caller adds kind-specific fields and
  // passes it to Emit.
  obs::TraceEvent TraceContext(obs::TraceEventKind kind, RequestId request = 0) const;
  void Emit(const obs::TraceEvent& event) const;
  void NotifyLifecycle(RequestId id, LifecycleListener::Lifecycle transition);
  void ScheduleRound();
  // The round edges (activation, budget, round span and trace events,
  // retirement, the next wake-up) around one of the two executors.
  void RunRound();
  // At most one Eq. 18 k step per round, then (with batch_activation)
  // every pending admission whose ramp k already covers.
  void ActivatePending();
  // The running round's Eq. 11 envelope over the active rotation.
  void ComputeRoundBudget();
  // The per-request executor: each request in turn gets up to k blocks in
  // arrival order (next-sector order for kSeekScan), with buffer room and
  // capture progress re-checked at the current instant. Returns blocks
  // transferred.
  int64_t RunPerRequestRound(SimTime* now);
  // First disk position the request will touch next (for kSeekScan).
  int64_t NextSector(const ActiveRequest& request) const;
  // Services one request within the round; advances `now` by the disk time
  // spent. Returns blocks transferred.
  int64_t ServicePlayback(ActiveRequest* request, SimTime* now);
  // `max_blocks` bounds this call (current_k_ for the round-robin path; the
  // planned append count for planner rounds).
  int64_t ServiceRecording(ActiveRequest* request, SimTime* now, int64_t max_blocks);
  // The single audited retry-within-budget policy for every faulted
  // transfer (playback reads, planner transfers, recording appends).
  // Runs `attempt` once and retries transient faults while the round's
  // Eq. 11 budget allows; advances `now` by all disk time consumed
  // (faulted attempts included). `peek_retry` gives the exact cost of a
  // re-attempt when knowable (reads: the arm rests on the extent after the
  // fault); when null (appends allocate fresh extents per attempt) the
  // budget is checked at issue time and emitted events carry round_budget
  // 0, matching the capture-side contract. Returns false on give-up, with
  // the final status in `fail_status` when non-null.
  bool TransferWithRetry(ActiveRequest* request,
                         const std::function<Result<SimDuration>()>& attempt,
                         const std::function<SimDuration()>& peek_retry, int64_t sector,
                         int64_t sectors, SimTime* now, Status* fail_status);
  // The one retry read of both executors: TransferWithRetry over one extent.
  bool ReadWithRetry(ActiveRequest* request, int64_t sector, int64_t sectors, SimTime* now,
                     Status* fail_status);
  // The one skip record of both executors: counts a given-up block against
  // `request` and traces kBlockSkipped. Reads carry their extent and the
  // round budget; appends carry neither.
  void RecordSkip(ActiveRequest* request, SimTime now, int64_t sector, int64_t sectors,
                  SimDuration budget, std::string_view detail);
  // The one kRequestServiced emitter of both executors. It rewrites every
  // field the event carries into serviced_event_ and emits that one event.
  void EmitServiced(RequestId id, SimDuration block_playback, SimTime now, int64_t blocks,
                    SimDuration duration);
  // Playback (or capture) duration of one of the request's blocks.
  static SimDuration BlockPlayback(const ActiveRequest& request);
  // Reports the next playback block ready at `ready_time`: runs the
  // anti-jitter prelude until read-ahead is met, then feeds the consumer;
  // advances next_block / blocks_done.
  void ReportPlaybackReady(ActiveRequest* request, SimTime ready_time);
  // Unpins, folds and releases a leaving request's playback and capture
  // devices (FinishRequest and Stop).
  void CloseDevices(ActiveRequest* request);
  void FinishRequest(ActiveRequest* request, SimTime now);
  void UnpinPreludePages(ActiveRequest* request);
  // Creates the capture producer and strand writer on first service.
  void EnsureRecordingDevices(ActiveRequest* request, SimTime now);

  // --- Round planner (ServiceOrder::kPlanned) -------------------------------
  // Collects every active request's block needs for the round starting at
  // `round_start`. `count_cache_stats` uses counting cache lookups; the
  // rebuild after a revocation probes silently to keep the hit rate honest.
  // Fills plan_inputs_ (inner vectors keep their capacity between rounds)
  // and returns it.
  const std::vector<PlanInput>& BuildPlanInputs(SimTime round_start, bool count_cache_stats);
  // Cache-admitted requests whose realized coverage (plan-time hits plus
  // shared-transfer rides) fell below the admission threshold.
  std::vector<RequestId> CollapsedCacheAdmissions(const std::vector<PlanInput>& inputs,
                                                  const RoundPlan& plan);
  // Expected fraction of the candidate's upcoming window (starting at
  // block `from_block`) served from memory (resident extents or another
  // active stream's scheduled reads).
  double ExpectedCacheCoverage(const PlaybackRequest& playback, int64_t from_block);
  bool CacheAdmissionEnabled() const;
  // The shared block cache when present and enabled, else null.
  BlockCache* ActiveCache() const;
  // Blocks of lookahead for cache coverage and eviction bias: max(4k, 8).
  int64_t CacheLookaheadBlocks() const;
  // Calls fn(sector) for every data block in the lookahead window of each
  // listed playback request that is neither completed nor paused.
  template <typename Fn>
  void ForEachWindowSector(const std::vector<RequestId>& ids, Fn&& fn) const;
  // The same for one playback request over a window of `window` blocks.
  template <typename Fn>
  static void ForEachSectorInWindow(const ActiveRequest& request, int64_t window, Fn&& fn);
  // Fills the round record of a playback stream whose buffer holds exactly
  // `cap` blocks at plan time; `with_window` also caches its window sectors.
  void FillRecord(const ActiveRequest& request, int64_t cap, bool with_window);

  // Window demand counted only for the sectors a caller asks about: Ask()
  // each, Seal(), pass every window entry to Count(), then read Of(). A
  // bitmap over the asked sectors' hashes sends most other entries away
  // after one bit test; the rest binary-search the sorted asked set. Entries
  // are counted, not streams: a window that holds a sector twice counts 2.
  class SectorTally {
   public:
    void Clear() { sectors_.clear(); }
    void Ask(int64_t sector) { sectors_.push_back(sector); }
    void Seal();
    bool empty() const { return sectors_.empty(); }
    void Count(int64_t sector);
    // Window entries counted for an asked sector.
    int64_t Of(int64_t sector) const;

   private:
    uint64_t Bit(int64_t sector) const;
    std::vector<int64_t> sectors_;  // sorted and unique once sealed
    std::vector<int64_t> counts_;   // parallel to sectors_
    std::vector<uint64_t> filter_;
    int filter_shift_ = 64;
  };

  // The planned executor (kPlanned): plan -> dispatch -> account. Returns
  // the round's transferred total.
  int64_t RunPlannedRound(SimTime* now);
  // Plan: collects the inputs, builds the C-SCAN program into round_plan_
  // (revoking collapsed cache admissions first), emits kRoundPlanned and
  // the cache span, and resets the dispatch outputs below.
  const std::vector<PlanInput>& PlanRound(SimTime now);
  // Dispatch: runs round_plan_ in plan order on the store's spindle,
  // filling the outcome arrays, attributed_, append_done_ and the seek
  // ledger.
  void Dispatch(SimTime* now);
  // Account: reports readiness in playback order, emits kRequestServiced
  // per request and the round's kSeekAccounting. Returns blocks moved.
  int64_t AccountRound(const std::vector<PlanInput>& inputs, SimTime round_start, SimTime now);
  // Dispatch steps; extent `g` indexes the current GroupExtents grouping.
  // CountSeek books one operation and its arm travel in the seek ledger.
  void CountSeek(int64_t sector);
  // Splits `spent` evenly between the transfer's distinct requests.
  void Attribute(const PlannedTransfer& transfer, SimDuration spent);
  // Settles every rider of extent `g` at `completion`; a read fills the
  // cache (pinning prelude pages), a give-up skips the block for each.
  void RecordExtent(size_t g, SimTime completion, bool ok, std::string_view why = {});
  // Reads extent `g` for its first rider with the shared retry read.
  void ReadExtent(size_t g, SimTime* now);
  // After a faulted coalesced read: counts the fault against its owner,
  // re-reads its distinct extents one by one so one bad sector does not
  // burn its neighbours' retry budget, and charges the riders `spent` plus
  // the re-read time.
  void Decoalesce(const PlannedTransfer& transfer, SimDuration spent, SimTime* now);
  // Services a planned append as its own transfer span.
  void RunAppend(const PlannedTransfer& transfer, SimTime* now);

  // --- Causal span tracing (SchedulerOptions::emit_spans) -------------------
  // Per-round context: ids for the open round's span tree plus the stage
  // ledger that partitions the round's service time. Every `*now` advance
  // in the round is charged to exactly one stage, so the ledger sums to
  // the round duration by construction (the queue stage absorbs any
  // residual; in this simulator rounds only advance on disk ops, so the
  // residual is normally zero).
  struct SpanContext {
    bool open = false;
    uint64_t trace_id = 0;
    uint64_t root = 0;           // round root span id
    uint64_t ordinal = 0;        // next child ordinal under the root
    uint64_t active_parent = 0;  // enclosing transfer span for retry subspans
    uint64_t retry_ordinal = 0;  // next retry ordinal under active_parent
    SimDuration active_seek = 0; // seek time charged since OpenTransferSpan
    obs::SpanStage active_stage = obs::SpanStage::kTransfer;
    uint64_t active_request = 0;
    obs::StageBreakdown stages;
  };
  // Adds `usec` to one ledger stage (no-op when no round span is open).
  void ChargeStage(obs::SpanStage stage, SimDuration usec);
  // Charges one clean transfer: the seek fraction (the arm's last reposition
  // time, clamped to the service) to kSeek and the remainder to `stage`;
  // append charges whole (allocation and write are not separable).
  void ChargeTransfer(obs::SpanStage stage, SimDuration service);
  // Opens a per-transfer child span under the round root and makes it the
  // active parent for retry subspans. Returns the span id.
  uint64_t OpenTransferSpan(obs::SpanStage stage, uint64_t request);
  // Emits one span event (scheduler thread only). `end` is the span's end
  // instant; `seek` the seek fraction of its duration.
  void EmitSpan(obs::SpanStage stage, uint64_t span_id, uint64_t parent, SimTime end,
                SimDuration duration, uint64_t request, SimDuration seek, int64_t blocks,
                int64_t sector);
  // Stage a request's reads charge: merge_patch for tagged patch streams.
  obs::SpanStage TransferStageFor(const ActiveRequest& request) const;

  StrandStore* store_;
  Simulator* simulator_;
  AdmissionControl admission_;
  SchedulerOptions options_;
  RequestId next_id_ = 1;
  int64_t current_k_ = 1;
  int64_t rounds_ = 0;
  bool round_scheduled_ = false;
  // The running round's Eq. 11 envelope: start instant and the tightest
  // request's playback budget, min_i(k_i * d_i). Retries are only issued
  // while the round still fits inside it. 0 budget = no active requests.
  SimTime round_start_ = 0;
  SimDuration round_budget_ = 0;
  LifecycleListener* lifecycle_listener_ = nullptr;
  // Recording payload scratch when no shared cache provides a pool.
  PagePool scratch_pool_;
  SpanContext span_;

  // Flat request table (see the Slot comment above). std::deque keeps
  // ActiveRequest references stable across insertions, so a submission
  // arriving mid-round (session layer callbacks) cannot dangle the round's
  // in-flight references the way a reallocating vector would.
  std::deque<Slot> slots_;
  std::vector<RoundRecord> records_;  // by slot index, beside slots_
  std::vector<int32_t> free_slots_;
  std::vector<int32_t> id_to_slot_;  // by RequestId; -1 = unknown or retired
  std::vector<RequestId> live_ids_;  // ascending (ids are issued monotonically)
  std::unordered_map<RequestId, RequestStats> finished_stats_;
  obs::SlotSnapshot slot_counts_;
  // Eq. 12-14 sums over the slot holders, kept beside slot_counts_ (whose
  // Held() equals its n) so admission never walks the request table.
  RequestSums slot_sums_;

  std::vector<RequestId> service_order_;  // round-robin order over active requests
  std::deque<PendingAdmission> pending_;

  // The round plan and the per-round scratch arenas. All of these are
  // cleared (capacity kept) every round, so they stop allocating once warm;
  // the planner's build phase still allocates (round_planner.h).
  RoundPlan round_plan_;
  std::vector<PlanInput> plan_inputs_;
  // Per-candidate outcomes, indexed by PlannedBlock::slot (the planner's
  // round-global candidate numbering) — replaces a map keyed by
  // (request, ordinal).
  std::vector<SimTime> outcome_time_;
  std::vector<uint8_t> outcome_ok_;
  std::vector<uint8_t> outcome_known_;
  // Lookup-only per-round maps (never iterated, so unordered is safe for
  // determinism): per-request disk time and appended blocks. Only requests
  // that moved data get an entry; AccountRound reads them with find.
  std::unordered_map<uint64_t, SimDuration> attributed_;
  std::unordered_map<uint64_t, int64_t> append_done_;
  // The kRequestServiced event, built once and rewritten per stream-round.
  obs::TraceEvent serviced_event_;
  // Window entries of the rotation on the sectors this round's plan reads:
  // the only sectors RecordExtent asks about for its eviction bias.
  SectorTally bias_tally_;
  // Live window entries on an admission candidate's own window sectors
  // (ExpectedCacheCoverage). Separate from bias_tally_: a submission can
  // arrive mid-round, between the plan and the last RecordExtent.
  SectorTally coverage_tally_;
  // Seek ledger of the round's dispatch (kSeekAccounting).
  int64_t dispatch_ops_ = 0;
  int64_t dispatch_seek_cylinders_ = 0;
  // Distinct-extent grouping scratch for one transfer (GroupExtents).
  std::vector<std::pair<int64_t, int64_t>> group_keys_;
  std::vector<std::vector<const PlannedBlock*>> group_riders_;
  size_t group_count_ = 0;
  std::vector<uint64_t> attribute_scratch_;

  // Fills group_keys_/group_riders_[0..group_count_) with the transfer's
  // distinct extents in first-encounter order. One grouping is live at a
  // time; callers must finish with a group before regrouping.
  void GroupExtents(const RoundPlan& plan, const PlannedTransfer& transfer);
};

}  // namespace vafs

#endif  // VAFS_SRC_MSM_SERVICE_SCHEDULER_H_
