#include "src/msm/service_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/obs/span.h"

namespace vafs {

namespace {

// Most re-reads of one faulted block before the scheduler gives up and
// plays it as silence. Each retry must additionally fit the round's Eq. 11
// budget — a retry never eats another stream's continuity slack.
constexpr int64_t kMaxBlockRetries = 2;
// Cache-aware admission threshold: the least expected (at admission) or
// realized (per round) fraction of a stream's data blocks served from
// memory that keeps it admitted past the Eq. 17 ceiling.
constexpr double kCacheAdmissionMinHitRate = 0.6;

}  // namespace

ServiceScheduler::ServiceScheduler(StrandStore* store, Simulator* simulator,
                                   AdmissionControl admission, SchedulerOptions options)
    : store_(store), simulator_(simulator), admission_(std::move(admission)), options_(options) {
  admission_.set_trace_sink(options_.trace);
  serviced_event_.kind = obs::TraceEventKind::kRequestServiced;
}

ServiceScheduler::ActiveRequest* ServiceScheduler::FindRequest(RequestId id) {
  if (id >= id_to_slot_.size()) {
    return nullptr;
  }
  const int32_t slot = id_to_slot_[static_cast<size_t>(id)];
  if (slot < 0) {
    return nullptr;
  }
  assert(slots_[static_cast<size_t>(slot)].id == id);
  return &slots_[static_cast<size_t>(slot)].request;
}

const ServiceScheduler::ActiveRequest* ServiceScheduler::FindRequest(RequestId id) const {
  return const_cast<ServiceScheduler*>(this)->FindRequest(id);
}

ServiceScheduler::ActiveRequest& ServiceScheduler::RequestAt(RequestId id) {
  ActiveRequest* request = FindRequest(id);
  assert(request != nullptr);
  return *request;
}

const ServiceScheduler::ActiveRequest& ServiceScheduler::RequestAt(RequestId id) const {
  return const_cast<ServiceScheduler*>(this)->RequestAt(id);
}

bool ServiceScheduler::InService(RequestId id) const {
  if (RecordOf(id).valid()) {
    return true;
  }
  const RequestStats& stats = RequestAt(id).stats;
  return !stats.completed && !stats.paused;
}

ServiceScheduler::ActiveRequest& ServiceScheduler::InsertRequest(RequestId id,
                                                                 ActiveRequest request) {
  int32_t slot_index;
  if (!free_slots_.empty()) {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_index = static_cast<int32_t>(slots_.size());
    slots_.emplace_back();
    records_.emplace_back();
  }
  // RetireCompletedRequests frees only slots whose record is dropped.
  assert(!records_[static_cast<size_t>(slot_index)].valid());
  Slot& slot = slots_[static_cast<size_t>(slot_index)];
  slot.id = id;
  ++slot.generation;
  slot.request = std::move(request);
  if (id >= id_to_slot_.size()) {
    id_to_slot_.resize(static_cast<size_t>(id) + 1, -1);
  }
  id_to_slot_[static_cast<size_t>(id)] = slot_index;
  live_ids_.push_back(id);  // ids are issued monotonically: stays ascending
  CountSlots(slot.request, +1);
  return slot.request;
}

void ServiceScheduler::RetireCompletedRequests() {
  std::erase_if(live_ids_, [this](RequestId id) {
    const int32_t slot_index = SlotOf(id);
    if (records_[static_cast<size_t>(slot_index)].valid()) {
      return false;
    }
    Slot& slot = slots_[static_cast<size_t>(slot_index)];
    if (!slot.request.stats.completed) {
      return false;
    }
    // The consumer/producer were already folded and reset when the request
    // completed, so the stats snapshot is final.
    finished_stats_.emplace(id, slot.request.stats);
    slot.id = 0;
    slot.request = ActiveRequest{};
    id_to_slot_[static_cast<size_t>(id)] = -1;
    free_slots_.push_back(slot_index);
    return true;
  });
}

void ServiceScheduler::CountSlots(const ActiveRequest& request, int64_t delta) {
  // Mirrors the legacy per-event sweep's classification order exactly.
  if (request.stats.completed) {
    return;
  }
  if (request.stats.paused && request.destructively_paused) {
    slot_counts_.paused_destructive += delta;  // the slot was released at pause time
    return;
  }
  if (request.stats.cache_admitted) {
    // Pending, active or non-destructively paused cache tenants all sit
    // in their own column: none of those states holds an Eq. 17 slot, so
    // none is charged to later admissions (or to k shrinks on revocation).
    slot_counts_.cache_tenants += delta;
    return;
  }
  if (request.stats.paused) {
    slot_counts_.paused_nondestructive += delta;
  } else if (request.pending) {
    slot_counts_.pending += delta;
  } else {
    slot_counts_.active += delta;
  }
  if (delta > 0) {
    slot_sums_.Add(AdmissionSpec(request));
  } else {
    slot_sums_.Remove(AdmissionSpec(request));
  }
}

RequestSpec ServiceScheduler::AdmissionSpec(const ActiveRequest& request) {
  return request.playback.has_value() ? request.playback->spec : request.recording->Spec();
}

obs::TraceEvent ServiceScheduler::TraceContext(obs::TraceEventKind kind, RequestId request) const {
  obs::TraceEvent event;
  event.kind = kind;
  event.request = request;
  event.time = simulator_->Now();
  event.round = rounds_;
  event.k = current_k_;
  event.node = options_.node;
  event.slots = Snapshot();
  return event;
}

void ServiceScheduler::Emit(const obs::TraceEvent& event) const {
  if (options_.trace != nullptr) {
    options_.trace->OnEvent(event);
  }
}

void ServiceScheduler::NotifyLifecycle(RequestId id, LifecycleListener::Lifecycle transition) {
  if (lifecycle_listener_ != nullptr) {
    lifecycle_listener_->OnLifecycle(id, transition);
  }
}

void ServiceScheduler::ChargeStage(obs::SpanStage stage, SimDuration usec) {
  if (!span_.open || usec <= 0) {
    return;
  }
  switch (stage) {
    case obs::SpanStage::kSeek:
      span_.stages.seek += usec;
      break;
    case obs::SpanStage::kTransfer:
      span_.stages.transfer += usec;
      break;
    case obs::SpanStage::kRetry:
      span_.stages.retry += usec;
      break;
    case obs::SpanStage::kCache:
      span_.stages.cache += usec;
      break;
    case obs::SpanStage::kMergePatch:
      span_.stages.merge_patch += usec;
      break;
    case obs::SpanStage::kAppend:
      span_.stages.append += usec;
      break;
    default:
      span_.stages.queue += usec;
      break;
  }
}

void ServiceScheduler::ChargeTransfer(obs::SpanStage stage, SimDuration service) {
  if (!span_.open || service <= 0) {
    return;
  }
  if (stage == obs::SpanStage::kAppend) {
    // Appends interleave allocation and write; the arm's reposition is not
    // separable from the transfer, so the whole service is append time.
    ChargeStage(stage, service);
    return;
  }
  // The mechanical split: the arm's last reposition (clamped to the
  // service, which also covers rotation and transfer) is seek time; the
  // rest is the stage's own data movement.
  const Disk& disk = store_->disk();
  const SimDuration seek =
      std::min(service, disk.model().SeekTimeForDistance(disk.last_seek_cylinders()));
  span_.active_seek += seek;
  ChargeStage(obs::SpanStage::kSeek, seek);
  ChargeStage(stage, service - seek);
}

uint64_t ServiceScheduler::OpenTransferSpan(obs::SpanStage stage, uint64_t request) {
  if (!span_.open) {
    return 0;
  }
  span_.active_stage = stage;
  span_.active_request = request;
  span_.active_parent = obs::ChildSpanId(span_.root, stage, span_.ordinal++);
  span_.retry_ordinal = 0;
  span_.active_seek = 0;
  return span_.active_parent;
}

void ServiceScheduler::EmitSpan(obs::SpanStage stage, uint64_t span_id, uint64_t parent,
                                SimTime end, SimDuration duration, uint64_t request,
                                SimDuration seek, int64_t blocks, int64_t sector) {
  if (!span_.open || span_id == 0 || options_.trace == nullptr) {
    return;
  }
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kSpan, request);
  obs::StampSpan(&event, span_.trace_id, span_id, parent, stage);
  event.time = end;
  event.duration = duration;
  event.span_seek = seek;
  event.blocks = blocks;
  event.sector = sector;
  Emit(event);
}

obs::SpanStage ServiceScheduler::TransferStageFor(const ActiveRequest& request) const {
  return request.merge_patch ? obs::SpanStage::kMergePatch : obs::SpanStage::kTransfer;
}

void ServiceScheduler::set_merge_patch(RequestId id, bool patch) {
  ActiveRequest* request = FindRequest(id);
  if (request != nullptr) {
    request->merge_patch = patch;
  }
}

bool ServiceScheduler::CacheAdmissionEnabled() const {
  return options_.cache_aware_admission && options_.service_order == ServiceOrder::kPlanned &&
         options_.block_cache != nullptr && options_.block_cache->enabled();
}

int64_t ServiceScheduler::CacheLookaheadBlocks() const {
  return std::max<int64_t>(4 * current_k_, 8);
}

BlockCache* ServiceScheduler::ActiveCache() const {
  return options_.block_cache != nullptr && options_.block_cache->enabled() ? options_.block_cache
                                                                            : nullptr;
}

template <typename Fn>
void ServiceScheduler::ForEachWindowSector(const std::vector<RequestId>& ids, Fn&& fn) const {
  const int64_t window = CacheLookaheadBlocks();
  for (RequestId id : ids) {
    const RoundRecord& record = RecordOf(id);
    if (record.valid() && record.window == window) {
      for (int64_t sector : record.sectors) {
        fn(sector);
      }
      continue;
    }
    const ActiveRequest& request = RequestAt(id);
    if (request.stats.completed || request.stats.paused || !request.playback.has_value()) {
      continue;
    }
    ForEachSectorInWindow(request, window, fn);
  }
}

template <typename Fn>
void ServiceScheduler::ForEachSectorInWindow(const ActiveRequest& request, int64_t window,
                                             Fn&& fn) {
  const auto& blocks = request.playback->blocks;
  const int64_t limit =
      std::min<int64_t>(request.next_block + window, static_cast<int64_t>(blocks.size()));
  for (int64_t b = request.next_block; b < limit; ++b) {
    const PrimaryEntry& entry = blocks[static_cast<size_t>(b)];
    if (!entry.IsSilence()) {
      fn(entry.sector);
    }
  }
}

void ServiceScheduler::FillRecord(const ActiveRequest& request, int64_t cap, bool with_window) {
  RoundRecord& record = RecordOf(request.stats.id);
  record.full_until = request.consumer->FullUntil(cap);
  record.cap = cap;
  record.buffer_cap = request.buffer_cap;
  record.block_playback = BlockPlayback(request);
  record.window = with_window ? CacheLookaheadBlocks() : 0;
  record.sectors.clear();
  if (with_window) {
    ForEachSectorInWindow(request, record.window,
                          [&record](int64_t sector) { record.sectors.push_back(sector); });
  }
}

void ServiceScheduler::SectorTally::Seal() {
  std::sort(sectors_.begin(), sectors_.end());
  sectors_.erase(std::unique(sectors_.begin(), sectors_.end()), sectors_.end());
  counts_.assign(sectors_.size(), 0);
  // At least 8 filter bits per asked sector: about 1 in 8 entries that were
  // not asked about pass the filter and pay for the binary search.
  int bits_log2 = 9;
  while ((size_t{1} << bits_log2) < 8 * sectors_.size()) {
    ++bits_log2;
  }
  filter_shift_ = 64 - bits_log2;
  filter_.assign((size_t{1} << bits_log2) / 64, 0);
  for (int64_t sector : sectors_) {
    const uint64_t bit = Bit(sector);
    filter_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
}

uint64_t ServiceScheduler::SectorTally::Bit(int64_t sector) const {
  // Fibonacci hashing: block sectors share low bits, the top bits mix them.
  return (static_cast<uint64_t>(sector) * 0x9e3779b97f4a7c15ULL) >> filter_shift_;
}

void ServiceScheduler::SectorTally::Count(int64_t sector) {
  const uint64_t bit = Bit(sector);
  if ((filter_[bit / 64] >> (bit % 64) & 1) == 0) {
    return;
  }
  const auto it = std::lower_bound(sectors_.begin(), sectors_.end(), sector);
  if (it != sectors_.end() && *it == sector) {
    ++counts_[static_cast<size_t>(it - sectors_.begin())];
  }
}

int64_t ServiceScheduler::SectorTally::Of(int64_t sector) const {
  const auto it = std::lower_bound(sectors_.begin(), sectors_.end(), sector);
  assert(it != sectors_.end() && *it == sector);  // only asked sectors are counted
  return counts_[static_cast<size_t>(it - sectors_.begin())];
}

double ServiceScheduler::ExpectedCacheCoverage(const PlaybackRequest& playback,
                                               int64_t from_block) {
  const BlockCache* cache = options_.block_cache;
  const int64_t limit = std::min<int64_t>(from_block + CacheLookaheadBlocks(),
                                          static_cast<int64_t>(playback.blocks.size()));
  // Of the candidate's own window sectors, those some live stream (rotating
  // or still pending admission) is scheduled to read within its window: the
  // candidate can ride those transfers (or their freshly cached results)
  // even where the cache is still cold.
  coverage_tally_.Clear();
  for (int64_t b = from_block; b < limit; ++b) {
    const PrimaryEntry& entry = playback.blocks[static_cast<size_t>(b)];
    if (!entry.IsSilence()) {
      coverage_tally_.Ask(entry.sector);
    }
  }
  coverage_tally_.Seal();
  if (!coverage_tally_.empty()) {
    ForEachWindowSector(live_ids_, [this](int64_t sector) { coverage_tally_.Count(sector); });
  }
  int64_t data = 0;
  int64_t covered = 0;
  for (int64_t b = from_block; b < limit; ++b) {
    const PrimaryEntry& entry = playback.blocks[static_cast<size_t>(b)];
    if (entry.IsSilence()) {
      continue;
    }
    ++data;
    if (cache->Contains(entry.sector, entry.sector_count) || coverage_tally_.Of(entry.sector) > 0) {
      ++covered;
    }
  }
  return data > 0 ? static_cast<double>(covered) / static_cast<double>(data) : 0.0;
}

Result<std::vector<int64_t>> ServiceScheduler::PlanJoin(RequestId id, const ActiveRequest& request,
                                                        int64_t from_block, bool* cache_admit) {
  // Existing = every request still holding a slot (active, pending, or
  // non-destructively paused): the ledger's running sums. Destructively
  // paused requests released theirs and cache tenants never held one, so
  // neither is charged.
  assert(slot_sums_.n() == slot_counts_.Held());
  Result<std::vector<int64_t>> schedule =
      admission_.PlanAdmission(slot_sums_, AdmissionSpec(request), current_k_);
  *cache_admit = false;
  if (schedule.ok() || !request.playback.has_value() || !CacheAdmissionEnabled()) {
    return schedule;
  }
  // Cache-aware second chance: the Eq. 17 test prices every block at a
  // full disk transfer, but a viewer trailing an admitted stream of the
  // same strand is served mostly from memory. Admit at the current k when
  // the expected coverage clears the threshold; a later coverage collapse
  // destructively pauses the stream (back to n_max).
  const double coverage = ExpectedCacheCoverage(*request.playback, from_block);
  if (coverage + 1e-9 < kCacheAdmissionMinHitRate) {
    return schedule;
  }
  // Join at the rotation's round size (k transitions already planned
  // count: before the first round current_k_ is still 0).
  int64_t rotation_k = current_k_;
  for (const PendingAdmission& pending : pending_) {
    rotation_k = std::max(rotation_k, pending.k_schedule.back());
  }
  // Traced before the request's slot state changes, so the attached slot
  // snapshot agrees with the replayed lifecycle.
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kCacheAdmit, id);
  event.cache_hit_rate = coverage;
  event.detail = "expected coverage " + std::to_string(coverage);
  Emit(event);
  *cache_admit = true;
  return std::vector<int64_t>{rotation_k};
}

Result<RequestId> ServiceScheduler::Submit(ActiveRequest request) {
  // Overload experiments (forced_k) take everyone at a fixed round size.
  bool cache_admit = false;
  Result<std::vector<int64_t>> schedule = std::vector<int64_t>{options_.forced_k};
  if (options_.forced_k <= 0) {
    schedule = PlanJoin(next_id_, request, /*from_block=*/0, &cache_admit);
  }
  if (!schedule.ok()) {
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kSubmitRejected);
    event.detail = schedule.status().message();
    Emit(event);
    return schedule.status();
  }
  const RequestId id = next_id_++;
  request.stats.id = id;
  request.stats.submit_time = simulator_->Now();
  request.stats.cache_admitted = cache_admit;
  if (request.playback.has_value()) {
    request.stats.blocks_total = static_cast<int64_t>(request.playback->blocks.size());
    const int64_t k_target = schedule->back();
    request.read_ahead = request.playback->read_ahead_blocks > 0
                             ? request.playback->read_ahead_blocks
                             : k_target;
    request.buffer_cap = request.playback->device_buffers;  // 0 resolved per round
  } else {
    request.stats.blocks_total = request.recording->total_blocks;
  }

  PendingAdmission pending;
  pending.id = id;
  if (options_.stepped_transitions) {
    pending.k_schedule.assign(schedule->begin(), schedule->end());
  } else {
    // Naive policy: jump straight to the target k (Section 3.4 shows this
    // can glitch in-flight streams; bench_admission_transition measures it).
    pending.k_schedule.push_back(schedule->back());
  }
  request.pending = true;
  InsertRequest(id, std::move(request));
  pending_.push_back(std::move(pending));
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kSubmitAccepted, id);
  event.target_k = pending_.back().k_schedule.back();
  Emit(event);
  ScheduleRound();
  return id;
}

Result<RequestId> ServiceScheduler::SubmitPlayback(PlaybackRequest playback) {
  if (playback.blocks.empty() || playback.block_duration <= 0) {
    return Status(ErrorCode::kInvalidArgument, "empty playback request");
  }
  ActiveRequest request;
  request.playback = std::move(playback);
  return Submit(std::move(request));
}

Result<RequestId> ServiceScheduler::SubmitRecording(RecordingRequest recording) {
  if (recording.total_blocks <= 0) {
    return Status(ErrorCode::kInvalidArgument, "empty recording request");
  }
  ActiveRequest request;
  request.stats.is_recording = true;
  request.recording = std::move(recording);
  return Submit(std::move(request));
}

void ServiceScheduler::ScheduleRound() {
  if (round_scheduled_) {
    return;
  }
  round_scheduled_ = true;
  simulator_->ScheduleAfter(0, [this] { RunRound(); });
}

namespace {

// Folds a finished or paused consumer's observations into the stats.
void FoldConsumer(const PlaybackConsumer* consumer, RequestStats* stats) {
  if (consumer == nullptr) {
    return;
  }
  stats->continuity_violations += consumer->violations();
  stats->total_tardiness += consumer->total_tardiness();
  stats->max_buffered_blocks = std::max(stats->max_buffered_blocks,
                                        consumer->max_buffered_blocks());
}

// Playback duration of one block at the request's rate.
SimDuration EffectiveBlockDuration(const PlaybackRequest& playback) {
  return static_cast<SimDuration>(static_cast<double>(playback.block_duration) /
                                  playback.rate_multiplier);
}

SimDuration RecordingBlockDuration(const RecordingRequest& recording) {
  return SecondsToUsec(static_cast<double>(recording.placement.granularity) /
                       recording.profile.units_per_sec);
}

}  // namespace

void ServiceScheduler::UnpinPreludePages(ActiveRequest* request) {
  if (options_.block_cache != nullptr) {
    for (const auto& [sector, sectors] : request->pinned_extents) {
      options_.block_cache->Unpin(sector, sectors);
    }
  }
  request->pinned_extents.clear();
}

void ServiceScheduler::CloseDevices(ActiveRequest* request) {
  DropRecord(request->stats.id);
  UnpinPreludePages(request);
  FoldConsumer(request->consumer.get(), &request->stats);
  request->consumer.reset();
  // A recording keeps what it captured; one that never wrote a block is
  // aborted outright (destroying the writer returns any allocated extents),
  // leaving no half-created strand behind.
  if (request->writer != nullptr && request->stats.blocks_done > 0) {
    Result<StrandId> finished = request->writer->Finish(
        request->stats.blocks_done * request->recording->placement.granularity);
    if (finished.ok()) {
      request->stats.recorded_strand = *finished;
    }
  }
  request->writer.reset();
  if (request->producer != nullptr) {
    request->stats.capture_overflows = request->producer->overflows();
    request->producer.reset();
  }
}

void ServiceScheduler::FinishRequest(ActiveRequest* request, SimTime now) {
  WithSlotUpdate(*request, [request, now] {
    request->stats.completed = true;
    request->stats.completion_time = now;
  });
  CloseDevices(request);
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kCompleted, request->stats.id);
  event.time = now;
  event.blocks = request->stats.blocks_done;
  Emit(event);
  NotifyLifecycle(request->stats.id, LifecycleListener::Lifecycle::kCompleted);
}

bool ServiceScheduler::TransferWithRetry(ActiveRequest* request,
                                         const std::function<Result<SimDuration>()>& attempt,
                                         const std::function<SimDuration()>& peek_retry,
                                         int64_t sector, int64_t sectors, SimTime* now,
                                         Status* fail_status) {
  const Disk& disk = store_->disk();
  Result<SimDuration> service = attempt();
  if (service.ok()) {
    ChargeTransfer(span_.active_stage, *service);
    *now += *service;
    return true;
  }
  // The failed attempt still moved the arm; charge its mechanical time.
  ChargeStage(obs::SpanStage::kRetry, disk.last_fault_service());
  *now += disk.last_fault_service();
  ++request->stats.faults_seen;

  int64_t retries = 0;
  while (service.status().code() == ErrorCode::kIoError && !disk.failed() &&
         retries < kMaxBlockRetries) {
    if (peek_retry != nullptr) {
      // Affordability: after the failed op the arm rests on the extent's
      // cylinder, so PeekServiceTime is exactly what the re-attempt will
      // cost. If that would push the round past its Eq. 11 budget, the
      // retry would steal another stream's continuity slack — skip instead.
      if (round_budget_ > 0 && (*now - round_start_) + peek_retry() > round_budget_) {
        break;
      }
    } else if (round_budget_ > 0 && *now - round_start_ >= round_budget_) {
      // No exact peek (appends land on a freshly allocated extent each
      // attempt): bound the retries by count and the budget at issue time.
      break;
    }
    ++retries;
    service = attempt();
    ++request->stats.blocks_retried;
    const SimDuration spent = service.ok() ? *service : disk.last_fault_service();
    ChargeStage(obs::SpanStage::kRetry, spent);
    *now += spent;
    if (span_.open && span_.active_parent != 0) {
      EmitSpan(obs::SpanStage::kRetry,
               obs::ChildSpanId(span_.active_parent, obs::SpanStage::kRetry,
                                span_.retry_ordinal++),
               span_.active_parent, *now, spent, request->stats.id, /*seek=*/0, sectors, sector);
    }
    if (options_.trace != nullptr) {
      obs::TraceEvent event = TraceContext(obs::TraceEventKind::kBlockRetried, request->stats.id);
      event.time = *now;
      event.sector = sector;
      event.blocks = sectors;
      event.duration = spent;
      // Events of peeked retries carry the budget the pre-check ran
      // against; issue-time-checked retries carry 0 — the Eq. 11
      // completion guarantee is a retrieval-side contract.
      event.round_budget = peek_retry != nullptr ? round_budget_ : 0;
      if (!service.ok()) {
        event.detail = "faulted_again";
      }
      Emit(event);
    }
    if (service.ok()) {
      return true;
    }
    ++request->stats.faults_seen;
  }
  if (fail_status != nullptr) {
    *fail_status = service.status();
  }
  return false;
}

bool ServiceScheduler::ReadWithRetry(ActiveRequest* request, int64_t sector, int64_t sectors,
                                     SimTime* now, Status* fail_status) {
  Disk* disk = &store_->disk();
  return TransferWithRetry(
      request, [disk, sector, sectors] { return disk->Read(sector, sectors, nullptr); },
      [disk, sector, sectors] { return disk->PeekServiceTime(sector, sectors); }, sector, sectors,
      now, fail_status);
}

void ServiceScheduler::RecordSkip(ActiveRequest* request, SimTime now, int64_t sector,
                                  int64_t sectors, SimDuration budget, std::string_view detail) {
  ++request->stats.blocks_skipped;
  if (options_.trace == nullptr) {
    return;
  }
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kBlockSkipped, request->stats.id);
  event.time = now;
  event.sector = sector;
  event.blocks = sectors;
  event.round_budget = budget;
  event.detail = detail;
  Emit(event);
}

SimDuration ServiceScheduler::BlockPlayback(const ActiveRequest& request) {
  return request.playback.has_value() ? EffectiveBlockDuration(*request.playback)
                                      : RecordingBlockDuration(*request.recording);
}

void ServiceScheduler::EmitServiced(RequestId id, SimDuration block_playback, SimTime now,
                                    int64_t blocks, SimDuration duration) {
  if (options_.trace == nullptr) {
    return;
  }
  // The TraceContext fields plus the serviced ones; the event's other
  // fields keep the defaults it was built with.
  obs::TraceEvent& event = serviced_event_;
  event.request = id;
  event.time = now;
  event.round = rounds_;
  event.k = current_k_;
  event.node = options_.node;
  event.slots = Snapshot();
  event.blocks = blocks;
  event.duration = duration;
  event.round_budget = round_budget_;
  event.block_playback = block_playback;
  Emit(event);
}

void ServiceScheduler::ReportPlaybackReady(ActiveRequest* request, SimTime ready_time) {
  DropRecord(request->stats.id);
  PlaybackRequest& playback = *request->playback;
  if (request->consumer == nullptr) {
    request->prelude_ready_times.push_back(ready_time);
    const bool prelude_done =
        static_cast<int64_t>(request->prelude_ready_times.size()) >= request->read_ahead ||
        request->next_block + 1 == static_cast<int64_t>(playback.blocks.size());
    if (prelude_done) {
      // Anti-jitter read-ahead satisfied: playback starts now, and the
      // buffered blocks are ready at their recorded instants.
      const SimTime start = request->prelude_ready_times.back();
      request->consumer =
          std::make_unique<PlaybackConsumer>(EffectiveBlockDuration(playback), start, 0);
      for (SimTime ready : request->prelude_ready_times) {
        request->consumer->BlockReady(ready);
      }
      request->prelude_ready_times.clear();
      if (request->stats.startup_latency == RequestStats::kUnsetLatency) {
        request->stats.startup_latency = start - request->stats.submit_time;
      }
      UnpinPreludePages(request);  // the startup guarantee is met; pages age normally
    }
  } else {
    request->consumer->BlockReady(ready_time);
  }
  ++request->next_block;
  ++request->stats.blocks_done;
}

int64_t ServiceScheduler::ServicePlayback(ActiveRequest* request, SimTime* now) {
  PlaybackRequest& playback = *request->playback;
  const int64_t cap = CapFor(request->buffer_cap);
  int64_t transferred = 0;
  while (transferred < current_k_ &&
         request->next_block < static_cast<int64_t>(playback.blocks.size())) {
    if (request->consumer != nullptr && request->consumer->BufferedAt(*now) >= cap) {
      // Device buffers are full (e.g., slow motion): the disk switches to
      // other tasks rather than accumulate without bound (Section 3.3.2).
      break;
    }
    const PrimaryEntry& entry = playback.blocks[static_cast<size_t>(request->next_block)];
    if (!entry.IsSilence()) {
      Status fail = Status::Ok();
      if (ReadWithRetry(request, entry.sector, entry.sector_count, now, &fail)) {
        ++transferred;
      } else {
        // Give up on this block: degraded playback renders it as silence
        // rather than stalling the stream (kBadSector is hopeless until
        // relocated; further retries are exhausted or unaffordable). It
        // falls through as a degraded frame: readiness is still reported
        // so the consumer's clock keeps running, but no data moved and
        // `transferred` does not count it.
        RecordSkip(request, *now, entry.sector, entry.sector_count, round_budget_, fail.message());
      }
    }
    // Report readiness of this block (silence is "ready" for free).
    ReportPlaybackReady(request, *now);
  }
  if (request->next_block == static_cast<int64_t>(playback.blocks.size())) {
    FinishRequest(request, *now);
  }
  return transferred;
}

void ServiceScheduler::EnsureRecordingDevices(ActiveRequest* request, SimTime now) {
  if (request->producer != nullptr) {
    return;
  }
  RecordingRequest& recording = *request->recording;
  request->producer = std::make_unique<CaptureProducer>(RecordingBlockDuration(recording), now,
                                                        recording.capture_buffers);
  Result<std::unique_ptr<StrandWriter>> writer =
      store_->CreateStrand(recording.profile, recording.placement);
  assert(writer.ok());
  request->writer = std::move(*writer);
}

int64_t ServiceScheduler::ServiceRecording(ActiveRequest* request, SimTime* now,
                                           int64_t max_blocks) {
  RecordingRequest& recording = *request->recording;
  EnsureRecordingDevices(request, *now);
  const int64_t block_bytes =
      BitsToBytesCeil(recording.placement.granularity * recording.profile.bits_per_unit);
  const int64_t sector_bytes = store_->disk().bytes_per_sector();
  // A whole-sector payload from the page pool: AppendBlock pads short
  // payloads with a fresh copy, so pre-padding keeps the append loop
  // allocation-free across rounds.
  const int64_t padded_bytes = ((block_bytes + sector_bytes - 1) / sector_bytes) * sector_bytes;
  PagePool& pool =
      options_.block_cache != nullptr ? options_.block_cache->page_pool() : scratch_pool_;
  std::vector<uint8_t>* payload = pool.Acquire(padded_bytes);

  int64_t transferred = 0;
  while (transferred < max_blocks && request->stats.blocks_done < recording.total_blocks) {
    if (request->producer->CaptureEnd(request->stats.blocks_done) > *now) {
      break;  // the camera has not finished this block yet
    }
    Status fail = Status::Ok();
    const bool wrote = TransferWithRetry(
        request, [request, payload] { return request->writer->AppendBlock(*payload); }, nullptr,
        0, 0, now, &fail);
    if (!wrote) {
      assert(fail.code() == ErrorCode::kIoError ||
             fail.code() == ErrorCode::kBadSector);  // allocator failures are admission bugs
      // Give the block up as an unrecorded gap: a NULL index entry keeps
      // the strand's timeline intact, and the capture buffer is released
      // so the device does not overflow on a dead disk. The skip carries
      // no extent (each attempt allocates afresh) and no peeked budget.
      Status silence = request->writer->AppendSilence();
      assert(silence.ok());
      (void)silence;
      RecordSkip(request, *now, /*sector=*/0, /*sectors=*/0, /*budget=*/0, fail.message());
    }
    request->producer->BlockWritten(*now);
    ++request->stats.blocks_done;
    if (wrote) {
      ++transferred;
    }
  }
  pool.Release(payload);
  if (request->stats.blocks_done == recording.total_blocks) {
    FinishRequest(request, *now);
  }
  return transferred;
}

void ServiceScheduler::ComputeRoundBudget() {
  // Eq. 11 envelope of this round: the tightest serviced request's fetched
  // playback, min_i(k_i * d_i). Retries of faulted blocks are only issued
  // while the round still fits inside it.
  round_budget_ = 0;
  for (RequestId id : service_order_) {
    const RoundRecord& record = RecordOf(id);
    SimDuration block_playback = record.block_playback;
    if (!record.valid()) {
      const ActiveRequest& request = RequestAt(id);
      if (request.stats.completed || request.stats.paused) {
        continue;
      }
      block_playback = BlockPlayback(request);
    }
    const SimDuration budget = current_k_ * block_playback;
    if (round_budget_ == 0 || budget < round_budget_) {
      round_budget_ = budget;
    }
  }
}

const std::vector<PlanInput>& ServiceScheduler::BuildPlanInputs(SimTime round_start,
                                                                bool count_cache_stats) {
  BlockCache* cache = ActiveCache();
  // Reuse plan_inputs_ (and each element's candidate vector) across rounds:
  // with a steady rotation the resize is a no-op and nothing allocates.
  size_t used = 0;
  for (RequestId id : service_order_) {
    const RoundRecord& record = RecordOf(id);
    const bool full = record.valid() && record.full_until > round_start &&
                      record.cap == CapFor(record.buffer_cap);
    if (!full && !InService(id)) {
      continue;
    }
    if (used == plan_inputs_.size()) {
      plan_inputs_.emplace_back();
    }
    PlanInput& input = plan_inputs_[used++];
    input.request = id;
    input.blocks.clear();
    input.append_blocks = 0;
    input.append_position_sector = 0;
    if (full) {
      continue;  // no room this round: an empty input
    }
    ActiveRequest& request = RequestAt(id);
    if (request.playback.has_value()) {
      PlaybackRequest& playback = *request.playback;
      const int64_t size = static_cast<int64_t>(playback.blocks.size());
      int64_t target = current_k_;
      if (request.consumer != nullptr) {
        // Device-buffer backpressure, evaluated once at plan time: the
        // round fetches at most the room available at its start.
        const int64_t cap = CapFor(request.buffer_cap);
        const int64_t room = cap - request.consumer->BufferedAt(round_start);
        if (room == 0) {
          FillRecord(request, cap, cache != nullptr);
        }
        target = std::min(target, std::max<int64_t>(room, 0));
      }
      int64_t data = 0;
      for (int64_t b = request.next_block; b < size && data < target; ++b) {
        const PrimaryEntry& entry = playback.blocks[static_cast<size_t>(b)];
        PlanCandidate candidate;
        candidate.ordinal = b;
        if (entry.IsSilence()) {
          candidate.silence = true;
        } else {
          candidate.sector = entry.sector;
          candidate.sectors = entry.sector_count;
          if (cache != nullptr) {
            candidate.cache_hit = count_cache_stats
                                      ? cache->Lookup(entry.sector, entry.sector_count)
                                      : cache->Contains(entry.sector, entry.sector_count);
          }
          ++data;
        }
        input.blocks.push_back(candidate);
      }
    } else {
      // Blocks the capture device has finished by round start, up to k.
      EnsureRecordingDevices(&request, round_start);
      RecordingRequest& recording = *request.recording;
      int64_t ready = 0;
      while (ready < current_k_ && request.stats.blocks_done + ready < recording.total_blocks &&
             request.producer->CaptureEnd(request.stats.blocks_done + ready) <= round_start) {
        ++ready;
      }
      input.append_blocks = ready;
      input.append_position_sector = request.writer->previous_end_sector();
    }
  }
  plan_inputs_.resize(used);
  return plan_inputs_;
}

std::vector<RequestId> ServiceScheduler::CollapsedCacheAdmissions(
    const std::vector<PlanInput>& inputs, const RoundPlan& plan) {
  // Only cache-admitted streams can collapse; with no tenants in the
  // ledger the whole coverage audit is skipped (the 20k-stream hot path).
  if (slot_counts_.cache_tenants == 0) {
    return {};
  }
  const auto cache_admitted = [this](uint64_t id) {
    const ActiveRequest* request = FindRequest(id);
    return request != nullptr && request->stats.cache_admitted;
  };
  // Realized coverage this round: plan-time cache hits plus blocks riding
  // another request's transfer (dedup), over the round's data blocks.
  // Tracked for cache-admitted streams only; keyed by a std::map so the
  // collapsed list (and the revocation Pause order) stays id-ascending.
  std::map<uint64_t, std::pair<int64_t, int64_t>> demand;  // request -> (data, free)
  for (const PlanInput& input : inputs) {
    if (input.blocks.empty() || !cache_admitted(input.request)) {
      continue;
    }
    for (const PlanCandidate& candidate : input.blocks) {
      if (candidate.silence) {
        continue;
      }
      ++demand[input.request].first;
      if (candidate.cache_hit) {
        ++demand[input.request].second;
      }
    }
  }
  for (const PlannedTransfer& transfer : plan.transfers) {
    if (transfer.is_append || transfer.rider_count == 0) {
      continue;
    }
    // The first rider of each distinct extent pays for the read; every
    // other rider of that extent gets it for free.
    GroupExtents(plan, transfer);
    for (size_t g = 0; g < group_count_; ++g) {
      const uint64_t payer = group_riders_[g].front()->request;
      for (const PlannedBlock* block : group_riders_[g]) {
        if (block->request != payer && cache_admitted(block->request)) {
          ++demand[block->request].second;
        }
      }
    }
  }
  std::vector<RequestId> collapsed;
  for (const auto& [id, counts] : demand) {
    const auto [data, free_blocks] = counts;
    if (data <= 0) {
      continue;  // nothing demanded this round; no evidence either way
    }
    const double coverage = static_cast<double>(free_blocks) / static_cast<double>(data);
    if (coverage + 1e-9 < kCacheAdmissionMinHitRate) {
      collapsed.push_back(id);
    }
  }
  return collapsed;
}

void ServiceScheduler::GroupExtents(const RoundPlan& plan, const PlannedTransfer& transfer) {
  // Distinct (sector, sectors) extents of a transfer, riders grouped in
  // encounter order — the first rider of each extent pays for the read.
  // The scratch vectors are reused across calls (inner vectors are cleared,
  // not destroyed) so steady-state rounds group without allocating.
  group_count_ = 0;
  for (const PlannedBlock& block : plan.riders_of(transfer)) {
    const std::pair<int64_t, int64_t> key{block.sector, block.sectors};
    size_t g = 0;
    for (; g < group_count_; ++g) {
      if (group_keys_[g] == key) {
        break;
      }
    }
    if (g == group_count_) {
      if (group_count_ == group_keys_.size()) {
        group_keys_.emplace_back();
        group_riders_.emplace_back();
      }
      group_keys_[group_count_] = key;
      group_riders_[group_count_].clear();
      ++group_count_;
    }
    group_riders_[g].push_back(&block);
  }
}

int64_t ServiceScheduler::RunPlannedRound(SimTime* now) {
  const SimTime round_start = *now;
  const std::vector<PlanInput>& inputs = PlanRound(round_start);
  Dispatch(now);
  return AccountRound(inputs, round_start, *now);
}

const std::vector<PlanInput>& ServiceScheduler::PlanRound(SimTime now) {
  BlockCache* cache = ActiveCache();

  // Build the transfer program, revoking cache-admitted streams whose
  // coverage collapsed before any disk time is spent on them. Each pass
  // pauses at least one stream, so the loop is bounded.
  const std::vector<PlanInput>& inputs = BuildPlanInputs(now, /*count_cache_stats=*/true);
  for (;;) {
    BuildRoundPlanInto(store_->model(), store_->disk().head_cylinder(), inputs, &round_plan_);
    const std::vector<RequestId> collapsed = CollapsedCacheAdmissions(inputs, round_plan_);
    if (collapsed.empty()) {
      break;
    }
    for (RequestId id : collapsed) {
      obs::TraceEvent event = TraceContext(obs::TraceEventKind::kCacheAdmitRevoked, id);
      event.time = now;
      event.cache_hit_rate = cache != nullptr ? cache->RecentHitRate() : 0.0;
      event.detail = "round coverage below admission threshold";
      Emit(event);
      // Graceful fallback to the Eq. 17 regime: release the slot; the
      // stream may re-apply through Resume under plain admission.
      Pause(id, /*destructive=*/true);
    }
    BuildPlanInputs(now, /*count_cache_stats=*/false);  // refills `inputs`
    ComputeRoundBudget();
  }
  const RoundPlan& plan = round_plan_;

  if (options_.trace != nullptr) {
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kRoundPlanned);
    event.time = now;
    event.blocks = plan.data_blocks;
    event.transfers = plan.read_transfers;
    event.coalesced_blocks = plan.coalesced_blocks;
    event.deduped_blocks = plan.deduped_blocks;
    event.cache_hits = plan.cache_hits;
    event.cache_lookups = cache != nullptr ? plan.data_blocks : 0;
    if (cache != nullptr) {
      event.cache_resident_bytes = cache->stats().resident_bytes;
      event.cache_pinned_entries = cache->stats().pinned_entries;
      event.cache_evictions = cache->stats().evictions;
      event.cache_hit_rate = cache->RecentHitRate();
    }
    // Page-pool occupancy gauges (unrendered: the round-trace digest does
    // not change). A non-zero outstanding count between rounds is a leak.
    PagePool& pool =
        options_.block_cache != nullptr ? options_.block_cache->page_pool() : scratch_pool_;
    event.pool_outstanding = pool.pages_outstanding();
    event.pool_recycled = pool.pages_recycled();
    Emit(event);
  }
  if (span_.open && plan.cache_hits > 0) {
    // Blocks served from memory cost no disk time: a zero-duration span
    // records the cache's contribution to the round without skewing the
    // stage ledger.
    EmitSpan(obs::SpanStage::kCache,
             obs::ChildSpanId(span_.root, obs::SpanStage::kCache, span_.ordinal++), span_.root,
             now, /*duration=*/0, /*request=*/0, /*seek=*/0, plan.cache_hits, /*sector=*/0);
  }

  // Sectors more than one active stream wants within the lookahead window:
  // the interval between a leading and a trailing viewer. Their cache
  // entries are biased to evict last — the next hit is scheduled. Only the
  // sectors the plan reads can be inserted, so only those are counted.
  if (cache != nullptr) {
    bias_tally_.Clear();
    for (const PlannedBlock& rider : plan.riders) {
      bias_tally_.Ask(rider.sector);
    }
    bias_tally_.Seal();
    if (!bias_tally_.empty()) {
      ForEachWindowSector(service_order_, [this](int64_t sector) { bias_tally_.Count(sector); });
    }
  }

  // Dispatch fills per-candidate completion instants and fates (indexed by
  // the planner's round-global slot numbering), the per-request disk time
  // and the seek ledger; all reused across rounds.
  size_t total_candidates = 0;
  for (const PlanInput& input : inputs) {
    total_candidates += input.blocks.size();
  }
  outcome_time_.assign(total_candidates, 0);
  outcome_ok_.assign(total_candidates, 0);
  outcome_known_.assign(total_candidates, 0);
  attributed_.clear();
  append_done_.clear();
  dispatch_ops_ = 0;
  dispatch_seek_cylinders_ = 0;
  return inputs;
}

void ServiceScheduler::CountSeek(int64_t sector) {
  dispatch_seek_cylinders_ +=
      std::abs(store_->model().SectorToCylinder(sector) - store_->disk().head_cylinder());
  ++dispatch_ops_;
}

void ServiceScheduler::Attribute(const PlannedTransfer& transfer, SimDuration spent) {
  attribute_scratch_.clear();
  for (const PlannedBlock& block : round_plan_.riders_of(transfer)) {
    if (std::find(attribute_scratch_.begin(), attribute_scratch_.end(), block.request) ==
        attribute_scratch_.end()) {
      attribute_scratch_.push_back(block.request);
    }
  }
  for (uint64_t rider : attribute_scratch_) {
    attributed_[rider] += spent / static_cast<SimDuration>(attribute_scratch_.size());
  }
}

void ServiceScheduler::RecordExtent(size_t g, SimTime completion, bool ok, std::string_view why) {
  const auto [sector, sectors] = group_keys_[g];
  for (const PlannedBlock* block : group_riders_[g]) {
    const size_t slot = static_cast<size_t>(block->slot);
    outcome_time_[slot] = completion;
    outcome_ok_[slot] = ok ? 1 : 0;
    outcome_known_[slot] = 1;
    if (!ok) {
      RecordSkip(&RequestAt(block->request), completion, sector, sectors, round_budget_, why);
    }
  }
  BlockCache* cache = ActiveCache();
  if (!ok || cache == nullptr) {
    return;
  }
  const bool biased = bias_tally_.Of(sector) >= 2;
  cache->Insert(sector, sectors, sectors * store_->disk().bytes_per_sector(), biased);
  for (const PlannedBlock* block : group_riders_[g]) {
    ActiveRequest& rider = RequestAt(block->request);
    if (rider.playback.has_value() && rider.consumer == nullptr) {
      // Prelude read-ahead: pinned so eviction cannot undo the startup
      // guarantee before playback begins. Record the extent only when the
      // pin actually landed (the insert can be dropped when everything
      // resident is pinned); otherwise the eventual unpin would release a
      // pin taken by a different request.
      if (cache->Pin(sector, sectors)) {
        rider.pinned_extents.emplace_back(sector, sectors);
      }
    }
  }
}

void ServiceScheduler::ReadExtent(size_t g, SimTime* now) {
  const auto [sector, sectors] = group_keys_[g];
  Status fail = Status::Ok();
  const bool ok =
      ReadWithRetry(&RequestAt(group_riders_[g].front()->request), sector, sectors, now, &fail);
  RecordExtent(g, *now, ok, fail.message());
}

void ServiceScheduler::Decoalesce(const PlannedTransfer& transfer, SimDuration spent,
                                  SimTime* now) {
  ++RequestAt(round_plan_.riders_of(transfer).front().request).stats.faults_seen;
  const SimTime start = *now;
  GroupExtents(round_plan_, transfer);
  for (size_t g = 0; g < group_count_; ++g) {
    CountSeek(group_keys_[g].first);
    ReadExtent(g, now);
  }
  Attribute(transfer, spent + (*now - start));
}

void ServiceScheduler::RunAppend(const PlannedTransfer& transfer, SimTime* now) {
  const SimTime start = *now;
  ActiveRequest& request = RequestAt(transfer.append_request);
  const uint64_t span_id = OpenTransferSpan(obs::SpanStage::kAppend, transfer.append_request);
  append_done_[transfer.append_request] += ServiceRecording(&request, now, transfer.append_blocks);
  attributed_[transfer.append_request] += *now - start;
  if (*now > start) {
    EmitSpan(obs::SpanStage::kAppend, span_id, span_.root, *now, *now - start,
             transfer.append_request, /*seek=*/0, transfer.append_blocks, transfer.start_sector);
  }
}

void ServiceScheduler::Dispatch(SimTime* now) {
  // The plan order is the dispatch order: block-level C-SCAN with appends
  // interleaved at their expected arm positions.
  Disk& disk = store_->disk();
  const RoundPlan& plan = round_plan_;
  for (const PlannedTransfer& transfer : plan.transfers) {
    if (transfer.is_append) {
      RunAppend(transfer, now);
      continue;
    }
    const SimTime start = *now;
    const uint64_t owner = plan.riders_of(transfer).front().request;
    const obs::SpanStage stage = TransferStageFor(RequestAt(owner));
    const uint64_t span_id = OpenTransferSpan(stage, owner);
    CountSeek(transfer.start_sector);
    GroupExtents(plan, transfer);
    if (group_count_ == 1) {
      ReadExtent(0, now);
      Attribute(transfer, *now - start);
    } else {
      // Coalesced transfer: one attempt for the merged extent; a fault
      // de-coalesces it.
      Result<SimDuration> service = disk.Read(transfer.start_sector, transfer.sectors, nullptr);
      if (service.ok()) {
        ChargeTransfer(stage, *service);
        *now += *service;
        for (size_t g = 0; g < group_count_; ++g) {
          RecordExtent(g, *now, /*ok=*/true);
        }
        Attribute(transfer, *now - start);
      } else {
        ChargeStage(obs::SpanStage::kRetry, disk.last_fault_service());
        *now += disk.last_fault_service();
        Decoalesce(transfer, *now - start, now);
      }
    }
    EmitSpan(stage, span_id, span_.root, *now, *now - start, owner, span_.active_seek,
             static_cast<int64_t>(transfer.rider_count), transfer.start_sector);
  }
}

int64_t ServiceScheduler::AccountRound(const std::vector<PlanInput>& inputs, SimTime round_start,
                                       SimTime now) {
  // Readiness in playback order: a request's blocks become ready at the
  // running maximum of their transfer completions (the consumer contract
  // requires non-decreasing instants), cache hits and silence at the
  // prefix reached so far.
  int64_t transferred_total = 0;
  size_t slot = 0;  // walks the planner's candidate numbering in input order
  for (const PlanInput& input : inputs) {
    const size_t first_slot = slot;
    slot += input.blocks.size();
    if (input.blocks.empty() && RecordOf(input.request).valid()) {
      // Full all round (a valid record has been serviced before, so its
      // start time is set): no block, no disk time.
      EmitServiced(input.request, RecordOf(input.request).block_playback, now, 0, 0);
      continue;
    }
    ActiveRequest* request = FindRequest(input.request);
    if (request == nullptr || request->stats.completed || request->stats.paused) {
      continue;
    }
    if (request->stats.start_time < 0) {
      request->stats.start_time = round_start;
    }
    int64_t moved = 0;
    if (request->recording.has_value()) {
      const auto appended = append_done_.find(input.request);
      moved = appended != append_done_.end() ? appended->second : 0;
    } else {
      SimTime prefix = round_start;
      for (size_t s = first_slot; s < slot; ++s) {
        const PlanCandidate& candidate = input.blocks[s - first_slot];
        if (candidate.cache_hit) {
          ++moved;  // served from memory: counts as transferred, costs nothing
        } else if (!candidate.silence) {
          assert(outcome_known_[s]);
          prefix = std::max(prefix, outcome_time_[s]);
          moved += outcome_ok_[s];
        }
        ReportPlaybackReady(request, prefix);
      }
      if (request->next_block == static_cast<int64_t>(request->playback->blocks.size())) {
        FinishRequest(request, now);
      }
    }
    transferred_total += moved;
    const auto attributed = attributed_.find(input.request);
    EmitServiced(input.request, BlockPlayback(*request), now, moved,
                 attributed != attributed_.end() ? attributed->second : 0);
  }

  if (options_.trace != nullptr && dispatch_ops_ > 0) {
    // The measured-vs-worst-case l_seek ledger: admission charged every
    // operation a full-stroke reposition (the alpha of Eq. 12); the
    // C-SCAN program paid the measured travel.
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kSeekAccounting);
    event.time = now;
    event.transfers = dispatch_ops_;
    event.seek_cylinders = dispatch_seek_cylinders_;
    event.seek_cylinders_worst =
        dispatch_ops_ * std::max<int64_t>(store_->model().params().cylinders - 1, 0);
    Emit(event);
  }
  return transferred_total;
}

int64_t ServiceScheduler::RunPerRequestRound(SimTime* now) {
  // Section 6.2 SCAN option: service this round's requests in
  // disk-position order, shrinking the inter-request repositioning cost.
  std::vector<RequestId> round_order(service_order_.begin(), service_order_.end());
  if (options_.service_order == ServiceOrder::kSeekScan) {
    std::sort(round_order.begin(), round_order.end(), [this](RequestId a, RequestId b) {
      return NextSector(RequestAt(a)) < NextSector(RequestAt(b));
    });
  }
  int64_t transferred_total = 0;
  for (RequestId id : round_order) {
    ActiveRequest& request = RequestAt(id);
    if (request.stats.completed || request.stats.paused) {
      continue;
    }
    if (request.stats.start_time < 0) {
      request.stats.start_time = *now;
    }
    const SimTime service_start = *now;
    const obs::SpanStage stage =
        request.playback.has_value() ? TransferStageFor(request) : obs::SpanStage::kAppend;
    const uint64_t span_id = OpenTransferSpan(stage, id);
    const int64_t transferred = request.playback.has_value()
                                    ? ServicePlayback(&request, now)
                                    : ServiceRecording(&request, now, current_k_);
    transferred_total += transferred;
    if (*now > service_start) {
      EmitSpan(stage, span_id, span_.root, *now, *now - service_start, id, span_.active_seek,
               transferred, /*sector=*/0);
    }
    EmitServiced(id, BlockPlayback(request), *now, transferred, *now - service_start);
  }
  return transferred_total;
}

void ServiceScheduler::ActivatePending() {
  // Phase in at most one admission step per round. A queued admission's
  // schedule was planned against the k of its submit instant; if earlier
  // transitions have since raised k, the stale low steps are skipped — k
  // only ever shrinks when a slot is released, never mid-ramp. The first
  // unskipped step is then at most current_k_ + 1, preserving Eq. 18's
  // one-step-per-round bound. With batch_activation the loop goes on
  // draining admissions whose ramp is already satisfied (their single
  // remaining step needs no k raise): only same-k activations batch, so a
  // 20k-stream ramp-in joins in one round instead of 20k.
  for (bool first = true; !pending_.empty() && (first || options_.batch_activation);
       first = false) {
    PendingAdmission& next = pending_.front();
    assert(!next.k_schedule.empty());
    while (next.k_schedule.size() > 1 && next.k_schedule.front() <= current_k_) {
      next.k_schedule.pop_front();
    }
    if (!first && (next.k_schedule.front() > current_k_ || next.k_schedule.size() > 1)) {
      break;  // needs a real Eq. 18 step: one per round, wait your turn
    }
    current_k_ = std::max(current_k_, next.k_schedule.front());
    next.k_schedule.pop_front();
    if (!next.k_schedule.empty()) {
      continue;  // mid-ramp: the head keeps its place
    }
    const RequestId activated = next.id;
    service_order_.push_back(activated);
    pending_.pop_front();
    WithSlotUpdate(RequestAt(activated), [this, activated] {
      RequestAt(activated).pending = false;
    });
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kActivated, activated);
    Emit(event);
  }
}

void ServiceScheduler::RunRound() {
  round_scheduled_ = false;
  ++rounds_;
  const SimTime round_start = simulator_->Now();
  SimTime now = round_start;
  ActivatePending();
  round_start_ = round_start;
  ComputeRoundBudget();
  if (options_.trace != nullptr) {
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kRoundStart);
    event.round_budget = round_budget_;
    Emit(event);
  }
  span_ = SpanContext{};
  if (options_.emit_spans && options_.trace != nullptr) {
    span_.open = true;
    span_.trace_id = obs::RoundTraceId(options_.node, rounds_);
    span_.root = obs::RootSpanId(span_.trace_id);
  }
  // Device events emitted while servicing this round carry the in-round
  // simulated clock instead of the device busy clock (exporters place them
  // on the shared timeline).
  store_->disk().set_time_hint(&now);
  const int64_t transferred_total = options_.service_order == ServiceOrder::kPlanned
                                        ? RunPlannedRound(&now)
                                        : RunPerRequestRound(&now);
  store_->disk().set_time_hint(nullptr);
  if (span_.open) {
    // Close the round's root span. Every `now` advance above was charged
    // to exactly one stage; the queue stage absorbs any residual, so the
    // ledger partitions the measured duration (the auditor and
    // check_criticalpath.py enforce this within kStageSumEpsilonUsec).
    const SimDuration duration = now - round_start;
    const SimDuration charged = span_.stages.Total();
    if (duration > charged) {
      span_.stages.queue += duration - charged;
    }
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kSpan);
    obs::StampSpan(&event, span_.trace_id, span_.root, /*parent_span=*/0,
                   obs::SpanStage::kRound);
    event.time = now;
    event.duration = duration;
    event.blocks = transferred_total;
    event.round_budget = round_budget_;
    event.stages = span_.stages;
    Emit(event);
    span_.open = false;
  }
  if (options_.trace != nullptr) {
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kRoundEnd);
    event.time = now;
    event.duration = now - round_start;
    event.blocks = transferred_total;
    event.round_budget = round_budget_;
    Emit(event);
  }
  simulator_->RunUntil(now);  // account the disk time this round consumed

  // Drop completed requests from the rotation, then retire their slots:
  // stats move to finished_stats_ and the slot returns to the free list.
  // Lazy (round-edge only) so that mid-round completions stay addressable
  // until every rider settles.
  std::erase_if(service_order_, [this](RequestId id) {
    return !RecordOf(id).valid() && RequestAt(id).stats.completed;
  });
  RetireCompletedRequests();

  // Completed requests are gone from the rotation, so in service = unpaused.
  const bool have_work =
      !pending_.empty() || std::any_of(service_order_.begin(), service_order_.end(),
                                       [this](RequestId id) { return InService(id); });
  if (!have_work) {
    return;
  }
  if (transferred_total > 0) {
    ScheduleRound();
    return;
  }
  // The round moved no data (buffers full, capture not ready): sleep until
  // the earliest instant more work exists instead of spinning.
  SimTime wake = -1;
  for (RequestId id : service_order_) {
    const RoundRecord& record = RecordOf(id);
    if (record.valid() && record.full_until > now) {
      // Exactly cap blocks stay buffered until then: it is the next drain.
      if (wake < 0 || record.full_until < wake) {
        wake = record.full_until;
      }
      continue;
    }
    const ActiveRequest& request = RequestAt(id);
    if (request.stats.completed || request.stats.paused) {
      continue;
    }
    SimTime candidate = -1;
    if (request.playback.has_value() && request.consumer != nullptr) {
      candidate = request.consumer->NextDrainAfter(now);
    } else if (request.recording.has_value() && request.producer != nullptr) {
      candidate = request.producer->CaptureEnd(request.stats.blocks_done);
    }
    if (candidate >= 0 && (wake < 0 || candidate < wake)) {
      wake = candidate;
    }
  }
  if (wake < 0) {
    wake = now + 1000;  // defensive: never stall the rotation entirely
  }
  round_scheduled_ = true;
  simulator_->ScheduleAt(wake, [this] { RunRound(); });
}

Status ServiceScheduler::Stop(RequestId id) {
  ActiveRequest* found = FindRequest(id);
  if (found == nullptr) {
    if (finished_stats_.count(id) > 0) {
      return Status::Ok();  // already completed and retired
    }
    return Status(ErrorCode::kNotFound, "request " + std::to_string(id));
  }
  ActiveRequest& request = *found;
  if (request.stats.completed) {
    return Status::Ok();
  }
  CloseDevices(&request);
  WithSlotUpdate(request, [this, &request] {
    request.stats.completed = true;
    request.stats.completion_time = simulator_->Now();
    request.pending = false;
  });
  std::erase(service_order_, id);
  std::erase_if(pending_, [id](const PendingAdmission& p) { return p.id == id; });
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kStop, id);
  event.blocks = request.stats.blocks_done;
  Emit(event);
  NotifyLifecycle(id, LifecycleListener::Lifecycle::kStopped);
  return Status::Ok();
}

Status ServiceScheduler::Pause(RequestId id, bool destructive) {
  ActiveRequest* found = FindRequest(id);
  if (found == nullptr) {
    if (finished_stats_.count(id) > 0) {
      return Status(ErrorCode::kFailedPrecondition, "request not running");
    }
    return Status(ErrorCode::kNotFound, "request " + std::to_string(id));
  }
  ActiveRequest& request = *found;
  if (request.stats.completed || request.stats.paused) {
    return Status(ErrorCode::kFailedPrecondition, "request not running");
  }
  WithSlotUpdate(request, [&request, destructive] {
    request.stats.paused = true;
    request.destructively_paused = destructive;
    if (destructive) {
      request.pending = false;  // leaves pending_ below
    }
  });
  // Deadlines do not survive a pause: fold what the consumer saw and
  // restart the anti-jitter prelude on resume.
  DropRecord(id);
  UnpinPreludePages(&request);
  FoldConsumer(request.consumer.get(), &request.stats);
  request.consumer.reset();
  request.prelude_ready_times.clear();
  if (destructive) {
    // The slot is released now: leave the rotation and any pending k ramp,
    // and let the remaining slot holders settle to a smaller k. A revoked
    // cache tenant held no slot, so it releases nothing — shrinking k for
    // it would hand the rotation a release that never happened.
    std::erase(service_order_, id);
    std::erase_if(pending_, [id](const PendingAdmission& p) { return p.id == id; });
    if (!request.stats.cache_admitted) {
      assert(slot_sums_.n() == slot_counts_.Held());
      Result<int64_t> k = admission_.TransientSafeBlocksPerRound(slot_sums_);
      if (k.ok() && *k < current_k_) {
        current_k_ = *k;
      }
    }
  }
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kPause, id);
  event.destructive = destructive;
  Emit(event);
  if (destructive) {
    NotifyLifecycle(id, LifecycleListener::Lifecycle::kPausedDestructive);
  }
  return Status::Ok();
}

Status ServiceScheduler::Resume(RequestId id) {
  ActiveRequest* found = FindRequest(id);
  if (found == nullptr) {
    if (finished_stats_.count(id) > 0) {
      return Status(ErrorCode::kFailedPrecondition, "request not paused");
    }
    return Status(ErrorCode::kNotFound, "request " + std::to_string(id));
  }
  ActiveRequest& request = *found;
  if (request.stats.completed || !request.stats.paused) {
    return Status(ErrorCode::kFailedPrecondition, "request not paused");
  }
  if (!request.destructively_paused) {
    WithSlotUpdate(request, [&request] { request.stats.paused = false; });
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kResume, id);
    Emit(event);
    NotifyLifecycle(id, LifecycleListener::Lifecycle::kResumed);
    ScheduleRound();
    return Status::Ok();
  }
  // Destructive pause released the slot: re-run admission control. The
  // resuming request holds no slot, so the ledger's sums exclude it — it is
  // presented only once, as the candidate.
  bool cache_admit = false;
  Result<std::vector<int64_t>> schedule = PlanJoin(id, request, request.next_block, &cache_admit);
  if (!schedule.ok()) {
    obs::TraceEvent event = TraceContext(obs::TraceEventKind::kResumeRejected, id);
    event.detail = schedule.status().message();
    Emit(event);
    return schedule.status();
  }
  WithSlotUpdate(request, [&request, cache_admit] {
    request.stats.cache_admitted = cache_admit;
    request.stats.paused = false;
    request.destructively_paused = false;
    request.pending = true;  // joins pending_ below
  });
  PendingAdmission pending;
  pending.id = id;
  pending.k_schedule.assign(schedule->begin(), schedule->end());
  pending_.push_back(std::move(pending));  // rejoin through the pending queue
  obs::TraceEvent event = TraceContext(obs::TraceEventKind::kResume, id);
  event.destructive = true;
  Emit(event);
  NotifyLifecycle(id, LifecycleListener::Lifecycle::kResumed);
  ScheduleRound();
  return Status::Ok();
}

int64_t ServiceScheduler::NextSector(const ActiveRequest& request) const {
  if (request.playback.has_value()) {
    const auto& blocks = request.playback->blocks;
    for (int64_t b = request.next_block; b < static_cast<int64_t>(blocks.size()); ++b) {
      if (!blocks[static_cast<size_t>(b)].IsSilence()) {
        return blocks[static_cast<size_t>(b)].sector;
      }
    }
    return 0;
  }
  if (request.writer != nullptr && request.writer->previous_end_sector() >= 0) {
    return request.writer->previous_end_sector();
  }
  return 0;
}

void ServiceScheduler::RunUntilIdle() { simulator_->Run(); }

Result<RequestStats> ServiceScheduler::stats(RequestId id) const {
  const ActiveRequest* found = FindRequest(id);
  if (found == nullptr) {
    // Completed requests outlive their slot; their final stats are kept in
    // the retirement ledger so callers can still read them after the round
    // edge recycled the slot.
    auto finished = finished_stats_.find(id);
    if (finished != finished_stats_.end()) {
      return finished->second;
    }
    return Status(ErrorCode::kNotFound, "request " + std::to_string(id));
  }
  RequestStats stats = found->stats;
  // Live requests report the consumer's running totals too.
  FoldConsumer(found->consumer.get(), &stats);
  if (found->producer != nullptr) {
    stats.capture_overflows = found->producer->overflows();
  }
  return stats;
}

int64_t ServiceScheduler::active_request_count() const {
  return static_cast<int64_t>(service_order_.size());
}

}  // namespace vafs
