#include "src/obs/auditor.h"

#include <algorithm>
#include <utility>

namespace vafs {
namespace obs {

ContinuityAuditor::ContinuityAuditor(AuditorOptions options) : options_(options) {}

void ContinuityAuditor::Flag(const TraceEvent& event, std::string what) {
  violations_.push_back(AuditViolation{event.round, event.time, std::move(what)});
  if (violation_handler_) {
    violation_handler_(violations_.back());
  }
}

void ContinuityAuditor::CountRequest(const RequestState& request, int64_t delta) {
  switch (request.state) {
    case SlotState::kPending:
    case SlotState::kActive:
    case SlotState::kPausedNonDestructive:
      if (request.cache) {
        // A cache tenant rides the rotation without an Eq. 17 slot: one
        // column regardless of where in the lifecycle it sits.
        ledger_.cache_tenants += delta;
      } else if (request.state == SlotState::kPending) {
        ledger_.pending += delta;
      } else if (request.state == SlotState::kActive) {
        ledger_.active += delta;
      } else {
        ledger_.paused_nondestructive += delta;
      }
      break;
    case SlotState::kPausedDestructive:
      ledger_.paused_destructive += delta;
      break;
    case SlotState::kCompleted:
      break;
  }
}

void ContinuityAuditor::CheckLedger(const TraceEvent& event) {
  const SlotSnapshot replayed = Ledger();
  if (replayed == event.slots) {
    return;
  }
  auto render = [](const SlotSnapshot& s) {
    return "{active=" + std::to_string(s.active) + " pending=" + std::to_string(s.pending) +
           " paused_nd=" + std::to_string(s.paused_nondestructive) +
           " paused_d=" + std::to_string(s.paused_destructive) +
           " cache_t=" + std::to_string(s.cache_tenants) + "}";
  };
  Flag(event, std::string(TraceEventKindName(event.kind)) +
                  ": scheduler slot ledger " + render(event.slots) +
                  " disagrees with replayed lifecycle " + render(replayed));
}

void ContinuityAuditor::HandleLifecycle(const TraceEvent& event) {
  auto it = requests_.find(event.request);
  const bool known = it != requests_.end() && it->second.state != SlotState::kCompleted;
  switch (event.kind) {
    case TraceEventKind::kSubmitAccepted:
      if (known) {
        Flag(event, "submit of request " + std::to_string(event.request) +
                        " which already holds a lifecycle state");
      }
      if (it != requests_.end()) {
        CountRequest(it->second, -1);  // resubmit overwrites the old lifecycle
      }
      {
        const RequestState fresh{SlotState::kPending, false,
                                 pending_cache_.erase(event.request) > 0};
        CountRequest(fresh, +1);
        requests_[event.request] = fresh;
      }
      break;
    case TraceEventKind::kActivated:
      if (!known) {
        Flag(event, "activation of unknown request " + std::to_string(event.request));
        break;
      }
      CountRequest(it->second, -1);
      it->second.activated = true;
      if (it->second.state == SlotState::kPending) {
        it->second.state = SlotState::kActive;
      }
      CountRequest(it->second, +1);
      // A paused request can legitimately reach the head of the pending
      // queue; it stays paused and only the activated flag advances.
      break;
    case TraceEventKind::kPause:
      if (!known || (it->second.state != SlotState::kActive &&
                     it->second.state != SlotState::kPending)) {
        Flag(event, "pause of request " + std::to_string(event.request) +
                        " which is not running or pending");
        break;
      }
      CountRequest(it->second, -1);
      it->second.state = event.destructive ? SlotState::kPausedDestructive
                                           : SlotState::kPausedNonDestructive;
      CountRequest(it->second, +1);
      if (event.destructive && !it->second.cache) {
        // A cache tenant never held a slot, so revoking one (the
        // destructive pause behind kCacheAdmitRevoked) frees nothing a
        // k-shrink could be justified by.
        slot_released_ = true;  // k may legitimately shrink to fit
      }
      break;
    case TraceEventKind::kResume:
      if (!known || (it->second.state != SlotState::kPausedDestructive &&
                     it->second.state != SlotState::kPausedNonDestructive)) {
        Flag(event, "resume of request " + std::to_string(event.request) + " which is not paused");
        break;
      }
      CountRequest(it->second, -1);
      if (it->second.state == SlotState::kPausedDestructive) {
        // Rejoins through the pending queue after fresh admission. Whether
        // it re-entered as a cache tenant or under plain Eq. 17 admission is
        // decided by the kCacheAdmit that did (or did not) precede this
        // resume — the old flag must not survive the re-application.
        it->second.state = SlotState::kPending;
        it->second.activated = false;
        it->second.cache = pending_cache_.erase(event.request) > 0;
      } else {
        it->second.state = it->second.activated ? SlotState::kActive : SlotState::kPending;
      }
      CountRequest(it->second, +1);
      break;
    case TraceEventKind::kStop:
    case TraceEventKind::kCompleted:
      if (!known) {
        Flag(event, std::string(TraceEventKindName(event.kind)) + " of unknown request " +
                        std::to_string(event.request));
        break;
      }
      if (it->second.state != SlotState::kPausedDestructive && !it->second.cache) {
        slot_released_ = true;
      }
      CountRequest(it->second, -1);
      it->second.state = SlotState::kCompleted;
      CountRequest(it->second, +1);
      break;
    default:
      break;
  }
  CheckLedger(event);
}

void ContinuityAuditor::HandleRound(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kRoundStart:
      round_open_ = true;
      round_start_time_ = event.time;
      round_k_ = event.k;
      round_saturated_ = true;
      round_serviced_ = 0;
      round_min_budget_ = 0;
      break;
    case TraceEventKind::kRequestServiced: {
      if (!round_open_) {
        Flag(event, "request serviced outside a round");
        break;
      }
      if (event.blocks != round_k_) {
        round_saturated_ = false;  // completion tail, full buffers, capture lag
      }
      const SimDuration budget = event.blocks * event.block_playback;
      if (round_serviced_ == 0 || budget < round_min_budget_) {
        round_min_budget_ = budget;
      }
      ++round_serviced_;
      break;
    }
    case TraceEventKind::kRoundEnd: {
      round_open_ = false;
      CheckLedger(event);
      if (options_.stepped_transitions && previous_round_k_ >= 0) {
        if (event.k > previous_round_k_ + 1) {
          Flag(event, "k jumped " + std::to_string(previous_round_k_) + " -> " +
                          std::to_string(event.k) + " in one round (Eq. 18 allows one step)");
        } else if (event.k < previous_round_k_ && !slot_released_) {
          Flag(event, "k shrank " + std::to_string(previous_round_k_) + " -> " +
                          std::to_string(event.k) + " without any slot release");
        }
      }
      previous_round_k_ = event.k;
      slot_released_ = false;
      if (round_saturated_ && round_serviced_ > 0) {
        // Eq. 11 on a saturated round: the round must not outlast the
        // playback of any request's fetched blocks.
        const double allowed =
            static_cast<double>(round_min_budget_) * (1.0 + options_.round_time_slack);
        if (static_cast<double>(event.duration) > allowed) {
          Flag(event, "round " + std::to_string(event.round) + " took " +
                          std::to_string(event.duration) + " us but the tightest request's " +
                          "fetched playback is " + std::to_string(round_min_budget_) +
                          " us (Eq. 11 violated)");
        }
      }
      break;
    }
    default:
      break;
  }
}

void ContinuityAuditor::HandleSession(const TraceEvent& event) {
  const std::string tag = "session " + std::to_string(event.session);
  switch (event.kind) {
    case TraceEventKind::kSessionBatched:
      // A batched rider shares the leader's stream outright; it can only
      // attach while the leader is behind it or level with it.
      if (event.gap_blocks < 0) {
        Flag(event, tag + " batched with a negative gap of " +
                        std::to_string(event.gap_blocks) + " blocks");
      }
      break;
    case TraceEventKind::kSessionPatched: {
      SessionState& session = sessions_[event.session];
      if (session.patched) {
        Flag(event, tag + " patched twice");
      }
      if (event.gap_blocks <= 0) {
        // A zero-gap arrival is a batch, not a patch: a patch stream here
        // would spend disk on blocks the leader delivers for free.
        Flag(event, tag + " opened a patch for a gap of " +
                        std::to_string(event.gap_blocks) + " blocks");
      }
      if (event.runway_blocks <= 0) {
        // Section 3 buffering math: while the patch catches up, the rider
        // banks the leader's deliveries into its runway. A bound of zero
        // means the leader had nothing left to deliver at attach — the
        // arrival should have played solo, not patched.
        Flag(event, tag + " patched with a runway bound of " +
                        std::to_string(event.runway_blocks) + " blocks");
      }
      session.patched = true;
      session.merged = false;
      session.gap_blocks = event.gap_blocks;
      session.runway_bound = event.runway_blocks;
      break;
    }
    case TraceEventKind::kSessionMerged: {
      auto it = sessions_.find(event.session);
      if (it == sessions_.end() || !it->second.patched) {
        Flag(event, tag + " merged without a preceding patch");
        break;
      }
      if (it->second.merged) {
        Flag(event, tag + " merged twice");
      }
      if (event.runway_blocks < 0) {
        // The leader moved backwards relative to the patch: the merge hands
        // the rider a hole the leader will never re-read.
        Flag(event, tag + " merged with a realized runway of " +
                        std::to_string(event.runway_blocks) + " blocks (rider is short " +
                        std::to_string(-event.runway_blocks) + " of the leader's trail)");
      } else if (event.runway_blocks > it->second.runway_bound) {
        // The rider banked more than the Section 3 bound planned for — the
        // buffer claim made at patch time understated the memory the merge
        // actually needed.
        Flag(event, tag + " merged with a realized runway of " +
                        std::to_string(event.runway_blocks) + " blocks, above the bound of " +
                        std::to_string(it->second.runway_bound) + " stamped at patch time");
      }
      it->second.merged = true;
      break;
    }
    default:
      break;
  }
}

void ContinuityAuditor::OnEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kSubmitAccepted:
    case TraceEventKind::kActivated:
    case TraceEventKind::kPause:
    case TraceEventKind::kResume:
    case TraceEventKind::kStop:
    case TraceEventKind::kCompleted:
      HandleLifecycle(event);
      break;
    case TraceEventKind::kSubmitRejected:
    case TraceEventKind::kResumeRejected:
      // No state change; the snapshot must still agree.
      CheckLedger(event);
      break;
    case TraceEventKind::kAdmissionPlan:
    case TraceEventKind::kAdmissionReject: {
      // The candidate must not be pre-counted in the existing set: at plan
      // time it holds no slot (fresh submit, or destructively paused and
      // re-applying). The historic Resume double-count shows up here.
      const int64_t holders = Ledger().Held();
      if (event.existing != holders) {
        Flag(event, "admission saw " + std::to_string(event.existing) +
                        " existing requests but " + std::to_string(holders) +
                        " hold slots (double-count or leaked slot)");
      }
      break;
    }
    case TraceEventKind::kRoundStart:
    case TraceEventKind::kRequestServiced:
    case TraceEventKind::kRoundEnd:
      HandleRound(event);
      break;
    case TraceEventKind::kStrandWrite:
      if (event.gap_bound_sec > 0.0 && event.gap_sec > event.gap_bound_sec + 1e-9) {
        Flag(event, "strand block at sector " + std::to_string(event.sector) +
                        " placed with a " + std::to_string(event.gap_sec) +
                        " s gap, over the " + std::to_string(event.gap_bound_sec) +
                        " s scattering contract");
      }
      break;
    case TraceEventKind::kBlockRetried:
      // The scheduler stamps the event with the budget it pre-checked the
      // retry against and the sim time at which the retry *completed*. A
      // completion past the budget means the pre-check lied.
      if (event.round_budget > 0 && round_open_ &&
          event.time - round_start_time_ > event.round_budget) {
        Flag(event, "retry of a block for request " + std::to_string(event.request) +
                        " completed " + std::to_string(event.time - round_start_time_) +
                        " us into a round budgeted at " + std::to_string(event.round_budget) +
                        " us (retry overran the Eq. 11 slack)");
      }
      break;
    case TraceEventKind::kRecovery:
      // The scheduler was rebuilt from a checkpoint: every in-flight request
      // died with the crash, so the replayed ledger starts empty. Keeping
      // pre-crash entries would flag phantom slots against the fresh
      // scheduler's (correctly empty) snapshots. The incremental ledger
      // counts those entries, so it restarts from zero with them.
      requests_.clear();
      ledger_ = SlotSnapshot{};
      pending_cache_.clear();
      sessions_.clear();
      previous_round_k_ = -1;
      slot_released_ = false;
      round_open_ = false;
      break;
    case TraceEventKind::kRoundPlanned:
      // Coalescing and dedup can only shrink the program: more dispatched
      // operations than blocks needing disk service means the planner
      // fabricated work (and each fabricated op costs a reposition).
      if (event.transfers > event.blocks - event.cache_hits) {
        Flag(event, "round " + std::to_string(event.round) + " planned " +
                        std::to_string(event.transfers) + " transfers for only " +
                        std::to_string(event.blocks - event.cache_hits) +
                        " uncached blocks (planner expanded the round)");
      }
      break;
    case TraceEventKind::kSeekAccounting:
      // The measured-vs-worst-case l_seek ledger: per-op arm travel is
      // bounded by a full stroke, so a round's measured travel above the
      // alpha-model bound means the accounting (or the plan) is wrong.
      if (event.seek_cylinders > event.seek_cylinders_worst) {
        Flag(event, "round " + std::to_string(event.round) + " measured " +
                        std::to_string(event.seek_cylinders) +
                        " seek cylinders, above the worst-case bound of " +
                        std::to_string(event.seek_cylinders_worst) + " for " +
                        std::to_string(event.transfers) + " ops");
      }
      break;
    case TraceEventKind::kCacheAdmit:
      // Emitted before the lifecycle event it qualifies: latch the id so
      // the next kSubmitAccepted (fresh tenant) or destructive-path kResume
      // (re-application) of this request is replayed as a cache tenant.
      pending_cache_.insert(event.request);
      CheckLedger(event);
      break;
    case TraceEventKind::kCacheAdmitRevoked:
      // Lifecycle effects arrive as their own kSubmitAccepted / kPause
      // events; the snapshot attached here must still agree.
      CheckLedger(event);
      break;
    case TraceEventKind::kSessionBatched:
    case TraceEventKind::kSessionPatched:
    case TraceEventKind::kSessionMerged:
      // Session events carry no slot snapshot (batching and merging move no
      // slots); only the merge bookkeeping is checked.
      HandleSession(event);
      break;
    case TraceEventKind::kFailover:
      // The robustness headline's contract: a failed-over viewer's service
      // interruption (`duration`, kill to first replica delivery) must fit
      // the bound the coordinator stamped on the event (`round_budget`).
      // An unbounded interruption is a silent stream death wearing a
      // failover costume.
      if (event.round_budget <= 0) {
        Flag(event, "failover of request " + std::to_string(event.request) +
                        " carries no stamped interruption bound");
      } else if (event.duration > event.round_budget) {
        Flag(event, "failover of request " + std::to_string(event.request) + " took " +
                        std::to_string(event.duration) + " us, over its stamped bound of " +
                        std::to_string(event.round_budget) + " us");
      }
      break;
    case TraceEventKind::kCriticalPath:
      // The analyzer's attribution must partition the measured round: every
      // microsecond the round spent is charged to exactly one stage, so the
      // stage sum equals the kRoundEnd duration (epsilon absorbs integer
      // rounding of the seek split).
      {
        const SimDuration total = event.stages.Total();
        const SimDuration delta = total > event.duration ? total - event.duration
                                                         : event.duration - total;
        if (delta > kStageSumEpsilonUsec) {
          Flag(event, "critical path of round " + std::to_string(event.round) +
                          " attributes " + std::to_string(total) +
                          " us across stages but the round measured " +
                          std::to_string(event.duration) + " us");
        }
        if (event.stages.queue < 0) {
          Flag(event, "critical path of round " + std::to_string(event.round) +
                          " charged a negative queue residual of " +
                          std::to_string(event.stages.queue) + " us (stages over-attributed)");
        }
      }
      break;
    case TraceEventKind::kSpan:
      // Span identity must be well-formed: a closed span always links into
      // a trace, and only the root (the round span) is its own parent-less
      // anchor. Durations are intervals, never negative.
      if (event.span_id == 0 || event.trace_id == 0) {
        Flag(event, "span without identity (span_id=" + std::to_string(event.span_id) +
                        " trace_id=" + std::to_string(event.trace_id) + ")");
      }
      if (event.span_stage != static_cast<int64_t>(SpanStage::kRound) &&
          event.span_stage != static_cast<int64_t>(SpanStage::kRoute) &&
          event.parent_span == 0) {
        Flag(event, "non-root span " + std::to_string(event.span_id) + " has no parent link");
      }
      if (event.duration < 0) {
        Flag(event, "span " + std::to_string(event.span_id) + " closed with a negative " +
                        "duration of " + std::to_string(event.duration) + " us");
      }
      break;
    case TraceEventKind::kBlockSkipped:
    case TraceEventKind::kBlockRelocated:
    case TraceEventKind::kDiskFault:
    case TraceEventKind::kDiskSalvage:
    case TraceEventKind::kDiskRead:
    case TraceEventKind::kDiskWrite:
    case TraceEventKind::kPowerCut:
    case TraceEventKind::kRootFlip:
    case TraceEventKind::kJournalAppend:
    case TraceEventKind::kJournalReplay:
    case TraceEventKind::kFsckFinding:
    case TraceEventKind::kCacheInvalidate:
    case TraceEventKind::kNodeDown:
    case TraceEventKind::kNodeUp:
    case TraceEventKind::kReReplicate:
    case TraceEventKind::kShedLoad:
      break;
  }
}

std::string ContinuityAuditor::Report() const {
  if (violations_.empty()) {
    return "audit clean";
  }
  std::string report = std::to_string(violations_.size()) + " audit violation(s):";
  for (const AuditViolation& violation : violations_) {
    report += "\n  [round " + std::to_string(violation.round) + " t=" +
              std::to_string(violation.time) + "] " + violation.what;
  }
  return report;
}

std::vector<AuditViolation> ContinuityAuditor::Replay(const std::vector<TraceEvent>& events,
                                                      AuditorOptions options) {
  ContinuityAuditor auditor(options);
  for (const TraceEvent& event : events) {
    auditor.OnEvent(event);
  }
  return auditor.violations_;
}

}  // namespace obs
}  // namespace vafs
