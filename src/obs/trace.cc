#include "src/obs/trace.h"

#include <algorithm>
#include <cstddef>

namespace vafs {
namespace obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSubmitAccepted:
      return "submit_accepted";
    case TraceEventKind::kSubmitRejected:
      return "submit_rejected";
    case TraceEventKind::kActivated:
      return "activated";
    case TraceEventKind::kPause:
      return "pause";
    case TraceEventKind::kResume:
      return "resume";
    case TraceEventKind::kResumeRejected:
      return "resume_rejected";
    case TraceEventKind::kStop:
      return "stop";
    case TraceEventKind::kCompleted:
      return "completed";
    case TraceEventKind::kAdmissionPlan:
      return "admission_plan";
    case TraceEventKind::kAdmissionReject:
      return "admission_reject";
    case TraceEventKind::kRoundStart:
      return "round_start";
    case TraceEventKind::kRequestServiced:
      return "request_serviced";
    case TraceEventKind::kRoundEnd:
      return "round_end";
    case TraceEventKind::kBlockRetried:
      return "block_retried";
    case TraceEventKind::kBlockSkipped:
      return "block_skipped";
    case TraceEventKind::kBlockRelocated:
      return "block_relocated";
    case TraceEventKind::kDiskRead:
      return "disk_read";
    case TraceEventKind::kDiskWrite:
      return "disk_write";
    case TraceEventKind::kDiskFault:
      return "disk_fault";
    case TraceEventKind::kDiskSalvage:
      return "disk_salvage";
    case TraceEventKind::kPowerCut:
      return "power_cut";
    case TraceEventKind::kStrandWrite:
      return "strand_write";
    case TraceEventKind::kRootFlip:
      return "root_flip";
    case TraceEventKind::kJournalAppend:
      return "journal_append";
    case TraceEventKind::kJournalReplay:
      return "journal_replay";
    case TraceEventKind::kFsckFinding:
      return "fsck_finding";
    case TraceEventKind::kRecovery:
      return "recovery";
    case TraceEventKind::kRoundPlanned:
      return "round_planned";
    case TraceEventKind::kSeekAccounting:
      return "seek_accounting";
    case TraceEventKind::kCacheAdmit:
      return "cache_admit";
    case TraceEventKind::kCacheAdmitRevoked:
      return "cache_admit_revoked";
    case TraceEventKind::kCacheInvalidate:
      return "cache_invalidate";
    case TraceEventKind::kSessionBatched:
      return "session_batched";
    case TraceEventKind::kSessionPatched:
      return "session_patched";
    case TraceEventKind::kSessionMerged:
      return "session_merged";
    case TraceEventKind::kNodeDown:
      return "node_down";
    case TraceEventKind::kNodeUp:
      return "node_up";
    case TraceEventKind::kFailover:
      return "failover";
    case TraceEventKind::kReReplicate:
      return "re_replicate";
    case TraceEventKind::kShedLoad:
      return "shed_load";
    case TraceEventKind::kSpan:
      return "span";
    case TraceEventKind::kCriticalPath:
      return "critical_path";
  }
  return "unknown";
}

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kRound:
      return "round";
    case SpanStage::kQueue:
      return "queue";
    case SpanStage::kSeek:
      return "seek";
    case SpanStage::kTransfer:
      return "transfer";
    case SpanStage::kRetry:
      return "retry";
    case SpanStage::kCache:
      return "cache";
    case SpanStage::kMergePatch:
      return "merge_patch";
    case SpanStage::kAppend:
      return "append";
    case SpanStage::kWave:
      return "wave";
    case SpanStage::kPlan:
      return "plan";
    case SpanStage::kRoute:
      return "route";
    case SpanStage::kSession:
      return "session";
  }
  return "?";
}

std::string TraceEventSummary(const TraceEvent& event) {
  std::string line = "t=" + std::to_string(event.time) + " round=" + std::to_string(event.round) +
                     " " + TraceEventKindName(event.kind);
  if (event.request != 0) {
    line += " req=" + std::to_string(event.request);
  }
  if (event.k != 0) {
    line += " k=" + std::to_string(event.k);
  }
  if (event.blocks != 0) {
    line += " blocks=" + std::to_string(event.blocks);
  }
  if (event.sector != 0) {
    line += " sector=" + std::to_string(event.sector);
  }
  if (event.seek_cylinders != 0) {
    line += " seek=" + std::to_string(event.seek_cylinders) + "cyl";
  }
  if (event.transfers != 0) {
    line += " transfers=" + std::to_string(event.transfers);
  }
  if (event.coalesced_blocks != 0) {
    line += " coalesced=" + std::to_string(event.coalesced_blocks);
  }
  if (event.cache_lookups != 0) {
    line += " cache=" + std::to_string(event.cache_hits) + "/" +
            std::to_string(event.cache_lookups);
  }
  if (event.seek_cylinders_worst != 0) {
    line += " seek_worst=" + std::to_string(event.seek_cylinders_worst) + "cyl";
  }
  if (event.duration != 0) {
    line += " dur=" + std::to_string(event.duration) + "us";
  }
  if (event.round_budget != 0) {
    line += " budget=" + std::to_string(event.round_budget) + "us";
  }
  if (event.destructive) {
    line += " destructive";
  }
  if (event.session != 0) {
    line += " session=" + std::to_string(event.session);
    if (event.leader != 0) {
      line += " leader=" + std::to_string(event.leader);
    }
    line += " gap=" + std::to_string(event.gap_blocks) +
            " runway=" + std::to_string(event.runway_blocks);
  }
  if (event.node >= 0) {
    line += " node=" + std::to_string(event.node);
  }
  if (event.span_id != 0) {
    line += " span=" + std::to_string(event.span_id) + "<" + std::to_string(event.parent_span) +
            " trace=" + std::to_string(event.trace_id);
    if (event.span_stage >= 0) {
      line += " stage=";
      line += SpanStageName(static_cast<SpanStage>(event.span_stage));
    }
    if (event.span_seek != 0) {
      line += " span_seek=" + std::to_string(event.span_seek) + "us";
    }
    if (event.member >= 0) {
      line += " member=" + std::to_string(event.member);
    }
  }
  if (event.kind == TraceEventKind::kCriticalPath || event.stages != StageBreakdown{}) {
    line += " stages[q=" + std::to_string(event.stages.queue) +
            " s=" + std::to_string(event.stages.seek) +
            " x=" + std::to_string(event.stages.transfer) +
            " r=" + std::to_string(event.stages.retry) +
            " c=" + std::to_string(event.stages.cache) +
            " m=" + std::to_string(event.stages.merge_patch) +
            " a=" + std::to_string(event.stages.append) + "]";
    if (event.anomalous) {
      line += " ANOMALOUS";
    }
  }
  if (!event.detail.empty()) {
    line += " [" + event.detail + "]";
  }
  return line;
}

void MetricsSink::OnEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kSubmitAccepted:
      submits_accepted_->Increment();
      break;
    case TraceEventKind::kSubmitRejected:
      submits_rejected_->Increment();
      break;
    case TraceEventKind::kActivated:
      activations_->Increment();
      break;
    case TraceEventKind::kPause:
      (event.destructive ? pauses_destructive_ : pauses_nondestructive_)->Increment();
      break;
    case TraceEventKind::kResume:
      resumes_->Increment();
      break;
    case TraceEventKind::kResumeRejected:
      resumes_rejected_->Increment();
      break;
    case TraceEventKind::kStop:
      stops_->Increment();
      break;
    case TraceEventKind::kCompleted:
      completions_->Increment();
      break;
    case TraceEventKind::kAdmissionPlan:
      plans_accepted_->Increment();
      transition_steps_->Record(
          static_cast<double>(event.target_k - event.k > 0 ? event.target_k - event.k : 0));
      break;
    case TraceEventKind::kAdmissionReject:
      rejections_->Increment();
      break;
    case TraceEventKind::kRoundStart:
      break;
    case TraceEventKind::kRequestServiced:
      blocks_serviced_->Increment(event.blocks);
      if (event.duration > 0) {
        request_service_usec_->Record(static_cast<double>(event.duration));
      }
      break;
    case TraceEventKind::kRoundEnd:
      rounds_->Increment();
      round_duration_usec_->Record(static_cast<double>(event.duration));
      round_blocks_->Record(static_cast<double>(event.blocks));
      current_k_->Set(static_cast<double>(event.k));
      slots_active_->Set(static_cast<double>(event.slots.active));
      slots_pending_->Set(static_cast<double>(event.slots.pending));
      slots_paused_nondestructive_->Set(static_cast<double>(event.slots.paused_nondestructive));
      slots_paused_destructive_->Set(static_cast<double>(event.slots.paused_destructive));
      slots_cache_tenants_->Set(static_cast<double>(event.slots.cache_tenants));
      slots_held_->Set(static_cast<double>(event.slots.Held()));
      break;
    case TraceEventKind::kBlockRetried:
      block_retries_->Increment();
      retry_service_usec_->Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kBlockSkipped:
      blocks_skipped_->Increment();
      break;
    case TraceEventKind::kBlockRelocated:
      blocks_relocated_->Increment(event.blocks);
      break;
    case TraceEventKind::kDiskRead:
      disk_reads_->Increment();
      sectors_read_->Increment(event.blocks);
      read_service_usec_->Record(static_cast<double>(event.duration));
      seek_cylinders_->Record(static_cast<double>(event.seek_cylinders));
      break;
    case TraceEventKind::kDiskWrite:
      disk_writes_->Increment();
      sectors_written_->Increment(event.blocks);
      write_service_usec_->Record(static_cast<double>(event.duration));
      seek_cylinders_->Record(static_cast<double>(event.seek_cylinders));
      break;
    case TraceEventKind::kDiskFault:
      disk_faults_->Increment();
      registry_->counter("disk.faults." + event.detail).Increment();
      fault_service_usec_->Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kDiskSalvage:
      salvage_reads_->Increment();
      salvage_service_usec_->Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kPowerCut:
      power_cuts_->Increment();
      ++power_cuts_pending_;
      break;
    case TraceEventKind::kStrandWrite:
      strand_blocks_written_->Increment();
      if (event.gap_sec >= 0.0) {
        strand_gap_ms_->Record(event.gap_sec * 1e3);
      }
      break;
    case TraceEventKind::kRootFlip:
      root_flips_->Increment();
      generation_->Set(static_cast<double>(event.round));
      break;
    case TraceEventKind::kJournalAppend:
      journal_appends_->Increment();
      break;
    case TraceEventKind::kJournalReplay:
      journal_replays_->Increment();
      break;
    case TraceEventKind::kFsckFinding:
      fsck_findings_->Increment();
      registry_->counter("fsck.findings." + event.detail).Increment();
      break;
    case TraceEventKind::kRecovery:
      recoveries_->Increment();
      if (power_cuts_pending_ > 0) {
        // Every cut since the previous recovery is its own crash point; a
        // recovery that had to ride out two back-to-back cuts survived two.
        crash_points_survived_->Increment(power_cuts_pending_);
        power_cuts_pending_ = 0;
      }
      break;
    case TraceEventKind::kRoundPlanned:
      plan_rounds_->Increment();
      read_transfers_->Increment(event.transfers);
      data_blocks_->Increment(event.blocks);
      coalesced_blocks_->Increment(event.coalesced_blocks);
      deduped_blocks_->Increment(event.deduped_blocks);
      transfers_per_round_->Record(static_cast<double>(event.transfers));
      if (event.cache_lookups > 0) {
        cache_lookups_->Increment(event.cache_lookups);
        cache_hits_->Increment(event.cache_hits);
      }
      cache_resident_bytes_->Set(static_cast<double>(event.cache_resident_bytes));
      cache_pinned_entries_->Set(static_cast<double>(event.cache_pinned_entries));
      cache_evictions_->Set(static_cast<double>(event.cache_evictions));
      cache_hit_rate_recent_->Set(event.cache_hit_rate);
      pool_outstanding_->Set(static_cast<double>(event.pool_outstanding));
      pool_recycled_->Set(static_cast<double>(event.pool_recycled));
      break;
    case TraceEventKind::kSeekAccounting:
      seek_cylinders_measured_->Record(static_cast<double>(event.seek_cylinders));
      seek_cylinders_worst_->Record(static_cast<double>(event.seek_cylinders_worst));
      if (event.seek_cylinders_worst > event.seek_cylinders) {
        seek_cylinders_saved_->Increment(event.seek_cylinders_worst - event.seek_cylinders);
      }
      break;
    case TraceEventKind::kCacheAdmit:
      cache_admits_->Increment();
      break;
    case TraceEventKind::kCacheAdmitRevoked:
      cache_admit_revocations_->Increment();
      break;
    case TraceEventKind::kCacheInvalidate:
      cache_invalidations_->Increment();
      cache_invalidated_entries_->Increment(event.blocks);
      break;
    case TraceEventKind::kSessionBatched:
      sessions_batched_->Increment();
      break;
    case TraceEventKind::kSessionPatched:
      sessions_patched_->Increment();
      patch_gap_blocks_->Record(static_cast<double>(event.gap_blocks));
      break;
    case TraceEventKind::kSessionMerged:
      sessions_merged_->Increment();
      merge_runway_blocks_->Record(static_cast<double>(event.runway_blocks));
      break;
    case TraceEventKind::kNodeDown:
      nodes_down_->Increment();
      break;
    case TraceEventKind::kNodeUp:
      nodes_up_->Increment();
      break;
    case TraceEventKind::kFailover:
      failovers_->Increment();
      failover_interruption_usec_->Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kReReplicate:
      re_replications_->Increment();
      repair_blocks_->Increment(event.blocks);
      break;
    case TraceEventKind::kShedLoad:
      viewers_shed_->Increment();
      break;
    case TraceEventKind::kSpan:
      // Spans are structural (the analyzer consumes them); only the volume
      // is worth a counter here.
      spans_emitted_->Increment();
      break;
    case TraceEventKind::kCriticalPath:
      critical_path_rounds_->Increment();
      if (event.anomalous) {
        critical_path_anomalies_->Increment();
      }
      if (event.span_stage >= 0) {
        const size_t slot = std::min(static_cast<size_t>(event.span_stage), kSpanStageCount);
        Counter*& dominant = dominant_[slot];
        if (dominant == nullptr) {
          dominant = &registry_->counter(std::string("critical_path.dominant.") +
                                         SpanStageName(static_cast<SpanStage>(event.span_stage)));
        }
        dominant->Increment();
      }
      queue_usec_->Record(static_cast<double>(event.stages.queue));
      seek_usec_->Record(static_cast<double>(event.stages.seek));
      transfer_usec_->Record(static_cast<double>(event.stages.transfer));
      if (event.stages.retry > 0) {
        retry_usec_->Record(static_cast<double>(event.stages.retry));
      }
      if (event.stages.merge_patch > 0) {
        merge_patch_usec_->Record(static_cast<double>(event.stages.merge_patch));
      }
      if (event.stages.append > 0) {
        append_usec_->Record(static_cast<double>(event.stages.append));
      }
      break;
  }
}

}  // namespace obs
}  // namespace vafs
