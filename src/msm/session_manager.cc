#include "src/msm/session_manager.h"

#include <algorithm>
#include <utility>

#include "src/util/time.h"

namespace vafs {

namespace {

// Most of the leader's recently delivered extents pinned per new rider.
constexpr int64_t kTrailPinLimit = 64;

}  // namespace

SessionManager::SessionManager(ServiceScheduler* scheduler, Simulator* simulator,
                               BlockCache* cache, obs::TraceSink* trace, SessionOptions options)
    : scheduler_(scheduler),
      simulator_(simulator),
      cache_(cache),
      trace_(trace),
      options_(options) {}

void SessionManager::Emit(obs::TraceEventKind kind, const Session& session,
                          int64_t runway) const {
  if (trace_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.kind = kind;
  event.time = simulator_->Now();
  event.session = session.ticket.session;
  event.leader = session.ticket.request;
  event.request = session.ticket.patch_request;
  event.gap_blocks = session.ticket.gap_blocks;
  event.runway_blocks = runway;
  trace_->OnEvent(event);
}

int64_t SessionManager::LeaderBlocksDone(RequestId leader) const {
  Result<RequestStats> stats = scheduler_->stats(leader);
  return stats.ok() ? stats->blocks_done : 0;
}

void SessionManager::PinLeaderTrail(const Group& group, int64_t leader_pos, int64_t rider_start,
                                    Session* session) {
  if (cache_ == nullptr || !cache_->enabled()) {
    return;
  }
  // The rider missed the leader's deliveries between its own start and the
  // leader's position; keep the most recent of them resident until the
  // rider (or its patch) consumes them. Indices translate to the leader's
  // block space (its playback may itself start mid-title).
  const int64_t gap = leader_pos - group.leader_start;
  const int64_t first = std::max({int64_t{0}, rider_start - group.leader_start,
                                  gap - kTrailPinLimit});
  for (int64_t i = first; i < gap && i < static_cast<int64_t>(group.blocks.size()); ++i) {
    const PrimaryEntry& entry = group.blocks[static_cast<size_t>(i)];
    if (entry.IsSilence()) {
      continue;
    }
    if (cache_->Pin(entry.sector, entry.sector_count)) {
      session->pinned.emplace_back(entry.sector, entry.sector_count);
    }
  }
}

void SessionManager::UnpinTrail(Session* session) {
  if (cache_ != nullptr) {
    for (const auto& [sector, sectors] : session->pinned) {
      cache_->Unpin(sector, sectors);
    }
  }
  session->pinned.clear();
}

Result<SessionTicket> SessionManager::Open(uint64_t title, PlaybackRequest solo,
                                           int64_t start_block) {
  const int64_t total = static_cast<int64_t>(solo.blocks.size());
  Group* group = nullptr;
  if (auto live = live_group_.find(title); live != live_group_.end()) {
    auto it = groups_.find(live->second);
    if (it != groups_.end() && !it->second.closed) {
      group = &it->second;
    }
  }
  if (group != nullptr) {
    // Everything in absolute title-block space: the leader's playback may
    // itself start mid-title (a failed-over viewer turned leader).
    const int64_t leader_pos = group->leader_start + LeaderBlocksDone(group->leader);
    const int64_t leader_end = group->leader_start + group->leader_total;
    const int64_t gap = leader_pos - start_block;  // rider's distance behind
    const int64_t remaining = leader_end - leader_pos;
    const bool in_window =
        simulator_->Now() - group->opened <= SecondsToUsec(options_.batch_window_sec);
    // Riding only makes sense while the leader is at or past the rider's
    // start and still has the rider's whole remainder ahead of it.
    if (remaining > 0 && gap >= 0 && total > gap && start_block + total <= leader_end) {
      if (in_window || gap == 0) {
        Session session;
        session.ticket.session = next_session_++;
        session.ticket.mode = SessionTicket::Mode::kBatched;
        session.ticket.title = title;
        session.ticket.request = group->leader;
        session.ticket.gap_blocks = gap;
        session.ticket.start_block = start_block;
        PinLeaderTrail(*group, leader_pos, start_block, &session);
        Emit(obs::TraceEventKind::kSessionBatched, session,
             static_cast<int64_t>(session.pinned.size()));
        group->sessions.push_back(session.ticket.session);
        ++census_.viewers;
        ++census_.batched;
        const SessionTicket ticket = session.ticket;
        sessions_.emplace(ticket.session, std::move(session));
        return ticket;
      }
      if (options_.max_patch_blocks > 0 && gap <= options_.max_patch_blocks) {
        // Catch-up patch: a regular short-lived stream over the missed
        // prefix, admission-checked like any other (Eq. 17 tenant).
        PlaybackRequest patch = solo;
        patch.blocks.resize(static_cast<size_t>(gap));
        patch.read_ahead_blocks = 1;  // start immediately; the gap is the runway
        Result<RequestId> patch_id = scheduler_->SubmitPlayback(std::move(patch));
        if (patch_id.ok()) {
          // Section 3 buffering bound on the rider's banked runway: the
          // leader cannot hand it more than it has left, and an explicit
          // margin (when configured) claims gap + margin instead.
          int64_t bound = remaining;
          if (options_.runway_margin_blocks > 0) {
            bound = std::min(bound, gap + options_.runway_margin_blocks);
          }
          Session session;
          session.ticket.session = next_session_++;
          session.ticket.mode = SessionTicket::Mode::kPatched;
          session.ticket.title = title;
          session.ticket.request = group->leader;
          session.ticket.patch_request = *patch_id;
          session.ticket.gap_blocks = gap;
          session.ticket.runway_bound = bound;
          session.ticket.start_block = start_block;
          // The catch-up stream's transfers charge the round ledger's
          // merge_patch stage, so critical-path verdicts can name a round
          // as patch-bound.
          scheduler_->set_merge_patch(*patch_id, true);
          PinLeaderTrail(*group, leader_pos, start_block, &session);
          Emit(obs::TraceEventKind::kSessionPatched, session, bound);
          group->sessions.push_back(session.ticket.session);
          patch_index_[*patch_id] = session.ticket.session;
          ++census_.viewers;
          ++census_.patched;
          const SessionTicket ticket = session.ticket;
          sessions_.emplace(ticket.session, std::move(session));
          return ticket;
        }
        // Patch rejected (no slot for even the short stream): fall through
        // and try a full solo stream — it may still be admissible later in
        // the rotation, and a leader admits future riders.
      }
    }
  }
  std::vector<PrimaryEntry> blocks = solo.blocks;  // survives the submit
  Result<RequestId> leader_id = scheduler_->SubmitPlayback(std::move(solo));
  if (!leader_id.ok()) {
    return leader_id.status();
  }
  Group fresh;
  fresh.title = title;
  fresh.leader = *leader_id;
  fresh.opened = simulator_->Now();
  fresh.leader_start = start_block;
  fresh.leader_total = total;
  fresh.blocks = std::move(blocks);
  Session session;
  session.ticket.session = next_session_++;
  session.ticket.mode = SessionTicket::Mode::kLeader;
  session.ticket.title = title;
  session.ticket.request = *leader_id;
  session.ticket.start_block = start_block;
  fresh.sessions.push_back(session.ticket.session);
  groups_[*leader_id] = std::move(fresh);
  live_group_[title] = *leader_id;
  ++census_.viewers;
  ++census_.leaders;
  const SessionTicket ticket = session.ticket;
  sessions_.emplace(ticket.session, std::move(session));
  return ticket;
}

void SessionManager::MarkDegraded(Session* session) {
  // Exactly-once accounting: a rider can lose its leader and its patch in
  // the same round (one CollapsedCacheAdmissions pass revokes both), and
  // each path lands here.
  if (!session->degraded) {
    session->degraded = true;
    ++census_.degraded;
  }
}

bool SessionManager::PatchStillRunning(const Session& session) const {
  if (session.ticket.patch_request == 0) {
    return false;
  }
  Result<RequestStats> stats = scheduler_->stats(session.ticket.patch_request);
  if (!stats.ok() || stats->completed) {
    return false;
  }
  // A paused patch only counts as alive while a deferred resume is still
  // in flight for it.
  return !stats->paused || session.resume_pending;
}

void SessionManager::CloseGroup(Group* group, bool completed) {
  if (group->closed) {
    return;
  }
  group->closed = true;
  for (uint64_t id : group->sessions) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      continue;
    }
    Session& session = it->second;
    if (session.ticket.mode == SessionTicket::Mode::kPatched && !session.merged) {
      // Deliveries after attach the rider still needed: from its attach
      // position (start + gap, absolute) to the leader's end.
      const int64_t tail = group->leader_start + group->leader_total -
                           session.ticket.start_block - session.ticket.gap_blocks;
      if (completed && !session.degraded && session.ticket.runway_bound >= tail) {
        // The leader delivered the whole title and the rider's runway holds
        // its entire tail; only the catch-up patch is still running. Leave
        // the session open — it merges (or degrades) when the patch ends.
        continue;
      }
      // The leader died under the patch (stop, destructive pause, or a
      // cache-admission revocation) or its remaining deliveries overflowed
      // a capped runway: the shared tail is gone. The rider degrades to a
      // solo stream — its patch keeps delivering the prefix standalone —
      // and the trail pins are released exactly once (UnpinTrail clears the
      // ledger, so the later patch-termination path cannot release them a
      // second time).
      MarkDegraded(&session);
      UnpinTrail(&session);
      if (PatchStillRunning(session)) {
        // The session finishes when its solo patch completes or dies.
        continue;
      }
    }
    UnpinTrail(&session);
    session.finished = true;
    if (session.ticket.patch_request != 0) {
      patch_index_.erase(session.ticket.patch_request);
    }
  }
  if (auto live = live_group_.find(group->title);
      live != live_group_.end() && live->second == group->leader) {
    live_group_.erase(live);
  }
}

void SessionManager::HandlePatchGone(Session* session, bool try_resume) {
  if (session->merged || session->finished) {
    return;
  }
  if (try_resume && !session->resume_pending) {
    // One deferred re-application: the pause may be transient (the slot
    // freed again by the time the next event runs). Scheduled instead of
    // called inline — the scheduler is still inside the pause. A
    // session already degraded by its leader's revocation still gets the
    // attempt: degrading to solo means the patch stream should keep
    // delivering if admission allows.
    session->resume_pending = true;
    const RequestId patch = session->ticket.patch_request;
    const uint64_t id = session->ticket.session;
    simulator_->ScheduleAfter(0, [this, patch, id]() {
      auto it = sessions_.find(id);
      if (it == sessions_.end() || it->second.merged || it->second.finished) {
        return;
      }
      it->second.resume_pending = false;
      if (!scheduler_->Resume(patch).ok()) {
        // Resume exhausted: the rider is done for.
        MarkDegraded(&it->second);
        UnpinTrail(&it->second);
        it->second.finished = true;
        patch_index_.erase(patch);
      }
    });
    return;
  }
  MarkDegraded(session);
  UnpinTrail(session);
  session->finished = true;
  patch_index_.erase(session->ticket.patch_request);
}

void SessionManager::OnLifecycle(RequestId id, Lifecycle transition) {
  switch (transition) {
    case Lifecycle::kCompleted: {
      if (auto pit = patch_index_.find(id); pit != patch_index_.end()) {
        Session& session = sessions_.at(pit->second);
        if (!session.merged && !session.degraded) {
          // The patch closed its gap: the rider now follows the leader,
          // holding the leader's deliveries it banked while catching up.
          session.merged = true;
          ++census_.merged;
          UnpinTrail(&session);
          // Realized runway: leader deliveries since the rider attached,
          // in absolute title-block space.
          int64_t leader_start = 0;
          if (auto git = groups_.find(session.ticket.request); git != groups_.end()) {
            leader_start = git->second.leader_start;
          }
          const int64_t realized =
              std::max<int64_t>(0, leader_start + LeaderBlocksDone(session.ticket.request) -
                                       session.ticket.start_block - session.ticket.gap_blocks);
          Emit(obs::TraceEventKind::kSessionMerged, session, realized);
          if (auto git = groups_.find(session.ticket.request);
              git != groups_.end() && git->second.closed) {
            // Merged after the leader already completed: the rider plays
            // out of its banked runway, nothing left to observe.
            session.finished = true;
          }
        } else if (session.degraded && !session.finished) {
          // Degraded-to-solo rider: its patch delivered the prefix it could;
          // the session ends with it (pins were already released when the
          // leader went down — UnpinTrail cleared the ledger, so this is a
          // no-op, never a second release).
          UnpinTrail(&session);
          session.finished = true;
        }
        // The patch stream is terminal either way; stop indexing it so a
        // late stop or pause of a recycled id cannot touch this session.
        patch_index_.erase(pit);
        break;
      }
      if (auto git = groups_.find(id); git != groups_.end()) {
        CloseGroup(&git->second, /*completed=*/true);
      }
      break;
    }
    case Lifecycle::kStopped:
    case Lifecycle::kPausedDestructive: {
      if (auto pit = patch_index_.find(id); pit != patch_index_.end()) {
        // A destructively paused patch gets one deferred resume; a stopped
        // one is gone for good.
        HandlePatchGone(&sessions_.at(pit->second),
                        /*try_resume=*/transition == Lifecycle::kPausedDestructive);
        break;
      }
      if (auto git = groups_.find(id); git != groups_.end()) {
        CloseGroup(&git->second, /*completed=*/false);
      }
      break;
    }
    case Lifecycle::kResumed:
      if (auto pit = patch_index_.find(id); pit != patch_index_.end()) {
        sessions_.at(pit->second).resume_pending = false;  // re-applied; re-arm
      }
      break;
  }
}

void SessionManager::Rebind(ServiceScheduler* scheduler) {
  scheduler_ = scheduler;
  groups_.clear();
  live_group_.clear();
  sessions_.clear();
  patch_index_.clear();
}

int64_t SessionManager::LiveViewers() const {
  int64_t live = 0;
  for (const auto& [id, session] : sessions_) {
    if (!session.finished && !session.degraded) {
      ++live;
    }
  }
  return live;
}

}  // namespace vafs
