// Stream-merging session layer: batching, patching and piggybacking.
//
// The paper's admission math (Eq. 17) charges every viewer a full disk
// stream, but video-on-demand audiences are not independent: a popular
// title draws many viewers close together in time. The session layer sits
// above the ServiceScheduler and turns that correlation into admitted
// viewers that cost no extra disk:
//
//  - BATCHING: viewers of one title arriving inside a configurable window
//    of its leader attach as riders on the leader's physical stream. A
//    rider consumes the same block deliveries; it holds no request, no
//    Eq. 17 slot, and no disk time. The leader's recent trail of extents
//    is pinned in the shared block cache so a rider a few blocks behind
//    still finds its opening blocks in memory.
//  - PATCHING: a viewer arriving after the window but within
//    max_patch_blocks of the leader opens a short catch-up stream that
//    reads only the gap [0, gap) — a regular, admission-checked, short-
//    lived Eq. 17 tenant. While it catches up, the rider banks the
//    leader's ongoing deliveries in its buffer runway (the Section 3
//    buffering math bounds that runway by min(gap + margin, blocks the
//    leader has left)); when the patch completes, the rider merges onto
//    the leader and the patch's slot is released.
//  - PIGGYBACKING of near-adjacent playback points needs no code here: the
//    round planner already dedups blocks shared by concurrent streams of
//    one strand within a round.
//
// The manager learns about stream progress from the scheduler itself, as
// its LifecycleListener (completed, stopped, destructively paused,
// resumed), so sessions behave the same with telemetry on or off. It
// emits its own kSessionBatched / kSessionPatched / kSessionMerged events
// into the trace stream it is given, where the ContinuityAuditor checks
// the merge bookkeeping and the SloTracker aggregates per-session state.

#ifndef VAFS_SRC_MSM_SESSION_MANAGER_H_
#define VAFS_SRC_MSM_SESSION_MANAGER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/msm/block_cache.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/result.h"

namespace vafs {

struct SessionOptions {
  bool enabled = false;
  // Arrivals within this window of a title's leader share its stream
  // outright (their missed trail is pinned in the cache).
  double batch_window_sec = 2.0;
  // Largest leader lead (in blocks) a catch-up patch may bridge; 0
  // disables patching (arrivals past the window start their own stream).
  int64_t max_patch_blocks = 0;
  // Slop added to the gap in the Section 3 runway bound, covering the
  // patch's startup rounds during which the leader keeps delivering.
  int64_t runway_margin_blocks = 4;
};

// One viewer's admission through the session layer.
struct SessionTicket {
  enum class Mode {
    kLeader,   // owns the physical stream others may ride
    kBatched,  // rides the leader's stream from attach
    kPatched,  // catching up on a short patch stream
  };
  uint64_t session = 0;
  Mode mode = Mode::kLeader;
  uint64_t title = 0;
  RequestId request = 0;        // the physical stream this viewer consumes
  RequestId patch_request = 0;  // kPatched: the catch-up stream
  int64_t gap_blocks = 0;       // distance behind the leader at attach
  int64_t runway_bound = 0;     // kPatched: Section 3 buffer bound
  // First title block this viewer plays (0 = from the top). Mid-title
  // viewers exist on failover: a resumed viewer re-opens at its progress
  // point on a replica node and may batch or patch against other viewers
  // of the same title there.
  int64_t start_block = 0;
};

// Lifetime totals, for benches and vafs_top.
struct SessionCensus {
  int64_t viewers = 0;   // OpenSession calls that produced a ticket
  int64_t leaders = 0;   // sessions that opened a physical stream
  int64_t batched = 0;   // sessions riding a leader from attach
  int64_t patched = 0;   // sessions that opened a catch-up patch
  int64_t merged = 0;    // patches that closed their gap
  int64_t degraded = 0;  // patches lost to a pause/stop before merging
};

class SessionManager : public ServiceScheduler::LifecycleListener {
 public:
  // All pointers must outlive the manager. `trace` receives the session
  // events and may be null; `cache` may be null (trail pinning disabled).
  // The owner registers the manager as `scheduler`'s lifecycle listener.
  SessionManager(ServiceScheduler* scheduler, Simulator* simulator, BlockCache* cache,
                 obs::TraceSink* trace, SessionOptions options);

  // Admits one viewer of `title`. `solo` is the fully resolved playback
  // the viewer would run alone; the manager either submits it (leader),
  // attaches to a live leader (batched), or submits a truncated catch-up
  // patch (patched). Admission failures of a leader propagate; a rejected
  // patch falls back to a solo leader stream. `start_block` is the title
  // block `solo` begins at (non-zero for mid-title viewers, e.g. failover
  // resumption); batching and patching translate between the viewer's and
  // the leader's block spaces through it.
  Result<SessionTicket> Open(uint64_t title, PlaybackRequest solo, int64_t start_block = 0);

  // Progress observation: merges patches, closes groups, re-applies a
  // destructively paused patch once.
  void OnLifecycle(RequestId id, Lifecycle transition) override;

  // Re-targets the manager at a rebuilt scheduler (crash recovery) and
  // drops all session state: every leader and patch died with the crash,
  // and the cache was invalidated wholesale, so no pins survive to release.
  // The owner registers the manager with the new scheduler.
  void Rebind(ServiceScheduler* scheduler);

  // Viewers currently live: their consuming stream has not completed.
  int64_t LiveViewers() const;
  const SessionCensus& census() const { return census_; }
  const SessionOptions& options() const { return options_; }

 private:
  // One physical stream and the viewers riding it.
  struct Group {
    uint64_t title = 0;
    RequestId leader = 0;
    SimTime opened = 0;
    int64_t leader_start = 0;  // title block the leader's playback begins at
    int64_t leader_total = 0;
    bool closed = false;  // leader completed or stopped
    std::vector<PrimaryEntry> blocks;  // leader's playback, for trail pins
    std::vector<uint64_t> sessions;    // every session in the group
  };
  struct Session {
    SessionTicket ticket;
    bool merged = false;
    bool degraded = false;
    bool finished = false;
    bool resume_pending = false;  // one deferred re-apply per patch
    std::vector<std::pair<int64_t, int64_t>> pinned;  // leader-trail pins
  };

  void Emit(obs::TraceEventKind kind, const Session& session, int64_t runway) const;
  // Pins the leader's recent deliveries the rider missed, so they survive
  // eviction until the rider consumes them: leader-space blocks
  // [max(rider_start, pos - 64), pos), where `pos` and `rider_start` are
  // absolute title-block positions.
  void PinLeaderTrail(const Group& group, int64_t leader_pos, int64_t rider_start,
                      Session* session);
  void UnpinTrail(Session* session);
  int64_t LeaderBlocksDone(RequestId leader) const;
  // `completed`: the leader finished the title (riders got everything) as
  // opposed to dying under a stop or destructive pause. A still-open patch
  // whose runway holds the leader's whole tail survives a completion.
  void CloseGroup(Group* group, bool completed);
  void HandlePatchGone(Session* session, bool try_resume);
  // Exactly-once degraded accounting: a rider can lose its leader and its
  // patch in the same round, and both paths mark it degraded.
  void MarkDegraded(Session* session);
  // True while the session's patch stream can still deliver blocks (running,
  // or paused with a deferred resume in flight).
  bool PatchStillRunning(const Session& session) const;

  ServiceScheduler* scheduler_;
  Simulator* simulator_;
  BlockCache* cache_;
  obs::TraceSink* trace_;
  SessionOptions options_;
  SessionCensus census_;
  uint64_t next_session_ = 1;
  std::map<uint64_t, Group> groups_;          // by leader request id
  std::map<uint64_t, uint64_t> live_group_;   // title -> leader request id
  std::map<uint64_t, Session> sessions_;      // by session id
  std::map<uint64_t, uint64_t> patch_index_;  // patch request id -> session id
};

}  // namespace vafs

#endif  // VAFS_SRC_MSM_SESSION_MANAGER_H_
