// Continuity auditor: checks the paper's service invariants against the
// scheduler's round trace, after every round.
//
// The auditor replays the trace through its own model of the admission-slot
// lifecycle (submitted -> pending -> active -> paused-destructive /
// paused-non-destructive -> completed) and flags any round where the
// scheduler's behaviour departs from the Section 3.4 guarantees:
//
//  - Eq. 11: a saturated round's service time must not outlast the playback
//    of the blocks it fetched, round_time <= min_i(k_i * d_i). Checked only
//    on rounds where every serviced request moved its full k blocks — the
//    steady-state regime the equation governs (short rounds are slack by
//    construction: a request that fetched less had buffered runway).
//  - k-transition stepping: under stepped transitions k may rise by at most
//    one per round (Eq. 18's glitch-free argument), and may shrink only
//    after a slot release (stop, completion, or destructive pause).
//  - Slot accounting: the ledger snapshot the scheduler attaches to each
//    event must equal the auditor's independently replayed ledger, and every
//    admission decision must see exactly the slot-holder set — a resuming
//    request counted both as "existing" and as the candidate (the classic
//    double-count) shows up here as an off-by-one.
//  - Strand placement: every recorded block's realized gap must honour the
//    strand's max-scattering contract.
//  - Retry budget: a faulted block may only be re-read while the round still
//    fits its Eq. 11 budget; a retry completing past the budget it was
//    checked against would have eaten the continuity slack of every other
//    stream in the round.
//  - Cache tenancy: a cache-admitted stream never holds an Eq. 17 slot, so
//    its revocation or departure must not justify a k-shrink, and the
//    ledger's cache_tenants column must replay exactly.
//  - Stream merging: a patch needs a positive gap and a positive Section 3
//    runway bound; a merge needs a preceding patch and a realized runway
//    within the bound stamped at patch time.
//
// It can run online (as the scheduler's TraceSink) or replay a recorded
// TraceLog after the fact. In strict mode, tests assert Clean().

#ifndef VAFS_SRC_OBS_AUDITOR_H_
#define VAFS_SRC_OBS_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/time.h"

namespace vafs {
namespace obs {

struct AuditViolation {
  int64_t round = 0;
  SimTime time = 0;
  std::string what;
};

struct AuditorOptions {
  // Mirrors SchedulerOptions::stepped_transitions: when false (the naive
  // jump policy), the one-step-per-round check is skipped.
  bool stepped_transitions = true;
  // Fractional slack on the Eq. 11 budget (0.05 = 5%), for workloads whose
  // realized scattering legitimately exceeds the fleet average admission
  // planned with.
  double round_time_slack = 0.0;
};

class ContinuityAuditor : public TraceSink {
 public:
  // Tolerance on the kCriticalPath stage-sum check: the per-stage charges
  // are integer microseconds and the seek/transfer split of one transfer
  // may round against the round total by at most a microsecond each way.
  static constexpr SimDuration kStageSumEpsilonUsec = 2;

  explicit ContinuityAuditor(AuditorOptions options = AuditorOptions());

  void OnEvent(const TraceEvent& event) override;

  const std::vector<AuditViolation>& violations() const { return violations_; }
  bool Clean() const { return violations_.empty(); }

  // Fired on every violation as it is flagged (e.g. to trigger a
  // FlightRecorder dump while the rings still hold the lead-up).
  using ViolationHandler = std::function<void(const AuditViolation&)>;
  void set_violation_handler(ViolationHandler handler) {
    violation_handler_ = std::move(handler);
  }
  // All violations joined into one message, for test failure output.
  std::string Report() const;

  // Replays a recorded log through a fresh auditor and returns what it
  // flagged.
  static std::vector<AuditViolation> Replay(const std::vector<TraceEvent>& events,
                                            AuditorOptions options = AuditorOptions());

 private:
  enum class SlotState {
    kPending,
    kActive,
    kPausedNonDestructive,
    kPausedDestructive,
    kCompleted,
  };
  struct RequestState {
    SlotState state = SlotState::kPending;
    // Whether the request had joined the service rotation before a pause,
    // so a non-destructive resume restores the right ledger column.
    bool activated = false;
    // Cache-admitted tenant: rides the rotation without an Eq. 17 slot.
    // Its lifecycle must never set slot_released_ — a k-shrink justified
    // by a cache tenant's departure would eat a real stream's slack.
    bool cache = false;
  };
  struct SessionState {
    bool patched = false;       // a kSessionPatched was seen for this session
    bool merged = false;        // the patch already closed its gap
    int64_t gap_blocks = 0;     // distance behind the leader at attach
    int64_t runway_bound = 0;   // Section 3 buffer bound stamped at patch time
  };

  void Flag(const TraceEvent& event, std::string what);
  SlotSnapshot Ledger() const { return ledger_; }
  // Moves `request` in or out of its ledger column (delta of +1 / -1).
  // Every lifecycle mutation is bracketed by a -1/+1 pair, so the replayed
  // ledger stays exact without rescanning every request the trace ever
  // mentioned — CheckLedger runs on each of the O(streams) lifecycle
  // events, and a rescan there turns a 20k-stream trace into O(N^2).
  void CountRequest(const RequestState& request, int64_t delta);
  void CheckLedger(const TraceEvent& event);
  void HandleLifecycle(const TraceEvent& event);
  void HandleRound(const TraceEvent& event);
  void HandleSession(const TraceEvent& event);

  AuditorOptions options_;
  ViolationHandler violation_handler_;
  std::map<uint64_t, RequestState> requests_;
  // Replayed slot ledger, maintained incrementally by CountRequest.
  SlotSnapshot ledger_;
  // kCacheAdmit precedes the lifecycle event it qualifies (kSubmitAccepted
  // for a fresh tenant, the destructive-path kResume for a re-application):
  // the id is latched here and the flag applied when that event arrives.
  std::set<uint64_t> pending_cache_;
  // Per-session merge bookkeeping (kSessionPatched -> kSessionMerged).
  std::map<uint64_t, SessionState> sessions_;
  std::vector<AuditViolation> violations_;

  // Round bookkeeping.
  int64_t previous_round_k_ = -1;  // -1 until the first round completes
  bool slot_released_ = false;     // since the previous round end
  bool round_open_ = false;
  SimTime round_start_time_ = 0;
  int64_t round_k_ = 0;
  bool round_saturated_ = true;
  int64_t round_serviced_ = 0;
  SimDuration round_min_budget_ = 0;  // min_i(k_i * d_i) over serviced requests
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_AUDITOR_H_
