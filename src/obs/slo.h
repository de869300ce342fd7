// Continuity-SLO accounting over the round trace.
//
// The paper's service contract is temporal: every round must finish before
// the playback of the blocks it fetched (Eq. 11), so a stream's health is
// not "did it glitch" but "how much deadline slack did each round leave".
// SloTracker is a TraceSink that folds the scheduler's round trace into
// per-stream slack/jitter/startup accounting and a continuity-SLO verdict
// of the form "fraction p of accounted rounds ran with at least s slack".
//
// Accounting model (mirrors the ContinuityAuditor's saturation rule):
//  - A round is accounted against a stream only when the stream fetched its
//    full k blocks that round. Its Eq. 11 budget is then k * d_i (blocks
//    times per-block playback), slack = budget - round_duration, and the
//    slack fraction is slack / budget.
//  - Rounds where the stream fetched fewer blocks (completion tail, full
//    device buffers, capture lag) are exempt: the stream had buffered
//    runway, so they carry no deadline.
//  - Jitter is the deviation of consecutive service-completion spacing from
//    the contract period k * d_i, measured between adjacent rounds.
//  - Degraded-block ratio is skipped / (transferred + skipped): the share
//    of the stream rendered as silence by fault handling.
//
// The tracker can fire a breach handler the first time a stream's verdict
// turns false (wired to the FlightRecorder for post-mortem dumps).

#ifndef VAFS_SRC_OBS_SLO_H_
#define VAFS_SRC_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/time.h"

namespace vafs {
namespace obs {

struct SloOptions {
  // A round "meets target slack" when its duration leaves at least this
  // fraction of the stream's Eq. 11 budget unused.
  double slack_target = 0.10;
  // The continuity SLO holds while at least this fraction of a stream's
  // accounted rounds meet the target slack. 0.999 = "99.9% of rounds with
  // >= 10% slack".
  double slo_target = 0.999;
};

// Per-stream accounting. Histograms reuse the metrics bucketing; slack is
// recorded in percent of budget, jitter and startup latency in usec.
struct StreamSlo {
  uint64_t request = 0;
  SimTime submit_time = 0;
  SimDuration startup_latency = -1;  // -1 until first service completion
  bool completed = false;

  int64_t rounds_accounted = 0;    // saturated rounds (carry a deadline)
  int64_t rounds_exempt = 0;       // unsaturated rounds (buffered runway)
  int64_t rounds_within_budget = 0;
  int64_t rounds_meeting_slack = 0;
  double min_slack_fraction = 0.0;  // meaningful once rounds_accounted > 0
  double budget_utilization_sum_pct = 0.0;  // sum over accounted rounds

  Histogram slack_pct;     // per-round slack, percent of the Eq. 11 budget
  Histogram jitter_usec;   // |service spacing - k*d_i| between rounds

  int64_t blocks_transferred = 0;
  int64_t blocks_skipped = 0;
  int64_t blocks_retried = 0;

  // Session layer (src/msm/session_manager.h): 0 = solo stream. A leader
  // carries batched riders on its physical stream; a patch is a short
  // catch-up stream that merges into its leader when the gap closes.
  uint64_t session = 0;
  uint64_t session_leader = 0;  // for a patch: the leader's request id
  int64_t session_riders = 0;   // for a leader: viewers riding its stream
  bool session_patch = false;   // this stream is a catch-up patch
  bool session_merged = false;  // the patch closed its gap

  double WithinBudgetFraction() const {
    return rounds_accounted > 0
               ? static_cast<double>(rounds_within_budget) /
                     static_cast<double>(rounds_accounted)
               : 1.0;
  }
  double MeetingSlackFraction() const {
    return rounds_accounted > 0
               ? static_cast<double>(rounds_meeting_slack) /
                     static_cast<double>(rounds_accounted)
               : 1.0;
  }
  double MeanBudgetUtilizationPct() const {
    return rounds_accounted > 0 ? budget_utilization_sum_pct /
                                      static_cast<double>(rounds_accounted)
                                : 0.0;
  }
  double DegradedRatio() const {
    const int64_t total = blocks_transferred + blocks_skipped;
    return total > 0 ? static_cast<double>(blocks_skipped) / static_cast<double>(total) : 0.0;
  }
  // The continuity verdict: every accounted round inside the hard budget
  // is a precondition; the slack target then has to hold at the SLO rate.
  bool ContinuityMet(const SloOptions& options) const {
    return WithinBudgetFraction() >= options.slo_target &&
           MeetingSlackFraction() >= options.slo_target;
  }
};

struct SloReport {
  SloOptions options;
  int64_t rounds_total = 0;
  // Session-layer aggregates: viewers attached inside the batch window,
  // patches opened, and patches that merged.
  int64_t sessions_batched = 0;
  int64_t sessions_patched = 0;
  int64_t sessions_merged = 0;
  std::vector<StreamSlo> streams;  // ordered by request id

  // Streams whose verdict fails under `options`.
  int64_t BreachedStreams() const;
  // Versioned JSON image (embedded by JsonSnapshotExporter).
  std::string ToJson() const;
};

class SloTracker : public TraceSink {
 public:
  using BreachHandler =
      std::function<void(uint64_t request, const std::string& description)>;

  explicit SloTracker(SloOptions options = SloOptions());
  // A round's pending services point into this tracker's stream table.
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  void OnEvent(const TraceEvent& event) override;

  // Fired at most once per stream, at the round end where its verdict
  // first turns false.
  void set_breach_handler(BreachHandler handler) { breach_handler_ = std::move(handler); }

  SloReport Report() const;
  const SloOptions& options() const { return options_; }
  int64_t rounds_total() const { return rounds_total_; }

  // Verdict over every tracked stream (true when none is in breach).
  bool AllStreamsMeetSlo() const;

 private:
  struct StreamState {
    StreamSlo slo;
    bool breached = false;
    // Previous round's service completion, for jitter spacing.
    int64_t last_round = -1;
    SimTime last_completion = 0;
    SimDuration last_period = 0;
  };
  struct RoundService {
    StreamState* state = nullptr;  // resolved once, at kRequestServiced
    int64_t blocks = 0;
    SimDuration block_playback = 0;
    SimTime completion = 0;
  };

  void AccountRound(const TraceEvent& round_end);

  SloOptions options_;
  BreachHandler breach_handler_;
  // Every stream ever submitted, by request id. Hash nodes keep each state at
  // a stable address, so a round's services carry a pointer to it and only
  // Report() pays for ordering by id.
  std::unordered_map<uint64_t, StreamState> streams_;
  std::vector<RoundService> round_services_;
  int64_t sessions_batched_ = 0;
  int64_t sessions_patched_ = 0;
  int64_t sessions_merged_ = 0;
  int64_t rounds_total_ = 0;
  int64_t round_k_ = 0;
  SimTime round_start_time_ = 0;
  bool round_open_ = false;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_SLO_H_
