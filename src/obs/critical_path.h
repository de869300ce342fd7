// Critical-path attribution over the causal span stream.
//
// The scheduler charges every microsecond of a round to exactly one
// SpanStage and publishes the ledger on the round's root span
// (src/obs/span.h). The CriticalPathAnalyzer sits between the scheduler
// and the telemetry tee: it forwards every event unchanged, reconstructs
// each round's span tree on the fly, and after the round's kRoundEnd
// emits one kCriticalPath event naming
//
//   - the per-stage breakdown (sums to the measured round time; the
//     ContinuityAuditor enforces the sum),
//   - the dominating stage and, when a transfer dominates, the arm
//     (disk-array member) and request that ran it,
//   - whether the round is anomalous: its dominant stage deviates from
//     the modal dominant stage of the trailing window.
//
// The same walk is available statically (Analyze) over a recorded event
// vector, plus folded-stack rendering for flame graphs
// (tools/vafs_flame.py) and a JSON report for CI gates
// (tools/check_criticalpath.py).

#ifndef VAFS_SRC_OBS_CRITICAL_PATH_H_
#define VAFS_SRC_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace vafs {
namespace obs {

// One round's attribution verdict.
struct RoundCriticalPath {
  int64_t node = -1;
  int64_t round = 0;
  uint64_t trace_id = 0;
  SimDuration duration = 0;  // measured round service time (kRoundEnd)
  StageBreakdown stages;     // the scheduler's ledger for this round
  SpanStage dominant = SpanStage::kQueue;
  SimDuration dominant_usec = 0;
  uint64_t dominant_request = 0;  // longest transfer span's request (0 = none)
  int64_t dominant_member = -1;   // ... and its disk-array arm (-1 = none)
  bool anomalous = false;
};

struct CriticalPathOptions {
  TraceSink* out = nullptr;  // downstream sink (events pass through)
};

class CriticalPathAnalyzer : public TraceSink {
 public:
  explicit CriticalPathAnalyzer(CriticalPathOptions options) : options_(options) {}

  void OnEvent(const TraceEvent& event) override;

  const std::vector<RoundCriticalPath>& rounds() const { return rounds_; }
  int64_t anomalies() const { return anomalies_; }

  // `{"version":1,"kind":"vafs.critical_path","rounds":[...]}` over every
  // analyzed round, deterministic field order.
  std::string ToJson() const;

  // One-shot walk over a recorded event stream (e.g. TraceLog::events()),
  // applying the same attribution and anomaly rules.
  static std::vector<RoundCriticalPath> Analyze(const std::vector<TraceEvent>& events);

  // Renders the rounds as JSON without an analyzer instance.
  static std::string ToJson(const std::vector<RoundCriticalPath>& rounds);

  // Folded flame stacks over the span events in `events`: one
  // "frame;frame;frame usec" line per unique path, exclusive time
  // (a span's duration minus its children's), path-sorted.
  static std::string FoldedStacks(const std::vector<TraceEvent>& events);

 private:
  // Longest open transfer-ish span of the round being assembled.
  struct PendingRound {
    bool root_seen = false;
    StageBreakdown stages;
    uint64_t trace_id = 0;
    SimDuration dominant_usec = 0;
    uint64_t dominant_request = 0;
    int64_t dominant_member = -1;
    bool dominant_set = false;
  };

  void Ingest(const TraceEvent& event);

  CriticalPathOptions options_;
  PendingRound pending_;
  std::vector<RoundCriticalPath> rounds_;
  // Dominant-stage history per node (node -1 maps to slot 0 via +1; nodes
  // are small dense ids).
  std::vector<std::deque<SpanStage>> history_;
  int64_t anomalies_ = 0;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_CRITICAL_PATH_H_
