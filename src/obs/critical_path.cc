#include "src/obs/critical_path.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

#include "src/obs/span.h"

namespace vafs {
namespace obs {

namespace {

// Rounds of dominant-stage history kept per node, and the history a node
// needs before its rounds get anomaly verdicts.
constexpr size_t kTrailingWindow = 16;
constexpr size_t kMinHistory = 8;

// Stage preference on exact ties: real work beats bookkeeping, so a round
// that spends as long seeking as queueing is reported as seek-bound.
constexpr std::array<SpanStage, 7> kDominanceOrder = {
    SpanStage::kTransfer, SpanStage::kSeek,       SpanStage::kRetry, SpanStage::kMergePatch,
    SpanStage::kAppend,   SpanStage::kCache,      SpanStage::kQueue,
};

SimDuration StageValue(const StageBreakdown& stages, SpanStage stage) {
  switch (stage) {
    case SpanStage::kQueue:
      return stages.queue;
    case SpanStage::kSeek:
      return stages.seek;
    case SpanStage::kTransfer:
      return stages.transfer;
    case SpanStage::kRetry:
      return stages.retry;
    case SpanStage::kCache:
      return stages.cache;
    case SpanStage::kMergePatch:
      return stages.merge_patch;
    case SpanStage::kAppend:
      return stages.append;
    default:
      return 0;
  }
}

SpanStage DominantStage(const StageBreakdown& stages) {
  SpanStage best = SpanStage::kQueue;
  SimDuration best_value = -1;
  for (const SpanStage stage : kDominanceOrder) {
    const SimDuration value = StageValue(stages, stage);
    if (value > best_value) {
      best = stage;
      best_value = value;
    }
  }
  return best;
}

bool TransferLike(SpanStage stage) {
  return stage == SpanStage::kTransfer || stage == SpanStage::kMergePatch ||
         stage == SpanStage::kAppend || stage == SpanStage::kRetry;
}

void AppendRoundJson(std::string* json, const RoundCriticalPath& round) {
  *json += "{\"node\":" + std::to_string(round.node) +
           ",\"round\":" + std::to_string(round.round) +
           ",\"trace_id\":" + std::to_string(round.trace_id) +
           ",\"duration_usec\":" + std::to_string(round.duration) + ",\"stages\":{";
  *json += "\"queue\":" + std::to_string(round.stages.queue) +
           ",\"seek\":" + std::to_string(round.stages.seek) +
           ",\"transfer\":" + std::to_string(round.stages.transfer) +
           ",\"retry\":" + std::to_string(round.stages.retry) +
           ",\"cache\":" + std::to_string(round.stages.cache) +
           ",\"merge_patch\":" + std::to_string(round.stages.merge_patch) +
           ",\"append\":" + std::to_string(round.stages.append) + "}";
  *json += ",\"total_usec\":" + std::to_string(round.stages.Total());
  *json += ",\"dominant\":\"";
  *json += SpanStageName(round.dominant);
  *json += "\",\"dominant_usec\":" + std::to_string(round.dominant_usec) +
           ",\"dominant_request\":" + std::to_string(round.dominant_request) +
           ",\"dominant_member\":" + std::to_string(round.dominant_member) +
           ",\"anomalous\":" + (round.anomalous ? std::string("true") : std::string("false")) +
           "}";
}

}  // namespace

void CriticalPathAnalyzer::OnEvent(const TraceEvent& event) {
  if (options_.out != nullptr) {
    options_.out->OnEvent(event);
  }
  Ingest(event);
}

void CriticalPathAnalyzer::Ingest(const TraceEvent& event) {
  if (event.kind == TraceEventKind::kSpan) {
    const SpanStage stage = static_cast<SpanStage>(event.span_stage);
    if (stage == SpanStage::kRound) {
      pending_.root_seen = true;
      pending_.stages = event.stages;
      pending_.trace_id = event.trace_id;
    } else if (TransferLike(stage)) {
      // Longest transfer span wins; emission order (batch order) breaks
      // exact ties deterministically in favour of the earliest.
      if (!pending_.dominant_set || event.duration > pending_.dominant_usec) {
        pending_.dominant_set = true;
        pending_.dominant_usec = event.duration;
        pending_.dominant_request = event.request;
        pending_.dominant_member = event.member;
      }
    }
    return;
  }
  if (event.kind != TraceEventKind::kRoundEnd || !pending_.root_seen) {
    return;
  }

  RoundCriticalPath round;
  round.node = event.node;
  round.round = event.round;
  round.trace_id = pending_.trace_id;
  round.duration = event.duration;
  round.stages = pending_.stages;
  round.dominant = DominantStage(round.stages);
  round.dominant_usec = StageValue(round.stages, round.dominant);
  if (TransferLike(round.dominant) && pending_.dominant_set) {
    round.dominant_request = pending_.dominant_request;
    round.dominant_member = pending_.dominant_member;
  }

  const size_t slot = static_cast<size_t>(round.node + 1);
  if (history_.size() <= slot) {
    history_.resize(slot + 1);
  }
  std::deque<SpanStage>& history = history_[slot];
  if (history.size() >= kMinHistory) {
    std::array<size_t, 12> counts{};
    for (const SpanStage stage : history) {
      ++counts[static_cast<size_t>(stage)];
    }
    size_t mode = 0;
    for (size_t i = 1; i < counts.size(); ++i) {
      if (counts[i] > counts[mode]) {
        mode = i;
      }
    }
    round.anomalous = static_cast<size_t>(round.dominant) != mode;
  }
  history.push_back(round.dominant);
  while (history.size() > kTrailingWindow) {
    history.pop_front();
  }

  if (round.anomalous) {
    ++anomalies_;
  }
  rounds_.push_back(round);
  pending_ = PendingRound{};

  if (options_.out != nullptr) {
    TraceEvent verdict;
    verdict.kind = TraceEventKind::kCriticalPath;
    verdict.time = event.time;
    verdict.round = event.round;
    verdict.k = event.k;
    verdict.node = round.node;
    verdict.duration = round.duration;
    verdict.trace_id = round.trace_id;
    verdict.span_stage = static_cast<int64_t>(round.dominant);
    verdict.request = round.dominant_request;
    verdict.member = round.dominant_member;
    verdict.stages = round.stages;
    verdict.anomalous = round.anomalous;
    options_.out->OnEvent(verdict);
  }
}

std::string CriticalPathAnalyzer::ToJson() const { return ToJson(rounds_); }

std::string CriticalPathAnalyzer::ToJson(const std::vector<RoundCriticalPath>& rounds) {
  std::string json = "{\"version\":1,\"kind\":\"vafs.critical_path\",\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (i > 0) {
      json += ",";
    }
    AppendRoundJson(&json, rounds[i]);
  }
  json += "]}";
  return json;
}

std::vector<RoundCriticalPath> CriticalPathAnalyzer::Analyze(
    const std::vector<TraceEvent>& events) {
  CriticalPathAnalyzer analyzer(CriticalPathOptions{});
  for (const TraceEvent& event : events) {
    analyzer.Ingest(event);
  }
  return analyzer.rounds_;
}

std::string CriticalPathAnalyzer::FoldedStacks(const std::vector<TraceEvent>& events) {
  struct Node {
    const TraceEvent* event = nullptr;
    SimDuration children = 0;
  };
  std::unordered_map<uint64_t, Node> spans;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEventKind::kSpan && event.span_id != 0) {
      spans[event.span_id].event = &event;
    }
  }
  for (const auto& [id, node] : spans) {
    if (node.event == nullptr) {
      continue;
    }
    const auto parent = spans.find(node.event->parent_span);
    if (parent != spans.end() && parent->first != id) {
      parent->second.children += node.event->duration;
    }
  }

  std::map<std::string, SimDuration> folded;
  for (const TraceEvent& event : events) {
    if (event.kind != TraceEventKind::kSpan || event.span_id == 0) {
      continue;
    }
    const Node& node = spans[event.span_id];
    const SimDuration exclusive = std::max<SimDuration>(0, event.duration - node.children);
    if (exclusive == 0) {
      continue;
    }
    // Walk the parent chain to the root; depth-bounded so a malformed
    // stream (self-parent, cycle) cannot hang the exporter.
    std::vector<std::string> frames;
    const TraceEvent* cursor = &event;
    for (int depth = 0; cursor != nullptr && depth < 32; ++depth) {
      frames.push_back(SpanFrameName(*cursor));
      const auto parent = spans.find(cursor->parent_span);
      cursor = parent != spans.end() && parent->second.event != cursor ? parent->second.event
                                                                       : nullptr;
    }
    std::string path;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!path.empty()) {
        path += ";";
      }
      path += *it;
    }
    folded[path] += exclusive;
  }

  std::string out;
  for (const auto& [path, usec] : folded) {
    out += path + " " + std::to_string(usec) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace vafs
