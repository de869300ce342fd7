#include "src/obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vafs {
namespace obs {

SloTracker::SloTracker(SloOptions options) : options_(options) {}

void SloTracker::OnEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kSubmitAccepted: {
      StreamState& state = streams_[event.request];
      state.slo.request = event.request;
      state.slo.submit_time = event.time;
      break;
    }
    case TraceEventKind::kRoundStart:
      round_open_ = true;
      round_k_ = event.k;
      round_start_time_ = event.time;
      round_services_.clear();
      break;
    case TraceEventKind::kRequestServiced: {
      if (!round_open_) {
        break;
      }
      auto it = streams_.find(event.request);
      if (it == streams_.end()) {
        break;  // stream submitted before this tracker attached
      }
      StreamState& state = it->second;
      state.slo.blocks_transferred += event.blocks;
      if (state.slo.startup_latency < 0) {
        state.slo.startup_latency = event.time - state.slo.submit_time;
      }
      round_services_.push_back(
          RoundService{&state, event.blocks, event.block_playback, event.time});
      break;
    }
    case TraceEventKind::kRoundEnd:
      ++rounds_total_;
      if (round_open_) {
        AccountRound(event);
      }
      round_open_ = false;
      break;
    case TraceEventKind::kBlockSkipped:
      if (auto it = streams_.find(event.request); it != streams_.end()) {
        ++it->second.slo.blocks_skipped;
      }
      break;
    case TraceEventKind::kBlockRetried:
      if (auto it = streams_.find(event.request); it != streams_.end()) {
        ++it->second.slo.blocks_retried;
      }
      break;
    case TraceEventKind::kCompleted:
      if (auto it = streams_.find(event.request); it != streams_.end()) {
        it->second.slo.completed = true;
      }
      break;
    case TraceEventKind::kSessionBatched:
      ++sessions_batched_;
      if (auto it = streams_.find(event.leader); it != streams_.end()) {
        StreamSlo& leader = it->second.slo;
        leader.session = event.session;
        ++leader.session_riders;
      }
      break;
    case TraceEventKind::kSessionPatched:
      ++sessions_patched_;
      if (auto it = streams_.find(event.leader); it != streams_.end()) {
        it->second.slo.session = event.session;
      }
      if (auto it = streams_.find(event.request); it != streams_.end()) {
        StreamSlo& patch = it->second.slo;
        patch.session = event.session;
        patch.session_leader = event.leader;
        patch.session_patch = true;
      }
      break;
    case TraceEventKind::kSessionMerged:
      ++sessions_merged_;
      if (auto it = streams_.find(event.request); it != streams_.end()) {
        it->second.slo.session_merged = true;
      }
      if (auto it = streams_.find(event.leader); it != streams_.end()) {
        // The merged rider now consumes from the leader's deliveries.
        ++it->second.slo.session_riders;
      }
      break;
    default:
      break;
  }
}

void SloTracker::AccountRound(const TraceEvent& round_end) {
  const SimDuration round_duration = round_end.duration;
  const int64_t round_index = round_end.round;
  for (const RoundService& service : round_services_) {
    StreamState& state = *service.state;
    StreamSlo& slo = state.slo;
    const SimDuration budget = service.blocks * service.block_playback;

    // Jitter: spacing of service completions between adjacent rounds,
    // against the contract period of the earlier round.
    if (state.last_round == round_index - 1 && state.last_period > 0) {
      const SimDuration spacing = service.completion - state.last_completion;
      slo.jitter_usec.Record(std::abs(static_cast<double>(spacing - state.last_period)));
    }
    state.last_round = round_index;
    state.last_completion = service.completion;
    state.last_period = budget;

    if (service.blocks != round_k_ || budget <= 0) {
      ++slo.rounds_exempt;  // unsaturated: buffered runway, no deadline
      continue;
    }
    const double slack_fraction =
        static_cast<double>(budget - round_duration) / static_cast<double>(budget);
    if (slo.rounds_accounted == 0 || slack_fraction < slo.min_slack_fraction) {
      slo.min_slack_fraction = slack_fraction;
    }
    ++slo.rounds_accounted;
    slo.budget_utilization_sum_pct +=
        100.0 * static_cast<double>(round_duration) / static_cast<double>(budget);
    slo.slack_pct.Record(100.0 * slack_fraction);
    if (round_duration <= budget) {
      ++slo.rounds_within_budget;
    }
    if (slack_fraction >= options_.slack_target) {
      ++slo.rounds_meeting_slack;
    }
    if (!state.breached && !slo.ContinuityMet(options_)) {
      state.breached = true;
      if (breach_handler_) {
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "stream %llu breached continuity SLO at round %lld: "
                      "%.4f within budget, %.4f meeting %.0f%% slack (target %.4f)",
                      static_cast<unsigned long long>(slo.request),
                      static_cast<long long>(round_index), slo.WithinBudgetFraction(),
                      slo.MeetingSlackFraction(), options_.slack_target * 100.0,
                      options_.slo_target);
        breach_handler_(slo.request, buffer);
      }
    }
  }
}

SloReport SloTracker::Report() const {
  SloReport report;
  report.options = options_;
  report.rounds_total = rounds_total_;
  report.sessions_batched = sessions_batched_;
  report.sessions_patched = sessions_patched_;
  report.sessions_merged = sessions_merged_;
  std::vector<const StreamSlo*> by_id;
  by_id.reserve(streams_.size());
  for (const auto& [id, state] : streams_) {
    by_id.push_back(&state.slo);
  }
  std::sort(by_id.begin(), by_id.end(),
            [](const StreamSlo* a, const StreamSlo* b) { return a->request < b->request; });
  report.streams.reserve(by_id.size());
  for (const StreamSlo* slo : by_id) {
    report.streams.push_back(*slo);
  }
  return report;
}

bool SloTracker::AllStreamsMeetSlo() const {
  return std::all_of(streams_.begin(), streams_.end(), [this](const auto& entry) {
    return entry.second.slo.ContinuityMet(options_);
  });
}

int64_t SloReport::BreachedStreams() const {
  return static_cast<int64_t>(
      std::count_if(streams.begin(), streams.end(),
                    [this](const StreamSlo& slo) { return !slo.ContinuityMet(options); }));
}

namespace {

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out->append(buffer);
}

void AppendField(std::string* out, const char* name, double value, bool* first) {
  if (!*first) {
    *out += ", ";
  }
  *first = false;
  *out += "\"";
  *out += name;
  *out += "\": ";
  AppendDouble(out, value);
}

}  // namespace

std::string SloReport::ToJson() const {
  std::string json = "{\"version\": 1, \"kind\": \"vafs.slo.report\", \"slack_target\": ";
  AppendDouble(&json, options.slack_target);
  json += ", \"slo_target\": ";
  AppendDouble(&json, options.slo_target);
  json += ", \"rounds_total\": " + std::to_string(rounds_total);
  json += ", \"breached_streams\": " + std::to_string(BreachedStreams());
  json += ", \"sessions_batched\": " + std::to_string(sessions_batched);
  json += ", \"sessions_patched\": " + std::to_string(sessions_patched);
  json += ", \"sessions_merged\": " + std::to_string(sessions_merged);
  json += ", \"streams\": [";
  bool first_stream = true;
  for (const StreamSlo& slo : streams) {
    if (!first_stream) {
      json += ", ";
    }
    first_stream = false;
    json += "{";
    bool first = true;
    AppendField(&json, "request", static_cast<double>(slo.request), &first);
    AppendField(&json, "completed", slo.completed ? 1.0 : 0.0, &first);
    AppendField(&json, "startup_latency_usec", static_cast<double>(slo.startup_latency), &first);
    AppendField(&json, "rounds_accounted", static_cast<double>(slo.rounds_accounted), &first);
    AppendField(&json, "rounds_exempt", static_cast<double>(slo.rounds_exempt), &first);
    AppendField(&json, "within_budget_fraction", slo.WithinBudgetFraction(), &first);
    AppendField(&json, "meeting_slack_fraction", slo.MeetingSlackFraction(), &first);
    AppendField(&json, "min_slack_fraction",
                slo.rounds_accounted > 0 ? slo.min_slack_fraction : 0.0, &first);
    AppendField(&json, "mean_budget_utilization_pct", slo.MeanBudgetUtilizationPct(), &first);
    AppendField(&json, "slack_pct_p50", slo.slack_pct.Quantile(0.50), &first);
    AppendField(&json, "slack_pct_p99", slo.slack_pct.Quantile(0.99), &first);
    AppendField(&json, "jitter_usec_p50", slo.jitter_usec.Quantile(0.50), &first);
    AppendField(&json, "jitter_usec_p99", slo.jitter_usec.Quantile(0.99), &first);
    AppendField(&json, "blocks_transferred", static_cast<double>(slo.blocks_transferred), &first);
    AppendField(&json, "blocks_skipped", static_cast<double>(slo.blocks_skipped), &first);
    AppendField(&json, "blocks_retried", static_cast<double>(slo.blocks_retried), &first);
    AppendField(&json, "degraded_ratio", slo.DegradedRatio(), &first);
    AppendField(&json, "continuity_met", slo.ContinuityMet(options) ? 1.0 : 0.0, &first);
    AppendField(&json, "session", static_cast<double>(slo.session), &first);
    AppendField(&json, "session_leader", static_cast<double>(slo.session_leader), &first);
    AppendField(&json, "session_riders", static_cast<double>(slo.session_riders), &first);
    AppendField(&json, "session_patch", slo.session_patch ? 1.0 : 0.0, &first);
    AppendField(&json, "session_merged", slo.session_merged ? 1.0 : 0.0, &first);
    json += "}";
  }
  json += "]}";
  return json;
}

}  // namespace obs
}  // namespace vafs
