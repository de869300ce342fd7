#include "src/core/admission.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace vafs {

AdmissionControl::AdmissionControl(StorageTimings storage, double avg_scattering_sec)
    : storage_(storage), avg_scattering_sec_(avg_scattering_sec) {
  assert(storage_.transfer_rate_bits_per_sec > 0);
  assert(avg_scattering_sec_ >= 0);
  assert(avg_scattering_sec_ <= storage_.max_access_gap_sec);
}

RequestSums::RequestSums(const std::vector<RequestSpec>& requests) {
  for (const RequestSpec& request : requests) {
    Add(request);
  }
}

void RequestSums::Add(const RequestSpec& request) {
  ++n_;
  block_bits_ += request.BlockBits();
  ++playback_counts_[request.BlockPlaybackDuration()];
}

void RequestSums::Remove(const RequestSpec& request) {
  const auto it = playback_counts_.find(request.BlockPlaybackDuration());
  assert(it != playback_counts_.end() && n_ > 0);
  if (--it->second == 0) {
    playback_counts_.erase(it);
  }
  --n_;
  block_bits_ -= request.BlockBits();
}

double RequestSums::min_block_playback() const {
  return playback_counts_.empty() ? std::numeric_limits<double>::infinity()
                                  : playback_counts_.begin()->first;
}

AdmissionControl::Analysis AdmissionControl::Analyze(const RequestSums& requests) const {
  Analysis analysis;
  analysis.n = requests.n();
  if (requests.n() == 0) {
    return analysis;
  }
  const double avg_transfer = static_cast<double>(requests.block_bits()) /
                              static_cast<double>(requests.n()) /
                              storage_.transfer_rate_bits_per_sec;
  analysis.alpha_sec = storage_.max_access_gap_sec + avg_transfer;  // Eq. 12
  analysis.beta_sec = avg_scattering_sec_ + avg_transfer;           // Eq. 13
  analysis.gamma_sec = requests.min_block_playback();               // Eq. 14
  // Eq. 17: gamma > n*beta must hold, so n_max = ceil(gamma/beta) - 1.
  analysis.n_max =
      static_cast<int64_t>(std::ceil(analysis.gamma_sec / analysis.beta_sec)) - 1;
  return analysis;
}

AdmissionControl::Analysis AdmissionControl::Analyze(
    const std::vector<RequestSpec>& requests) const {
  return Analyze(RequestSums(requests));
}

namespace {

// Shared solver for Eqs. 16 and 18: k >= numerator / (gamma - n*beta).
Result<int64_t> SolveForK(const AdmissionControl::Analysis& analysis, double numerator) {
  const double n = static_cast<double>(analysis.n);
  const double headroom = analysis.gamma_sec - n * analysis.beta_sec;
  if (headroom <= 0) {
    return Status(ErrorCode::kAdmissionRejected,
                  "no finite round size: n=" + std::to_string(analysis.n) +
                      " exceeds the service ceiling n_max=" + std::to_string(analysis.n_max));
  }
  const double k = numerator / headroom;
  return std::max<int64_t>(1, static_cast<int64_t>(std::ceil(k)));
}

}  // namespace

Result<int64_t> AdmissionControl::SteadyStateBlocksPerRound(
    const std::vector<RequestSpec>& requests) const {
  if (requests.empty()) {
    return static_cast<int64_t>(1);
  }
  const Analysis analysis = Analyze(requests);
  // Eq. 16: k = n*(alpha - beta) / (gamma - n*beta).
  const double numerator =
      static_cast<double>(analysis.n) * (analysis.alpha_sec - analysis.beta_sec);
  return SolveForK(analysis, numerator);
}

Result<int64_t> AdmissionControl::TransientSafeBlocksPerRound(const RequestSums& requests) const {
  if (requests.n() == 0) {
    return static_cast<int64_t>(1);
  }
  const Analysis analysis = Analyze(requests);
  // Eq. 18: k = n*alpha / (gamma - n*beta). Transferring k+1 blocks within
  // the playback of k guarantees each single-step k increase is seamless.
  const double numerator = static_cast<double>(analysis.n) * analysis.alpha_sec;
  return SolveForK(analysis, numerator);
}

Result<int64_t> AdmissionControl::TransientSafeBlocksPerRound(
    const std::vector<RequestSpec>& requests) const {
  return TransientSafeBlocksPerRound(RequestSums(requests));
}

bool AdmissionControl::Feasible(const std::vector<RequestSpec>& requests) const {
  if (requests.empty()) {
    return true;
  }
  const Analysis analysis = Analyze(requests);
  return analysis.gamma_sec > static_cast<double>(analysis.n) * analysis.beta_sec;
}

Result<std::vector<int64_t>> AdmissionControl::PlanAdmission(const RequestSums& existing,
                                                             const RequestSpec& candidate,
                                                             int64_t current_k) const {
  RequestSums combined = existing;
  combined.Add(candidate);
  auto emit = [&](obs::TraceEventKind kind, int64_t target_k, const std::string& detail) {
    if (trace_ == nullptr) {
      return;
    }
    obs::TraceEvent event;
    event.kind = kind;
    event.k = current_k;
    event.existing = existing.n();
    event.target_k = target_k;
    event.n_max = Analyze(combined).n_max;
    event.detail = detail;
    trace_->OnEvent(event);
  };
  Result<int64_t> target = TransientSafeBlocksPerRound(combined);
  if (!target.ok()) {
    emit(obs::TraceEventKind::kAdmissionReject, 0, target.status().message());
    return target.status();
  }
  emit(obs::TraceEventKind::kAdmissionPlan, std::max(*target, current_k), "");
  std::vector<int64_t> schedule;
  if (*target <= current_k) {
    // The current round size already covers the enlarged set; the new
    // request starts in the next round.
    schedule.push_back(current_k);
    return schedule;
  }
  // Raise k one step per round (Section 3.4): each k -> k+1 transition is
  // guaranteed seamless by Eq. 18, whereas jumping straight to the target
  // may stall existing streams for the difference.
  for (int64_t k = current_k + 1; k <= *target; ++k) {
    schedule.push_back(k);
  }
  return schedule;
}

Result<std::vector<int64_t>> AdmissionControl::PlanAdmission(
    const std::vector<RequestSpec>& existing, const RequestSpec& candidate,
    int64_t current_k) const {
  return PlanAdmission(RequestSums(existing), candidate, current_k);
}

Result<std::vector<int64_t>> AdmissionControl::PerRequestBlocksPerRound(
    const std::vector<RequestSpec>& requests) const {
  if (requests.empty()) {
    return std::vector<int64_t>{};
  }
  const size_t n = requests.size();
  std::vector<int64_t> k(n, 1);
  std::vector<double> alpha(n);
  std::vector<double> beta(n);
  std::vector<double> duration(n);
  for (size_t i = 0; i < n; ++i) {
    const double transfer = requests[i].BlockBits() / storage_.transfer_rate_bits_per_sec;
    alpha[i] = storage_.max_access_gap_sec + transfer;
    beta[i] = avg_scattering_sec_ + transfer;
    duration[i] = requests[i].BlockPlaybackDuration();
    if (beta[i] >= duration[i]) {
      // This request alone cannot keep up: each extra block costs more
      // round time than it buys playback.
      return Status(ErrorCode::kAdmissionRejected,
                    "request " + std::to_string(i) + " transfers slower than it plays");
    }
  }

  // Grow the k_i whose playback budget k_i * d_i currently binds Eq. 11.
  // Each step strictly raises the binding budget by d_i > beta_i (its
  // round-time cost), so progress toward feasibility is monotone; if the
  // aggregate can never catch up the budgets exceed every k cap and we
  // reject.
  constexpr int64_t kMaxRoundBlocks = 1 << 16;
  while (true) {
    double round = 0.0;
    for (size_t i = 0; i < n; ++i) {
      round += alpha[i] + static_cast<double>(k[i] - 1) * beta[i];
    }
    size_t binding = 0;
    double min_budget = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const double budget = static_cast<double>(k[i]) * duration[i];
      if (budget < min_budget) {
        min_budget = budget;
        binding = i;
      }
    }
    if (round <= min_budget) {
      return k;
    }
    if (k[binding] >= kMaxRoundBlocks) {
      return Status(ErrorCode::kAdmissionRejected,
                    "no per-request round assignment satisfies Eq. 11");
    }
    ++k[binding];
  }
}

double AdmissionControl::RoundTime(const std::vector<RequestSpec>& requests,
                                   const std::vector<int64_t>& blocks_per_round) const {
  assert(requests.size() == blocks_per_round.size());
  double total = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const double transfer = requests[i].BlockBits() / storage_.transfer_rate_bits_per_sec;
    // Eq. 7: switch in, then the first block.
    total += storage_.max_access_gap_sec + transfer;
    // Eq. 8: the remaining k_i - 1 blocks at the strand's scattering.
    total += static_cast<double>(blocks_per_round[i] - 1) * (avg_scattering_sec_ + transfer);
  }
  return total;  // Eq. 10
}

bool AdmissionControl::FeasibleRound(const std::vector<RequestSpec>& requests,
                                     const std::vector<int64_t>& blocks_per_round) const {
  if (requests.empty()) {
    return true;
  }
  const double round = RoundTime(requests, blocks_per_round);
  double min_playback = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < requests.size(); ++i) {
    min_playback = std::min(min_playback, static_cast<double>(blocks_per_round[i]) *
                                              requests[i].BlockPlaybackDuration());
  }
  return round <= min_playback;  // Eq. 11
}

}  // namespace vafs
