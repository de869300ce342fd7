// Helpers shared by the host-time benchmark's workloads: steady-clock
// timing, the percentile rule, span self time, delivered-block counting
// over a scheduler's request ids, and the report every workload prints.

#ifndef VAFS_PERFBENCH_SRC_BENCH_UTIL_H_
#define VAFS_PERFBENCH_SRC_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/msm/service_scheduler.h"
#include "src/util/result.h"

namespace vafs {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// A percentile is reported only when at least this many samples lie
// strictly beyond it (p99 needs 1000 samples, p90 100, p50 20).
inline constexpr int64_t kMinSamplesBeyond = 10;

// Nearest-rank percentile `pct` (0 < pct < 100) of `samples`, or nullopt
// when fewer than kMinSamplesBeyond samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double pct);

// One closed span: [start_ns, end_ns) on the steady clock, the index of
// the enclosing span (-1 for a top-level span), and the viewer, request or
// cycle id the call concerned (0 when none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t tag = 0;
};

// Self time of every span: its duration minus the part of its interval its
// direct children cover (overlapping children are counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Media blocks delivered by one scheduler: playback blocks consumed plus
// blocks recorded, summed over request ids 1..n. Ids are issued densely
// from 1 and retired requests keep answering, so the walk stops at the
// first id the scheduler does not know.
struct Delivered {
  int64_t requests = 0;
  int64_t blocks = 0;
  int64_t played = 0;
  int64_t recorded = 0;
  int64_t continuity_violations = 0;
  int64_t blocks_skipped = 0;
  int64_t glitched_requests = 0;  // requests with a violation or a skip

  Delivered& operator+=(const Delivered& other);
};

template <typename StatsFn>
Delivered SumDelivered(StatsFn&& stats) {
  Delivered total;
  for (RequestId id = 1;; ++id) {
    Result<RequestStats> found = stats(id);
    if (!found.ok()) {
      break;
    }
    ++total.requests;
    total.blocks += found->blocks_done;
    (found->is_recording ? total.recorded : total.played) += found->blocks_done;
    total.continuity_violations += found->continuity_violations;
    total.blocks_skipped += found->blocks_skipped;
    if (found->continuity_violations > 0 || found->blocks_skipped > 0) {
      ++total.glitched_requests;
    }
  }
  return total;
}

// Everything one workload run prints: metrics with unit and sample count,
// metrics dropped with the reason, correctness checks, and the op counts
// that give the failed share its base.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit, int64_t samples);
  // Adds the percentile of `samples` scaled by `scale`, or records why it
  // was dropped.
  void AddPercentile(const std::string& name, const std::vector<double>& samples, double pct,
                     double scale, const std::string& unit);
  void Drop(const std::string& name, const std::string& reason);
  // Records one correctness check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempt(int64_t ops) { attempted_ += ops; }
  void Fail(int64_t ops) { failed_ += ops; }
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_checks_ == 0; }
  // Prints the human-readable report followed by one machine-readable line
  // per metric (METRIC/DROPPED) and a RESULT line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> dropped_;
  std::vector<std::string> checks_;
  std::vector<std::string> notes_;
  int64_t failed_checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench
}  // namespace vafs

#endif  // VAFS_PERFBENCH_SRC_BENCH_UTIL_H_
