// Admission control for multiple concurrent requests (paper Section 3.4).
//
// The file system services n active requests in rounds, transferring k
// consecutive blocks per request per round. Switching between requests
// costs up to a full worst-case reposition (no placement relation holds
// between different strands), while blocks within a request cost the
// strand's average scattering. With
//
//   alpha = l_seek_max + q*s/R_dt   (first block of a request in a round, Eq. 12)
//   beta  = l_ds_avg  + q*s/R_dt    (each subsequent block, Eq. 13)
//   gamma = min_i (q_i / R_i)       (fastest consumer's block playback, Eq. 14)
//
// steady-state continuity requires  n*alpha + n*(k-1)*beta <= k*gamma
// (Eq. 15), giving k = ceil(n*(alpha-beta) / (gamma - n*beta)) (Eq. 16) and
// a service ceiling n_max = ceil(gamma/beta) - 1 (Eq. 17). Admitting a new
// request may raise k, and jumping straight to the new k can glitch
// existing streams; the transient-safe variant n*alpha + n*k*beta <= k*gamma
// (Eq. 18) guarantees every k -> k+1 step is glitch-free, so admission
// raises k one step per round (Section 3.4's transition argument).

#ifndef VAFS_SRC_CORE_ADMISSION_H_
#define VAFS_SRC_CORE_ADMISSION_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/profiles.h"
#include "src/media/media.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace vafs {

// What admission control needs to know about one active request.
struct RequestSpec {
  MediaProfile profile;     // R_i and s_i
  int64_t granularity = 1;  // q_i

  // Bits transferred per block of this request (an exact integer).
  int64_t BlockBits() const { return granularity * profile.bits_per_unit; }

  // Playback duration of one block, q_i / R_i.
  double BlockPlaybackDuration() const {
    return static_cast<double>(granularity) / profile.units_per_sec;
  }
};

// The Eq. 12-14 inputs of a request set as running sums: n, the total of
// per-block bits, and a count of requests per distinct block playback time
// q_i / R_i, whose smallest key is gamma. A ledger that adds and removes
// requests as they come and go analyses its set without walking it. Block
// bits are integers, so the int64_t total equals the ordered double sum of
// a walk over the set (exact below 2^53), and decisions match bit for bit.
class RequestSums {
 public:
  RequestSums() = default;
  explicit RequestSums(const std::vector<RequestSpec>& requests);

  void Add(const RequestSpec& request);
  // `request` must have been added and not removed since.
  void Remove(const RequestSpec& request);

  int64_t n() const { return n_; }
  int64_t block_bits() const { return block_bits_; }
  // gamma: the smallest block playback time (infinity for an empty set).
  double min_block_playback() const;

 private:
  int64_t n_ = 0;
  int64_t block_bits_ = 0;
  std::map<double, int64_t> playback_counts_;  // block playback time -> requests
};

class AdmissionControl {
 public:
  // `avg_scattering_sec` is the fleet-wide average realized scattering
  // l_ds^avg used in beta; callers typically take it from the allocator's
  // placement statistics or from the strand placement's bounds.
  AdmissionControl(StorageTimings storage, double avg_scattering_sec);

  double avg_scattering_sec() const { return avg_scattering_sec_; }

  // Optional observability: PlanAdmission reports each decision (the
  // existing-set size, the combined set's n_max, and the planned k target)
  // to `sink`. The sink must outlive this object and its copies.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  // The Eq. 12-14 aggregates for a request set.
  struct Analysis {
    double alpha_sec = 0.0;
    double beta_sec = 0.0;
    double gamma_sec = 0.0;
    int64_t n = 0;
    // Largest request count serviceable at all (Eq. 17), given this set's
    // gamma and average block size.
    int64_t n_max = 0;
  };
  Analysis Analyze(const RequestSums& requests) const;
  Analysis Analyze(const std::vector<RequestSpec>& requests) const;

  // Steady-state blocks-per-round (Eq. 16). Fails if gamma <= n*beta, i.e.
  // no finite k satisfies continuity. Results are clamped to >= 1.
  Result<int64_t> SteadyStateBlocksPerRound(const std::vector<RequestSpec>& requests) const;

  // Transient-safe blocks-per-round (Eq. 18): the k from which every
  // single-step increase preserves continuity mid-transition.
  Result<int64_t> TransientSafeBlocksPerRound(const RequestSums& requests) const;
  Result<int64_t> TransientSafeBlocksPerRound(const std::vector<RequestSpec>& requests) const;

  // Whether `requests` can all be serviced with some finite k.
  bool Feasible(const std::vector<RequestSpec>& requests) const;

  // Admission decision: given the currently served set and its current k,
  // decide whether `candidate` can join. On success returns the schedule
  // of k values to step through, one per round ({k} alone if k is already
  // sufficient); the candidate starts only after the last step.
  Result<std::vector<int64_t>> PlanAdmission(const RequestSums& existing,
                                             const RequestSpec& candidate,
                                             int64_t current_k) const;
  Result<std::vector<int64_t>> PlanAdmission(const std::vector<RequestSpec>& existing,
                                             const RequestSpec& candidate,
                                             int64_t current_k) const;

  // --- General (per-request k_i) formulation, Eqs. 7-11 --------------------

  // Solves the general formulation the paper leaves open ("Determination
  // of k1, k2, ..., kn in this most general formulation is beyond the
  // scope of this paper"): finds a minimal per-request round assignment
  // satisfying Eq. 11, by repeatedly growing the k_i that currently binds
  // the playback side. Heterogeneous request mixes (slow audio next to
  // fast video) admit with smaller fast-side rounds than the uniform-k
  // simplification forces, shrinking startup latency and buffering.
  Result<std::vector<int64_t>> PerRequestBlocksPerRound(
      const std::vector<RequestSpec>& requests) const;

  // Duration of one service round transferring blocks_per_round[i] blocks
  // for request i (Eqs. 7-10).
  double RoundTime(const std::vector<RequestSpec>& requests,
                   const std::vector<int64_t>& blocks_per_round) const;

  // Continuity feasibility of a concrete round assignment (Eq. 11): the
  // round must not outlast the playback of any request's fetched blocks.
  bool FeasibleRound(const std::vector<RequestSpec>& requests,
                     const std::vector<int64_t>& blocks_per_round) const;

 private:
  StorageTimings storage_;
  double avg_scattering_sec_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace vafs

#endif  // VAFS_SRC_CORE_ADMISSION_H_
