// Multi-head disk array for the paper's concurrent retrieval architecture.
//
// Section 3.1 (Figure 3) analyzes retrieval with p concurrent disk
// accesses, as provided by a RAID-like array. DiskArray models p identical
// member disks; a batch of p block reads issued together is served in
// parallel and completes when the slowest member finishes. Consecutive
// blocks of a strand are assigned to members round-robin, so a group of p
// successive strand blocks always spans all members.
//
// Fault behaviour: a batch is issued to every member even when some of
// them fault — the members run in parallel, so one bad platter cannot call
// the others off. ReadBatch therefore reports a per-request BatchOutcome
// instead of aborting on the first member error; only malformed batches
// (unknown member, two requests on one member) fail the call as a whole.
// A dead member is one whose Disk is set_failed. Member fault schedules
// are decorrelated by deriving each member's injector seed from the array
// seed and the member index.
//
// Host execution: the requests of a batch are simulated one after another
// in batch order on the caller's thread, and completion_time is the max
// over members (Eq. 11), not the sum. Wall-clock parallelism lives one
// level up, at the grain of whole cluster nodes (DESIGN.md section 12):
// one batch is microseconds of simulated disk work, too fine to amortize a
// barrier.

#ifndef VAFS_SRC_DISK_DISK_ARRAY_H_
#define VAFS_SRC_DISK_DISK_ARRAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/disk/disk.h"
#include "src/util/result.h"
#include "src/util/time.h"

namespace vafs {

class DiskArray {
 public:
  // An array of `members` disks, each with the given geometry.
  DiskArray(const DiskParameters& member_params, int members, DiskOptions options = DiskOptions());

  int members() const { return static_cast<int>(disks_.size()); }
  const DiskModel& member_model() const { return disks_.front()->model(); }
  Disk& member(int index) { return *disks_[static_cast<size_t>(index)]; }

  // Member disk that stores the `block_index`-th block of a strand.
  int MemberForBlock(int64_t block_index) const {
    return static_cast<int>(block_index % members());
  }

  struct BatchRequest {
    int member;            // which disk serves this block
    int64_t start_sector;  // extent on that member
    int64_t sectors;
  };

  // Fate of one request within a batch. A faulted request still consumed
  // its member's mechanism for `service` microseconds (0 when the member
  // was down and never moved).
  struct MemberOutcome {
    Status status = Status::Ok();
    SimDuration service = 0;
  };

  struct BatchOutcome {
    // Parallel completion: max over members of their service times,
    // including the mechanical time of faulted requests — the batch is not
    // done until the slowest arm stops, successful or not.
    SimDuration completion_time = 0;
    std::vector<MemberOutcome> per_request;  // one entry per batch request
  };

  // Issues the batch concurrently (at most one request per member). Every
  // request is attempted; per-request fates land in the outcome. The call
  // itself only fails on a malformed batch. Data is read into `out[i]` for
  // request i when non-null (left empty for faulted requests).
  Result<BatchOutcome> ReadBatch(const std::vector<BatchRequest>& batch,
                                 std::vector<std::vector<uint8_t>>* out);

 private:
  // One arm serves one request at a time: two requests on one member are
  // not concurrent, so they cannot share a batch. Callers with deeper
  // queues split them across batches.
  Status ValidateBatch(const std::vector<BatchRequest>& batch) const;

  std::vector<std::unique_ptr<Disk>> disks_;
};

}  // namespace vafs

#endif  // VAFS_SRC_DISK_DISK_ARRAY_H_
