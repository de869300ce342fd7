#include "src/disk/disk_array.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace vafs {

DiskArray::DiskArray(const DiskParameters& member_params, int members, DiskOptions options) {
  assert(members > 0);
  disks_.reserve(static_cast<size_t>(members));
  for (int i = 0; i < members; ++i) {
    // Decorrelate member fault schedules: identical seeds would make every
    // member fault on the same ops, turning a 1% rate into a 1% whole-batch
    // loss rate.
    DiskOptions member_options = options;
    member_options.faults.seed = options.faults.seed + static_cast<uint64_t>(i);
    // One image file per member: a shared mapping would let two arms
    // clobber each other's sectors.
    if (!member_options.image_path.empty()) {
      member_options.image_path += ".m" + std::to_string(i);
    }
    disks_.push_back(std::make_unique<Disk>(member_params, member_options));
  }
}

Status DiskArray::ValidateBatch(const std::vector<BatchRequest>& batch) const {
  std::vector<bool> used(disks_.size(), false);
  for (const BatchRequest& request : batch) {
    if (request.member < 0 || request.member >= members()) {
      return Status(ErrorCode::kInvalidArgument,
                    "batch names member " + std::to_string(request.member) + " of " +
                        std::to_string(members()));
    }
    if (used[static_cast<size_t>(request.member)]) {
      // Two requests on one member cannot proceed concurrently; callers
      // must split such work across batches.
      return Status(ErrorCode::kInvalidArgument,
                    "batch has two requests for member " + std::to_string(request.member));
    }
    used[static_cast<size_t>(request.member)] = true;
  }
  return Status::Ok();
}

Result<DiskArray::BatchOutcome> DiskArray::ReadBatch(const std::vector<BatchRequest>& batch,
                                                     std::vector<std::vector<uint8_t>>* out) {
  if (Status status = ValidateBatch(batch); !status.ok()) {
    return status;
  }
  if (out != nullptr) {
    out->assign(batch.size(), {});
  }
  BatchOutcome outcome;
  outcome.per_request.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchRequest& request = batch[i];
    Disk& disk = member(request.member);
    const Result<SimDuration> service =
        disk.Read(request.start_sector, request.sectors, out != nullptr ? &(*out)[i] : nullptr);
    MemberOutcome fate;
    if (service.ok()) {
      fate.service = *service;
    } else {
      // A faulted arm still moved: its mechanism time counts toward the batch.
      fate.status = service.status();
      fate.service = disk.last_fault_service();
    }
    outcome.completion_time = std::max(outcome.completion_time, fate.service);
    outcome.per_request.push_back(std::move(fate));
  }
  return outcome;
}

}  // namespace vafs
