#include "src/core/profiles.h"

namespace vafs {

StorageTimings StorageTimings::FromDiskModel(const DiskModel& model) {
  StorageTimings timings;
  timings.transfer_rate_bits_per_sec = model.TransferRateBitsPerSec();
  timings.max_access_gap_sec = UsecToSeconds(model.MaxAccessGap());
  timings.avg_rotational_latency_sec = UsecToSeconds(model.AverageRotationalLatency());
  return timings;
}

}  // namespace vafs
