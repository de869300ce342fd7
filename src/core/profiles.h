// Parameter bundles for the continuity model (paper Table 1).
//
// The analysis relates three groups of quantities:
//   - media characteristics: recording rate R and unit size s (MediaProfile),
//   - device characteristics: display/consumption rate R_dp and the number
//     of internal buffers on the media device (DeviceProfile),
//   - storage characteristics: transfer rate R_dt and positioning costs
//     (StorageTimings, extracted from a DiskModel).
// All durations here are real-valued seconds, matching the equations.

#ifndef VAFS_SRC_CORE_PROFILES_H_
#define VAFS_SRC_CORE_PROFILES_H_

#include <cstdint>

#include "src/disk/disk_model.h"
#include "src/media/media.h"
#include "src/util/time.h"

namespace vafs {

// Display-path characteristics of a media output device.
struct DeviceProfile {
  // Rate at which the device drains a block through decompression and
  // digital-to-analog conversion (the paper's R_dp), in bits/second.
  double display_rate_bits_per_sec = 0.0;

  // Internal device buffer capacity in media units (the paper's f frames).
  int64_t buffer_units = 1;

  // Time to display (decode + DAC) a block of `block_bits` bits.
  double DisplayTime(double block_bits) const { return block_bits / display_rate_bits_per_sec; }
};

// Storage-path characteristics, as consumed by the continuity equations.
struct StorageTimings {
  // Sustained transfer rate R_dt in bits/second.
  double transfer_rate_bits_per_sec = 0.0;

  // Worst-case positioning cost between two arbitrary blocks, l_seek^max
  // (full-stroke seek plus worst rotational latency), in seconds.
  double max_access_gap_sec = 0.0;

  // Expected rotational latency in seconds (part of every access gap).
  double avg_rotational_latency_sec = 0.0;

  // Time to transfer a block of `block_bits` bits.
  double TransferTime(double block_bits) const { return block_bits / transfer_rate_bits_per_sec; }

  // Extracts the timing figures from a disk model.
  static StorageTimings FromDiskModel(const DiskModel& model);
};

}  // namespace vafs

#endif  // VAFS_SRC_CORE_PROFILES_H_
