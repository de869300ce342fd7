// Stateful simulated disk.
//
// Wraps a DiskModel with mutable state: the current arm position and a
// sparse in-memory sector store. Read/Write return the simulated service
// time of the operation so callers (the MSM service loop, benches) can
// advance the simulation clock; the arm position is updated so that the
// next operation pays the correct seek.
//
// Data retention is optional: benchmarks that only study timing can run
// with retain_data = false and skip the byte copies.
//
// Fault model (src/disk/fault_injector.h): when DiskOptions::faults is
// configured, Read/Write may fail with kIoError (transient) or kBadSector
// (latent defect). A faulted operation still consumed the mechanism — seek,
// rotation, transfer — so the arm moves and busy time accrues; callers
// recover the charge via last_fault_service(). ReadSalvage models heroic
// recovery (ECC retries at reduced speed): it bypasses injection at a
// configured service-time multiplier, so relocation machinery can rescue
// data from a defective extent.
//
// Power cuts: an armed crash schedule kills the device after N durably
// written sectors. The write in flight persists only a prefix (or a torn
// shred) of its data; every later operation fails until PowerCycle()
// models the host rebooting the drive. This is how the crash-consistency
// layer (src/vafs/persistence.h) proves every checkpoint phase leaves a
// recoverable image at every sector boundary.

#ifndef VAFS_SRC_DISK_DISK_H_
#define VAFS_SRC_DISK_DISK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/disk/fault_injector.h"
#include "src/obs/trace.h"
#include "src/util/result.h"
#include "src/util/time.h"

namespace vafs {

struct DiskOptions {
  bool retain_data = true;
  // Fault injection; the default (zero rates, no bad ranges) never fails
  // anything and leaves all timing bit-identical.
  FaultOptions faults;
  // When non-empty (and retain_data is on), sector payloads live in an
  // mmap'd image file at this path instead of per-sector heap vectors
  // (DESIGN.md section 15). Timing and trace output are identical either
  // way; an unopenable path falls back to the in-memory store (see
  // Disk::image_backed). `image_truncate` discards any existing file
  // instead of remounting its contents.
  std::string image_path;
  bool image_truncate = false;
};

class Disk {
 public:
  using Options = DiskOptions;

  explicit Disk(const DiskParameters& params, DiskOptions options = DiskOptions());

  const DiskModel& model() const { return model_; }
  int64_t total_sectors() const { return model_.params().TotalSectors(); }
  int64_t bytes_per_sector() const { return model_.params().bytes_per_sector; }

  // Cylinder the arm currently rests on.
  int64_t head_cylinder() const { return head_cylinder_; }

  // Repositions the arm (e.g., after the disk served an unrelated task).
  void MoveHeadToCylinder(int64_t cylinder);

  // Reads `sectors` contiguous sectors starting at `start_sector` into
  // `out` (resized to fit; left empty when retain_data is off). Returns the
  // simulated service time: seek + rotational latency + transfer.
  Result<SimDuration> Read(int64_t start_sector, int64_t sectors, std::vector<uint8_t>* out);

  // Writes the given bytes over `sectors` contiguous sectors. `data` must
  // be exactly sectors * bytes_per_sector long (or empty when retain_data
  // is off). Returns the simulated service time.
  Result<SimDuration> Write(int64_t start_sector, int64_t sectors, std::span<const uint8_t> data);

  // Salvage read: bypasses fault injection (including bad ranges) at
  // faults.salvage_cost_multiplier times the normal service time. Used by
  // relocation to rescue the payload of a defective extent. Still fails if
  // the whole device is down.
  Result<SimDuration> ReadSalvage(int64_t start_sector, int64_t sectors,
                                  std::vector<uint8_t>* out);

  // Pure timing: service time the next read/write of this extent would
  // take from the current arm position, without performing it.
  SimDuration PeekServiceTime(int64_t start_sector, int64_t sectors) const;

  // Whole-device failure: while failed, every operation returns kIoError
  // immediately (no mechanical time is consumed). A failed DiskArray
  // member models the loss of one array member.
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  // Power state. A tripped crash schedule (FaultOptions::crash_after_sectors
  // or FaultInjector::ArmPowerCut) leaves the device powered off; whatever
  // sectors landed before the cut stay on the platter. PowerCycle restores
  // power, disarms any pending schedule and homes the arm — the state a
  // recovery path mounts against.
  bool powered_off() const { return injector_.powered_off(); }
  void PowerCycle();

  // Sector numbers that currently hold data, sorted (offline diagnostics:
  // the fsck scavenger scans these for Header Block signatures instead of
  // sweeping the whole address space). Requires retain_data.
  std::vector<int64_t> PopulatedSectors() const;

  // Fault injection state (counters, runtime bad-range management).
  FaultInjector& fault_injector() { return injector_; }
  const FaultInjector& fault_injector() const { return injector_; }

  // Simulated time the most recent *failed* Read/Write consumed before the
  // fault surfaced (0 if the device was down and never moved). Callers
  // advancing a clock must charge this on error, since the Result carries
  // no duration.
  SimDuration last_fault_service() const { return last_fault_service_; }

  // Lifetime operation counters (diagnostics).
  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  SimDuration busy_time() const { return busy_time_; }

  // Optional observability: every Read/Write reports its extent, simulated
  // service time and arm travel (seek_cylinders) to `sink`. The sink must
  // outlive the disk.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_; }

  // Optional clock for trace timestamps: when set, device events are
  // stamped end-of-operation relative to *hint (the caller's simulated
  // clock at issue time, e.g. the scheduler's in-round `now`). When null,
  // events fall back to the device's cumulative busy clock, which orders
  // operations correctly but is not simulation time. The pointee must stay
  // valid until the hint is cleared with set_time_hint(nullptr).
  void set_time_hint(const SimTime* hint) { time_hint_ = hint; }

  // Arm travel (cylinders) of the most recent positioned operation.
  int64_t last_seek_cylinders() const { return last_seek_cylinders_; }

  // Backing-store introspection: true when sector payloads live in the
  // mmap'd image (DiskOptions::image_path opened successfully). When an
  // image was requested but could not be opened, image_error() carries the
  // reason and the disk runs on the sparse in-memory store.
  bool image_backed() const { return image_ != nullptr; }
  const std::string& image_error() const { return image_error_; }

  // Flushes the mmap'd image to stable storage (msync). A no-op returning
  // true when not image-backed; the persistence layer calls this at
  // checkpoint so a durable checkpoint implies a durable image.
  bool SyncImage();

 private:
  Status ValidateExtent(int64_t start_sector, int64_t sectors) const;
  SimDuration Position(int64_t start_sector);
  // Performs the mechanical part of an operation and consults the injector;
  // on fault, records last_fault_service_, emits the trace event and
  // returns the error the caller should surface.
  Status Faulted(FaultKind kind, int64_t start_sector, int64_t sectors, SimDuration service);
  Status CheckDeviceUp();

  // Trace timestamp for an operation that consumed `service`, under the
  // active clock (time hint or device busy clock).
  SimTime TraceTime(SimDuration service) const;

  DiskModel model_;
  Options options_;
  FaultInjector injector_;
  obs::TraceSink* trace_ = nullptr;
  const SimTime* time_hint_ = nullptr;
  int64_t last_seek_cylinders_ = 0;
  bool failed_ = false;
  SimDuration last_fault_service_ = 0;
  int64_t head_cylinder_ = 0;
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  SimDuration busy_time_ = 0;
  // Copies `count` sectors starting at `start_sector` from the active
  // backing store into *out (resized; unwritten sectors read as zeros).
  void CopyOut(int64_t start_sector, int64_t count, std::vector<uint8_t>* out) const;
  // Persists one sector's payload into the active backing store.
  void PersistSector(int64_t sector, const uint8_t* data);

  // Sparse store: sector number -> sector payload. Unused when image-backed.
  std::unordered_map<int64_t, std::vector<uint8_t>> store_;
  std::unique_ptr<DiskImage> image_;
  std::string image_error_;
};

}  // namespace vafs

#endif  // VAFS_SRC_DISK_DISK_H_
