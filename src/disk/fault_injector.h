// Seeded, deterministic disk fault injection.
//
// The paper assumes a fault-free disk; this module supplies the faults so
// the rest of the system can prove it degrades gracefully. Three fault
// classes are modeled, mirroring what real spindles do:
//
//  - transient read/write errors: each operation independently fails with
//    a configured probability (a recoverable positioning or ECC hiccup —
//    the next attempt may succeed);
//  - latent bad-sector ranges: media defects. Every operation touching a
//    marked range fails deterministically until the data is relocated;
//  - whole-device failure: the disk stops answering (a failed DiskArray
//    member models the loss of one array member);
//  - power cuts: the device dies after a scheduled number of sectors has
//    been written. A cut landing mid-write leaves only a prefix of the
//    data on the platter — or, with torn writes enabled, an interleaved
//    shred where a seeded subset of the remaining sectors also landed.
//    The crash-consistency layer (src/vafs/persistence.h) is proven
//    against every such crash point.
//
// Determinism contract: all randomness comes from one explicitly seeded
// xoshiro stream, consulted exactly once per eligible operation, so a
// given (seed, operation sequence) always yields the same fault schedule.
// With rates at zero and no bad ranges the injector never draws from the
// stream and never fails anything — a disabled injector is bit-identical
// to no injector at all.

#ifndef VAFS_SRC_DISK_FAULT_INJECTOR_H_
#define VAFS_SRC_DISK_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/util/prng.h"

namespace vafs {

// A latent defect: sectors [start_sector, start_sector + sectors).
struct BadRange {
  int64_t start_sector = 0;
  int64_t sectors = 0;

  bool Overlaps(int64_t start, int64_t count) const {
    return start < start_sector + sectors && start_sector < start + count;
  }
};

struct FaultOptions {
  uint64_t seed = 0;
  // Independent per-operation transient failure probabilities, in [0, 1].
  double read_fault_rate = 0.0;
  double write_fault_rate = 0.0;
  // Latent defects present from construction (more can be added later).
  std::vector<BadRange> bad_ranges;
  // Service-time factor a salvage read pays (ECC heroics, re-reads at
  // reduced speed) relative to a normal read of the same extent.
  double salvage_cost_multiplier = 3.0;
  // Power-cut schedule: the device loses power once this many sectors have
  // been durably written (counted across all writes); -1 = never. The
  // write in flight when the budget expires persists only its leading
  // sectors. A crashed device fails every operation until PowerRestore.
  int64_t crash_after_sectors = -1;
  // When the cut lands mid-write: false leaves a clean prefix on the
  // platter; true additionally lands a seeded subset of the remaining
  // sectors (an interleaved shred — what a drive without atomic multi-
  // sector writes can leave behind).
  bool torn_writes = false;
};

// The injector's ruling on how much of one write survives a power cut.
struct CrashVerdict {
  bool power_cut = false;      // this write tripped the schedule
  int64_t prefix_sectors = 0;  // leading sectors that reached the platter
  // With torn writes: survival of each sector past the prefix (empty when
  // the cut is clean or absent).
  std::vector<bool> shred;
};

// What the injector decided about one operation.
enum class FaultKind {
  kNone,       // operation proceeds normally
  kTransient,  // recoverable error: a retry may succeed
  kBadSector,  // latent media defect: every attempt fails until relocated
};

const char* FaultKindName(FaultKind kind);

class FaultInjector {
 public:
  explicit FaultInjector(FaultOptions options);

  const FaultOptions& options() const { return options_; }

  // Fate of a read / write of [start_sector, start_sector + sectors).
  // Bad ranges dominate transient faults (the defect is certain; the coin
  // flip is not consulted for an extent that is doomed anyway).
  FaultKind OnRead(int64_t start_sector, int64_t sectors);
  FaultKind OnWrite(int64_t start_sector, int64_t sectors);

  // Declares a latent defect at runtime (e.g. a scrub discovering one).
  void MarkBad(int64_t start_sector, int64_t sectors);
  // Clears any defect overlapping the extent (sector remapped/repaired).
  void ClearBad(int64_t start_sector, int64_t sectors);
  bool IsBad(int64_t start_sector, int64_t sectors) const;

  // Runtime tuning of the transient rates (tests force failures of the
  // next operation deterministically with rate 1.0, then restore).
  void set_read_fault_rate(double rate) { options_.read_fault_rate = rate; }
  void set_write_fault_rate(double rate) { options_.write_fault_rate = rate; }

  // --- Power-cut schedule -----------------------------------------------------

  // Consulted once per write of `sectors`: advances the written-sector
  // budget and rules whether the power dies during this write. After a cut
  // the device is powered off and every later call reports a cut with a
  // zero prefix.
  CrashVerdict OnWriteCrashCheck(int64_t sectors);

  // (Re)arms the schedule at runtime: the cut lands once `after_sectors`
  // more sectors are written from this instant.
  void ArmPowerCut(int64_t after_sectors, bool torn = false);

  // Restores power (the host rebooted); the pending schedule, if any, is
  // disarmed — recovery runs against a healthy device.
  void PowerRestore();

  bool powered_off() const { return powered_off_; }

  // Lifetime fault counters, by class.
  int64_t transient_read_faults() const { return transient_read_faults_; }
  int64_t transient_write_faults() const { return transient_write_faults_; }
  int64_t bad_sector_hits() const { return bad_sector_hits_; }
  int64_t power_cuts() const { return power_cuts_; }
  // Sectors durably written since construction (or the last ArmPowerCut);
  // the crash matrix uses it to enumerate every write boundary of a phase.
  int64_t sectors_written() const { return sectors_written_; }

 private:
  FaultKind Decide(double rate, int64_t start_sector, int64_t sectors, int64_t* transient_counter);

  FaultOptions options_;
  Prng prng_;
  // Separate stream for torn-write shreds so arming a crash never perturbs
  // the transient-fault schedule of the main stream.
  Prng shred_prng_;
  bool powered_off_ = false;
  int64_t sectors_written_ = 0;
  int64_t transient_read_faults_ = 0;
  int64_t transient_write_faults_ = 0;
  int64_t bad_sector_hits_ = 0;
  int64_t power_cuts_ = 0;
};

}  // namespace vafs

#endif  // VAFS_SRC_DISK_FAULT_INJECTOR_H_
