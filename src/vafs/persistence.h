// On-disk image: persistence and crash recovery for the whole file system.
//
// The durable state of vaFS is (a) the strands' data and index blocks,
// already on disk in the 3-level layout of Section 3.5, and (b) the
// catalog that finds them: strand metadata with Header Block locations,
// rope structures, and text-file extents.
//
// Crash consistency is built from three mechanisms:
//
//  1. A/B root commits. The disk's last two sectors hold alternating,
//     generation-stamped, CRC-checksummed root records. A checkpoint
//     writes the new catalog to fresh extents, verifies it by read-back,
//     flips the root into the *other* slot, and only then frees the old
//     catalog. A power cut at any write boundary leaves at least one root
//     pointing at a complete catalog.
//  2. A bounded intent journal. Between checkpoints, every metadata
//     mutation (strand finished/deleted, rope edited/deleted, text file
//     written/removed) appends a CRC-stamped redo record to a reserved
//     journal extent. Recovery replays intents on top of the catalog;
//     entries are invalidated by generation stamp, so a checkpoint
//     obsoletes the journal without erasing it.
//  3. An fsck-style scavenger. When no root yields a readable catalog,
//     Fsck rebuilds the strand catalog by scanning the disk for strand
//     Header Block signatures, and cross-checks every recovered extent
//     against the allocator for leaks and double claims.

#ifndef VAFS_SRC_VAFS_PERSISTENCE_H_
#define VAFS_SRC_VAFS_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/disk/disk.h"
#include "src/msm/strand_store.h"
#include "src/rope/rope_server.h"
#include "src/util/result.h"
#include "src/vafs/text_files.h"

namespace vafs {

// Sectors reserved for the intent journal at the first checkpoint. Bounded:
// when the journal fills, mutations simply stop being journaled and the
// next checkpoint captures them (losing only the redo optimization, never
// consistency).
inline constexpr int64_t kJournalSectors = 64;

// Where a saved image's bookkeeping lives. `generation` counts checkpoints
// and selects the root slot (generation % 2) the image committed to.
struct ImageReceipt {
  Extent catalog_extent;
  Extent journal_extent;
  int64_t generation = 0;
  bool valid = false;
};

// Serializes the catalog of `store`, `ropes` and (optionally) `texts` and
// commits it with the A/B root protocol: write-new, verify by read-back,
// flip the root, then free the old catalog. On any failure the previous
// image remains the committed one and everything allocated by this call is
// released.
Result<ImageReceipt> SaveImage(StrandStore* store, const RopeServer* ropes,
                               const TextFileService* texts,
                               const ImageReceipt* previous = nullptr);

// A recovered file system: fresh layers over the same disk.
struct LoadedImage {
  std::unique_ptr<StrandStore> store;
  std::unique_ptr<RopeServer> ropes;
  std::unique_ptr<TextFileService> texts;
  ImageReceipt receipt;
  int64_t strands_recovered = 0;
  int64_t ropes_recovered = 0;
  int64_t text_files_recovered = 0;
  // Journal replay outcome, so the caller can resume appending where
  // recovery stopped.
  int64_t journal_entries_replayed = 0;
  int64_t journal_resume_offset_sectors = 0;
  int64_t journal_resume_sequence = 0;
};

// Rebuilds the file system state from the newest valid root of `disk`,
// then replays any journaled intents of that generation. The disk must
// outlive the returned layers. Returns kNotFound if neither root slot
// carries the image magic (pristine disk), kInvalidArgument if roots exist
// but no catalog is readable (Fsck territory).
Result<LoadedImage> LoadImage(Disk* disk);

// --- Intent journal ----------------------------------------------------------

// The kind of metadata mutation a journal entry redoes.
enum class Intent : int64_t {
  kStrandAdded = 1,
  kStrandDeleted = 2,
  kRopeUpsert = 3,
  kRopeDeleted = 4,
  kTextUpsert = 5,
  kTextRemoved = 6,
};

// Appends CRC-stamped, generation-bound redo records into the reserved
// journal extent. One instance lives per committed checkpoint generation;
// Checkpoint() replaces it (the new generation stamp invalidates all prior
// entries without touching them on disk).
class IntentJournal {
 public:
  // `disk` is not owned. `extent` is the reserved journal region;
  // `generation` stamps every entry with the base image it applies on.
  IntentJournal(Disk* disk, Extent extent, int64_t generation);

  // Continues appending after recovery replayed a prefix of the journal.
  void ResumeAt(int64_t offset_sectors, int64_t next_sequence);

  // Appends one intent record (sector-aligned). Returns kNoSpace when the
  // reserved extent is full — the caller stops journaling until the next
  // checkpoint.
  Status Append(Intent intent, std::span<const uint8_t> payload);

  int64_t generation() const { return generation_; }
  int64_t offset_sectors() const { return offset_sectors_; }
  int64_t next_sequence() const { return next_sequence_; }

 private:
  Disk* disk_;
  Extent extent_;
  int64_t generation_;
  int64_t offset_sectors_ = 0;
  int64_t next_sequence_ = 0;
};

// Payload encoders for the journal, shared with replay. The strand payload
// is the catalog-entry wire format; the rope payload is the catalog rope
// wire format; the text payload is name + size + extents.
std::vector<uint8_t> EncodeStrandIntent(const StrandStore::CatalogEntry& entry);
std::vector<uint8_t> EncodeStrandDeleteIntent(StrandId id);
std::vector<uint8_t> EncodeRopeIntent(const Rope& rope);
std::vector<uint8_t> EncodeRopeDeleteIntent(RopeId id);
std::vector<uint8_t> EncodeTextIntent(const TextFileService::ExportedFile& file);
std::vector<uint8_t> EncodeTextRemoveIntent(const std::string& name);

// --- Offline scavenger (fsck) ------------------------------------------------

enum class FsckFindingKind {
  kCorruptRoot,          // a root slot failed magic/CRC/read
  kCorruptCatalog,       // a root pointed at an unreadable catalog
  kTornJournalEntry,     // the journal ended in a partial record
  kOrphanStrand,         // a strand recovered by HB scan, not via any catalog
  kUnreadableStrand,     // an HB signature whose index walk failed
  kLeakedExtent,         // allocated per the allocator, reachable by nothing
  kDoublyClaimedExtent,  // two owners claim overlapping sectors
};

const char* FsckFindingKindName(FsckFindingKind kind);

struct FsckFinding {
  FsckFindingKind kind = FsckFindingKind::kCorruptRoot;
  Extent extent;       // the sectors implicated (may be empty)
  std::string detail;  // human-readable context
};

// The scavenger's result: a best-effort recovered file system plus the
// findings that describe what was wrong.
struct FsckReport {
  std::vector<FsckFinding> findings;
  bool used_scavenger = false;  // true: catalog lost, strands came from HB scan
  std::unique_ptr<StrandStore> store;
  std::unique_ptr<RopeServer> ropes;
  std::unique_ptr<TextFileService> texts;
  ImageReceipt receipt;  // invalid when used_scavenger (no committed image)
  int64_t strands_recovered = 0;
};

// Offline check-and-repair. Loads the newest valid root when one exists
// (reporting corruption findings and cross-checking every extent claim);
// falls back to scanning the disk for strand Header Block signatures when
// no catalog is readable. Always returns a usable (possibly empty) set of
// layers.
Result<FsckReport> Fsck(Disk* disk);

}  // namespace vafs

#endif  // VAFS_SRC_VAFS_PERSISTENCE_H_
