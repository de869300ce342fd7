#include "src/vafs/persistence.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/layout/strand_index.h"
#include "src/obs/trace.h"
#include "src/util/checksum.h"
#include "src/util/units.h"

namespace vafs {

namespace {

constexpr uint64_t kImageMagic = 0x5641'4653'3030'3031ULL;    // catalog blob, "VAFS0001"
constexpr uint64_t kRootMagic = 0x3230'3030'5346'4156ULL;     // "VAFS0002" little-endian
constexpr uint64_t kJournalMagic = 0x3230'4E4A'5346'4156ULL;  // "VAFSJN02" little-endian

// Root record layout, one per slot (sector-padded):
//   [0,8)   magic
//   [8,16)  crc64 over [16,72)
//   [16,24) generation
//   [24,32) catalog start sector
//   [32,40) catalog sectors
//   [40,48) catalog logical bytes
//   [48,56) crc64 of the catalog blob
//   [56,64) journal start sector
//   [64,72) journal sectors
constexpr size_t kRootRecordBytes = 72;

// Journal entry layout (sector-aligned):
//   [0,8)   magic
//   [8,16)  crc64 over [16, 48 + payload)
//   [16,24) generation of the base image the entry redoes on
//   [24,32) sequence number, dense from 0 per generation
//   [32,40) intent type
//   [40,48) payload bytes
//   [48,..) payload
constexpr int64_t kJournalHeaderBytes = 48;

const char* IntentName(Intent intent) {
  switch (intent) {
    case Intent::kStrandAdded:
      return "strand_added";
    case Intent::kStrandDeleted:
      return "strand_deleted";
    case Intent::kRopeUpsert:
      return "rope_upsert";
    case Intent::kRopeDeleted:
      return "rope_deleted";
    case Intent::kTextUpsert:
      return "text_upsert";
    case Intent::kTextRemoved:
      return "text_removed";
  }
  return "unknown";
}

void Emit(Disk* disk, obs::TraceEventKind kind, int64_t round, int64_t sector, int64_t blocks,
          const std::string& detail) {
  obs::TraceSink* sink = disk->trace_sink();
  if (sink == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.kind = kind;
  event.round = round;
  event.sector = sector;
  event.blocks = blocks;
  event.detail = detail;
  sink->OnEvent(event);
}

uint64_t ReadU64(const uint8_t* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

void WriteU64(uint8_t* bytes, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// --- Byte-stream plumbing ----------------------------------------------------

class ByteWriter {
 public:
  void I64(int64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i)));
    }
  }
  void F64(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    I64(static_cast<int64_t>(bits));
  }
  void Str(const std::string& value) {
    I64(static_cast<int64_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
  }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }

  int64_t I64() {
    if (offset_ + 8 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(bytes_[offset_ + static_cast<size_t>(i)]) << (8 * i);
    }
    offset_ += 8;
    return static_cast<int64_t>(value);
  }
  double F64() {
    const int64_t raw = I64();
    uint64_t bits = static_cast<uint64_t>(raw);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  std::string Str() {
    const int64_t length = I64();
    if (length < 0 || offset_ + static_cast<size_t>(length) > bytes_.size()) {
      ok_ = false;
      return "";
    }
    std::string value(bytes_.begin() + static_cast<ptrdiff_t>(offset_),
                      bytes_.begin() + static_cast<ptrdiff_t>(offset_ + static_cast<size_t>(length)));
    offset_ += static_cast<size_t>(length);
    return value;
  }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t offset_ = 0;
  bool ok_ = true;
};

void WriteTrack(ByteWriter* out, const Track& track) {
  out->F64(track.rate);
  out->I64(track.granularity);
  out->I64(static_cast<int64_t>(track.segments.size()));
  for (const TrackSegment& segment : track.segments) {
    out->I64(static_cast<int64_t>(segment.strand));
    out->I64(segment.start_unit);
    out->I64(segment.unit_count);
  }
}

bool ReadTrack(ByteReader* in, Track* track) {
  track->rate = in->F64();
  track->granularity = in->I64();
  const int64_t segments = in->I64();
  for (int64_t i = 0; i < segments && in->ok(); ++i) {
    TrackSegment segment;
    segment.strand = static_cast<StrandId>(in->I64());
    segment.start_unit = in->I64();
    segment.unit_count = in->I64();
    track->segments.push_back(segment);
  }
  return in->ok();
}

// --- Shared wire formats (catalog blob and journal payloads) -----------------

void WriteCatalogEntry(ByteWriter* out, const StrandStore::CatalogEntry& entry) {
  out->I64(static_cast<int64_t>(entry.info.id));
  out->I64(entry.info.medium == Medium::kVideo ? 0 : 1);
  out->F64(entry.info.recording_rate);
  out->I64(entry.info.bits_per_unit);
  out->I64(entry.info.granularity);
  out->I64(entry.info.unit_count);
  out->F64(entry.info.min_scattering_sec);
  out->F64(entry.info.max_scattering_sec);
  out->I64(entry.header_block.start_sector);
  out->I64(entry.header_block.sectors);
}

bool ReadCatalogEntry(ByteReader* in, StrandInfo* info, Extent* header_block) {
  info->id = static_cast<StrandId>(in->I64());
  info->medium = in->I64() == 0 ? Medium::kVideo : Medium::kAudio;
  info->recording_rate = in->F64();
  info->bits_per_unit = in->I64();
  info->granularity = in->I64();
  info->unit_count = in->I64();
  info->min_scattering_sec = in->F64();
  info->max_scattering_sec = in->F64();
  header_block->start_sector = in->I64();
  header_block->sectors = in->I64();
  return in->ok();
}

void WriteRope(ByteWriter* out, const Rope& rope) {
  out->I64(static_cast<int64_t>(rope.id()));
  out->Str(rope.creator());
  out->I64(static_cast<int64_t>(rope.access().play_users.size()));
  for (const std::string& user : rope.access().play_users) {
    out->Str(user);
  }
  out->I64(static_cast<int64_t>(rope.access().edit_users.size()));
  for (const std::string& user : rope.access().edit_users) {
    out->Str(user);
  }
  WriteTrack(out, rope.video());
  WriteTrack(out, rope.audio());
  out->I64(static_cast<int64_t>(rope.triggers().size()));
  for (const Trigger& trigger : rope.triggers()) {
    out->F64(trigger.at_sec);
    out->Str(trigger.text);
  }
}

std::unique_ptr<Rope> ReadRope(ByteReader* in) {
  const RopeId id = static_cast<RopeId>(in->I64());
  const std::string creator = in->Str();
  auto rope = std::make_unique<Rope>(id, creator);
  const int64_t play_users = in->I64();
  for (int64_t u = 0; u < play_users && in->ok(); ++u) {
    rope->access().play_users.push_back(in->Str());
  }
  const int64_t edit_users = in->I64();
  for (int64_t u = 0; u < edit_users && in->ok(); ++u) {
    rope->access().edit_users.push_back(in->Str());
  }
  if (!ReadTrack(in, &rope->video()) || !ReadTrack(in, &rope->audio())) {
    return nullptr;
  }
  const int64_t triggers = in->I64();
  for (int64_t t = 0; t < triggers && in->ok(); ++t) {
    Trigger trigger;
    trigger.at_sec = in->F64();
    trigger.text = in->Str();
    rope->triggers().push_back(std::move(trigger));
  }
  return in->ok() ? std::move(rope) : nullptr;
}

void WriteTextFile(ByteWriter* out, const TextFileService::ExportedFile& file) {
  out->Str(file.name);
  out->I64(file.size_bytes);
  out->I64(static_cast<int64_t>(file.extents.size()));
  for (const Extent& extent : file.extents) {
    out->I64(extent.start_sector);
    out->I64(extent.sectors);
  }
}

bool ReadTextFile(ByteReader* in, TextFileService::ExportedFile* file) {
  file->name = in->Str();
  file->size_bytes = in->I64();
  const int64_t extent_count = in->I64();
  for (int64_t e = 0; e < extent_count && in->ok(); ++e) {
    Extent extent;
    extent.start_sector = in->I64();
    extent.sectors = in->I64();
    file->extents.push_back(extent);
  }
  return in->ok();
}

std::vector<uint8_t> SerializeCatalog(const StrandStore* store, const RopeServer* ropes,
                                      const TextFileService* texts) {
  ByteWriter out;
  out.I64(static_cast<int64_t>(kImageMagic));

  const auto catalog = store->ExportCatalog();
  out.I64(static_cast<int64_t>(catalog.size()));
  for (const StrandStore::CatalogEntry& entry : catalog) {
    WriteCatalogEntry(&out, entry);
  }

  const auto all_ropes = ropes->AllRopes();
  out.I64(static_cast<int64_t>(all_ropes.size()));
  for (const Rope* rope : all_ropes) {
    WriteRope(&out, *rope);
  }

  const auto files = texts != nullptr ? texts->ExportAll()
                                      : std::vector<TextFileService::ExportedFile>{};
  out.I64(static_cast<int64_t>(files.size()));
  for (const TextFileService::ExportedFile& file : files) {
    WriteTextFile(&out, file);
  }
  return out.Take();
}

// Reads an extent and trims to `bytes` (or leaves sector-padded if < 0).
Result<std::vector<uint8_t>> ReadExtent(Disk* disk, int64_t sector, int64_t sectors,
                                        int64_t bytes = -1) {
  std::vector<uint8_t> data;
  if (Result<SimDuration> read = disk->Read(sector, sectors, &data); !read.ok()) {
    return read.status();
  }
  if (bytes >= 0 && static_cast<int64_t>(data.size()) > bytes) {
    data.resize(static_cast<size_t>(bytes));
  }
  return data;
}

// Walks HB -> SBs -> PBs to rebuild a strand's index from the platters.
Result<StrandIndex> RecoverIndex(Disk* disk, const Extent& header_block,
                                 std::vector<Extent>* index_extents) {
  Result<std::vector<uint8_t>> hb_bytes =
      ReadExtent(disk, header_block.start_sector, header_block.sectors);
  if (!hb_bytes.ok()) {
    return hb_bytes.status();
  }
  Result<StrandIndex::HeaderInfo> header = StrandIndex::ParseHeaderBlock(*hb_bytes);
  if (!header.ok()) {
    return header.status();
  }

  std::vector<StrandIndex::SecondaryEntry> pb_locations;
  std::vector<Extent> sb_extents;
  for (const auto& [sb_sector, sb_sectors] : header->sb_extents) {
    Result<std::vector<uint8_t>> sb_bytes = ReadExtent(disk, sb_sector, sb_sectors);
    if (!sb_bytes.ok()) {
      return sb_bytes.status();
    }
    Result<std::vector<StrandIndex::SecondaryEntry>> entries =
        StrandIndex::ParseSecondaryBlock(*sb_bytes);
    if (!entries.ok()) {
      return entries.status();
    }
    pb_locations.insert(pb_locations.end(), entries->begin(), entries->end());
    sb_extents.push_back(Extent{sb_sector, sb_sectors});
  }

  std::vector<std::vector<uint8_t>> primaries;
  for (const StrandIndex::SecondaryEntry& pb : pb_locations) {
    Result<std::vector<uint8_t>> pb_bytes =
        ReadExtent(disk, pb.sector, pb.sector_count, pb.block_count * 16);
    if (!pb_bytes.ok()) {
      return pb_bytes.status();
    }
    primaries.push_back(std::move(*pb_bytes));
    index_extents->push_back(Extent{pb.sector, pb.sector_count});
  }
  // Writer convention: PBs first, then SBs, then the HB last.
  index_extents->insert(index_extents->end(), sb_extents.begin(), sb_extents.end());
  index_extents->push_back(header_block);

  return StrandIndex::FromSerializedPrimaries(IndexFanout(), primaries);
}

// Recovers a strand named by a catalog entry (or journal intent): index
// from the platters, extents re-marked allocated by AdoptStrand.
Status AdoptFromCatalogEntry(Disk* disk, StrandStore* store, const StrandInfo& info,
                             const Extent& header_block) {
  std::vector<Extent> index_extents;
  Result<StrandIndex> index = RecoverIndex(disk, header_block, &index_extents);
  if (!index.ok()) {
    return index.status();
  }
  return store->AdoptStrand(info, std::move(*index), std::move(index_extents));
}

// --- Root records ------------------------------------------------------------

struct RootRecord {
  int64_t generation = 0;
  int64_t catalog_sector = 0;
  int64_t catalog_sectors = 0;
  int64_t catalog_bytes = 0;
  uint64_t catalog_crc = 0;
  int64_t journal_sector = 0;
  int64_t journal_sectors = 0;
};

std::vector<uint8_t> SerializeRoot(const RootRecord& root, int64_t sector_bytes) {
  std::vector<uint8_t> bytes(static_cast<size_t>(sector_bytes), 0);
  WriteU64(bytes.data(), kRootMagic);
  WriteU64(bytes.data() + 16, static_cast<uint64_t>(root.generation));
  WriteU64(bytes.data() + 24, static_cast<uint64_t>(root.catalog_sector));
  WriteU64(bytes.data() + 32, static_cast<uint64_t>(root.catalog_sectors));
  WriteU64(bytes.data() + 40, static_cast<uint64_t>(root.catalog_bytes));
  WriteU64(bytes.data() + 48, root.catalog_crc);
  WriteU64(bytes.data() + 56, static_cast<uint64_t>(root.journal_sector));
  WriteU64(bytes.data() + 64, static_cast<uint64_t>(root.journal_sectors));
  const uint64_t crc =
      Crc64(std::span<const uint8_t>(bytes.data() + 16, kRootRecordBytes - 16));
  WriteU64(bytes.data() + 8, crc);
  return bytes;
}

// How one root slot parsed.
struct RootSlot {
  bool has_magic = false;  // the slot carries the root signature at all
  bool valid = false;      // signature + CRC + sanity all passed
  RootRecord record;
};

RootSlot ParseRoot(const std::vector<uint8_t>& bytes) {
  RootSlot slot;
  if (bytes.size() < kRootRecordBytes) {
    return slot;
  }
  if (ReadU64(bytes.data()) != kRootMagic) {
    return slot;
  }
  slot.has_magic = true;
  const uint64_t stored_crc = ReadU64(bytes.data() + 8);
  const uint64_t actual_crc =
      Crc64(std::span<const uint8_t>(bytes.data() + 16, kRootRecordBytes - 16));
  if (stored_crc != actual_crc) {
    return slot;
  }
  slot.record.generation = static_cast<int64_t>(ReadU64(bytes.data() + 16));
  slot.record.catalog_sector = static_cast<int64_t>(ReadU64(bytes.data() + 24));
  slot.record.catalog_sectors = static_cast<int64_t>(ReadU64(bytes.data() + 32));
  slot.record.catalog_bytes = static_cast<int64_t>(ReadU64(bytes.data() + 40));
  slot.record.catalog_crc = ReadU64(bytes.data() + 48);
  slot.record.journal_sector = static_cast<int64_t>(ReadU64(bytes.data() + 56));
  slot.record.journal_sectors = static_cast<int64_t>(ReadU64(bytes.data() + 64));
  slot.valid = slot.record.generation > 0 && slot.record.catalog_sector >= 0 &&
               slot.record.catalog_sectors > 0 && slot.record.catalog_bytes >= 0 &&
               slot.record.journal_sector >= 0 && slot.record.journal_sectors > 0;
  return slot;
}

// Reads both root slots and picks the newest generation whose catalog
// verifies against its recorded CRC. Collects fsck findings for every
// slot/catalog that failed on the way.
struct RootChoice {
  bool any_magic = false;
  bool chosen = false;
  RootRecord root;
  std::vector<uint8_t> catalog;  // verified, trimmed to logical bytes
  std::vector<FsckFinding> findings;
};

RootChoice ChooseRoot(Disk* disk) {
  const int64_t roots_start = disk->total_sectors() - 2;
  RootChoice choice;

  RootSlot slots[2];
  for (int i = 0; i < 2; ++i) {
    Result<std::vector<uint8_t>> bytes = ReadExtent(disk, roots_start + i, 1);
    if (bytes.ok()) {
      slots[i] = ParseRoot(*bytes);
    } else {
      choice.findings.push_back(FsckFinding{FsckFindingKind::kCorruptRoot,
                                            Extent{roots_start + i, 1},
                                            "root slot " + std::to_string(i) + " unreadable"});
      continue;
    }
    if (slots[i].has_magic) {
      choice.any_magic = true;
    }
    // An empty slot (no signature) is normal — the A/B protocol writes
    // slot 0 only from generation 2 on. Only a signed-but-broken record
    // is a finding.
    if (slots[i].has_magic && !slots[i].valid) {
      choice.findings.push_back(FsckFinding{FsckFindingKind::kCorruptRoot,
                                            Extent{roots_start + i, 1},
                                            "root slot " + std::to_string(i)});
    }
  }
  if (!choice.any_magic) {
    return choice;
  }

  // Newest generation first.
  std::vector<const RootSlot*> candidates;
  for (const RootSlot& slot : slots) {
    if (slot.valid) {
      candidates.push_back(&slot);
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const RootSlot* a, const RootSlot* b) {
    return a->record.generation > b->record.generation;
  });

  for (const RootSlot* slot : candidates) {
    const RootRecord& root = slot->record;
    Result<std::vector<uint8_t>> blob =
        ReadExtent(disk, root.catalog_sector, root.catalog_sectors, root.catalog_bytes);
    if (blob.ok() && Crc64(*blob) == root.catalog_crc &&
        blob->size() >= 8 && ReadU64(blob->data()) == kImageMagic) {
      choice.chosen = true;
      choice.root = root;
      choice.catalog = std::move(*blob);
      return choice;
    }
    choice.findings.push_back(FsckFinding{
        FsckFindingKind::kCorruptCatalog,
        Extent{root.catalog_sector, root.catalog_sectors},
        "generation " + std::to_string(root.generation)});
  }
  return choice;
}

// --- Image building ----------------------------------------------------------

// Applies one decoded journal intent to the half-built image.
Status ApplyIntent(Disk* disk, LoadedImage* image, Intent intent,
                   const std::vector<uint8_t>& payload) {
  ByteReader in(payload);
  switch (intent) {
    case Intent::kStrandAdded: {
      StrandInfo info;
      Extent header_block;
      if (!ReadCatalogEntry(&in, &info, &header_block)) {
        return Status(ErrorCode::kInvalidArgument, "malformed strand intent");
      }
      if (Status status = AdoptFromCatalogEntry(disk, image->store.get(), info, header_block);
          !status.ok()) {
        return status;
      }
      ++image->strands_recovered;
      return Status::Ok();
    }
    case Intent::kStrandDeleted: {
      const StrandId id = static_cast<StrandId>(in.I64());
      if (!in.ok()) {
        return Status(ErrorCode::kInvalidArgument, "malformed strand-delete intent");
      }
      Status status = image->store->Delete(id);
      if (!status.ok() && status.code() != ErrorCode::kNotFound) {
        return status;
      }
      return Status::Ok();
    }
    case Intent::kRopeUpsert: {
      std::unique_ptr<Rope> rope = ReadRope(&in);
      if (rope == nullptr) {
        return Status(ErrorCode::kInvalidArgument, "malformed rope intent");
      }
      return image->ropes->AdoptRope(std::move(rope), /*replace_existing=*/true);
    }
    case Intent::kRopeDeleted: {
      const RopeId id = static_cast<RopeId>(in.I64());
      if (!in.ok()) {
        return Status(ErrorCode::kInvalidArgument, "malformed rope-delete intent");
      }
      Status status = image->ropes->EraseRope(id);
      if (!status.ok() && status.code() != ErrorCode::kNotFound) {
        return status;
      }
      return Status::Ok();
    }
    case Intent::kTextUpsert: {
      TextFileService::ExportedFile file;
      if (!ReadTextFile(&in, &file)) {
        return Status(ErrorCode::kInvalidArgument, "malformed text intent");
      }
      if (image->texts->Exists(file.name)) {
        // Remove frees the stale extents back to the allocator.
        if (Status status = image->texts->Remove(file.name); !status.ok()) {
          return status;
        }
      }
      for (const Extent& extent : file.extents) {
        if (Status status = image->store->allocator().AllocateExact(extent); !status.ok()) {
          return status;
        }
      }
      return image->texts->Adopt(file.name, file.size_bytes, std::move(file.extents));
    }
    case Intent::kTextRemoved: {
      const std::string name = in.Str();
      if (!in.ok()) {
        return Status(ErrorCode::kInvalidArgument, "malformed text-remove intent");
      }
      Status status = image->texts->Remove(name);
      if (!status.ok() && status.code() != ErrorCode::kNotFound) {
        return status;
      }
      return Status::Ok();
    }
  }
  return Status(ErrorCode::kInvalidArgument, "unknown intent type");
}

// Replays the journal of the committed generation on top of the catalog
// image. Stops at the first entry that is absent, stale, out of sequence,
// or torn; a torn entry is reported into `findings` when given.
Status ReplayJournal(Disk* disk, LoadedImage* image, const RootRecord& root,
                     std::vector<FsckFinding>* findings) {
  const int64_t sector_bytes = disk->bytes_per_sector();
  Result<std::vector<uint8_t>> journal =
      ReadExtent(disk, root.journal_sector, root.journal_sectors);
  if (!journal.ok()) {
    // An unreadable journal loses redo entries but not the base image.
    if (findings != nullptr) {
      findings->push_back(FsckFinding{FsckFindingKind::kTornJournalEntry,
                                      Extent{root.journal_sector, root.journal_sectors},
                                      "journal unreadable: " + journal.status().message()});
    }
    return Status::Ok();
  }
  const std::vector<uint8_t>& bytes = *journal;
  const int64_t size = static_cast<int64_t>(bytes.size());

  int64_t offset_sectors = 0;
  int64_t expected_sequence = 0;
  while (true) {
    const int64_t byte_off = offset_sectors * sector_bytes;
    if (byte_off + kJournalHeaderBytes > size) {
      break;
    }
    const uint8_t* entry = bytes.data() + byte_off;
    if (ReadU64(entry) != kJournalMagic) {
      break;  // end of the valid prefix (zeros or leftover foreign data)
    }
    const uint64_t stored_crc = ReadU64(entry + 8);
    const int64_t generation = static_cast<int64_t>(ReadU64(entry + 16));
    const int64_t sequence = static_cast<int64_t>(ReadU64(entry + 24));
    const int64_t type = static_cast<int64_t>(ReadU64(entry + 32));
    const int64_t payload_len = static_cast<int64_t>(ReadU64(entry + 40));
    const int64_t entry_len = kJournalHeaderBytes + payload_len;
    if (payload_len < 0 || byte_off + entry_len > size) {
      if (findings != nullptr) {
        findings->push_back(FsckFinding{FsckFindingKind::kTornJournalEntry,
                                        Extent{root.journal_sector + offset_sectors, 1},
                                        "length out of bounds"});
      }
      break;
    }
    const uint64_t actual_crc = Crc64(
        std::span<const uint8_t>(entry + 16, static_cast<size_t>(entry_len - 16)));
    if (stored_crc != actual_crc) {
      if (findings != nullptr) {
        findings->push_back(FsckFinding{FsckFindingKind::kTornJournalEntry,
                                        Extent{root.journal_sector + offset_sectors, 1},
                                        "checksum mismatch"});
      }
      break;
    }
    if (generation != root.generation || sequence != expected_sequence) {
      break;  // entry from a superseded generation: the checkpoint absorbed it
    }

    std::vector<uint8_t> payload(entry + kJournalHeaderBytes, entry + entry_len);
    if (Status status = ApplyIntent(disk, image, static_cast<Intent>(type), payload);
        !status.ok()) {
      return status;
    }
    Emit(disk, obs::TraceEventKind::kJournalReplay, sequence,
         root.journal_sector + offset_sectors, CeilDiv(entry_len, sector_bytes),
         IntentName(static_cast<Intent>(type)));
    ++image->journal_entries_replayed;
    ++expected_sequence;
    offset_sectors += CeilDiv(entry_len, sector_bytes);
  }

  image->journal_resume_offset_sectors = offset_sectors;
  image->journal_resume_sequence = expected_sequence;
  return Status::Ok();
}

// Builds the full image from a verified catalog blob, then replays the
// journal. `findings` (optional) receives torn-journal findings.
Result<LoadedImage> BuildImage(Disk* disk, const RootRecord& root,
                               const std::vector<uint8_t>& blob,
                               std::vector<FsckFinding>* findings) {
  const int64_t roots_start = disk->total_sectors() - 2;
  ByteReader in(blob);
  if (static_cast<uint64_t>(in.I64()) != kImageMagic) {
    return Status(ErrorCode::kInvalidArgument, "corrupt catalog");
  }

  LoadedImage image;
  image.store = std::make_unique<StrandStore>(disk);
  image.receipt.catalog_extent = Extent{root.catalog_sector, root.catalog_sectors};
  image.receipt.journal_extent = Extent{root.journal_sector, root.journal_sectors};
  image.receipt.generation = root.generation;
  image.receipt.valid = true;

  // Reserve the bookkeeping extents before any strand claims them.
  for (const Extent& reserved :
       {Extent{roots_start, 2}, image.receipt.catalog_extent, image.receipt.journal_extent}) {
    if (Status status = image.store->allocator().AllocateExact(reserved); !status.ok()) {
      return status;
    }
  }

  // Strands: metadata from the catalog, index from the platters.
  const int64_t strand_count = in.I64();
  for (int64_t i = 0; i < strand_count && in.ok(); ++i) {
    StrandInfo info;
    Extent header_block;
    if (!ReadCatalogEntry(&in, &info, &header_block)) {
      break;
    }
    if (Status status = AdoptFromCatalogEntry(disk, image.store.get(), info, header_block);
        !status.ok()) {
      return status;
    }
    ++image.strands_recovered;
  }

  // Ropes.
  image.ropes = std::make_unique<RopeServer>(image.store.get());
  const int64_t rope_count = in.I64();
  for (int64_t i = 0; i < rope_count && in.ok(); ++i) {
    std::unique_ptr<Rope> rope = ReadRope(&in);
    if (rope == nullptr) {
      break;
    }
    if (Status status = image.ropes->AdoptRope(std::move(rope)); !status.ok()) {
      return status;
    }
    ++image.ropes_recovered;
  }

  // Text files.
  image.texts = std::make_unique<TextFileService>(disk, &image.store->allocator());
  const int64_t file_count = in.I64();
  for (int64_t i = 0; i < file_count && in.ok(); ++i) {
    TextFileService::ExportedFile file;
    if (!ReadTextFile(&in, &file)) {
      break;
    }
    for (const Extent& extent : file.extents) {
      if (Status status = image.store->allocator().AllocateExact(extent); !status.ok()) {
        return status;
      }
    }
    if (Status status = image.texts->Adopt(file.name, file.size_bytes, std::move(file.extents));
        !status.ok()) {
      return status;
    }
    ++image.text_files_recovered;
  }

  if (!in.ok()) {
    return Status(ErrorCode::kInvalidArgument, "truncated catalog");
  }

  if (Status status = ReplayJournal(disk, &image, root, findings); !status.ok()) {
    return status;
  }
  return image;
}

}  // namespace

// --- SaveImage ---------------------------------------------------------------

Result<ImageReceipt> SaveImage(StrandStore* store, const RopeServer* ropes,
                               const TextFileService* texts, const ImageReceipt* previous) {
  Disk& disk = store->disk();
  const int64_t sector_bytes = disk.bytes_per_sector();
  const int64_t roots_start = disk.total_sectors() - 2;

  std::vector<uint8_t> blob = SerializeCatalog(store, ropes, texts);
  const int64_t blob_bytes = static_cast<int64_t>(blob.size());
  const uint64_t blob_crc = Crc64(blob);

  // Everything this call allocates is released on any failure, leaving the
  // previously committed image untouched (the in-memory frees succeed even
  // when the device is down).
  std::vector<Extent> allocated;
  auto rollback = [&] {
    for (const Extent& extent : allocated) {
      (void)store->allocator().Free(extent);
    }
  };

  RootRecord root;
  if (previous == nullptr || !previous->valid) {
    // Bootstrap: reserve both root slots and the journal region.
    if (Status status = store->allocator().AllocateExact(Extent{roots_start, 2});
        !status.ok()) {
      return Status(ErrorCode::kNoSpace,
                    "root sectors occupied; reserve them before recording media");
    }
    allocated.push_back(Extent{roots_start, 2});
    Result<Extent> journal = store->allocator().Allocate(kJournalSectors);
    if (!journal.ok()) {
      rollback();
      return journal.status();
    }
    allocated.push_back(*journal);
    root.generation = 1;
    root.journal_sector = journal->start_sector;
    root.journal_sectors = journal->sectors;
  } else {
    root.generation = previous->generation + 1;
    root.journal_sector = previous->journal_extent.start_sector;
    root.journal_sectors = previous->journal_extent.sectors;
  }

  // Write the new catalog to fresh extents; the old catalog stays intact
  // and reachable through the old root until the flip below.
  const int64_t blob_sectors = std::max<int64_t>(1, CeilDiv(blob_bytes, sector_bytes));
  Result<Extent> catalog_extent = store->allocator().Allocate(blob_sectors);
  if (!catalog_extent.ok()) {
    rollback();
    return catalog_extent.status();
  }
  allocated.push_back(*catalog_extent);
  blob.resize(static_cast<size_t>(blob_sectors * sector_bytes), 0);
  if (Result<SimDuration> write = disk.Write(catalog_extent->start_sector, blob_sectors, blob);
      !write.ok()) {
    rollback();
    return write.status();
  }

  // Verify by read-back before committing the root to it.
  Result<std::vector<uint8_t>> readback =
      ReadExtent(&disk, catalog_extent->start_sector, blob_sectors, blob_bytes);
  if (!readback.ok()) {
    rollback();
    return readback.status();
  }
  if (Crc64(*readback) != blob_crc) {
    rollback();
    return Status(ErrorCode::kIoError, "catalog read-back checksum mismatch");
  }

  // Flip the root: the slot alternates with the generation, so this write
  // never touches the sector the live image depends on.
  root.catalog_sector = catalog_extent->start_sector;
  root.catalog_sectors = blob_sectors;
  root.catalog_bytes = blob_bytes;
  root.catalog_crc = blob_crc;
  const int64_t slot_sector = roots_start + (root.generation % 2 == 0 ? 0 : 1);
  const std::vector<uint8_t> root_bytes = SerializeRoot(root, sector_bytes);
  if (Result<SimDuration> write = disk.Write(slot_sector, 1, root_bytes); !write.ok()) {
    rollback();
    return write.status();
  }
  Result<std::vector<uint8_t>> root_readback = ReadExtent(&disk, slot_sector, 1);
  if (!root_readback.ok()) {
    rollback();
    return root_readback.status();
  }
  if (!std::equal(root_bytes.begin(), root_bytes.begin() + kRootRecordBytes,
                  root_readback->begin())) {
    rollback();
    return Status(ErrorCode::kIoError, "root read-back mismatch");
  }

  // Commit point passed: the new generation is durable. Only now does the
  // old catalog become garbage.
  if (previous != nullptr && previous->valid) {
    if (Status status = store->allocator().Free(previous->catalog_extent); !status.ok()) {
      return status;
    }
  }
  Emit(&disk, obs::TraceEventKind::kRootFlip, root.generation, slot_sector, blob_sectors,
       "generation " + std::to_string(root.generation));

  ImageReceipt receipt;
  receipt.catalog_extent = *catalog_extent;
  receipt.journal_extent = Extent{root.journal_sector, root.journal_sectors};
  receipt.generation = root.generation;
  receipt.valid = true;
  return receipt;
}

// --- LoadImage ---------------------------------------------------------------

Result<LoadedImage> LoadImage(Disk* disk) {
  RootChoice choice = ChooseRoot(disk);
  if (!choice.any_magic) {
    return Status(ErrorCode::kNotFound, "no vaFS image on this disk");
  }
  if (!choice.chosen) {
    return Status(ErrorCode::kInvalidArgument, "no readable catalog behind either root");
  }
  return BuildImage(disk, choice.root, choice.catalog, nullptr);
}

// --- Intent journal ----------------------------------------------------------

IntentJournal::IntentJournal(Disk* disk, Extent extent, int64_t generation)
    : disk_(disk), extent_(extent), generation_(generation) {}

void IntentJournal::ResumeAt(int64_t offset_sectors, int64_t next_sequence) {
  offset_sectors_ = offset_sectors;
  next_sequence_ = next_sequence;
}

Status IntentJournal::Append(Intent intent, std::span<const uint8_t> payload) {
  const int64_t sector_bytes = disk_->bytes_per_sector();
  const int64_t entry_len = kJournalHeaderBytes + static_cast<int64_t>(payload.size());
  const int64_t sectors_needed = CeilDiv(entry_len, sector_bytes);
  if (offset_sectors_ + sectors_needed > extent_.sectors) {
    return Status(ErrorCode::kNoSpace, "intent journal full");
  }

  std::vector<uint8_t> bytes(static_cast<size_t>(sectors_needed * sector_bytes), 0);
  WriteU64(bytes.data(), kJournalMagic);
  WriteU64(bytes.data() + 16, static_cast<uint64_t>(generation_));
  WriteU64(bytes.data() + 24, static_cast<uint64_t>(next_sequence_));
  WriteU64(bytes.data() + 32, static_cast<uint64_t>(intent));
  WriteU64(bytes.data() + 40, static_cast<uint64_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), bytes.begin() + kJournalHeaderBytes);
  const uint64_t crc = Crc64(
      std::span<const uint8_t>(bytes.data() + 16, static_cast<size_t>(entry_len - 16)));
  WriteU64(bytes.data() + 8, crc);

  const int64_t sector = extent_.start_sector + offset_sectors_;
  if (Result<SimDuration> write = disk_->Write(sector, sectors_needed, bytes); !write.ok()) {
    return write.status();
  }
  Emit(disk_, obs::TraceEventKind::kJournalAppend, next_sequence_, sector, sectors_needed,
       IntentName(intent));
  offset_sectors_ += sectors_needed;
  ++next_sequence_;
  return Status::Ok();
}

// --- Intent payload encoders -------------------------------------------------

std::vector<uint8_t> EncodeStrandIntent(const StrandStore::CatalogEntry& entry) {
  ByteWriter out;
  WriteCatalogEntry(&out, entry);
  return out.Take();
}

std::vector<uint8_t> EncodeStrandDeleteIntent(StrandId id) {
  ByteWriter out;
  out.I64(static_cast<int64_t>(id));
  return out.Take();
}

std::vector<uint8_t> EncodeRopeIntent(const Rope& rope) {
  ByteWriter out;
  WriteRope(&out, rope);
  return out.Take();
}

std::vector<uint8_t> EncodeRopeDeleteIntent(RopeId id) {
  ByteWriter out;
  out.I64(static_cast<int64_t>(id));
  return out.Take();
}

std::vector<uint8_t> EncodeTextIntent(const TextFileService::ExportedFile& file) {
  ByteWriter out;
  WriteTextFile(&out, file);
  return out.Take();
}

std::vector<uint8_t> EncodeTextRemoveIntent(const std::string& name) {
  ByteWriter out;
  out.Str(name);
  return out.Take();
}

// --- Fsck --------------------------------------------------------------------

const char* FsckFindingKindName(FsckFindingKind kind) {
  switch (kind) {
    case FsckFindingKind::kCorruptRoot:
      return "corrupt_root";
    case FsckFindingKind::kCorruptCatalog:
      return "corrupt_catalog";
    case FsckFindingKind::kTornJournalEntry:
      return "torn_journal_entry";
    case FsckFindingKind::kOrphanStrand:
      return "orphan_strand";
    case FsckFindingKind::kUnreadableStrand:
      return "unreadable_strand";
    case FsckFindingKind::kLeakedExtent:
      return "leaked_extent";
    case FsckFindingKind::kDoublyClaimedExtent:
      return "doubly_claimed_extent";
  }
  return "unknown";
}

namespace {

// Interval-set subtraction and overlap detection over sorted extents.
std::vector<Extent> MergeExtents(std::vector<Extent> extents) {
  std::sort(extents.begin(), extents.end(), [](const Extent& a, const Extent& b) {
    return a.start_sector < b.start_sector;
  });
  std::vector<Extent> merged;
  for (const Extent& extent : extents) {
    if (extent.sectors <= 0) {
      continue;
    }
    if (!merged.empty() && extent.start_sector <= merged.back().end_sector()) {
      merged.back().sectors = std::max(merged.back().end_sector(), extent.end_sector()) -
                              merged.back().start_sector;
    } else {
      merged.push_back(extent);
    }
  }
  return merged;
}

// Cross-checks every reachable extent claim against the allocator's view:
// overlapping claims and allocated-but-unreachable sectors become findings.
void CrossCheckExtents(const LoadedImage& image, Disk* disk,
                       std::vector<FsckFinding>* findings) {
  const int64_t total = disk->total_sectors();
  const int64_t roots_start = total - 2;

  std::vector<Extent> reachable;
  reachable.push_back(Extent{roots_start, 2});
  reachable.push_back(image.receipt.catalog_extent);
  reachable.push_back(image.receipt.journal_extent);
  for (const Extent& extent : image.store->AllExtents()) {
    reachable.push_back(extent);
  }
  for (const TextFileService::ExportedFile& file : image.texts->ExportAll()) {
    for (const Extent& extent : file.extents) {
      reachable.push_back(extent);
    }
  }

  // Overlaps between claims.
  std::sort(reachable.begin(), reachable.end(), [](const Extent& a, const Extent& b) {
    return a.start_sector < b.start_sector;
  });
  int64_t high_water = 0;
  for (const Extent& extent : reachable) {
    if (extent.start_sector < high_water) {
      const int64_t overlap_end = std::min(high_water, extent.end_sector());
      findings->push_back(FsckFinding{FsckFindingKind::kDoublyClaimedExtent,
                                      Extent{extent.start_sector,
                                             overlap_end - extent.start_sector},
                                      "two owners claim these sectors"});
    }
    high_water = std::max(high_water, extent.end_sector());
  }

  // Leaks: sectors the allocator holds allocated that nothing reaches.
  std::vector<Extent> allocated;
  int64_t cursor = 0;
  for (const Extent& free : image.store->allocator().FreeExtents()) {
    if (free.start_sector > cursor) {
      allocated.push_back(Extent{cursor, free.start_sector - cursor});
    }
    cursor = free.end_sector();
  }
  if (cursor < total) {
    allocated.push_back(Extent{cursor, total - cursor});
  }

  const std::vector<Extent> merged = MergeExtents(std::move(reachable));
  size_t reach_index = 0;
  for (const Extent& claim : allocated) {
    int64_t position = claim.start_sector;
    while (position < claim.end_sector()) {
      while (reach_index < merged.size() && merged[reach_index].end_sector() <= position) {
        ++reach_index;
      }
      if (reach_index >= merged.size() || merged[reach_index].start_sector >= claim.end_sector()) {
        findings->push_back(FsckFinding{FsckFindingKind::kLeakedExtent,
                                        Extent{position, claim.end_sector() - position},
                                        "allocated but unreachable"});
        break;
      }
      const Extent& reach = merged[reach_index];
      if (reach.start_sector > position) {
        findings->push_back(FsckFinding{FsckFindingKind::kLeakedExtent,
                                        Extent{position, reach.start_sector - position},
                                        "allocated but unreachable"});
      }
      position = reach.end_sector();
    }
  }
}

// Rebuilds a catalog-less disk by scanning for strand Header Block
// signatures (HBs are CRC-stamped and carry full strand metadata).
void ScavengeStrands(Disk* disk, FsckReport* report) {
  const int64_t sector_bytes = disk->bytes_per_sector();
  StrandStore* store = report->store.get();
  for (const int64_t sector : disk->PopulatedSectors()) {
    if (!store->allocator().IsFree(Extent{sector, 1})) {
      continue;  // already claimed by an adopted strand or the root slots
    }
    Result<std::vector<uint8_t>> probe = ReadExtent(disk, sector, 1);
    if (!probe.ok() || probe->size() < 24) {
      continue;
    }
    if (ReadU64(probe->data()) != StrandIndex::kHeaderBlockMagic) {
      continue;
    }
    const int64_t hb_bytes = static_cast<int64_t>(ReadU64(probe->data() + 16));
    constexpr int64_t kMaxHeaderBytes = 1 << 20;  // sanity bound before the CRC check
    if (hb_bytes <= 0 || hb_bytes > kMaxHeaderBytes) {
      report->findings.push_back(FsckFinding{FsckFindingKind::kUnreadableStrand,
                                             Extent{sector, 1},
                                             "implausible header length"});
      continue;
    }
    const Extent header_block{sector, std::max<int64_t>(1, CeilDiv(hb_bytes, sector_bytes))};
    Result<std::vector<uint8_t>> full = ReadExtent(disk, header_block.start_sector,
                                                   header_block.sectors);
    if (!full.ok()) {
      report->findings.push_back(FsckFinding{FsckFindingKind::kUnreadableStrand, header_block,
                                             full.status().message()});
      continue;
    }
    Result<StrandIndex::HeaderInfo> header = StrandIndex::ParseHeaderBlock(*full);
    if (!header.ok()) {
      report->findings.push_back(FsckFinding{FsckFindingKind::kUnreadableStrand, header_block,
                                             header.status().message()});
      continue;
    }
    StrandInfo info;
    info.id = static_cast<StrandId>(header->meta.id);
    info.medium = header->meta.medium == 0 ? Medium::kVideo : Medium::kAudio;
    info.recording_rate = header->meta.recording_rate;
    info.bits_per_unit = header->meta.bits_per_unit;
    info.granularity = header->meta.granularity;
    info.unit_count = header->meta.unit_count;
    info.min_scattering_sec = header->meta.min_scattering_sec;
    info.max_scattering_sec = header->meta.max_scattering_sec;
    if (Status status = AdoptFromCatalogEntry(disk, store, info, header_block); !status.ok()) {
      report->findings.push_back(FsckFinding{FsckFindingKind::kUnreadableStrand, header_block,
                                             status.message()});
      continue;
    }
    report->findings.push_back(FsckFinding{FsckFindingKind::kOrphanStrand, header_block,
                                           "scavenged strand " + std::to_string(info.id)});
    ++report->strands_recovered;
  }
}

}  // namespace

Result<FsckReport> Fsck(Disk* disk) {
  FsckReport report;

  RootChoice choice = ChooseRoot(disk);
  report.findings = std::move(choice.findings);

  bool have_image = false;
  if (choice.chosen) {
    Result<LoadedImage> image = BuildImage(disk, choice.root, choice.catalog, &report.findings);
    if (image.ok()) {
      CrossCheckExtents(*image, disk, &report.findings);
      report.store = std::move(image->store);
      report.ropes = std::move(image->ropes);
      report.texts = std::move(image->texts);
      report.receipt = image->receipt;
      report.strands_recovered = image->strands_recovered;
      have_image = true;
    } else {
      report.findings.push_back(FsckFinding{
          FsckFindingKind::kCorruptCatalog,
          Extent{choice.root.catalog_sector, choice.root.catalog_sectors},
          image.status().message()});
    }
  }

  if (!have_image) {
    // No committed catalog survives: scavenge strands from their on-disk
    // Header Block signatures. Ropes and text files have no per-object
    // signature and are lost with the catalog. The root sectors are left
    // unreserved so the next checkpoint can bootstrap a fresh image.
    report.used_scavenger = true;
    report.store = std::make_unique<StrandStore>(disk);
    ScavengeStrands(disk, &report);
    report.ropes = std::make_unique<RopeServer>(report.store.get());
    report.texts = std::make_unique<TextFileService>(disk, &report.store->allocator());
    report.receipt = ImageReceipt{};
  }

  for (const FsckFinding& finding : report.findings) {
    Emit(disk, obs::TraceEventKind::kFsckFinding, 0, finding.extent.start_sector,
         finding.extent.sectors, FsckFindingKindName(finding.kind));
  }
  return report;
}

}  // namespace vafs
