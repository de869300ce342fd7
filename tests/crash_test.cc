// Crash-consistency matrix: power-cut every write boundary of a
// checkpoint and of a journaled mutation batch, and prove that recovery
// (LoadImage + journal replay, or the fsck scavenger) always lands on a
// consistent image — no leaked extents, no doubly-claimed extents, every
// surviving object readable.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/media/sources.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/checksum.h"
#include "src/vafs/file_system.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

std::vector<uint8_t> NoteBytes() {
  std::vector<uint8_t> bytes(700);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  return bytes;
}

// Stage A: the state committed by the first checkpoint (generation 1).
// One AV rope by alice plus a small text file.
void BuildBase(MultimediaFileSystem* fs) {
  VideoSource video(TestVideo(), 7);
  AudioSource audio(TestAudio(), SpeechProfile{}, 7);
  Result<MultimediaFileSystem::RecordResult> rec = fs->Record("alice", &video, &audio, 1.0);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  Status wrote = fs->text_files().Write("config.txt", std::vector<uint8_t>{1, 2, 3, 4});
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  Status checkpoint = fs->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
}

// Stage B: journaled mutations on top of the committed base — a new
// video-only rope with a trigger, a text write, and a text removal. May
// fail partway when a power cut is armed; that is the point.
Status Mutate(MultimediaFileSystem* fs) {
  VideoSource video(TestVideo(), 8);
  Result<MultimediaFileSystem::RecordResult> rec = fs->Record("bob", &video, nullptr, 0.2);
  if (!rec.ok()) {
    return rec.status();
  }
  if (Status s = fs->rope_server().AddTrigger("bob", rec->rope, Trigger{0.1, "cue"}); !s.ok()) {
    return s;
  }
  if (Status s = fs->text_files().Write("notes.txt", NoteBytes()); !s.ok()) {
    return s;
  }
  return fs->text_files().Remove("config.txt");
}

// The on-disk image is structurally sound: fsck sees every sector claimed
// by at most one owner and nothing allocated-but-unreachable. Torn journal
// tails and a shredded root slot are legitimate crash scars, so only the
// structural finding kinds fail the check.
void ExpectStructurallySound(MultimediaFileSystem* fs) {
  Result<FsckReport> report = fs->RunFsck();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->used_scavenger);
  for (const FsckFinding& finding : report->findings) {
    EXPECT_NE(finding.kind, FsckFindingKind::kLeakedExtent)
        << FsckFindingKindName(finding.kind) << ": " << finding.detail;
    EXPECT_NE(finding.kind, FsckFindingKind::kDoublyClaimedExtent)
        << FsckFindingKindName(finding.kind) << ": " << finding.detail;
    EXPECT_NE(finding.kind, FsckFindingKind::kUnreadableStrand)
        << FsckFindingKindName(finding.kind) << ": " << finding.detail;
  }
}

// Alice's base rope (committed before any crash) must always survive.
void ExpectBaseRecovered(MultimediaFileSystem* fs) {
  const Rope* alice = nullptr;
  for (const Rope* rope : fs->rope_server().AllRopes()) {
    if (rope->creator() == "alice") {
      alice = rope;
    }
  }
  ASSERT_NE(alice, nullptr);
  Result<std::vector<std::vector<uint8_t>>> blocks =
      fs->ReadRopeBlocks("alice", alice->id(), Medium::kVideo, TimeInterval{0.0, 1.0});
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  EXPECT_FALSE(blocks->empty());
}

// The full Stage-B state: both ropes, bob's trigger, notes.txt content,
// and config.txt gone.
void ExpectMutatedState(MultimediaFileSystem* fs) {
  EXPECT_EQ(fs->rope_server().rope_count(), 2);
  EXPECT_EQ(fs->storage_manager().strand_count(), 3);
  Result<std::vector<uint8_t>> notes = fs->text_files().Read("notes.txt");
  ASSERT_TRUE(notes.ok()) << notes.status().ToString();
  EXPECT_EQ(*notes, NoteBytes());
  EXPECT_FALSE(fs->text_files().Exists("config.txt"));
  const Rope* bob = nullptr;
  for (const Rope* rope : fs->rope_server().AllRopes()) {
    if (rope->creator() == "bob") {
      bob = rope;
    }
  }
  ASSERT_NE(bob, nullptr);
  EXPECT_EQ(bob->triggers().size(), 1u);
  Result<std::vector<std::vector<uint8_t>>> blocks =
      fs->ReadRopeBlocks("bob", bob->id(), Medium::kVideo, TimeInterval{0.0, 0.2});
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
}

enum class Phase { kMutate, kCheckpoint };

// Sectors the phase writes when nothing crashes, measured on a scratch
// instance; the matrix then cuts power at every one of those boundaries.
void MeasurePhaseSectors(Phase phase, int64_t* out) {
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  if (phase == Phase::kCheckpoint) {
    Status mutated = Mutate(&fs);
    ASSERT_TRUE(mutated.ok()) << mutated.ToString();
  }
  const int64_t before = fs.disk().fault_injector().sectors_written();
  if (phase == Phase::kMutate) {
    Status mutated = Mutate(&fs);
    ASSERT_TRUE(mutated.ok()) << mutated.ToString();
  } else {
    Status checkpoint = fs.Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
  }
  *out = fs.disk().fault_injector().sectors_written() - before;
  ASSERT_GT(*out, 0);
}

// One crash point: cut power after `cut_after_sectors` durable sectors of
// the phase (torn alternates shred on/off across the matrix), then recover
// and check every consistency invariant.
void RunCrashPoint(Phase phase, int64_t cut_after_sectors, bool torn) {
  SCOPED_TRACE("phase=" + std::string(phase == Phase::kMutate ? "mutate" : "checkpoint") +
               " cut_after=" + std::to_string(cut_after_sectors) +
               (torn ? " torn" : " clean"));
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  if (phase == Phase::kCheckpoint) {
    Status mutated = Mutate(&fs);
    ASSERT_TRUE(mutated.ok()) << mutated.ToString();
  }

  fs.disk().fault_injector().ArmPowerCut(cut_after_sectors, torn);
  if (phase == Phase::kMutate) {
    (void)Mutate(&fs);  // dies at the crash point
  } else {
    (void)fs.Checkpoint();
  }
  ASSERT_TRUE(fs.disk().powered_off());

  Status recovered = fs.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_FALSE(fs.disk().powered_off());

  ASSERT_NO_FATAL_FAILURE(ExpectBaseRecovered(&fs));
  if (phase == Phase::kCheckpoint) {
    // Every Stage-B mutation was journaled before the checkpoint started;
    // whichever generation survives, the full state comes back.
    ASSERT_NO_FATAL_FAILURE(ExpectMutatedState(&fs));
  } else {
    // Mid-mutation cut: some prefix of Stage B survives. Whatever did must
    // be fully readable.
    EXPECT_GE(fs.rope_server().rope_count(), 1);
    EXPECT_LE(fs.rope_server().rope_count(), 2);
    for (const Rope* rope : fs.rope_server().AllRopes()) {
      if (rope->TrackFor(Medium::kVideo).rate <= 0) {
        continue;
      }
      Result<std::vector<std::vector<uint8_t>>> blocks = fs.ReadRopeBlocks(
          rope->creator(), rope->id(), Medium::kVideo, TimeInterval{0.0, 0.05});
      EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
    }
    for (const TextFileService::ExportedFile& file : fs.text_files().ExportAll()) {
      Result<std::vector<uint8_t>> data = fs.text_files().Read(file.name);
      EXPECT_TRUE(data.ok()) << file.name << ": " << data.status().ToString();
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectStructurallySound(&fs));

  // Life goes on: a fresh checkpoint commits, and a second recovery
  // round-trips it.
  Status checkpoint = fs.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
  const int64_t ropes_before = fs.rope_server().rope_count();
  const int64_t strands_before = fs.storage_manager().strand_count();
  Status again = fs.Recover();
  ASSERT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(fs.rope_server().rope_count(), ropes_before);
  EXPECT_EQ(fs.storage_manager().strand_count(), strands_before);
}

TEST(CrashMatrixTest, CheckpointSurvivesEveryWriteBoundary) {
  int64_t phase_sectors = 0;
  ASSERT_NO_FATAL_FAILURE(MeasurePhaseSectors(Phase::kCheckpoint, &phase_sectors));
  for (int64_t cut = 0; cut < phase_sectors; ++cut) {
    ASSERT_NO_FATAL_FAILURE(RunCrashPoint(Phase::kCheckpoint, cut, cut % 2 == 1));
  }
}

TEST(CrashMatrixTest, JournaledMutationsSurviveEveryWriteBoundary) {
  int64_t phase_sectors = 0;
  ASSERT_NO_FATAL_FAILURE(MeasurePhaseSectors(Phase::kMutate, &phase_sectors));
  for (int64_t cut = 0; cut < phase_sectors; ++cut) {
    ASSERT_NO_FATAL_FAILURE(RunCrashPoint(Phase::kMutate, cut, cut % 2 == 1));
  }
}

TEST(CrashRecoveryTest, JournalReplayRecoversMutationsWithoutCheckpoint) {
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  Status mutated = Mutate(&fs);
  ASSERT_TRUE(mutated.ok()) << mutated.ToString();
  // No second checkpoint: recovery must get Stage B from the journal.
  Status recovered = fs.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ASSERT_NO_FATAL_FAILURE(ExpectMutatedState(&fs));
  ASSERT_NO_FATAL_FAILURE(ExpectStructurallySound(&fs));
}

// Satellite (f): a checkpoint that fails partway must leave the previous
// generation committed, so retry and recovery both work.
TEST(CrashRecoveryTest, FailedCheckpointKeepsPreviousImageCommitted) {
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  Status mutated = Mutate(&fs);
  ASSERT_TRUE(mutated.ok()) << mutated.ToString();

  fs.disk().fault_injector().set_write_fault_rate(1.0);
  EXPECT_FALSE(fs.Checkpoint().ok());
  fs.disk().fault_injector().set_write_fault_rate(0.0);

  // The receipt still names generation 1, whose journal carries Stage B.
  Status recovered = fs.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ASSERT_NO_FATAL_FAILURE(ExpectMutatedState(&fs));

  // And a retried checkpoint commits cleanly on the same instance.
  Status retried = fs.Checkpoint();
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  ASSERT_TRUE(fs.Recover().ok());
  ASSERT_NO_FATAL_FAILURE(ExpectMutatedState(&fs));
}

// Satellite (b): recovery rebuilds the scheduler, so admission slots held
// by requests that died with the crash are released — the same number of
// playbacks is admitted before and after.
TEST(CrashRecoveryTest, RecoverReleasesAdmissionSlotsOfAbandonedRequests) {
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  const Rope* alice = fs.rope_server().AllRopes().front();
  const RopeId rope = alice->id();

  auto admit_until_rejected = [&fs, rope]() {
    int accepted = 0;
    while (accepted < 64) {
      Result<RequestId> id =
          fs.Play("alice", rope, Medium::kVideo, TimeInterval{0.0, 1.0});
      if (!id.ok()) {
        EXPECT_EQ(id.status().code(), ErrorCode::kAdmissionRejected);
        break;
      }
      ++accepted;
    }
    return accepted;
  };

  const int accepted = admit_until_rejected();
  ASSERT_GT(accepted, 0);
  ASSERT_LT(accepted, 64) << "admission never rejected; matrix needs a tighter disk";

  Status recovered = fs.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(admit_until_rejected(), accepted);
}

TEST(CrashRecoveryTest, FsckScavengesStrandsWhenBothRootsAreCorrupt) {
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  ASSERT_TRUE(fs.Checkpoint().ok());  // generation 2: both root slots written

  // Smash both roots: keep the signature, garbage the record, so recovery
  // sees corrupt (not merely absent) roots and falls back to the scavenger.
  const int64_t total = fs.disk().total_sectors();
  std::vector<uint8_t> junk(static_cast<size_t>(fs.disk().bytes_per_sector()), 0xA5);
  const char magic[8] = {'V', 'A', 'F', 'S', '0', '0', '0', '2'};
  std::copy(magic, magic + 8, junk.begin());
  ASSERT_TRUE(fs.disk().Write(total - 2, 1, junk).ok());
  ASSERT_TRUE(fs.disk().Write(total - 1, 1, junk).ok());

  Status recovered = fs.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  // Strands come back from their Header Block signatures; ropes and text
  // files have no on-disk signature and die with the catalog.
  EXPECT_EQ(fs.storage_manager().strand_count(), 2);
  EXPECT_EQ(fs.rope_server().rope_count(), 0);

  Result<FsckReport> report = fs.RunFsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->used_scavenger);
  EXPECT_EQ(report->strands_recovered, 2);

  // The scavenged store is live: record and commit a fresh first image.
  VideoSource video(TestVideo(), 9);
  ASSERT_TRUE(fs.Record("carol", &video, nullptr, 0.2).ok());
  Status checkpoint = fs.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
  ASSERT_TRUE(fs.Recover().ok());
  EXPECT_EQ(fs.rope_server().rope_count(), 1);
  EXPECT_EQ(fs.storage_manager().strand_count(), 3);
}

// Ropes (id, creator, every track segment, trigger count) and strands (id,
// units, blocks), in catalog order: what Recover() must bring back.
std::string CatalogSignature(MultimediaFileSystem* fs) {
  std::string out;
  for (const Rope* rope : fs->rope_server().AllRopes()) {
    out += "rope " + std::to_string(rope->id()) + " " + rope->creator() + " triggers " +
           std::to_string(rope->triggers().size());
    for (const Track* track : {&rope->video(), &rope->audio()}) {
      out += " |";
      for (const TrackSegment& segment : track->segments) {
        out += " " + std::to_string(segment.strand) + ":" + std::to_string(segment.start_unit) +
               "+" + std::to_string(segment.unit_count);
      }
    }
    out += "\n";
  }
  for (const StrandId id : fs->storage_manager().AllIds()) {
    const Strand* strand = *fs->storage_manager().Get(id);
    out += "strand " + std::to_string(id) + " " + std::to_string(strand->info().unit_count) +
           " " + std::to_string(strand->block_count()) + "\n";
  }
  return out;
}

// A rope deletion and the garbage collection it enables, journaled after
// the last checkpoint, replay to exactly the catalog they left behind: the
// deleted ropes stay deleted, the collected strand stays collected, the
// survivors keep their ids, and the image is clean.
TEST(CrashRecoveryTest, JournaledRopeDeletionSurvivesRecover) {
  MultimediaFileSystem fs(TestConfig());
  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  Status mutated = Mutate(&fs);
  ASSERT_TRUE(mutated.ok()) << mutated.ToString();
  const Rope* bob = nullptr;
  for (const Rope* rope : fs.rope_server().AllRopes()) {
    if (rope->creator() == "bob") {
      bob = rope;
    }
  }
  ASSERT_NE(bob, nullptr);
  const RopeId bob_rope = bob->id();
  // An edit that shares bob's strand, so the first collection must keep it.
  Result<RopeId> clip =
      fs.rope_server().Substring("bob", bob_rope, MediaSelector::kVideo, TimeInterval{0.0, 0.1});
  ASSERT_TRUE(clip.ok()) << clip.status().ToString();
  Status checkpoint = fs.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
  const int64_t strands_checkpointed = fs.storage_manager().strand_count();

  ASSERT_TRUE(fs.rope_server().DeleteRope("bob", bob_rope).ok());
  EXPECT_EQ(fs.rope_server().CollectGarbage(), 0);
  ASSERT_TRUE(fs.rope_server().DeleteRope("bob", *clip).ok());
  EXPECT_EQ(fs.rope_server().CollectGarbage(), 1);
  ASSERT_EQ(fs.storage_manager().strand_count(), strands_checkpointed - 1);
  const std::string before = CatalogSignature(&fs);

  Status recovered = fs.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(CatalogSignature(&fs), before);
  EXPECT_EQ(fs.rope_server().CollectGarbage(), 0);  // replay resurrected no garbage
  ASSERT_NO_FATAL_FAILURE(ExpectBaseRecovered(&fs));
  Result<FsckReport> report = fs.RunFsck();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->used_scavenger);
  for (const FsckFinding& finding : report->findings) {
    ADD_FAILURE() << FsckFindingKindName(finding.kind) << ": " << finding.detail;
  }
}

// With crash injection disabled the whole pipeline — including the new
// journaling writes — must stay bit-identical across seeds.
TEST(CrashRecoveryTest, DisabledInjectionLeavesDiskBitIdentical) {
  auto run = [](uint64_t fault_seed, std::vector<int64_t>* populated, uint64_t* crc) {
    FileSystemConfig config = TestConfig();
    config.faults.seed = fault_seed;
    MultimediaFileSystem fs(config);
    ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
    Status mutated = Mutate(&fs);
    ASSERT_TRUE(mutated.ok()) << mutated.ToString();
    ASSERT_TRUE(fs.Checkpoint().ok());
    *populated = fs.disk().PopulatedSectors();
    std::vector<uint8_t> all;
    for (int64_t sector : *populated) {
      std::vector<uint8_t> data;
      ASSERT_TRUE(fs.disk().Read(sector, 1, &data).ok());
      all.insert(all.end(), data.begin(), data.end());
    }
    *crc = Crc64(all);
  };
  std::vector<int64_t> populated_a, populated_b;
  uint64_t crc_a = 0, crc_b = 0;
  ASSERT_NO_FATAL_FAILURE(run(1, &populated_a, &crc_a));
  ASSERT_NO_FATAL_FAILURE(run(42, &populated_b, &crc_b));
  EXPECT_EQ(populated_a, populated_b);
  EXPECT_EQ(crc_a, crc_b);
}

TEST(CrashRecoveryTest, RecoveryMetricsCountCrashPointsAndReplays) {
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry);
  MultimediaFileSystem fs(TestConfig());
  fs.disk().set_trace_sink(&sink);

  ASSERT_NO_FATAL_FAILURE(BuildBase(&fs));
  Status mutated = Mutate(&fs);
  ASSERT_TRUE(mutated.ok()) << mutated.ToString();

  fs.disk().fault_injector().ArmPowerCut(1, /*torn=*/true);
  (void)fs.Checkpoint();  // dies mid-catalog-write
  ASSERT_TRUE(fs.Recover().ok());

  const obs::Counter* survived = registry.FindCounter("recovery.crash_points_survived");
  ASSERT_NE(survived, nullptr);
  EXPECT_EQ(survived->value(), 1);
  const obs::Counter* flips = registry.FindCounter("persistence.root_flips");
  ASSERT_NE(flips, nullptr);
  EXPECT_GE(flips->value(), 1);
  // Stage B journaled at least: strand add, rope create, trigger edit,
  // notes.txt write, config.txt removal.
  const obs::Counter* replays = registry.FindCounter("persistence.journal_replays");
  ASSERT_NE(replays, nullptr);
  EXPECT_GE(replays->value(), 5);
}

}  // namespace
}  // namespace vafs
