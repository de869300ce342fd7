// ingest_edit: the write side at the paper-era operating point.
//
// One node on one thread with the future-disk geometry and the default
// round-robin service order: no planner, cache or sessions, and
// retain_data and telemetry at their defaults. Every cycle
//   1. RECORDs a clip (video plus silence-eliminated audio),
//   2. runs a timed recording next to a few admitted Play streams,
//   3. applies the Fig. 9 edits (INSERT, REPLACE, DELETE, SUBSTRING,
//      CONCATE), each followed by the RepairRope passes that restore the
//      Eq. 19/20 scattering bound,
//   4. reads the edited ropes back and checks every block against the
//      bytes the edit script predicts,
//   5. checkpoints.
// Every few cycles it also recovers from the image plus the intent journal
// (the catalog must come back unchanged) and runs fsck. Ropes from older
// cycles are deleted and collected, so disk use and RSS stay bounded.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/media/media.h"
#include "src/media/silence.h"
#include "src/media/sources.h"
#include "src/util/checksum.h"
#include "src/util/prng.h"

namespace vafs {
namespace perfbench {
namespace {

constexpr int64_t kClipQuanta = 12;  // clip length, in edit quanta
constexpr int64_t kSetupClips = 3;
constexpr int64_t kPlays = 3;  // Play streams beside each timed recording
constexpr int64_t kPlayQuanta = 5;
constexpr double kTimedRecordingSec = 0.5;
constexpr int64_t kRecoverEvery = 5;  // cycles between Recover() calls
constexpr int64_t kLiveCycles = 3;    // ropes from older cycles are deleted
// Ropes longer than this never serve as an edit's source, so
// concatenations cannot grow without bound.
constexpr int64_t kMaxSourceQuanta = 2 * kClipQuanta;
// Cycles per host second of --seconds. The in-memory sector store keeps
// every sector ever written, so this also sets peak RSS (~0.3 GB at 10 s).
constexpr double kCyclesPerHostSec = 60.0;
constexpr char kUser[] = "editor";

// The paper's projected fast disk: ~2 GB, 7200 rpm, 1-8 ms seeks.
DiskParameters FutureDisk() {
  DiskParameters params;
  params.cylinders = 2000;
  params.surfaces = 16;
  params.sectors_per_track = 128;
  params.bytes_per_sector = 512;
  params.rpm = 7200.0;
  params.min_seek_ms = 1.0;
  params.max_seek_ms = 8.0;
  return params;
}

// Display devices sized so both media get 0.1 s blocks (3 frames, 800
// samples): an edit quantum is then a whole number of blocks of both.
FileSystemConfig NodeConfig(obs::TraceSink* trace) {
  FileSystemConfig config;
  config.disk = FutureDisk();
  config.video_device = DeviceProfile{UvcCompressedVideo().BitRate() * 3.0, 6};
  config.audio_device = DeviceProfile{TelephoneAudio().BitRate() * 16.0, 1600};
  config.scheduler.trace = trace;
  return config;
}

// One edit quantum of a recorded clip: (clip index, quantum index).
using Quantum = std::pair<int32_t, int32_t>;

// A block's expected payload. Reads return whole sectors, so only the
// first `bytes` of a read block are compared; eliminated silence reads
// back empty.
struct BlockDigest {
  uint64_t crc = 0;
  size_t bytes = 0;

  bool Matches(const std::vector<uint8_t>& payload) const {
    return (bytes == 0 ? payload.empty() : payload.size() >= bytes) &&
           Crc64(std::span<const uint8_t>(payload.data(), bytes)) == crc;
  }
};

BlockDigest DigestOf(std::span<const uint8_t> bytes) {
  return BlockDigest{Crc64(bytes), bytes.size()};
}

struct Clip {
  std::vector<BlockDigest> video;
  std::vector<BlockDigest> audio;
};

// What the edit script predicts: every rope as a run of edit quanta.
struct EditModel {
  int64_t video_granularity = 1;
  int64_t audio_granularity = 1;
  int64_t video_blocks_per_quantum = 1;
  int64_t audio_blocks_per_quantum = 1;
  double quantum_sec = 0.0;
  std::vector<Clip> clips;
  std::map<RopeId, std::vector<Quantum>> ropes;
  std::map<RopeId, int64_t> born;  // cycle that created the rope

  int64_t Length(RopeId rope) const { return static_cast<int64_t>(ropes.at(rope).size()); }
  TimeInterval Interval(int64_t first, int64_t count) const {
    return TimeInterval{static_cast<double>(first) * quantum_sec,
                        static_cast<double>(count) * quantum_sec};
  }
  std::vector<BlockDigest> Expected(RopeId rope, Medium medium) const {
    const bool video = medium == Medium::kVideo;
    const int64_t per = video ? video_blocks_per_quantum : audio_blocks_per_quantum;
    std::vector<BlockDigest> expected;
    for (const auto& [clip, quantum] : ropes.at(rope)) {
      const std::vector<BlockDigest>& blocks = video ? clips[clip].video : clips[clip].audio;
      expected.insert(expected.end(), blocks.begin() + quantum * per,
                      blocks.begin() + (quantum + 1) * per);
    }
    return expected;
  }
};

// Ropes, their tracks and the strand catalog, for before/after comparison.
std::string CatalogSignature(MultimediaFileSystem& fs) {
  std::string out;
  for (const Rope* rope : fs.rope_server().AllRopes()) {
    out += "rope " + std::to_string(rope->id()) + " " + rope->creator();
    for (const Track* track : {&rope->video(), &rope->audio()}) {
      out += " |";
      for (const TrackSegment& segment : track->segments) {
        out += " " + std::to_string(segment.strand) + ":" + std::to_string(segment.start_unit) +
               "+" + std::to_string(segment.unit_count);
      }
    }
    out += "\n";
  }
  StrandStore& store = fs.storage_manager();
  for (const StrandId id : store.AllIds()) {
    out += "strand " + std::to_string(id);
    if (const Result<const Strand*> strand = store.Get(id); strand.ok()) {
      out += " " + std::to_string((*strand)->info().unit_count) + " " +
             std::to_string((*strand)->block_count());
    }
    out += "\n";
  }
  return out;
}

struct Pass {
  Status status = Status::Ok();
  std::vector<double> setup_s;
  std::vector<double> record_s;
  std::vector<double> edit_s;
  std::vector<double> checkpoint_s;
  std::vector<double> recover_s;
  double busy_s = 0.0;  // inside the measured phase's calls
  double step_s = 0.0;  // of which inside Simulator::Step
  double wall_s = 0.0;
  double record_bytes = 0.0;  // media bytes Record wrote in the measured phase
  double media_bytes = 0.0;   // every media byte recorded, set-up included
  int64_t record_blocks = 0;  // blocks Record wrote in the measured phase
  int64_t audio_blocks = 0;
  int64_t silence_blocks = 0;
  int64_t cycles = 0;
  int64_t ops = 0;
  int64_t failed_ops = 0;
  std::string first_failure;
  int64_t edits = 0;
  int64_t seam_blocks = 0;
  int64_t reads = 0;
  int64_t read_mismatches = 0;
  int64_t recovers = 0;
  int64_t catalog_mismatches = 0;
  int64_t fsck_runs = 0;
  int64_t fsck_findings = 0;
  int64_t n_max = 0;
  double quantum_sec = 0.0;
  int64_t sim_events = 0;
  Delivered delivered;  // summed over every scheduler generation
  // Traced pass only.
  EventTally::Counts total_counts;
  EventTally::Counts run_counts;
  int64_t checkpoint_sectors = 0;
  int64_t checkpoints = 0;
  size_t first_timed_span = 0;
};

class IngestPass {
 public:
  IngestPass(const BenchOptions& options, Probe* probe, EventTally* tally)
      : options_(options),
        probe_(probe),
        tally_(tally),
        prng_(options.seed ^ 0xa0761d6478bd642fULL) {}

  Pass Run(Clock::time_point setup_start);

 private:
  Status SetUp();
  // Ends one timed call and books its status; measured-phase calls count
  // as ops and toward busy time.
  double Account(Call* call, const Status& status, const char* what);
  void Fail(const Status& status, const char* what);
  Result<RopeId> RecordClip(uint64_t tag);
  void TimedRecordingWithPlays(uint64_t tag);
  // One edit plus the RepairRope passes of the rope it produced.
  Result<RopeId> Edit(const char* name, uint64_t tag, const std::function<Result<RopeId>()>& op);
  // The Fig. 9 edits on `base`; returns every rope they changed or made.
  std::vector<RopeId> EditScript(RopeId base, uint64_t tag);
  void ReadBack(RopeId rope, uint64_t tag);
  void RecoverAndCompare(uint64_t tag);
  void Checkpoint(uint64_t tag);
  void CheckFsck(uint64_t tag);
  void Collect(uint64_t tag);
  // A live rope other than `exclude`, short enough to be an edit's source.
  RopeId PickSource(RopeId exclude);

  const BenchOptions& options_;
  Probe* probe_;
  EventTally* tally_;
  Prng prng_;
  std::unique_ptr<MultimediaFileSystem> fs_;
  EditModel model_;
  Pass pass_;
  int64_t cycle_ = -1;
  int64_t plays_ = 0;
  bool measuring_ = false;
};

double IngestPass::Account(Call* call, const Status& status, const char* what) {
  const double seconds = call->Stop();
  if (measuring_) {
    pass_.busy_s += seconds;
    ++pass_.ops;
  }
  if (!status.ok()) {
    Fail(status, what);
  }
  return seconds;
}

void IngestPass::Fail(const Status& status, const char* what) {
  ++pass_.failed_ops;
  if (pass_.first_failure.empty()) {
    pass_.first_failure = std::string(what) + ": " + status.ToString();
  }
}

Status IngestPass::SetUp() {
  std::vector<double> setup_s = std::move(pass_.setup_s);
  pass_ = Pass{};
  pass_.setup_s = std::move(setup_s);
  model_ = EditModel{};
  cycle_ = -1;
  measuring_ = false;
  fs_ = std::make_unique<MultimediaFileSystem>(NodeConfig(tally_));
  if (tally_ != nullptr) {
    // Telemetry is off at this operating point, so the disk and the strand
    // store report to the tally directly.
    fs_->disk().set_trace_sink(tally_);
    fs_->storage_manager().set_trace_sink(tally_);
  }
  const MediaProfile video = UvcCompressedVideo();
  const MediaProfile audio = TelephoneAudio();
  const Result<StrandPlacement> video_placement = fs_->PlacementFor(video);
  if (!video_placement.ok()) {
    return video_placement.status();
  }
  const Result<StrandPlacement> audio_placement = fs_->PlacementFor(audio);
  if (!audio_placement.ok()) {
    return audio_placement.status();
  }
  model_.video_granularity = video_placement->granularity;
  model_.audio_granularity = audio_placement->granularity;
  // m video blocks last m*gv/Rv seconds: a whole number of audio blocks
  // when m*gv*Ra is a multiple of ga*Rv.
  const int64_t video_units =
      model_.video_granularity * static_cast<int64_t>(audio.units_per_sec);
  const int64_t audio_units =
      model_.audio_granularity * static_cast<int64_t>(video.units_per_sec);
  model_.video_blocks_per_quantum = audio_units / std::gcd(video_units, audio_units);
  model_.audio_blocks_per_quantum = model_.video_blocks_per_quantum * video_units / audio_units;
  model_.quantum_sec =
      static_cast<double>(model_.video_blocks_per_quantum * model_.video_granularity) /
      video.units_per_sec;
  pass_.quantum_sec = model_.quantum_sec;
  pass_.n_max = fs_->admission().Analyze({RequestSpec{video, model_.video_granularity}}).n_max;
  plays_ = std::clamp<int64_t>(pass_.n_max - 1, 0, kPlays);
  for (int64_t c = 0; c < kSetupClips; ++c) {
    if (Result<RopeId> clip = RecordClip(0); !clip.ok()) {
      return clip.status();
    }
  }
  Checkpoint(0);
  return pass_.failed_ops == 0 ? Status::Ok() : Status(ErrorCode::kInternal, pass_.first_failure);
}

Result<RopeId> IngestPass::RecordClip(uint64_t tag) {
  const uint64_t clip_seed = options_.seed * 1'000'003 + model_.clips.size();
  const double clip_sec = static_cast<double>(kClipQuanta) * model_.quantum_sec;
  VideoSource camera(UvcCompressedVideo(), clip_seed);
  AudioSource microphone(TelephoneAudio(), SpeechProfile{}, clip_seed);
  Call call(probe_, "vafs.record", tag);
  Result<MultimediaFileSystem::RecordResult> recorded =
      fs_->Record(kUser, &camera, &microphone, clip_sec);
  const double seconds = Account(&call, recorded.status(), "record");
  if (!recorded.ok()) {
    return recorded.status();
  }
  const double bytes = static_cast<double>(
      recorded->video.units_recorded * camera.frame_bytes() +
      (recorded->audio.blocks_total - recorded->audio.silence_blocks) * model_.audio_granularity);
  pass_.media_bytes += bytes;
  pass_.audio_blocks += recorded->audio.blocks_total;
  pass_.silence_blocks += recorded->audio.silence_blocks;
  if (measuring_) {
    pass_.record_s.push_back(seconds);
    pass_.record_bytes += bytes;
    pass_.record_blocks += recorded->video.blocks_total + recorded->audio.blocks_total;
  }

  // The bytes every block must read back as, regenerated from the seeded
  // sources: frames packed q to a block, audio blocks silent or not by the
  // facade's default silence detector.
  Clip clip;
  const VideoSource frames(UvcCompressedVideo(), clip_seed);
  std::vector<uint8_t> block;
  for (int64_t frame = 0; frame < recorded->video.units_recorded; ++frame) {
    const std::vector<uint8_t> payload = frames.FramePayload(frame);
    block.insert(block.end(), payload.begin(), payload.end());
    if ((frame + 1) % model_.video_granularity == 0) {
      clip.video.push_back(DigestOf(block));
      block.clear();
    }
  }
  AudioSource samples(TelephoneAudio(), SpeechProfile{}, clip_seed);
  const SilenceDetector detector;
  for (int64_t b = 0; b < recorded->audio.blocks_total; ++b) {
    const std::vector<uint8_t> chunk = samples.NextSamples(model_.audio_granularity);
    clip.audio.push_back(detector.IsSilent(chunk) ? DigestOf({}) : DigestOf(chunk));
  }
  const int32_t index = static_cast<int32_t>(model_.clips.size());
  model_.clips.push_back(std::move(clip));
  std::vector<Quantum>& quanta = model_.ropes[recorded->rope];
  for (int32_t q = 0; q < kClipQuanta; ++q) {
    quanta.emplace_back(index, q);
  }
  model_.born[recorded->rope] = cycle_;
  return recorded->rope;
}

void IngestPass::TimedRecordingWithPlays(uint64_t tag) {
  {
    Call call(probe_, "vafs.start_timed_recording", tag);
    const Result<RequestId> id =
        fs_->StartTimedRecording(UvcCompressedVideo(), kTimedRecordingSec);
    Account(&call, id.status(), "start_timed_recording");
  }
  for (int64_t p = 0; p < plays_; ++p) {
    const RopeId rope = PickSource(kNullRope);
    const int64_t quanta = std::min(kPlayQuanta, model_.Length(rope));
    Call call(probe_, "vafs.play", tag);
    const Result<RequestId> id =
        fs_->Play(kUser, rope, Medium::kVideo, model_.Interval(0, quanta));
    Account(&call, id.status(), "play");
  }
  Simulator& sim = fs_->simulator();
  while (true) {
    const int64_t rounds = fs_->scheduler().rounds_executed();
    Call step(probe_, "sim.step", tag);
    const bool ran = sim.Step();
    if (fs_->scheduler().rounds_executed() != rounds) {
      step.Rename("sim.round");
    }
    const double seconds = step.Stop();
    if (!ran) {
      break;
    }
    pass_.step_s += seconds;
    pass_.busy_s += seconds;
  }
}

Result<RopeId> IngestPass::Edit(const char* name, uint64_t tag,
                                const std::function<Result<RopeId>()>& op) {
  Call whole(probe_, "bench.edit", tag);
  Call call(probe_, name, tag);
  Result<RopeId> target = op();
  call.Stop();
  if (target.ok()) {
    for (const Medium medium : {Medium::kVideo, Medium::kAudio}) {
      Call repair(probe_, "rope.repair", tag);
      const Result<RopeServer::RopeRepairStats> repaired =
          fs_->rope_server().RepairRope(*target, medium);
      repair.Stop();
      if (!repaired.ok()) {
        target = repaired.status();
        break;
      }
      pass_.seam_blocks += repaired->blocks_copied;
    }
  }
  const double seconds = whole.Stop();
  pass_.edit_s.push_back(seconds);
  pass_.busy_s += seconds;
  ++pass_.ops;
  ++pass_.edits;
  if (!target.ok()) {
    Fail(target.status(), name);
  }
  return target;
}

std::vector<RopeId> IngestPass::EditScript(RopeId base, uint64_t tag) {
  const RopeId source = PickSource(base);
  const auto in_place = [base](const Status& status) -> Result<RopeId> {
    if (!status.ok()) {
      return status;
    }
    return base;
  };
  std::vector<RopeId> edited = {base};

  // INSERT[base @ at, source[from, from + count)]
  {
    const int64_t count = std::min<int64_t>(5, model_.Length(source));
    const int64_t from = prng_.NextInRange(0, model_.Length(source) - count);
    const int64_t at = prng_.NextInRange(0, model_.Length(base));
    if (Edit("rope.insert", tag, [&]() {
          return in_place(fs_->rope_server().Insert(
              kUser, base, model_.Interval(at, 0).start_sec, MediaSelector::kAudioVisual, source,
              model_.Interval(from, count)));
        }).ok()) {
      const std::vector<Quantum>& with = model_.ropes[source];
      const std::vector<Quantum> piece(with.begin() + from, with.begin() + from + count);
      std::vector<Quantum>& quanta = model_.ropes[base];
      quanta.insert(quanta.begin() + at, piece.begin(), piece.end());
    }
  }
  // REPLACE[base [at, at + count) <- source [from, from + count)]
  {
    const int64_t count =
        std::min<int64_t>({5, model_.Length(base), model_.Length(source)});
    const int64_t at = prng_.NextInRange(0, model_.Length(base) - count);
    const int64_t from = prng_.NextInRange(0, model_.Length(source) - count);
    if (Edit("rope.replace", tag, [&]() {
          return in_place(fs_->rope_server().Replace(kUser, base, MediaSelector::kAudioVisual,
                                                     model_.Interval(at, count), source,
                                                     model_.Interval(from, count)));
        }).ok()) {
      const std::vector<Quantum>& with = model_.ropes[source];
      std::copy(with.begin() + from, with.begin() + from + count,
                model_.ropes[base].begin() + at);
    }
  }
  // DELETE[base [at, at + count)]
  {
    const int64_t count = prng_.NextInRange(1, 3);
    const int64_t at = prng_.NextInRange(0, model_.Length(base) - count);
    if (Edit("rope.delete", tag, [&]() {
          return in_place(fs_->rope_server().Delete(kUser, base, MediaSelector::kAudioVisual,
                                                    model_.Interval(at, count)));
        }).ok()) {
      std::vector<Quantum>& quanta = model_.ropes[base];
      quanta.erase(quanta.begin() + at, quanta.begin() + at + count);
    }
  }
  // SUBSTRING[base [at, at + count)] -> piece
  RopeId piece = kNullRope;
  {
    const int64_t count = prng_.NextInRange(5, 10);
    const int64_t at = prng_.NextInRange(0, model_.Length(base) - count);
    const Result<RopeId> made = Edit("rope.substring", tag, [&]() {
      return fs_->rope_server().Substring(kUser, base, MediaSelector::kAudioVisual,
                                          model_.Interval(at, count));
    });
    if (made.ok()) {
      piece = *made;
      const std::vector<Quantum>& quanta = model_.ropes[base];
      model_.ropes[piece].assign(quanta.begin() + at, quanta.begin() + at + count);
      model_.born[piece] = cycle_;
      edited.push_back(piece);
    }
  }
  // CONCATE[piece, source] -> joined
  if (piece != kNullRope) {
    const Result<RopeId> joined = Edit("rope.concat", tag, [&]() {
      return fs_->rope_server().Concat(kUser, piece, source);
    });
    if (joined.ok()) {
      std::vector<Quantum> quanta = model_.ropes[piece];
      const std::vector<Quantum>& tail = model_.ropes[source];
      quanta.insert(quanta.end(), tail.begin(), tail.end());
      model_.ropes[*joined] = std::move(quanta);
      model_.born[*joined] = cycle_;
      edited.push_back(*joined);
    }
  }
  return edited;
}

void IngestPass::ReadBack(RopeId rope, uint64_t tag) {
  for (const Medium medium : {Medium::kVideo, Medium::kAudio}) {
    Call call(probe_, "vafs.read", tag);
    const Result<std::vector<std::vector<uint8_t>>> blocks =
        fs_->ReadRopeBlocks(kUser, rope, medium, model_.Interval(0, model_.Length(rope)));
    Account(&call, blocks.status(), "read");
    ++pass_.reads;
    if (!blocks.ok()) {
      continue;
    }
    const std::vector<BlockDigest> expected = model_.Expected(rope, medium);
    bool match = blocks->size() == expected.size();
    for (size_t i = 0; match && i < expected.size(); ++i) {
      match = expected[i].Matches((*blocks)[i]);
    }
    if (!match) {
      ++pass_.read_mismatches;
    }
  }
}

void IngestPass::RecoverAndCompare(uint64_t tag) {
  // Recover() rebuilds the scheduler: count what this one delivered first.
  pass_.delivered += SumDelivered([this](RequestId id) { return fs_->Stats(id); });
  const std::string before = CatalogSignature(*fs_);
  Call call(probe_, "vafs.recover", tag);
  const Status status = fs_->Recover();
  pass_.recover_s.push_back(Account(&call, status, "recover"));
  ++pass_.recovers;
  if (tally_ != nullptr) {
    fs_->storage_manager().set_trace_sink(tally_);  // the rebuilt store starts without one
  }
  if (CatalogSignature(*fs_) != before) {
    ++pass_.catalog_mismatches;
  }
}

void IngestPass::Checkpoint(uint64_t tag) {
  const int64_t sectors = tally_ != nullptr ? tally_->counts().disk_write_sectors : 0;
  Call call(probe_, "vafs.checkpoint", tag);
  const Status status = fs_->Checkpoint();
  const double seconds = Account(&call, status, "checkpoint");
  if (measuring_) {
    pass_.checkpoint_s.push_back(seconds);
  }
  if (tally_ != nullptr) {
    pass_.checkpoint_sectors += tally_->counts().disk_write_sectors - sectors;
    ++pass_.checkpoints;
  }
}

void IngestPass::CheckFsck(uint64_t tag) {
  Call call(probe_, "vafs.fsck", tag);
  const Result<FsckReport> report = fs_->RunFsck();
  Account(&call, report.status(), "fsck");
  ++pass_.fsck_runs;
  if (report.ok()) {
    pass_.fsck_findings += static_cast<int64_t>(report->findings.size());
  }
}

void IngestPass::Collect(uint64_t tag) {
  for (auto it = model_.born.begin(); it != model_.born.end();) {
    if (it->second > cycle_ - kLiveCycles) {
      ++it;
      continue;
    }
    Call call(probe_, "rope.delete_rope", tag);
    Account(&call, fs_->rope_server().DeleteRope(kUser, it->first), "delete_rope");
    model_.ropes.erase(it->first);
    it = model_.born.erase(it);
  }
  Call call(probe_, "rope.collect_garbage", tag);
  fs_->rope_server().CollectGarbage();
  Account(&call, Status::Ok(), "collect_garbage");
}

RopeId IngestPass::PickSource(RopeId exclude) {
  std::vector<RopeId> candidates;
  for (const auto& [rope, quanta] : model_.ropes) {
    if (rope != exclude && static_cast<int64_t>(quanta.size()) <= kMaxSourceQuanta) {
      candidates.push_back(rope);
    }
  }
  return candidates[prng_.NextBelow(candidates.size())];
}

Pass IngestPass::Run(Clock::time_point setup_start) {
  for (int rep = 0; rep < SetupRepetitions(options_); ++rep) {
    fs_.reset();
    const Clock::time_point start = rep == 0 ? setup_start : Clock::now();
    const Status status = SetUp();
    pass_.setup_s.push_back(SecondsBetween(start, Clock::now()));
    if (!status.ok()) {
      pass_.status = status;
      return pass_;
    }
  }
  const EventTally::Counts setup_counts =
      tally_ != nullptr ? tally_->counts() : EventTally::Counts{};
  pass_.first_timed_span = probe_ != nullptr ? probe_->spans().size() : 0;
  const int64_t events_before = fs_->simulator().events_executed();
  measuring_ = true;
  pass_.cycles = std::max<int64_t>(4 * kRecoverEvery,
                                   std::llround(kCyclesPerHostSec * options_.seconds));
  const Clock::time_point wall_start = Clock::now();
  for (cycle_ = 0; cycle_ < pass_.cycles; ++cycle_) {
    const uint64_t tag = static_cast<uint64_t>(cycle_) + 1;
    const Result<RopeId> clip = RecordClip(tag);
    if (!clip.ok()) {
      continue;
    }
    TimedRecordingWithPlays(tag);
    for (const RopeId rope : EditScript(*clip, tag)) {
      ReadBack(rope, tag);
    }
    Collect(tag);
    Checkpoint(tag);
    if ((cycle_ + 1) % kRecoverEvery == 0) {
      RecoverAndCompare(tag);
      CheckFsck(tag);
    }
  }
  pass_.wall_s = SecondsBetween(wall_start, Clock::now());
  pass_.delivered += SumDelivered([this](RequestId id) { return fs_->Stats(id); });
  pass_.sim_events = fs_->simulator().events_executed() - events_before;
  // Timed recordings write whole video blocks.
  pass_.media_bytes += static_cast<double>(pass_.delivered.recorded *
                                           model_.video_granularity *
                                           UvcCompressedVideo().bits_per_unit) /
                       8.0;
  if (tally_ != nullptr) {
    pass_.total_counts = tally_->counts();
    pass_.run_counts = tally_->counts() - setup_counts;
  }
  return pass_;
}

void AddChecks(const Pass& pass, const std::string& label, Report* report) {
  report->Check(pass.status.ok(), label + "set-up succeeds" +
                                      (pass.status.ok() ? "" : ": " + pass.status.ToString()));
  report->Check(pass.failed_ops == 0, label + "every call returns ok (" +
                                          std::to_string(pass.ops) + " calls" +
                                          (pass.first_failure.empty()
                                               ? ")"
                                               : "; first failure " + pass.first_failure + ")"));
  report->Check(pass.reads > 0 && pass.read_mismatches == 0,
                label + "every ReadRopeBlocks result matches the bytes the edit script predicts (" +
                    std::to_string(pass.reads) + " reads, " +
                    std::to_string(pass.read_mismatches) + " mismatched)");
  report->Check(pass.recovers > 0 && pass.catalog_mismatches == 0,
                label + "the catalog after Recover() equals the one before it (" +
                    std::to_string(pass.recovers) + " recovers, " +
                    std::to_string(pass.catalog_mismatches) + " differed)");
  report->Check(pass.fsck_runs > 0 && pass.fsck_findings == 0,
                label + "RunFsck() reports no findings (" + std::to_string(pass.fsck_runs) +
                    " runs, " + std::to_string(pass.fsck_findings) + " findings)");
  report->Check(pass.delivered.glitched_requests == 0,
                label + "played and recorded streams have no continuity violations or "
                        "skipped blocks");
}

}  // namespace

void RunIngestEdit(const BenchOptions& options, Report* report) {
  const Pass plain = IngestPass(options, nullptr, nullptr).Run(options.process_start);
  report->Note("ingest_edit: " + std::to_string(plain.cycles) + " cycles, " +
               std::to_string(plain.ops) + " calls, " + std::to_string(plain.edits) +
               " edits, " + std::to_string(plain.recovers) + " recovers; edit quantum " +
               std::to_string(plain.quantum_sec) + " s; n_max " + std::to_string(plain.n_max));
  AddChecks(plain, "", report);
  report->Attempt(plain.ops);
  report->Fail(plain.failed_ops + plain.read_mismatches + plain.catalog_mismatches +
               plain.fsck_findings + plain.delivered.glitched_requests);
  report->Add("msm.continuity_violations",
              static_cast<double>(plain.delivered.continuity_violations), "count",
              plain.delivered.requests);
  report->Add("msm.blocks_skipped", static_cast<double>(plain.delivered.blocks_skipped),
              "count", plain.delivered.requests);

  if (!options.trace) {
    const int64_t blocks = plain.delivered.blocks + plain.record_blocks;
    report->Add("blocks_per_s", Ratio(blocks, plain.busy_s), "blocks/s", blocks);
    report->AddPercentile("op_ms_p50", plain.edit_s, 50.0, 1e3, "ms");
    report->AddPercentile("op_ms_p90", plain.edit_s, 90.0, 1e3, "ms");
    report->Add("setup_s", Median(plain.setup_s), "s",
                static_cast<int64_t>(plain.setup_s.size()));
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    const double record_s = std::accumulate(plain.record_s.begin(), plain.record_s.end(), 0.0);
    report->Add("ingest_mb_per_s", Ratio(plain.record_bytes / 1e6, record_s), "MB/s",
                static_cast<int64_t>(plain.record_s.size()));
    report->AddPercentile("edit_us_p50", plain.edit_s, 50.0, 1e6, "us");
    report->AddPercentile("edit_us_p99", plain.edit_s, 99.0, 1e6, "us");
    report->AddPercentile("checkpoint_ms_p50", plain.checkpoint_s, 50.0, 1e3, "ms");
    report->AddPercentile("recover_ms_p50", plain.recover_s, 50.0, 1e3, "ms");
    return;
  }

  Probe probe;
  EventTally tally;
  ShadowSinks shadow;
  probe.set_top_level_hook([&]() { shadow.Replay(tally.TakeBuffer(), &probe, 0); });
  const Pass traced = IngestPass(options, &probe, &tally).Run(Clock::now());
  AddChecks(traced, "traced: ", report);
  report->Check(traced.ops == plain.ops && traced.edits == plain.edits &&
                    traced.seam_blocks == plain.seam_blocks &&
                    traced.record_blocks == plain.record_blocks &&
                    traced.delivered.blocks == plain.delivered.blocks,
                "the traced pass repeats the untraced pass's counts (the probe changes no "
                "service decision)");
  report->Check(shadow.auditor().Clean(),
                "the traced run's strict auditor is clean" +
                    (shadow.auditor().Clean() ? "" : ":\n" + shadow.auditor().Report()));

  LayerInputs in;
  in.probe = &probe;
  in.first_timed_span = traced.first_timed_span;
  in.traced_wall_s = traced.wall_s;
  in.untraced_wall_s = plain.wall_s;
  in.untraced_round_s = plain.step_s;
  in.total_counts = traced.total_counts;
  in.run_counts = traced.run_counts;
  in.shadows = {&shadow};
  in.delivered_blocks = traced.delivered.blocks + traced.record_blocks;
  in.round_recorded_blocks = traced.delivered.recorded;
  in.sim_events = traced.sim_events;
  in.media_bytes_recorded = traced.media_bytes;
  in.audio_blocks = traced.audio_blocks;
  in.silence_blocks = traced.silence_blocks;
  in.edits = traced.edits;
  in.seam_blocks = traced.seam_blocks;
  in.recovers = traced.recovers;
  in.checkpoint_kb =
      Ratio(static_cast<double>(traced.checkpoint_sectors * in.bytes_per_sector) / 1024.0,
            traced.checkpoints);
  AddLayerMetrics(in, report);
  for (const char* span : {"rope.insert", "rope.replace", "rope.delete", "rope.substring",
                           "rope.concat", "rope.repair"}) {
    AddSpanMedian(probe, span, std::string(span) + "_us_p50", 1e6, "us", report);
  }
  AddSpanMedian(probe, "vafs.record", "vafs.record_ms_p50", 1e3, "ms", report);
  AddSpanMedian(probe, "vafs.play", "vafs.play_us_p50", 1e6, "us", report);
  WriteSpans(probe, options, report);
}

}  // namespace perfbench
}  // namespace vafs
