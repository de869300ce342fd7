#include "src/vafs/file_system.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/obs/export.h"

namespace vafs {

namespace {

// The display device matching a medium.
const DeviceProfile& DeviceFor(const FileSystemConfig& config, Medium medium) {
  return medium == Medium::kVideo ? config.video_device : config.audio_device;
}

}  // namespace

MultimediaFileSystem::Telemetry::Telemetry(const TelemetryOptions& options)
    : log(options.trace_capacity),
      metrics_sink(&registry),
      slo(options.slo),
      flight(options.flight),
      critical_path(obs::CriticalPathOptions{&tee}) {
  tee.Add(&log);
  tee.Add(&metrics_sink);
  tee.Add(&slo);
  tee.Add(&flight);
  slo.set_breach_handler([this](uint64_t /*request*/, const std::string& description) {
    flight.TriggerDump(description);
  });
}

MultimediaFileSystem::MultimediaFileSystem(const FileSystemConfig& config) : config_(config) {
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<Telemetry>(config_.telemetry);
    if (config_.scheduler.trace != nullptr) {
      telemetry_->tee.Add(config_.scheduler.trace);  // user sink rides along
    }
    if (config_.telemetry.spans) {
      // The analyzer sits between the scheduler and the tee: every event
      // passes through unchanged and each round's spans are folded into a
      // kCriticalPath verdict emitted right after its kRoundEnd.
      config_.scheduler.emit_spans = true;
      config_.scheduler.node = config_.telemetry.node_id;
      config_.scheduler.trace = &telemetry_->critical_path;
    } else {
      config_.scheduler.trace = &telemetry_->tee;
    }
  }
  DiskOptions disk_options{.retain_data = config.retain_data,
                           .faults = config.faults,
                           .image_path = config.disk_image_path,
                           .image_truncate = config.disk_image_truncate};
  if (disk_options.image_path.empty()) {
    if (const char* env_image = std::getenv("VAFS_DISK_IMAGE"); env_image != nullptr) {
      disk_options.image_path = env_image;
    }
  }
  disk_ = std::make_unique<Disk>(config.disk, disk_options);
  store_ = std::make_unique<StrandStore>(disk_.get());
  if (config_.block_cache.capacity_bytes > 0) {
    block_cache_ = std::make_unique<BlockCache>(config_.block_cache);
    config_.scheduler.block_cache = block_cache_.get();
    store_->set_block_cache(block_cache_.get());
  }
  if (telemetry_ != nullptr) {
    disk_->set_trace_sink(&telemetry_->tee);
    store_->set_trace_sink(&telemetry_->tee);
  }

  const StorageTimings storage = StorageTimings::FromDiskModel(disk_->model());
  continuity_ =
      std::make_unique<ContinuityModel>(storage, config.video_device, config.concurrency);

  double avg_scattering = config.assumed_avg_scattering_sec;
  if (avg_scattering < 0) {
    // Conservative default: assume strands realize their full scattering
    // budget; admission then under-promises rather than glitching.
    avg_scattering = storage.avg_rotational_latency_sec;
    Result<StrandPlacement> placement =
        PlacementFor(MediaProfile{Medium::kVideo, 30.0, 96'000});
    if (placement.ok()) {
      avg_scattering = placement->max_scattering_sec;
    }
  }
  if (avg_scattering > storage.max_access_gap_sec) {
    avg_scattering = storage.max_access_gap_sec;
  }
  admission_ = std::make_unique<AdmissionControl>(storage, avg_scattering);
  scheduler_ =
      std::make_unique<ServiceScheduler>(store_.get(), &simulator_, *admission_, config_.scheduler);
  if (config_.sessions.enabled) {
    // Control comes from the scheduler's lifecycle listener (registered in
    // InstallListeners); the session events go to the scheduler's trace
    // stream, which telemetry only observes.
    session_manager_ = std::make_unique<SessionManager>(scheduler_.get(), &simulator_,
                                                        block_cache_.get(),
                                                        config_.scheduler.trace, config_.sessions);
  }
  ropes_ = std::make_unique<RopeServer>(store_.get());
  text_files_ = std::make_unique<TextFileService>(disk_.get(), &store_->allocator());
  InstallListeners();
}

void MultimediaFileSystem::InstallListeners() {
  store_->set_catalog_listener(&journal_hook_);
  ropes_->set_mutation_listener(&journal_hook_);
  text_files_->set_listener(&journal_hook_);
  if (session_manager_ != nullptr) {
    scheduler_->set_lifecycle_listener(session_manager_.get());
  }
}

void MultimediaFileSystem::Journal(Intent intent, const std::vector<uint8_t>& payload) {
  if (journal_ == nullptr || journal_overflowed_) {
    return;  // no committed generation yet, or the journal filled up
  }
  if (Status status = journal_->Append(intent, payload); !status.ok()) {
    // Stop journaling; the next checkpoint captures everything anyway.
    journal_overflowed_ = true;
  }
}

void MultimediaFileSystem::JournalHook::OnStrandAdded(const StrandStore::CatalogEntry& entry) {
  fs_->Journal(Intent::kStrandAdded, EncodeStrandIntent(entry));
}

void MultimediaFileSystem::JournalHook::OnStrandDeleted(StrandId id) {
  fs_->Journal(Intent::kStrandDeleted, EncodeStrandDeleteIntent(id));
}

void MultimediaFileSystem::JournalHook::OnRopeChanged(const Rope& rope) {
  fs_->Journal(Intent::kRopeUpsert, EncodeRopeIntent(rope));
}

void MultimediaFileSystem::JournalHook::OnRopeDeleted(RopeId id) {
  fs_->Journal(Intent::kRopeDeleted, EncodeRopeDeleteIntent(id));
}

void MultimediaFileSystem::JournalHook::OnFileWritten(const TextFileService::ExportedFile& file) {
  fs_->Journal(Intent::kTextUpsert, EncodeTextIntent(file));
}

void MultimediaFileSystem::JournalHook::OnFileRemoved(const std::string& name) {
  fs_->Journal(Intent::kTextRemoved, EncodeTextRemoveIntent(name));
}

Result<StrandPlacement> MultimediaFileSystem::PlacementFor(const MediaProfile& media) const {
  const StorageTimings storage = StorageTimings::FromDiskModel(disk_->model());
  ContinuityModel model(storage, DeviceFor(config_, media.medium), config_.concurrency);
  return model.DerivePlacement(config_.architecture, media);
}

Result<MultimediaFileSystem::RecordResult> MultimediaFileSystem::Record(const std::string& user,
                                                                        VideoSource* video,
                                                                        AudioSource* audio,
                                                                        double duration_sec) {
  if (video == nullptr && audio == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "RECORD needs at least one medium");
  }
  if (duration_sec <= 0) {
    return Status(ErrorCode::kInvalidArgument, "RECORD needs a positive duration");
  }
  RecordResult result;
  if (video != nullptr) {
    Result<StrandPlacement> placement = PlacementFor(video->profile());
    if (!placement.ok()) {
      return placement.status();
    }
    Result<RecordingResult> recorded = RecordVideo(store_.get(), video, *placement, duration_sec);
    if (!recorded.ok()) {
      return recorded.status();
    }
    result.video = *recorded;
    result.video_strand = recorded->strand;
  }
  if (audio != nullptr) {
    Result<StrandPlacement> placement = PlacementFor(audio->profile());
    if (!placement.ok()) {
      return placement.status();
    }
    Result<RecordingResult> recorded =
        RecordAudio(store_.get(), audio, silence_detector_, *placement, duration_sec);
    if (!recorded.ok()) {
      return recorded.status();
    }
    result.audio = *recorded;
    result.audio_strand = recorded->strand;
  }
  Result<RopeId> rope = ropes_->CreateRope(user, result.video_strand, result.audio_strand);
  if (!rope.ok()) {
    return rope.status();
  }
  result.rope = *rope;
  return result;
}

Result<RequestId> MultimediaFileSystem::StartTimedRecording(const MediaProfile& media,
                                                            double duration_sec) {
  Result<StrandPlacement> placement = PlacementFor(media);
  if (!placement.ok()) {
    return placement.status();
  }
  const double units = duration_sec * media.units_per_sec;
  RecordingRequest request;
  request.profile = media;
  request.placement = *placement;
  request.total_blocks = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(units / static_cast<double>(placement->granularity))));
  return scheduler_->SubmitRecording(request);
}

Result<PlaybackRequest> MultimediaFileSystem::BuildPlayback(const std::string& user, RopeId rope,
                                                            Medium medium, TimeInterval interval,
                                                            double rate_multiplier) {
  Result<const Rope*> rope_ptr = ropes_->Find(rope);
  if (!rope_ptr.ok()) {
    return rope_ptr.status();
  }
  const Track& track = (*rope_ptr)->TrackFor(medium);
  if (track.rate <= 0) {
    return Status(ErrorCode::kNotFound,
                  std::string("rope has no ") + MediumName(medium) + " component");
  }
  Result<std::vector<PrimaryEntry>> blocks = ropes_->ResolveBlocks(user, rope, medium, interval);
  if (!blocks.ok()) {
    return blocks.status();
  }

  // Per-unit size: taken from the first referenced strand (every strand in
  // a track shares rate and granularity; unit size follows the medium).
  int64_t bits_per_unit = 8;
  for (const TrackSegment& segment : track.segments) {
    if (!segment.IsGap()) {
      Result<const Strand*> strand = store_->Get(segment.strand);
      if (strand.ok()) {
        bits_per_unit = (*strand)->info().bits_per_unit;
        break;
      }
    }
  }

  PlaybackRequest request;
  request.blocks = std::move(*blocks);
  request.block_duration =
      SecondsToUsec(static_cast<double>(track.granularity) / track.rate);
  request.spec =
      RequestSpec{MediaProfile{medium, track.rate, bits_per_unit}, track.granularity};
  request.rate_multiplier = rate_multiplier;
  return request;
}

Result<RequestId> MultimediaFileSystem::Play(const std::string& user, RopeId rope, Medium medium,
                                             TimeInterval interval, double rate_multiplier) {
  Result<PlaybackRequest> request = BuildPlayback(user, rope, medium, interval, rate_multiplier);
  if (!request.ok()) {
    return request.status();
  }
  return scheduler_->SubmitPlayback(std::move(*request));
}

Result<SessionTicket> MultimediaFileSystem::OpenSession(const std::string& user, RopeId rope,
                                                        Medium medium, TimeInterval interval) {
  if (session_manager_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument,
                  "session layer disabled (set FileSystemConfig::sessions.enabled)");
  }
  Result<PlaybackRequest> request = BuildPlayback(user, rope, medium, interval, 1.0);
  if (!request.ok()) {
    return request.status();
  }
  // The title block the interval begins at: non-zero for mid-title viewers
  // (failover resumption), so the session layer can translate between this
  // viewer's block space and a live leader's.
  int64_t start_block = 0;
  if (interval.start_sec > 0.0) {
    if (Result<const Rope*> rope_ptr = ropes_->Find(rope); rope_ptr.ok()) {
      const Track& track = (*rope_ptr)->TrackFor(medium);
      if (track.rate > 0 && track.granularity > 0) {
        start_block = track.UnitsAt(interval.start_sec) / track.granularity;
      }
    }
  }
  return session_manager_->Open(rope, std::move(*request), start_block);
}

Status MultimediaFileSystem::Checkpoint() {
  Result<ImageReceipt> receipt =
      SaveImage(store_.get(), ropes_.get(), text_files_.get(),
                image_receipt_.valid ? &image_receipt_ : nullptr);
  if (!receipt.ok()) {
    // A failed save committed nothing: the previous receipt (and journal
    // generation) remain the live ones.
    return receipt.status();
  }
  image_receipt_ = *receipt;
  // The bumped generation implicitly invalidates all prior journal entries;
  // start appending a fresh generation from the top of the extent.
  journal_ = std::make_unique<IntentJournal>(disk_.get(), image_receipt_.journal_extent,
                                             image_receipt_.generation);
  journal_overflowed_ = false;
  // A durable checkpoint implies a durable backing image: msync the mmap'd
  // sector file (no-op for the in-memory store) so remounting the image
  // file after a host crash sees exactly the checkpointed state.
  disk_->SyncImage();
  return Status::Ok();
}

Status MultimediaFileSystem::Recover() {
  if (disk_->powered_off()) {
    disk_->PowerCycle();
  }

  int64_t journal_resume_offset = 0;
  int64_t journal_resume_sequence = 0;
  int64_t strands_recovered = 0;
  const char* recovered_via = "load_image";
  Result<LoadedImage> image = LoadImage(disk_.get());
  if (image.ok()) {
    store_ = std::move(image->store);
    ropes_ = std::move(image->ropes);
    text_files_ = std::move(image->texts);
    image_receipt_ = image->receipt;
    journal_resume_offset = image->journal_resume_offset_sectors;
    journal_resume_sequence = image->journal_resume_sequence;
    strands_recovered = image->strands_recovered;
  } else if (image.status().code() == ErrorCode::kNotFound) {
    return image.status();  // pristine disk: nothing to recover
  } else {
    // Roots exist but no catalog is readable: scavenge.
    Result<FsckReport> report = Fsck(disk_.get());
    if (!report.ok()) {
      return report.status();
    }
    store_ = std::move(report->store);
    ropes_ = std::move(report->ropes);
    text_files_ = std::move(report->texts);
    image_receipt_ = report->receipt;
    strands_recovered = report->strands_recovered;
    recovered_via = report->used_scavenger ? "fsck_scavenge" : "fsck";
  }

  // The scheduler's in-flight requests died with the crash; drop the
  // simulator events still holding the dead scheduler and rebuild it over
  // the recovered store, returning every admission slot.
  simulator_.Clear();
  scheduler_ =
      std::make_unique<ServiceScheduler>(store_.get(), &simulator_, *admission_,
                                         config_.scheduler);
  if (block_cache_ != nullptr) {
    // The rebuilt store must keep invalidating, and nothing cached before
    // the crash is trustworthy against the recovered image.
    store_->set_block_cache(block_cache_.get());
    block_cache_->InvalidateAll();
  }
  if (telemetry_ != nullptr) {
    // The rebuilt store starts with no sink; the disk survived the crash
    // with its sink intact. Re-wire so post-recovery telemetry keeps
    // flowing into the same pipeline.
    store_->set_trace_sink(&telemetry_->tee);
    disk_->set_trace_sink(&telemetry_->tee);
  }
  if (session_manager_ != nullptr) {
    // Fresh scheduler: every leader and patch died with the crash, so the
    // manager drops its groups wholesale (InstallListeners re-registers it).
    session_manager_->Rebind(scheduler_.get());
  }
  InstallListeners();
  if (image_receipt_.valid) {
    journal_ = std::make_unique<IntentJournal>(disk_.get(), image_receipt_.journal_extent,
                                               image_receipt_.generation);
    journal_->ResumeAt(journal_resume_offset, journal_resume_sequence);
  } else {
    journal_.reset();  // scavenged state has no committed generation
  }
  journal_overflowed_ = false;
  // Announced only now that the layers are replaced: an offline RunFsck()
  // over a live system must not reset the observers' recovery state.
  if (obs::TraceSink* sink = disk_->trace_sink(); sink != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kRecovery;
    event.round = image_receipt_.generation;
    event.blocks = strands_recovered;
    event.detail = recovered_via;
    sink->OnEvent(event);
  }
  return Status::Ok();
}

obs::MetricsRegistry* MultimediaFileSystem::metrics() {
  return telemetry_ != nullptr ? &telemetry_->registry : nullptr;
}

obs::TraceLog* MultimediaFileSystem::trace_log() {
  return telemetry_ != nullptr ? &telemetry_->log : nullptr;
}

obs::SloTracker* MultimediaFileSystem::slo_tracker() {
  return telemetry_ != nullptr ? &telemetry_->slo : nullptr;
}

obs::FlightRecorder* MultimediaFileSystem::flight_recorder() {
  return telemetry_ != nullptr ? &telemetry_->flight : nullptr;
}

obs::CriticalPathAnalyzer* MultimediaFileSystem::critical_path() {
  return telemetry_ != nullptr ? &telemetry_->critical_path : nullptr;
}

const obs::CriticalPathAnalyzer* MultimediaFileSystem::critical_path() const {
  return telemetry_ != nullptr ? &telemetry_->critical_path : nullptr;
}

obs::SloReport MultimediaFileSystem::SloSnapshot() const {
  return telemetry_ != nullptr ? telemetry_->slo.Report() : obs::SloReport{};
}

std::string MultimediaFileSystem::TelemetrySnapshotJson() const {
  if (telemetry_ == nullptr) {
    return "null";
  }
  return obs::JsonSnapshotExporter(&telemetry_->registry, &telemetry_->slo, &telemetry_->log,
                                   &telemetry_->critical_path)
      .Export();
}

Result<std::vector<std::vector<uint8_t>>> MultimediaFileSystem::ReadRopeBlocks(
    const std::string& user, RopeId rope, Medium medium, TimeInterval interval) {
  Result<std::vector<PrimaryEntry>> blocks = ropes_->ResolveBlocks(user, rope, medium, interval);
  if (!blocks.ok()) {
    return blocks.status();
  }
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(blocks->size());
  for (const PrimaryEntry& entry : *blocks) {
    if (entry.IsSilence()) {
      payloads.emplace_back();
      continue;
    }
    std::vector<uint8_t> payload;
    Result<SimDuration> read = disk_->Read(entry.sector, entry.sector_count, &payload);
    if (!read.ok()) {
      return read.status();
    }
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

}  // namespace vafs
