// MultimediaFileSystem: the public facade tying both layers together.
//
// Mirrors the paper's prototype (Section 5): the Multimedia Rope Server
// (device-independent rope abstraction) layered over the Multimedia
// Storage Manager (device-specific placement, admission control and
// service rounds), plus the integrated conventional text-file service.
// The client interface is the paper's Section 4.1 operation set: RECORD,
// PLAY, STOP, PAUSE (destructive or not), RESUME, and the rope editing
// utilities exposed through rope_server().

#ifndef VAFS_SRC_VAFS_FILE_SYSTEM_H_
#define VAFS_SRC_VAFS_FILE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/core/admission.h"
#include "src/core/continuity.h"
#include "src/disk/disk.h"
#include "src/media/silence.h"
#include "src/media/sources.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/msm/session_manager.h"
#include "src/msm/strand_store.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/rope/rope_server.h"
#include "src/sim/simulator.h"
#include "src/vafs/persistence.h"
#include "src/vafs/text_files.h"

namespace vafs {

// Built-in telemetry for the facade: when enabled, the file system owns a
// bounded TraceLog, a MetricsSink-fed registry, a continuity-SLO tracker
// and a flight recorder, all fed from one internal tee wired into the
// scheduler, strand store and disk (and re-wired across Recover()). A
// user-supplied FileSystemConfig::scheduler.trace sink keeps receiving the
// stream alongside them.
struct TelemetryOptions {
  bool enabled = false;
  // TraceLog bound; 0 retains every event (fine for tests, not for long
  // simulations).
  size_t trace_capacity = 8192;
  obs::SloOptions slo;
  obs::FlightRecorderOptions flight;
  // Causal span tracing: the scheduler emits per-round span trees
  // (SchedulerOptions::emit_spans) and a CriticalPathAnalyzer is
  // interposed between the scheduler and the tee, so every round gets a
  // kCriticalPath attribution verdict in the same stream.
  bool spans = false;
  // Storage-node id woven into trace/span ids and stamped on the
  // scheduler's events (-1 = single-node).
  int64_t node_id = -1;
};

struct FileSystemConfig {
  DiskParameters disk;
  // Display-path devices per medium (decode rate, internal buffers).
  DeviceProfile video_device{96'000.0 * 30.0 * 4, 8};
  DeviceProfile audio_device{8.0 * 8000.0 * 16, 64};
  RetrievalArchitecture architecture = RetrievalArchitecture::kPipelined;
  int concurrency = 1;  // p, for the concurrent architecture
  SchedulerOptions scheduler;
  // Shared block cache for planned rounds (capacity 0 = disabled). When
  // enabled the facade owns the cache and wires it into the scheduler
  // (scheduler.block_cache) and the strand store (write invalidation);
  // pair with scheduler.service_order = ServiceOrder::kPlanned.
  BlockCacheOptions block_cache;
  // Average scattering assumed by admission control; < 0 derives a
  // conservative value (the video placement's upper bound).
  double assumed_avg_scattering_sec = -1.0;
  bool retain_data = true;  // false: timing-only simulation (fast benches)
  // mmap'd disk-image backing store (DESIGN.md section 15). Empty (the
  // default) consults the VAFS_DISK_IMAGE environment variable; when that
  // is unset too, sector payloads live in the sparse in-memory store.
  // Requires retain_data; an unopenable path falls back to the in-memory
  // store without changing any simulated result.
  std::string disk_image_path;
  bool disk_image_truncate = false;  // discard an existing image file
  // Stream-merging session layer (src/msm/session_manager.h). When enabled
  // the facade owns a SessionManager, registered as the scheduler's
  // lifecycle listener; viewers admitted through OpenSession() share
  // physical streams by batching and patching. Works with telemetry on or
  // off: telemetry only observes the session events.
  SessionOptions sessions;
  // Disk fault injection (src/disk/fault_injector.h). The default injects
  // nothing and leaves every simulation bit-identical.
  FaultOptions faults;
  TelemetryOptions telemetry;
};

class MultimediaFileSystem {
 public:
  explicit MultimediaFileSystem(const FileSystemConfig& config);

  // --- Layer access (the prototype is a testbed; Section 5.2) --------------
  Simulator& simulator() { return simulator_; }
  Disk& disk() { return *disk_; }
  StrandStore& storage_manager() { return *store_; }
  RopeServer& rope_server() { return *ropes_; }
  ServiceScheduler& scheduler() { return *scheduler_; }
  TextFileService& text_files() { return *text_files_; }
  const ContinuityModel& continuity() const { return *continuity_; }
  const AdmissionControl& admission() const { return *admission_; }
  // Null unless FileSystemConfig::block_cache has a positive capacity.
  BlockCache* block_cache() { return block_cache_.get(); }
  // Null unless FileSystemConfig::sessions.enabled.
  SessionManager* session_manager() { return session_manager_.get(); }

  // Placement derived for a media profile under the configured
  // architecture (granularity + scattering bounds).
  Result<StrandPlacement> PlacementFor(const MediaProfile& media) const;

  // --- RECORD ---------------------------------------------------------------

  // RECORD [media] -> [requestID, mmRopeID]. Records the given sources
  // (either may be null, not both) for `duration_sec`, with silence
  // elimination on audio, and ties the strands into a rope.
  struct RecordResult {
    RopeId rope = kNullRope;
    StrandId video_strand = kNullStrand;
    StrandId audio_strand = kNullStrand;
    RecordingResult video;
    RecordingResult audio;
  };
  Result<RecordResult> Record(const std::string& user, VideoSource* video, AudioSource* audio,
                              double duration_sec);

  // Timed recording through admission control and service rounds (the
  // storage-side real-time path). Completion is observed via Stats().
  Result<RequestId> StartTimedRecording(const MediaProfile& media, double duration_sec);

  // --- PLAY / STOP / PAUSE / RESUME -------------------------------------------

  // PLAY [mmRopeID, interval, media] -> requestID. Non-blocking: drive the
  // simulation with RunUntilIdle() and inspect Stats().
  Result<RequestId> Play(const std::string& user, RopeId rope, Medium medium,
                         TimeInterval interval, double rate_multiplier = 1.0);

  // PLAY through the stream-merging session layer: viewers of one rope
  // arriving close together share a physical stream (batching), or catch
  // up on a short patch stream that merges into the leader. The rope id is
  // the session title. Requires FileSystemConfig::sessions.enabled.
  Result<SessionTicket> OpenSession(const std::string& user, RopeId rope, Medium medium,
                                    TimeInterval interval);

  Status Stop(RequestId request) { return scheduler_->Stop(request); }
  Status Pause(RequestId request, bool destructive) {
    return scheduler_->Pause(request, destructive);
  }
  Status Resume(RequestId request) { return scheduler_->Resume(request); }

  void RunUntilIdle() { scheduler_->RunUntilIdle(); }

  Result<RequestStats> Stats(RequestId request) const { return scheduler_->stats(request); }

  // --- Persistence ------------------------------------------------------------

  // Commits the catalog (strands, ropes, text files) to the disk image via
  // the A/B root protocol and starts a fresh intent-journal generation. On
  // failure the previous checkpoint stays committed and `image_receipt_`
  // untouched, so a retry resumes cleanly.
  Status Checkpoint();

  // Discards all in-memory state and rebuilds it from the disk image plus
  // the replayed intent journal; falls back to the fsck scavenger when no
  // root yields a readable catalog. Restores power after a simulated cut,
  // abandons all active requests (their admission slots die with the
  // scheduler), and clears pending simulator events. Once the layers are
  // replaced it emits one kRecovery event (`detail` load_image, fsck or
  // fsck_scavenge).
  Status Recover();

  // Offline check-and-repair over the current disk. Unlike Recover(), the
  // in-memory layers are not replaced (the report carries its own), and
  // live requests and sessions keep running.
  Result<FsckReport> RunFsck() { return Fsck(disk_.get()); }

  // Untimed data-path read of a rope interval (for verification and
  // non-real-time clients). Returns one payload per block covering the
  // interval, in playback order; eliminated-silence blocks come back as
  // empty vectors.
  Result<std::vector<std::vector<uint8_t>>> ReadRopeBlocks(const std::string& user, RopeId rope,
                                                           Medium medium, TimeInterval interval);

  // --- Telemetry (TelemetryOptions::enabled) ---------------------------------
  //
  // All accessors return nullptr (or empty values) when telemetry is off.
  bool telemetry_enabled() const { return telemetry_ != nullptr; }
  obs::MetricsRegistry* metrics();
  obs::TraceLog* trace_log();
  obs::SloTracker* slo_tracker();
  obs::FlightRecorder* flight_recorder();
  // The per-round critical-path attributions (empty unless
  // TelemetryOptions::spans).
  obs::CriticalPathAnalyzer* critical_path();
  const obs::CriticalPathAnalyzer* critical_path() const;
  // Current per-stream continuity-SLO report (empty when disabled).
  obs::SloReport SloSnapshot() const;
  // Versioned JSON snapshot (metrics + SLO report + trace-log health), the
  // format vafs_top loads. "null" when disabled.
  std::string TelemetrySnapshotJson() const;

 private:
  // Forwards every metadata mutation into the intent journal between
  // checkpoints (redo logging: the mutation has already happened when the
  // hook fires).
  class JournalHook final : public StrandStore::CatalogListener,
                            public RopeServer::MutationListener,
                            public TextFileService::Listener {
   public:
    explicit JournalHook(MultimediaFileSystem* fs) : fs_(fs) {}
    void OnStrandAdded(const StrandStore::CatalogEntry& entry) override;
    void OnStrandDeleted(StrandId id) override;
    void OnRopeChanged(const Rope& rope) override;
    void OnRopeDeleted(RopeId id) override;
    void OnFileWritten(const TextFileService::ExportedFile& file) override;
    void OnFileRemoved(const std::string& name) override;

   private:
    MultimediaFileSystem* fs_;
  };

  // Appends one intent if a journal generation is active; a full journal
  // (or a failed append) stops journaling until the next checkpoint.
  void Journal(Intent intent, const std::vector<uint8_t>& payload);
  void InstallListeners();
  // Resolves a rope interval into the fully solo PlaybackRequest Play()
  // would submit (shared by Play and OpenSession).
  Result<PlaybackRequest> BuildPlayback(const std::string& user, RopeId rope, Medium medium,
                                        TimeInterval interval, double rate_multiplier);

  // The built-in telemetry pipeline (constructed only when enabled): one
  // tee fanning the trace stream into the bounded log, the metrics fold,
  // the SLO tracker and the flight recorder, plus any user sink from the
  // original config. The SLO breach handler triggers flight-recorder dumps.
  struct Telemetry {
    explicit Telemetry(const TelemetryOptions& options);

    obs::MetricsRegistry registry;
    obs::TraceLog log;
    obs::MetricsSink metrics_sink;
    obs::SloTracker slo;
    obs::FlightRecorder flight;
    obs::TeeSink tee;
    // Interposed between the scheduler and the tee when
    // TelemetryOptions::spans; forwards every event and appends a
    // kCriticalPath verdict after each round.
    obs::CriticalPathAnalyzer critical_path;
  };

  FileSystemConfig config_;
  std::unique_ptr<Telemetry> telemetry_;
  Simulator simulator_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<StrandStore> store_;
  std::unique_ptr<ContinuityModel> continuity_;
  std::unique_ptr<AdmissionControl> admission_;
  std::unique_ptr<ServiceScheduler> scheduler_;
  std::unique_ptr<SessionManager> session_manager_;
  std::unique_ptr<RopeServer> ropes_;
  std::unique_ptr<TextFileService> text_files_;
  SilenceDetector silence_detector_;
  ImageReceipt image_receipt_;
  JournalHook journal_hook_{this};
  std::unique_ptr<IntentJournal> journal_;
  bool journal_overflowed_ = false;
};

}  // namespace vafs

#endif  // VAFS_SRC_VAFS_FILE_SYSTEM_H_
