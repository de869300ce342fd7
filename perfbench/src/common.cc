#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>

#include "perfbench/src/workloads.h"
#include "src/media/media.h"

namespace vafs {
namespace perfbench {

namespace {

// Flash-class geometry: the seek curve and the rotation stand in for a
// controller's command latency (about a microsecond), and a track passes
// the head at ~16 GB/s.
DiskParameters FlashClassDisk() {
  DiskParameters params;
  params.cylinders = 8192;
  params.surfaces = 8;
  params.sectors_per_track = 64;
  params.bytes_per_sector = 512;
  params.rpm = 30'000'000.0;
  params.min_seek_ms = 0.0005;
  params.max_seek_ms = 0.001;
  return params;
}

// Average scattering admission plans against on the flash-class disk.
constexpr double kFlashScatteringSec = 0.5e-6;
// Smaller than the vod_node library, larger than its Zipf head.
constexpr int64_t kVodCacheBytes = int64_t{64} << 20;

}  // namespace

FileSystemConfig VodOperatingPoint(obs::TraceSink* trace) {
  FileSystemConfig config;
  config.disk = FlashClassDisk();
  config.video_device = VideoDisplay();
  config.audio_device = AudioDisplay();
  config.retain_data = false;
  config.assumed_avg_scattering_sec = kFlashScatteringSec;
  config.scheduler.service_order = ServiceOrder::kPlanned;
  config.scheduler.batch_activation = true;
  config.scheduler.trace = trace;
  config.block_cache.capacity_bytes = kVodCacheBytes;
  config.sessions.enabled = true;
  config.sessions.batch_window_sec = 1.0;
  config.sessions.max_patch_blocks = 256;
  config.telemetry.enabled = true;
  return config;
}

DeviceProfile VideoDisplay() { return DeviceProfile{UvcCompressedVideo().BitRate() * 3.0, 8}; }

DeviceProfile AudioDisplay() {
  return DeviceProfile{TelephoneAudio().BitRate() * 16.0, 16'384};
}

int SetupRepetitions(const BenchOptions& options) { return options.trace ? 1 : 5; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void AddLayerMetrics(const LayerInputs& in, Report* report) {
  using obs::TraceEventKind;
  const EventTally::Counts& run = in.run_counts;
  const EventTally::Counts& total = in.total_counts;
  const int64_t rounds = run.of(TraceEventKind::kRoundEnd);
  const int64_t serviced = run.of(TraceEventKind::kRequestServiced);
  const int64_t blocks = in.delivered_blocks;
  const auto add = [report](const std::string& name, double value, const char* unit,
                            int64_t samples) { report->Add(name, value, unit, samples); };

  // msm: the round hot path.
  add("msm.us_per_stream_round", Ratio(in.untraced_round_s * 1e6, serviced), "us", serviced);
  add("msm.streams_per_round", Ratio(serviced, rounds), "streams/round", rounds);
  add("msm.k_mean", Ratio(run.round_k_sum, rounds), "blocks", rounds);
  add("msm.plan.transfers_per_round", Ratio(run.transfers, rounds), "ops/round", rounds);
  add("msm.plan.coalesced_ratio", Ratio(run.coalesced, run.planned_blocks), "ratio",
      run.planned_blocks);
  add("msm.plan.deduped_ratio", Ratio(run.deduped, run.planned_blocks), "ratio",
      run.planned_blocks);
  add("msm.cache.hit_ratio", Ratio(run.cache_hits, run.cache_lookups), "ratio",
      run.cache_lookups);
  add("msm.cache.evictions", static_cast<double>(in.cache_evictions), "count", rounds);
  add("msm.sessions.batched", run.of(TraceEventKind::kSessionBatched), "count", 1);
  add("msm.sessions.patched", run.of(TraceEventKind::kSessionPatched), "count", 1);
  add("msm.sessions.merged", run.of(TraceEventKind::kSessionMerged), "count", 1);
  add("msm.appends_per_round", Ratio(in.round_recorded_blocks, rounds), "blocks/round", rounds);

  // core: admission control.
  const int64_t plans = run.of(TraceEventKind::kAdmissionPlan);
  const int64_t rejects = run.of(TraceEventKind::kAdmissionReject);
  add("core.admission.decisions", plans + rejects, "count", 1);
  add("core.admission.existing_mean", Ratio(run.admission_existing_sum, plans), "streams", plans);
  add("core.admission.reject_ratio", Ratio(rejects, plans + rejects), "ratio", plans + rejects);

  // disk, layout, media: the storage side.
  add("disk.ops_per_block",
      Ratio(run.of(TraceEventKind::kDiskRead) + run.of(TraceEventKind::kDiskWrite), blocks),
      "ops/block", blocks);
  add("disk.write_amp",
      Ratio(static_cast<double>(total.disk_write_sectors * in.bytes_per_sector),
            in.media_bytes_recorded),
      "ratio", total.of(TraceEventKind::kDiskWrite));
  add("layout.strand_writes_per_mb",
      Ratio(total.of(TraceEventKind::kStrandWrite), in.media_bytes_recorded / 1e6), "writes/MB",
      total.of(TraceEventKind::kStrandWrite));
  add("media.silence_ratio", Ratio(in.silence_blocks, in.audio_blocks), "ratio", in.audio_blocks);

  // rope and vafs: editing and persistence.
  add("rope.seam_blocks_per_edit", Ratio(in.seam_blocks, in.edits), "blocks/edit", in.edits);
  add("vafs.journal_appends_per_edit", Ratio(run.of(TraceEventKind::kJournalAppend), in.edits),
      "appends/edit", in.edits);
  add("vafs.checkpoint_kb", in.checkpoint_kb, "KB", 1);
  add("vafs.journal_replays_per_recover",
      Ratio(run.of(TraceEventKind::kJournalReplay), in.recovers), "replays", in.recovers);

  // sim and cluster.
  add("sim.events_per_block", Ratio(in.sim_events, blocks), "events/block", blocks);
  add("cluster.node_blocks_skew", in.node_blocks_skew, "ratio", 1);
  add("cluster.repair_blocks", static_cast<double>(in.repair_blocks), "blocks", 1);

  // obs: every sink's cost per event, measured on the shadow copies.
  int64_t events = 0;
  std::array<int64_t, ShadowSinks::kSinkCount> sink_ns{};
  for (const ShadowSinks* shadow : in.shadows) {
    events += shadow->events();
    for (int sink = 0; sink < ShadowSinks::kSinkCount; ++sink) {
      sink_ns[static_cast<size_t>(sink)] += shadow->sink_ns(sink);
    }
  }
  for (int sink = 0; sink < ShadowSinks::kSinkCount; ++sink) {
    add(std::string(ShadowSinks::SinkName(sink)) + "_ns_per_event",
        Ratio(sink_ns[static_cast<size_t>(sink)], events), "ns", events);
  }
  double real_sink_s = 0.0;
  for (const int sink : in.real_sinks) {
    real_sink_s += static_cast<double>(sink_ns[static_cast<size_t>(sink)]) * 1e-9;
  }
  add("obs.share", Ratio(real_sink_s, in.untraced_wall_s), "ratio", events);
  add("obs.events_per_block", Ratio(run.events(), blocks), "events/block", run.events());
  add("obs.spans_per_round", Ratio(run.of(TraceEventKind::kSpan), rounds), "spans/round", rounds);
  add("obs.trace_overhead", in.traced_wall_s - in.untraced_wall_s, "s", 1);

  // Self time of the benchmark's calls into each layer, as a share of the
  // traced measured phase.
  const std::vector<Span>& spans = in.probe->spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> layer_ns;
  int64_t top_ns = 0;
  for (size_t i = in.first_timed_span; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      top_ns += spans[i].end_ns - spans[i].start_ns;
    }
    const std::string name = spans[i].name;
    layer_ns[name.substr(0, name.find('.'))] += self[i];
  }
  for (const char* layer : {"vafs", "rope", "sim", "cluster"}) {
    add(std::string(layer) + ".self_share", Ratio(layer_ns[layer], top_ns), "ratio",
        static_cast<int64_t>(spans.size() - in.first_timed_span));
  }
}

void AddSpanMedian(const Probe& probe, const char* span_name, const std::string& metric,
                   double scale, const std::string& unit, Report* report) {
  std::vector<double> seconds;
  for (const Span& span : probe.spans()) {
    if (std::string_view(span.name) == span_name) {
      seconds.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  report->AddPercentile(metric, seconds, 50.0, scale, unit);
}

void WriteSpans(const Probe& probe, const BenchOptions& options, Report* report) {
  if (options.spans_path.empty()) {
    return;
  }
  report->Note(probe.WriteTsv(options.spans_path)
                   ? "spans: " + options.spans_path
                   : "spans: cannot write " + options.spans_path);
}

}  // namespace perfbench
}  // namespace vafs
