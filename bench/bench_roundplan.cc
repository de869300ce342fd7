// Round I/O planner: what block-level C-SCAN + coalescing + the shared
// block cache buy over the paper's per-request round loop.
//
// Scenario A ("library"): 8 admitted streams playing distinct titles
// spread across one seek-dominated disk. The same workload runs naive
// (round-robin, one disk op per block), per-request SCAN, planned, and
// planned + cache; the mean realized round time must strictly drop from
// naive to planned — that is the slack the planner reclaims from the
// worst-case switch charge — while every stream stays fault-free inside
// its Eq. 11 budget.
//
// Scenario B ("shared title"): viewers of ONE title beyond the Eq. 17
// ceiling n_max. Cache-aware admission converts the measured sharing into
// extra admitted viewers (dedup + cache hits make their rounds nearly
// free); the bench reports achieved n vs n_max and demands zero SLO
// breaches.
//
// CI gates on BENCH_roundplan_metrics.json via tools/check_roundplan.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"

namespace vafs {
namespace {

obs::MetricsRegistry g_metrics;
obs::MetricsSink g_metrics_sink(&g_metrics);

// Seek-dominated configuration (as in bench_scan): cheap transfers, slow
// arm — the regime where transfer ordering is the round cost.
DiskParameters RoundplanDisk() {
  DiskParameters params;
  params.cylinders = 5000;
  params.surfaces = 16;
  params.sectors_per_track = 256;  // R_dt ~ 262 Mbit/s
  params.rpm = 15000.0;            // 2 ms average latency
  params.min_seek_ms = 5.0;
  params.max_seek_ms = 50.0;
  return params;
}

// Collects realized round durations from the scheduler's trace stream.
class RoundDurations : public obs::TraceSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceEventKind::kRoundEnd && event.duration > 0) {
      total_usec_ += static_cast<double>(event.duration);
      ++rounds_;
    }
  }
  double MeanUsec() const { return rounds_ > 0 ? total_usec_ / static_cast<double>(rounds_) : 0.0; }
  int64_t rounds() const { return rounds_; }

 private:
  double total_usec_ = 0.0;
  int64_t rounds_ = 0;
};

struct ModeOutcome {
  int admitted = 0;
  int64_t violations = 0;
  double mean_round_usec = 0.0;
  int64_t rounds = 0;
  double within_budget_min = 1.0;  // worst stream's within-budget fraction
};

// Scenario A: n distinct titles spread across the disk, admitted through
// the normal Eq. 17 path, played to completion under `order`.
ModeOutcome RunLibrary(ServiceOrder order, int n, BlockCache* cache) {
  const MediaProfile video = UvcCompressedVideo();
  const double duration = 20.0;
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(RoundplanDisk(), disk_options);
  StrandStore store(&disk);
  const StorageTimings storage = StorageTimings::FromDiskModel(disk.model());
  ContinuityModel model(storage, UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);

  std::vector<std::vector<PrimaryEntry>> strands;
  const int64_t blocks_per_stream =
      static_cast<int64_t>(duration * video.units_per_sec) / placement.granularity;
  const std::vector<uint8_t> payload(
      static_cast<size_t>(placement.granularity * video.bits_per_unit / 8), 0);
  for (int s = 0; s < n; ++s) {
    Result<std::unique_ptr<StrandWriter>> writer = store.CreateStrand(video, placement);
    (*writer)->SetAllocationHint(s * (disk.total_sectors() / n));
    for (int64_t b = 0; b < blocks_per_stream; ++b) {
      (void)(*writer)->AppendBlock(payload);
    }
    const StrandId id = *(*writer)->Finish(blocks_per_stream * placement.granularity);
    const Strand* strand = *store.Get(id);
    std::vector<PrimaryEntry> blocks;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      blocks.push_back(*strand->index().Lookup(b));
    }
    strands.push_back(std::move(blocks));
  }

  Simulator sim;
  AdmissionControl admission(storage, store.AverageScatteringSec());
  RoundDurations rounds;
  obs::SloTracker slo;
  obs::TeeSink tee;
  tee.Add(&rounds);
  tee.Add(&slo);
  tee.Add(&g_metrics_sink);
  // Spans on: every mode's rounds get critical-path attribution, feeding
  // the critical_path.* metrics into the registry artifact.
  obs::CriticalPathAnalyzer analyzer(obs::CriticalPathOptions{&tee});
  SchedulerOptions options;
  options.service_order = order;
  options.block_cache = cache;
  options.trace = &analyzer;
  options.emit_spans = true;
  ServiceScheduler scheduler(&store, &sim, admission, options);

  ModeOutcome outcome;
  std::vector<RequestId> ids;
  for (int s = 0; s < n; ++s) {
    PlaybackRequest request;
    request.blocks = strands[static_cast<size_t>(s)];
    request.block_duration =
        SecondsToUsec(static_cast<double>(placement.granularity) / video.units_per_sec);
    request.spec = RequestSpec{video, placement.granularity};
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    if (!id.ok()) {
      break;
    }
    ids.push_back(*id);
    ++outcome.admitted;
  }
  scheduler.RunUntilIdle();

  for (RequestId id : ids) {
    outcome.violations += scheduler.stats(id)->continuity_violations;
  }
  outcome.mean_round_usec = rounds.MeanUsec();
  outcome.rounds = rounds.rounds();
  const obs::SloReport report = slo.Report();
  for (const obs::StreamSlo& stream : report.streams) {
    outcome.within_budget_min = std::min(outcome.within_budget_min,
                                         stream.WithinBudgetFraction());
  }
  return outcome;
}

struct SharedOutcome {
  int64_t n_max = 0;
  int achieved_n = 0;
  int cache_admitted = 0;
  int64_t breaches = 0;
  double within_budget_min = 1.0;
  double cache_hit_rate = 0.0;
  int64_t cache_hits = 0;
  int64_t disk_reads_deduped = 0;
};

// Scenario B: viewers of one title past the Eq. 17 ceiling, admitted by
// measured sharing through the facade's planned + cache stack.
SharedOutcome RunSharedTitle() {
  const double seconds = 12.0;
  FileSystemConfig config = TestbedConfig();
  config.disk = FutureDisk();
  config.retain_data = false;
  config.scheduler.service_order = ServiceOrder::kPlanned;
  config.scheduler.cache_aware_admission = true;
  config.block_cache.capacity_bytes = 64 << 20;
  config.telemetry.enabled = true;
  config.telemetry.trace_capacity = 1 << 16;
  config.telemetry.spans = true;
  MultimediaFileSystem fs(config);

  SharedOutcome outcome;
  VideoSource source(UvcCompressedVideo(), 42);
  Result<MultimediaFileSystem::RecordResult> recorded =
      fs.Record("bench", &source, nullptr, seconds);
  if (!recorded.ok()) {
    std::printf("RECORD failed: %s\n", recorded.status().ToString().c_str());
    return outcome;
  }

  const StrandPlacement placement = *fs.PlacementFor(UvcCompressedVideo());
  outcome.n_max =
      fs.admission().Analyze({RequestSpec{UvcCompressedVideo(), placement.granularity}}).n_max;

  std::vector<RequestId> ids;
  const int attempts = static_cast<int>(outcome.n_max) + 4;
  for (int v = 0; v < attempts; ++v) {
    Result<RequestId> id =
        fs.Play("bench", recorded->rope, Medium::kVideo, TimeInterval{0.0, seconds});
    if (!id.ok()) {
      break;
    }
    ids.push_back(*id);
  }
  outcome.achieved_n = static_cast<int>(ids.size());
  fs.RunUntilIdle();

  for (RequestId id : ids) {
    Result<RequestStats> stats = fs.Stats(id);
    if (stats.ok() && stats->cache_admitted) {
      ++outcome.cache_admitted;
    }
  }
  const obs::SloReport report = fs.SloSnapshot();
  for (const obs::StreamSlo& stream : report.streams) {
    outcome.within_budget_min =
        std::min(outcome.within_budget_min, stream.WithinBudgetFraction());
    if (!stream.ContinuityMet(report.options) || stream.WithinBudgetFraction() < 1.0) {
      ++outcome.breaches;
    }
  }
  if (fs.block_cache() != nullptr) {
    const BlockCacheStats& stats = fs.block_cache()->stats();
    outcome.cache_hits = stats.hits;
    outcome.cache_hit_rate = fs.block_cache()->RecentHitRate();
  }

  WriteSloJson(report, "roundplan");
  // The causal-span artifacts CI gates on: the per-round attribution
  // table (check_criticalpath.py), the span tree as Perfetto slices, and
  // folded flame stacks for tools/vafs_flame.py.
  if (const obs::CriticalPathAnalyzer* analyzer = fs.critical_path(); analyzer != nullptr) {
    WriteTextArtifact(analyzer->ToJson(), "roundplan", "_criticalpath.json", "critical path");
  }
  if (obs::TraceLog* log = fs.trace_log(); log != nullptr) {
    WriteBenchArtifact(obs::PerfettoExporter(&log->events()), "roundplan");
    WriteBenchArtifact(obs::FoldedStackExporter(&log->events()), "roundplan");
  }
  return outcome;
}

void WriteRoundplanJson(const ModeOutcome& naive, const ModeOutcome& scan,
                        const ModeOutcome& planned, const ModeOutcome& planned_cache,
                        const SharedOutcome& shared) {
  const char* path = "BENCH_roundplan_metrics.json";
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file,
               "{\n"
               "  \"roundplan\": {\n"
               "    \"streams\": %d,\n"
               "    \"naive_mean_round_usec\": %.3f,\n"
               "    \"scan_mean_round_usec\": %.3f,\n"
               "    \"planned_mean_round_usec\": %.3f,\n"
               "    \"planned_cache_mean_round_usec\": %.3f,\n"
               "    \"naive_violations\": %lld,\n"
               "    \"planned_violations\": %lld,\n"
               "    \"planned_cache_violations\": %lld,\n"
               "    \"planned_within_budget_min\": %.6f,\n"
               "    \"planned_cache_within_budget_min\": %.6f\n"
               "  },\n"
               "  \"shared_title\": {\n"
               "    \"n_max\": %lld,\n"
               "    \"achieved_n\": %d,\n"
               "    \"cache_admitted\": %d,\n"
               "    \"breaches\": %lld,\n"
               "    \"within_budget_min\": %.6f,\n"
               "    \"cache_hits\": %lld,\n"
               "    \"cache_hit_rate\": %.4f\n"
               "  }\n"
               "}\n",
               naive.admitted, naive.mean_round_usec, scan.mean_round_usec,
               planned.mean_round_usec, planned_cache.mean_round_usec,
               static_cast<long long>(naive.violations),
               static_cast<long long>(planned.violations),
               static_cast<long long>(planned_cache.violations),
               planned.within_budget_min, planned_cache.within_budget_min,
               static_cast<long long>(shared.n_max), shared.achieved_n, shared.cache_admitted,
               static_cast<long long>(shared.breaches), shared.within_budget_min,
               static_cast<long long>(shared.cache_hits), shared.cache_hit_rate);
  std::fclose(file);
  std::printf("metrics: %s\n", path);
}

void PrintRoundplanTables() {
  PrintHeader("round planner", "naive vs per-request SCAN vs planned rounds, 8 titles");
  PrintOperatingPoint(RoundplanDisk());
  const int n = 8;
  const ModeOutcome naive = RunLibrary(ServiceOrder::kRoundRobin, n, nullptr);
  const ModeOutcome scan = RunLibrary(ServiceOrder::kSeekScan, n, nullptr);
  const ModeOutcome planned = RunLibrary(ServiceOrder::kPlanned, n, nullptr);
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 64 << 20});
  const ModeOutcome planned_cache = RunLibrary(ServiceOrder::kPlanned, n, &cache);

  std::printf("%16s | %8s | %14s | %9s | %8s\n", "mode", "admitted", "mean round", "glitches",
              "within%");
  const auto row = [](const char* name, const ModeOutcome& mode) {
    std::printf("%16s | %8d | %11.2f ms | %9" PRId64 " | %7.2f%%\n", name, mode.admitted,
                mode.mean_round_usec / 1e3, mode.violations, mode.within_budget_min * 100.0);
  };
  row("naive", naive);
  row("per-request scan", scan);
  row("planned", planned);
  row("planned+cache", planned_cache);
  std::printf("(one C-SCAN elevator pass over the round's coalesced transfers replaces\n"
              " per-block worst-case repositioning; the admission charge stays Eq. 17)\n");

  PrintHeader("shared title", "cache-aware admission past the Eq. 17 ceiling");
  const SharedOutcome shared = RunSharedTitle();
  std::printf("n_max = %lld, achieved n = %d (%d cache-admitted), breaches = %lld\n",
              static_cast<long long>(shared.n_max), shared.achieved_n, shared.cache_admitted,
              static_cast<long long>(shared.breaches));
  std::printf("cache hits = %lld, recent hit rate = %.2f, worst within-budget = %.2f%%\n",
              static_cast<long long>(shared.cache_hits), shared.cache_hit_rate,
              shared.within_budget_min * 100.0);
  std::printf("(viewers of one strand ride dedup'd transfers and resident blocks, so\n"
              " admitting past n_max adds no disk work until sharing collapses)\n");

  WriteRoundplanJson(naive, scan, planned, planned_cache, shared);
}

void BM_PlannedRound(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunLibrary(ServiceOrder::kPlanned, 4, nullptr).violations);
  }
}
BENCHMARK(BM_PlannedRound)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintRoundplanTables();
  vafs::WriteMetricsJson(vafs::g_metrics, "roundplan_registry");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
