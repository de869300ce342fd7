// Wall-clock execution engine: a multi-node cluster run at 1/2/4/8
// workers, with determinism receipts.
//
// The engine spends host cores at the grain that pays: between two epoch
// barriers the coordinator advances every storage node as one pool task
// (DESIGN.md section 12). The same seeded cluster run (Zipf viewers with a
// flash crowd, one node killed mid-epoch, spans on) runs once per worker
// count; only ClusterCoordinator::Run is timed. For each run the bench
// reports wall-clock node-rounds/sec plus digests of the simulated-time
// results: the cluster Signature(), ClusterSloJson(), every node's retained
// trace log and the stream the shared template sink received. The
// engine's contract is that every digest is identical across worker
// counts; tools/check_wallclock.py gates on that (hard) and on multi-worker
// throughput >= single-worker (relaxed to advisory when the runner has one
// hardware thread, where no speedup is physically possible).
//
// CI gates on BENCH_wallclock_metrics.json via tools/check_wallclock.py.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_support.h"
#include "src/cluster/cluster.h"
#include "src/sim/workload.h"
#include "src/util/worker_pool.h"

namespace vafs {
namespace {

constexpr int kNodes = 8;
constexpr int64_t kTitles = 16;
constexpr int64_t kHotTitles = 4;
constexpr double kTitleSec = 8.0;
constexpr double kArrivalSec = 4.0;
constexpr double kArrivalsPerSec = 600.0;
constexpr double kEpochSec = 0.25;
constexpr int kWorkerCounts[] = {1, 2, 4, 8};

// Flash-class geometry (microsecond positioning, ~16 GB/s): its Eq. 17
// ceiling sits far above the per-node load, so every node carries a few
// hundred live streams and an epoch is real host work.
DiskParameters FlashDisk() {
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

uint64_t Fnv(uint64_t digest, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest = (digest ^ ((value >> (8 * byte)) & 0xff)) * 1099511628211ULL;
  }
  return digest;
}

uint64_t FnvOf(const std::string& text) {
  uint64_t digest = 14695981039346656037ULL;
  for (const char c : text) {
    digest = (digest ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return digest;
}

// The shared template sink: folds the identifying fields of every event
// into one order-sensitive digest. Cheap on purpose, because it runs on
// the coordinator thread when the nodes' held events are flushed.
class StreamDigest : public obs::TraceSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    for (const int64_t field :
         {static_cast<int64_t>(event.kind), event.time, event.round, event.node,
          static_cast<int64_t>(event.request), event.blocks, event.duration,
          static_cast<int64_t>(event.span_id)}) {
      digest_ = Fnv(digest_, static_cast<uint64_t>(field));
    }
    ++events_;
  }
  uint64_t digest() const { return digest_; }
  int64_t events() const { return events_; }

 private:
  uint64_t digest_ = 14695981039346656037ULL;
  int64_t events_ = 0;
};

struct WallclockOutcome {
  int workers = 0;
  double wall_sec = 0.0;
  int64_t epochs = 0;
  int64_t rounds = 0;  // summed over nodes
  double rounds_per_sec = 0.0;
  int64_t viewers = 0;
  int64_t admitted = 0;
  int64_t failed_over = 0;
  bool audits_clean = false;
  uint64_t signature_digest = 0;
  uint64_t slo_digest = 0;
  std::vector<uint64_t> node_trace_digests;  // each node's retained log
  uint64_t shared_digest = 0;
  int64_t shared_events = 0;
};

cluster::ClusterOptions Options(WorkerPool* pool, obs::TraceSink* shared) {
  cluster::ClusterOptions options;
  options.nodes = kNodes;
  FileSystemConfig& node = options.node_config;
  node.disk = FlashDisk();
  node.video_device = UvcDisplay();
  node.audio_device = AudioDisplay();
  node.retain_data = false;
  node.assumed_avg_scattering_sec = 0.5e-6;
  node.scheduler.service_order = ServiceOrder::kPlanned;
  node.scheduler.batch_activation = true;
  node.scheduler.worker_pool = pool;
  node.scheduler.trace = shared;
  node.block_cache.capacity_bytes = int64_t{8} << 20;
  node.sessions.batch_window_sec = 1.0;
  node.sessions.max_patch_blocks = 256;
  node.telemetry.spans = true;
  options.media = UvcCompressedVideo();
  options.epoch_sec = kEpochSec;
  options.hot_replicas = 2;
  options.cold_replicas = 1;
  return options;
}

// One full cluster run on `workers` wall-clock workers. Everything is
// built fresh (no state leaks between worker counts); only Run is timed.
WallclockOutcome RunWorkload(int workers) {
  WorkerPool pool(workers);
  StreamDigest shared;
  cluster::ClusterCoordinator coordinator(Options(&pool, &shared));
  for (int64_t t = 0; t < kTitles; ++t) {
    if (!coordinator.AddTitle(t, 4200 + static_cast<uint64_t>(t), kTitleSec, t < kHotTitles)
             .ok()) {
      std::fprintf(stderr, "AddTitle %lld failed\n", static_cast<long long>(t));
      return {};
    }
  }
  sim::WorkloadOptions workload;
  workload.titles = kTitles;
  workload.duration_sec = kArrivalSec;
  workload.arrival_rate_per_sec = kArrivalsPerSec;
  workload.flash_start_sec = 1.0;
  workload.flash_duration_sec = 0.5;
  workload.flash_rate_multiplier = 3.0;
  workload.flash_title_bias = 0.9;
  workload.seed = 20261017;
  sim::WorkloadOptions::NodeFailure kill;
  kill.time_sec = 2.1;  // mid-epoch
  kill.node = 3;
  workload.node_failures = {kill};
  const sim::WorkloadEngine engine(workload);
  const std::vector<sim::WorkloadArrival> arrivals = engine.Generate();
  const double until_sec = kArrivalSec + kTitleSec + 2.0 * kEpochSec;

  const auto start = std::chrono::steady_clock::now();
  coordinator.Run(arrivals, engine.FailureSchedule(), until_sec);
  const auto stop = std::chrono::steady_clock::now();

  WallclockOutcome outcome;
  outcome.workers = workers;
  outcome.wall_sec = std::chrono::duration<double>(stop - start).count();
  outcome.epochs = static_cast<int64_t>(SecondsToUsec(until_sec) / SecondsToUsec(kEpochSec));
  for (int n = 0; n < coordinator.nodes(); ++n) {
    MultimediaFileSystem& fs = coordinator.node(n).fs();
    outcome.rounds += fs.scheduler().rounds_executed();
    uint64_t digest =
        Fnv(14695981039346656037ULL, static_cast<uint64_t>(fs.trace_log()->dropped()));
    for (const obs::TraceEvent& event : fs.trace_log()->events()) {
      digest = Fnv(digest, FnvOf(obs::TraceEventSummary(event)));
    }
    outcome.node_trace_digests.push_back(digest);
  }
  outcome.rounds_per_sec =
      outcome.wall_sec > 0.0 ? static_cast<double>(outcome.rounds) / outcome.wall_sec : 0.0;
  outcome.viewers = static_cast<int64_t>(arrivals.size());
  outcome.admitted = coordinator.census().admitted;
  outcome.failed_over = coordinator.census().failed_over;
  outcome.audits_clean = coordinator.AuditsClean();
  outcome.signature_digest = FnvOf(coordinator.Signature());
  outcome.slo_digest = FnvOf(coordinator.ClusterSloJson());
  outcome.shared_digest = shared.digest();
  outcome.shared_events = shared.events();
  return outcome;
}

void WriteWallclockJson(const std::vector<WallclockOutcome>& outcomes) {
  const char* path = "BENCH_wallclock_metrics.json";
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file,
               "{\n"
               "  \"wallclock\": {\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"nodes\": %d,\n"
               "    \"runs\": [\n",
               std::thread::hardware_concurrency(), kNodes);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const WallclockOutcome& run = outcomes[i];
    std::string node_digests;
    for (size_t n = 0; n < run.node_trace_digests.size(); ++n) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "%s\"%016" PRIx64 "\"", n > 0 ? ", " : "",
                    run.node_trace_digests[n]);
      node_digests += hex;
    }
    std::fprintf(file,
                 "      {\"workers\": %d, \"wall_sec\": %.6f, \"epochs\": %lld,\n"
                 "       \"rounds\": %lld, \"rounds_per_sec\": %.3f,\n"
                 "       \"speedup_vs_1\": %.3f,\n"
                 "       \"viewers\": %lld, \"admitted\": %lld, \"failed_over\": %lld,\n"
                 "       \"audits_clean\": %s,\n"
                 "       \"signature_digest\": \"%016" PRIx64 "\",\n"
                 "       \"slo_digest\": \"%016" PRIx64 "\",\n"
                 "       \"shared_digest\": \"%016" PRIx64 "\", \"shared_events\": %lld,\n"
                 "       \"node_trace_digests\": [%s]}%s\n",
                 run.workers, run.wall_sec, static_cast<long long>(run.epochs),
                 static_cast<long long>(run.rounds), run.rounds_per_sec,
                 outcomes[0].wall_sec > 0.0 && run.wall_sec > 0.0
                     ? outcomes[0].wall_sec / run.wall_sec
                     : 0.0,
                 static_cast<long long>(run.viewers), static_cast<long long>(run.admitted),
                 static_cast<long long>(run.failed_over), run.audits_clean ? "true" : "false",
                 run.signature_digest, run.slo_digest, run.shared_digest,
                 static_cast<long long>(run.shared_events), node_digests.c_str(),
                 i + 1 < outcomes.size() ? "," : "");
  }
  std::fprintf(file,
               "    ]\n"
               "  }\n"
               "}\n");
  std::fclose(file);
  std::printf("metrics: %s\n", path);
}

void PrintWallclockTables() {
  PrintHeader("wall-clock engine", "parallel node epochs, identical simulated results");
  PrintOperatingPoint(FlashDisk());
  std::printf("host threads: %u, nodes: %d, titles: %lld\n", std::thread::hardware_concurrency(),
              kNodes, static_cast<long long>(kTitles));

  std::vector<WallclockOutcome> outcomes;
  for (const int workers : kWorkerCounts) {
    outcomes.push_back(RunWorkload(workers));
  }

  std::printf("%8s | %9s | %8s | %11s | %7s | %16s | %16s\n", "workers", "wall (s)", "rounds",
              "rounds/sec", "speedup", "signature", "shared stream");
  for (const WallclockOutcome& run : outcomes) {
    std::printf("%8d | %9.3f | %8" PRId64 " | %11.1f | %6.2fx | %016" PRIx64 " | %016" PRIx64
                "\n",
                run.workers, run.wall_sec, run.rounds, run.rounds_per_sec,
                run.wall_sec > 0.0 ? outcomes[0].wall_sec / run.wall_sec : 0.0,
                run.signature_digest, run.shared_digest);
  }
  std::printf("%lld viewers, %lld admitted, %lld failed over; audits %s\n",
              static_cast<long long>(outcomes[0].viewers),
              static_cast<long long>(outcomes[0].admitted),
              static_cast<long long>(outcomes[0].failed_over),
              outcomes[0].audits_clean ? "clean" : "DIRTY");

  bool identical = true;
  for (const WallclockOutcome& run : outcomes) {
    identical = identical && run.signature_digest == outcomes[0].signature_digest &&
                run.slo_digest == outcomes[0].slo_digest &&
                run.node_trace_digests == outcomes[0].node_trace_digests &&
                run.shared_digest == outcomes[0].shared_digest && run.rounds == outcomes[0].rounds;
  }
  std::printf("simulated-time results identical across worker counts: %s\n",
              identical ? "yes" : "NO -- DETERMINISM BROKEN");
  std::printf("(wall-clock speed is allowed to change; simulated time is not)\n");

  WriteWallclockJson(outcomes);
}

void BM_WallclockCluster(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunWorkload(workers).rounds);
  }
}
BENCHMARK(BM_WallclockCluster)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintWallclockTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
