// Round hot path at scale: 1k/5k/20k/50k concurrent Zipf viewers through
// planned+cache+sessions mode, with determinism receipts.
//
// The paper sizes rounds so a server admits the hardware's maximum stream
// count; this bench proves the *implementation* keeps up when that count
// is tens of thousands (DESIGN.md section 15). One sweep: one node,
// planned rounds + block cache + session layer, a fixed Zipf viewer
// population per size (a flash-crowd slice arrives through OpenSession and
// batches/merges; the rest are solo physical streams). Reports wall-clock
// rounds/sec and the wall cost per served stream-round (one
// kRequestServiced event; the near-linear-scaling criterion: 50k within 5x
// of 1k). The trace, SLO and audit digests are deterministic and
// regression-gated against bench/baselines/.
//
// tools/check_scale.py gates that every sweep size ran once and executed
// rounds (hard) and near-linear scaling (advisory). CI publishes
// BENCH_scale_metrics.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/sim/workload.h"

namespace vafs {
namespace {

constexpr int kTitles = 64;
constexpr double kTitleSec = 2.0;
// Arrivals are clustered into a short window so the whole population is
// concurrent: spreading them out would let each round activate one new
// stream (N rounds of ramp, each scanning the live rotation — O(N^2)
// bench wall time) instead of a handful of long rounds that carry all N.
constexpr double kArrivalWindowSec = 0.2;
// The sweep runs a fixed simulated horizon, not to idle. The disk is
// massively oversubscribed, so the makespan grows with the population; a
// bounded horizon keeps the round count predictable across sweep sizes
// while every round still carries the full population.
constexpr double kSweepHorizonSec = 8.0;
constexpr int64_t kSweepSizes[] = {1000, 5000, 20000, 50000};

// FNV-1a fold of every rendered trace event (order-sensitive, unbounded
// stream, no retention), plus the served stream-round count: one
// kRequestServiced per stream per round it was serviced in.
class TraceDigest : public obs::TraceSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    const std::string line = obs::TraceEventSummary(event);
    for (const char c : line) {
      digest_ = (digest_ ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
    ++events_;
    if (event.kind == obs::TraceEventKind::kRequestServiced) {
      ++served_;
    }
  }
  uint64_t digest() const { return digest_; }
  int64_t events() const { return events_; }
  int64_t served() const { return served_; }

 private:
  uint64_t digest_ = 14695981039346656037ULL;
  int64_t events_ = 0;
  int64_t served_ = 0;
};

uint64_t FnvOf(const std::string& text) {
  uint64_t digest = 14695981039346656037ULL;
  for (const char c : text) {
    digest = (digest ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return digest;
}

struct ScaleOutcome {
  int64_t viewers = 0;
  int64_t admitted = 0;
  int64_t sessions_batched = 0;
  int64_t sessions_merged = 0;
  double wall_sec = 0.0;
  int64_t rounds = 0;
  int64_t served_stream_rounds = 0;
  double rounds_per_sec = 0.0;
  double stream_round_cost_wall_sec = 0.0;  // usec of wall time per served stream-round
  uint64_t trace_digest = 0;
  int64_t trace_events = 0;
  uint64_t slo_digest = 0;
  uint64_t audit_digest = 0;
  SimTime completion = 0;
  int64_t pool_created = 0;
  int64_t pool_recycled = 0;
  int64_t pool_outstanding = 0;
};

sim::WorkloadOptions SweepWorkload() {
  sim::WorkloadOptions options;
  options.titles = kTitles;
  options.zipf_exponent = 1.0;
  options.duration_sec = kArrivalWindowSec;
  // Flash slice: ~20% of the window redirects to title 0; those viewers
  // arrive through OpenSession and exercise batching/merging.
  options.flash_start_sec = 0.4 * kArrivalWindowSec;
  options.flash_duration_sec = 0.2 * kArrivalWindowSec;
  options.flash_title_bias = 1.0;
  options.flash_title = 0;
  options.seed = 20260808;
  return options;
}

// One facade run: `viewers` Zipf arrivals against kTitles short titles,
// planned rounds + cache + sessions, admission bypassed (the point is the
// hot path, not Eq. 17 — the simulated disk is massively oversubscribed
// and the SLO records that honestly).
ScaleOutcome RunSweep(int64_t viewers) {
  // The facade's own SloTracker sees the same stream as these receipts, so
  // the SLO digest comes from it rather than from a second tracker.
  TraceDigest trace;
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink receipts;
  receipts.Add(&trace);
  receipts.Add(&auditor);

  FileSystemConfig config = TestbedConfig();
  config.disk = FutureDisk();
  config.retain_data = false;
  config.scheduler.service_order = ServiceOrder::kPlanned;
  config.scheduler.forced_k = 1;  // admit everyone at k = 1
  config.scheduler.batch_activation = true;
  config.scheduler.trace = &receipts;
  config.block_cache.capacity_bytes = 8 << 20;
  config.sessions.enabled = true;
  config.sessions.batch_window_sec = 1.0;
  config.sessions.max_patch_blocks = 1 << 20;
  config.sessions.runway_margin_blocks = 0;
  config.telemetry.enabled = true;
  config.telemetry.trace_capacity = 1 << 10;
  MultimediaFileSystem fs(config);

  std::vector<RopeId> ropes;
  for (int t = 0; t < kTitles; ++t) {
    VideoSource source(UvcCompressedVideo(), 7000 + static_cast<uint64_t>(t));
    Result<MultimediaFileSystem::RecordResult> recorded =
        fs.Record("scale", &source, nullptr, kTitleSec);
    if (!recorded.ok()) {
      std::printf("RECORD failed: %s\n", recorded.status().ToString().c_str());
      return {};
    }
    ropes.push_back(recorded->rope);
  }

  const std::vector<sim::WorkloadArrival> arrivals =
      sim::WorkloadEngine(SweepWorkload()).GenerateCount(viewers);

  ScaleOutcome outcome;
  outcome.viewers = viewers;
  const SimTime base = fs.simulator().Now();
  for (const sim::WorkloadArrival& arrival : arrivals) {
    const RopeId rope = ropes[static_cast<size_t>(arrival.title) % ropes.size()];
    const bool session_viewer = arrival.flash;
    fs.simulator().ScheduleAt(
        base + SecondsToUsec(arrival.time_sec), [&fs, &outcome, rope, session_viewer]() {
          const TimeInterval interval{0.0, kTitleSec};
          if (session_viewer) {
            Result<SessionTicket> ticket = fs.OpenSession("scale", rope, Medium::kVideo, interval);
            if (ticket.ok()) {
              ++outcome.admitted;
            }
          } else {
            Result<RequestId> id = fs.Play("scale", rope, Medium::kVideo, interval);
            if (id.ok()) {
              ++outcome.admitted;
            }
          }
        });
  }

  const auto start = std::chrono::steady_clock::now();
  fs.simulator().RunUntil(base + SecondsToUsec(kSweepHorizonSec));
  const auto stop = std::chrono::steady_clock::now();

  outcome.wall_sec = std::chrono::duration<double>(stop - start).count();
  outcome.rounds = fs.scheduler().rounds_executed();
  outcome.rounds_per_sec =
      outcome.wall_sec > 0.0 ? static_cast<double>(outcome.rounds) / outcome.wall_sec : 0.0;
  outcome.served_stream_rounds = trace.served();
  outcome.stream_round_cost_wall_sec =
      outcome.served_stream_rounds > 0
          ? outcome.wall_sec * 1e6 / static_cast<double>(outcome.served_stream_rounds)
          : 0.0;
  if (fs.session_manager() != nullptr) {
    outcome.sessions_batched = fs.session_manager()->census().batched;
    outcome.sessions_merged = fs.session_manager()->census().merged;
  }
  outcome.trace_digest = trace.digest();
  outcome.trace_events = trace.events();
  outcome.slo_digest = FnvOf(fs.slo_tracker()->Report().ToJson());
  outcome.audit_digest = FnvOf(auditor.Report());
  outcome.completion = fs.simulator().Now();
  if (fs.block_cache() != nullptr) {
    PagePool& pool = fs.block_cache()->page_pool();
    outcome.pool_created = pool.pages_created();
    outcome.pool_recycled = pool.pages_recycled();
    outcome.pool_outstanding = pool.pages_outstanding();
  }
  return outcome;
}

void WriteScaleJson(const std::vector<ScaleOutcome>& outcomes) {
  const char* path = "BENCH_scale_metrics.json";
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file,
               "{\n"
               "  \"scale\": {\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"titles\": %d,\n"
               "    \"runs\": [\n",
               std::thread::hardware_concurrency(), kTitles);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ScaleOutcome& run = outcomes[i];
    std::fprintf(
        file,
        "      {\"viewers\": %lld,\n"
        "       \"admitted\": %lld, \"sessions_batched\": %lld, \"sessions_merged\": %lld,\n"
        "       \"wall_sec\": %.6f, \"rounds\": %lld, \"rounds_per_sec\": %.3f,\n"
        "       \"served_stream_rounds\": %lld, \"stream_round_cost_wall_sec\": %.6f,\n"
        "       \"trace_digest\": \"%016" PRIx64 "\", \"trace_events\": %lld,\n"
        "       \"slo_digest\": \"%016" PRIx64 "\", \"audit_digest\": \"%016" PRIx64 "\",\n"
        "       \"completion_usec\": %lld,\n"
        "       \"pool_created\": %lld, \"pool_recycled\": %lld, \"pool_outstanding\": %lld}%s\n",
        static_cast<long long>(run.viewers), static_cast<long long>(run.admitted),
        static_cast<long long>(run.sessions_batched), static_cast<long long>(run.sessions_merged),
        run.wall_sec, static_cast<long long>(run.rounds), run.rounds_per_sec,
        static_cast<long long>(run.served_stream_rounds), run.stream_round_cost_wall_sec,
        run.trace_digest, static_cast<long long>(run.trace_events), run.slo_digest,
        run.audit_digest, static_cast<long long>(run.completion),
        static_cast<long long>(run.pool_created), static_cast<long long>(run.pool_recycled),
        static_cast<long long>(run.pool_outstanding), i + 1 < outcomes.size() ? "," : "");
  }
  std::fprintf(file,
               "    ]\n"
               "  }\n"
               "}\n");
  std::fclose(file);
  std::printf("metrics: %s\n", path);
}

void PrintScaleTables() {
  PrintHeader("round hot path at scale", "20k+ concurrent Zipf streams per node");
  PrintOperatingPoint(FutureDisk());
  std::printf("host threads: %u, titles: %d, title length: %.1fs\n",
              std::thread::hardware_concurrency(), kTitles, kTitleSec);

  // VAFS_SCALE_MAX trims the sweep for constrained runners. It never
  // trims below the 5k point, so the cost-ratio advisory keeps two sizes.
  int64_t max_viewers = 50000;
  if (const char* env_max = std::getenv("VAFS_SCALE_MAX"); env_max != nullptr) {
    max_viewers = std::max<int64_t>(std::atoll(env_max), kSweepSizes[1]);
  }
  std::vector<ScaleOutcome> outcomes;
  for (const int64_t viewers : kSweepSizes) {
    if (viewers > max_viewers) {
      continue;
    }
    std::fprintf(stderr, "sweep %lld...\n", static_cast<long long>(viewers));
    outcomes.push_back(RunSweep(viewers));
  }

  std::printf("%7s | %9s | %7s | %10s | %11s | %11s | %16s\n", "viewers", "wall (s)", "rounds",
              "served", "rounds/sec", "us/strm-rnd", "trace digest");
  for (const ScaleOutcome& run : outcomes) {
    std::printf("%7" PRId64 " | %9.3f | %7" PRId64 " | %10" PRId64 " | %11.1f | %11.3f | %016" PRIx64
                "\n",
                run.viewers, run.wall_sec, run.rounds, run.served_stream_rounds,
                run.rounds_per_sec, run.stream_round_cost_wall_sec, run.trace_digest);
  }
  WriteScaleJson(outcomes);
}

void BM_ScaleSweep(benchmark::State& state) {
  const int64_t viewers = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSweep(viewers).rounds);
  }
}
BENCHMARK(BM_ScaleSweep)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintScaleTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
