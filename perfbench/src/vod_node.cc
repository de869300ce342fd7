// vod_node: one MultimediaFileSystem serving ~3k live Zipf viewers on one
// thread at the flash-class operating point (planned rounds, block cache,
// session layer, admission on, telemetry at its defaults).
//
// Viewers arrive as an open loop in simulated time: Poisson arrivals over
// a Zipf library from sim::WorkloadEngine. The flash crowd comes in
// through OpenSession and everyone else through Play; a few percent of the
// Play viewers stop early or pause and resume. The measured phase is every
// Simulator::Step up to a fixed simulated horizon; a step that advances
// rounds_executed() is a round.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/media/media.h"
#include "src/media/sources.h"
#include "src/sim/workload.h"
#include "src/util/prng.h"

namespace vafs {
namespace perfbench {
namespace {

constexpr int64_t kTitles = 48;
constexpr double kTitleSec = 12.0;
// With kTitleSec-long titles about 3k streams are live once the first
// viewers finish. (Every admission rebuilds the slot-holder list over all
// live streams, so 10k live streams would spend the run admitting.)
constexpr double kArrivalsPerSec = 250.0;
// Simulated seconds of arrivals per host second of --seconds, set so the
// measured phase takes about --seconds on a 4-core x86 host.
constexpr double kSimSecPerHostSec = 2.0;
constexpr double kFlashSec = 2.0;
constexpr double kStopShare = 0.03;   // of Play viewers: stop early
constexpr double kPauseShare = 0.03;  // of Play viewers: pause, then resume
constexpr char kUser[] = "vod";

enum class Action { kNone, kStop, kPause };

struct ViewerPlan {
  Action action = Action::kNone;
  double at_sec = 0.0;     // after admission
  double pause_sec = 0.0;  // kPause: until the resume
};

struct Pass {
  Status status = Status::Ok();
  std::vector<double> setup_s;
  std::vector<double> round_s;
  std::vector<double> open_s;
  double step_s = 0.0;         // inside Simulator::Step
  double round_total_s = 0.0;  // of which in steps that ran a round
  double wall_s = 0.0;         // the whole measured phase
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t refused = 0;
  int64_t control_ops = 0;
  int64_t control_failed = 0;
  int64_t rounds = 0;
  int64_t sim_events = 0;
  int64_t live_at_end = 0;
  int64_t n_max = 0;
  int64_t granularity = 0;
  double media_bytes = 0.0;
  Delivered delivered;
  SessionCensus sessions;
  // Traced pass only.
  EventTally::Counts total_counts;
  EventTally::Counts run_counts;
  int64_t cache_evictions = 0;
  size_t first_timed_span = 0;
};

// Builds the node and records the library.
Status SetUp(uint64_t seed, EventTally* tally, Probe* probe,
             std::unique_ptr<MultimediaFileSystem>* fs, std::vector<RopeId>* titles,
             Pass* pass) {
  *fs = std::make_unique<MultimediaFileSystem>(VodOperatingPoint(tally));
  titles->clear();
  pass->media_bytes = 0.0;
  for (int64_t t = 0; t < kTitles; ++t) {
    VideoSource source(UvcCompressedVideo(), seed * 1000 + static_cast<uint64_t>(t));
    Call call(probe, "vafs.record", static_cast<uint64_t>(t));
    Result<MultimediaFileSystem::RecordResult> recorded =
        (*fs)->Record(kUser, &source, nullptr, kTitleSec);
    call.Stop();
    if (!recorded.ok()) {
      return recorded.status();
    }
    titles->push_back(recorded->rope);
    pass->media_bytes +=
        static_cast<double>(recorded->video.units_recorded * source.frame_bytes());
  }
  // No checkpoint: it verifies the catalog by reading it back, and this
  // operating point keeps no sector payloads (retain_data off).
  return Status::Ok();
}

Pass RunPass(const BenchOptions& options, Clock::time_point setup_start, Probe* probe,
             EventTally* tally) {
  Pass pass;
  std::unique_ptr<MultimediaFileSystem> fs;
  std::vector<RopeId> titles;
  for (int rep = 0; rep < SetupRepetitions(options); ++rep) {
    fs.reset();
    const Clock::time_point start = rep == 0 ? setup_start : Clock::now();
    pass.status = SetUp(options.seed, tally, probe, &fs, &titles, &pass);
    if (!pass.status.ok()) {
      return pass;
    }
    pass.setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  const EventTally::Counts setup_counts =
      tally != nullptr ? tally->counts() : EventTally::Counts{};
  pass.first_timed_span = probe != nullptr ? probe->spans().size() : 0;

  // Inputs: the arrival trace and every Play viewer's stop/pause plan.
  const double horizon_sec = kSimSecPerHostSec * options.seconds;
  Prng prng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  sim::WorkloadOptions workload;
  workload.titles = kTitles;
  workload.zipf_exponent = 1.0;
  workload.duration_sec = horizon_sec;
  workload.arrival_rate_per_sec = kArrivalsPerSec;
  workload.flash_start_sec = 0.5 * horizon_sec;
  workload.flash_duration_sec = kFlashSec;
  workload.flash_rate_multiplier = 3.0;
  workload.flash_title_bias = 0.9;
  workload.flash_title = static_cast<int64_t>(prng.NextBelow(4));
  workload.seed = options.seed;
  const std::vector<sim::WorkloadArrival> arrivals = sim::WorkloadEngine(workload).Generate();
  std::vector<ViewerPlan> plans(arrivals.size());
  for (ViewerPlan& plan : plans) {
    const double draw = prng.NextDouble();
    plan.action = draw < kStopShare                 ? Action::kStop
                  : draw < kStopShare + kPauseShare ? Action::kPause
                                                    : Action::kNone;
    plan.at_sec = 1.0 + prng.NextDouble() * (0.5 * kTitleSec - 1.0);
    plan.pause_sec = 0.2 + 0.8 * prng.NextDouble();
  }

  Simulator& sim = fs->simulator();
  bool arrival_step = false;
  const auto control = [&](Action action, bool resume, RequestId request) {
    Call call(probe,
              action == Action::kStop ? "vafs.stop"
              : resume                ? "vafs.resume"
                                      : "vafs.pause",
              request);
    const Status status = action == Action::kStop ? fs->Stop(request)
                          : resume                ? fs->Resume(request)
                                                  : fs->Pause(request, /*destructive=*/false);
    call.Stop();
    ++pass.control_ops;
    if (!status.ok()) {
      ++pass.control_failed;
    }
  };
  const SimTime base = sim.Now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    sim.ScheduleAt(base + SecondsToUsec(arrivals[i].time_sec), [&, i]() {
      arrival_step = true;
      const sim::WorkloadArrival& arrival = arrivals[i];
      const RopeId rope = titles[static_cast<size_t>(arrival.title)];
      const TimeInterval interval{0.0, kTitleSec};
      ++pass.offered;
      if (arrival.flash) {
        Call call(probe, "vafs.open_session", i + 1);
        const bool ok = fs->OpenSession(kUser, rope, Medium::kVideo, interval).ok();
        pass.open_s.push_back(call.Stop());
        ++(ok ? pass.admitted : pass.refused);
        return;
      }
      Call call(probe, "vafs.play", i + 1);
      const Result<RequestId> id = fs->Play(kUser, rope, Medium::kVideo, interval);
      pass.open_s.push_back(call.Stop());
      if (!id.ok()) {
        ++pass.refused;
        return;
      }
      ++pass.admitted;
      const ViewerPlan& plan = plans[i];
      const RequestId request = *id;
      if (plan.action == Action::kNone) {
        return;
      }
      sim.ScheduleAfter(SecondsToUsec(plan.at_sec),
                        [&control, &plan, request]() { control(plan.action, false, request); });
      if (plan.action == Action::kPause) {
        sim.ScheduleAfter(SecondsToUsec(plan.at_sec + plan.pause_sec),
                          [&control, request]() { control(Action::kPause, true, request); });
      }
    });
  }
  bool done = false;
  sim.ScheduleAt(base + SecondsToUsec(horizon_sec), [&done]() { done = true; });

  ServiceScheduler& scheduler = fs->scheduler();
  const int64_t events_before = sim.events_executed();
  const Clock::time_point wall_start = Clock::now();
  while (!done) {
    const int64_t rounds_before = scheduler.rounds_executed();
    arrival_step = false;
    Call step(probe, "sim.step");
    const bool ran = sim.Step();
    const bool round = scheduler.rounds_executed() != rounds_before;
    if (round) {
      step.Rename("sim.round");
    } else if (arrival_step) {
      step.Rename("sim.arrival");
    }
    const double seconds = step.Stop();
    if (!ran) {
      break;
    }
    pass.step_s += seconds;
    if (round) {
      pass.round_s.push_back(seconds);
      pass.round_total_s += seconds;
    }
  }
  pass.wall_s = SecondsBetween(wall_start, Clock::now());

  pass.rounds = scheduler.rounds_executed();
  pass.sim_events = sim.events_executed() - events_before;
  pass.live_at_end = scheduler.active_request_count();
  pass.delivered = SumDelivered([&fs](RequestId id) { return fs->Stats(id); });
  pass.sessions = fs->session_manager()->census();
  if (const Result<StrandPlacement> placement = fs->PlacementFor(UvcCompressedVideo());
      placement.ok()) {
    pass.granularity = placement->granularity;
    pass.n_max = fs->admission()
                     .Analyze({RequestSpec{UvcCompressedVideo(), placement->granularity}})
                     .n_max;
  }
  if (tally != nullptr) {
    pass.total_counts = tally->counts();
    pass.run_counts = tally->counts() - setup_counts;
    pass.cache_evictions = tally->cache_evictions();
  }
  return pass;
}

void AddChecks(const Pass& pass, const std::string& label, Report* report) {
  report->Check(pass.status.ok(), label + "set-up succeeds" +
                                      (pass.status.ok() ? "" : ": " + pass.status.ToString()));
  report->Check(pass.offered == pass.admitted + pass.refused,
                label + "offered (" + std::to_string(pass.offered) + ") == admitted (" +
                    std::to_string(pass.admitted) + ") + refused (" +
                    std::to_string(pass.refused) + ")");
  report->Check(pass.delivered.continuity_violations == 0 && pass.delivered.blocks_skipped == 0,
                label + "admitted streams have zero continuity violations (" +
                    std::to_string(pass.delivered.continuity_violations) +
                    ") and zero skipped blocks (" +
                    std::to_string(pass.delivered.blocks_skipped) + ")");
  report->Check(pass.rounds > 0 && pass.delivered.blocks > 0,
                label + "rounds ran and delivered blocks");
}

}  // namespace

void RunVodNode(const BenchOptions& options, Report* report) {
  const Pass plain = RunPass(options, options.process_start, nullptr, nullptr);
  report->Note("vod_node: " + std::to_string(plain.offered) + " viewers offered, " +
               std::to_string(plain.admitted) + " admitted, " + std::to_string(plain.refused) +
               " refused; " + std::to_string(plain.rounds) + " rounds; " +
               std::to_string(plain.live_at_end) + " streams live at the horizon; n_max " +
               std::to_string(plain.n_max) + " at " + std::to_string(plain.granularity) +
               " frames/block; sessions batched " + std::to_string(plain.sessions.batched) +
               ", patched " + std::to_string(plain.sessions.patched) + ", merged " +
               std::to_string(plain.sessions.merged));
  AddChecks(plain, "", report);
  report->Attempt(plain.offered + plain.control_ops);
  report->Fail(plain.refused + plain.control_failed + plain.delivered.glitched_requests);
  report->Add("msm.continuity_violations",
              static_cast<double>(plain.delivered.continuity_violations), "count",
              plain.delivered.requests);
  report->Add("msm.blocks_skipped", static_cast<double>(plain.delivered.blocks_skipped),
              "count", plain.delivered.requests);

  if (!options.trace) {
    report->Add("blocks_per_s", Ratio(plain.delivered.blocks, plain.step_s), "blocks/s",
                plain.delivered.blocks);
    // The unit of work is one admission (Play or OpenSession): round times
    // are bimodal and their quantiles swing with the seed's title mix.
    report->AddPercentile("op_ms_p50", plain.open_s, 50.0, 1e3, "ms");
    report->AddPercentile("op_ms_p90", plain.open_s, 90.0, 1e3, "ms");
    report->Add("setup_s", Median(plain.setup_s), "s",
                static_cast<int64_t>(plain.setup_s.size()));
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report->AddPercentile("round_ms_p50", plain.round_s, 50.0, 1e3, "ms");
    report->AddPercentile("round_ms_p99", plain.round_s, 99.0, 1e3, "ms");
    report->AddPercentile("open_us_p50", plain.open_s, 50.0, 1e6, "us");
    report->AddPercentile("open_us_p90", plain.open_s, 90.0, 1e6, "us");
    report->AddPercentile("open_us_p99", plain.open_s, 99.0, 1e6, "us");
    report->Add("round_ms_mean", Ratio(plain.round_total_s * 1e3, plain.rounds), "ms",
                plain.rounds);
    return;
  }

  Probe probe;
  EventTally tally;
  ShadowSinks shadow;
  probe.set_top_level_hook([&]() { shadow.Replay(tally.TakeBuffer(), &probe, 0); });
  const Pass traced = RunPass(options, Clock::now(), &probe, &tally);
  AddChecks(traced, "traced: ", report);
  report->Check(traced.offered == plain.offered && traced.admitted == plain.admitted &&
                    traced.control_ops == plain.control_ops && traced.rounds == plain.rounds &&
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
  in.untraced_round_s = plain.round_total_s;
  in.total_counts = traced.total_counts;
  in.run_counts = traced.run_counts;
  in.cache_evictions = traced.cache_evictions;
  in.shadows = {&shadow};
  in.real_sinks = {ShadowSinks::kLog, ShadowSinks::kMetrics, ShadowSinks::kSlo,
                   ShadowSinks::kFlight};
  in.delivered_blocks = traced.delivered.blocks;
  in.round_recorded_blocks = traced.delivered.recorded;
  in.sim_events = traced.sim_events;
  in.media_bytes_recorded = traced.media_bytes;
  AddLayerMetrics(in, report);
  AddSpanMedian(probe, "vafs.play", "vafs.play_us_p50", 1e6, "us", report);
  AddSpanMedian(probe, "vafs.open_session", "vafs.open_session_us_p50", 1e6, "us", report);
  AddSpanMedian(probe, "vafs.resume", "vafs.resume_us_p50", 1e6, "us", report);
  AddSpanMedian(probe, "vafs.record", "vafs.record_ms_p50", 1e3, "ms", report);
  WriteSpans(probe, options, report);
}

}  // namespace perfbench
}  // namespace vafs
