// Scale smoke test for the flat request table and incremental planner.
//
// DESIGN.md section 15: the round hot path was rebuilt around a flat,
// generation-stamped slot table and an incremental round planner so one
// node can carry tens of thousands of concurrent streams. The refactor's
// contract is the same hard one the wall-clock engine carries: none of it
// may change simulated-time results. This test drives ~5k concurrent
// streams through a couple of planned rounds under a strict continuity
// auditor and asserts every telemetry artifact is byte-identical across
//
//   - slot-table iteration orders (live-id order vs raw slot scan, the
//     legacy-map-equivalent vs flat-table orders), and
//   - planner modes (incremental reuse vs from-scratch replanning).
//
// Block playback is stretched far past the round time so the run is also
// *clean* under Eq. 11 — at this population a ledger bug or a planner
// ordering bug would show up as a violation or a digest flip.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/disk/disk_array.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

constexpr int kMembers = 8;
constexpr int kCatalog = 8;       // distinct recorded strands
constexpr int64_t kStreams = 5000;
constexpr int64_t kBlocksPerStream = 2;  // ~2 rounds at forced_k = 1

struct ScaleImage {
  std::string trace;
  std::string metrics;
  std::string slo;
  uint64_t payload_digest = 0;
  int64_t rounds = 0;
  SimTime completion = 0;
  int64_t blocks_done = 0;
  bool auditor_clean = false;
  std::string auditor_report;
};

ScaleImage RunScale(bool scan_slot_order, bool incremental) {
  Disk disk(TestDiskParameters());
  StrandStore store(&disk);

  obs::TraceLog log;
  obs::ContinuityAuditor auditor{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics_sink(&registry);
  obs::SloTracker slo;
  obs::TeeSink tee;
  tee.Add(&log);
  tee.Add(&auditor);
  tee.Add(&metrics_sink);
  tee.Add(&slo);

  ContinuityModel model(TestStorage(), TestVideoDevice());
  Result<StrandPlacement> placement =
      model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  EXPECT_TRUE(placement.ok());
  std::vector<std::vector<PrimaryEntry>> catalog;
  for (int i = 0; i < kCatalog; ++i) {
    VideoSource source(TestVideo(), 500 + static_cast<uint64_t>(i));
    Result<RecordingResult> recorded = RecordVideo(&store, &source, *placement, 1.0);
    EXPECT_TRUE(recorded.ok());
    Result<const Strand*> strand = store.Get(recorded->strand);
    EXPECT_TRUE(strand.ok());
    std::vector<PrimaryEntry> blocks;
    const int64_t count = std::min<int64_t>(kBlocksPerStream, (*strand)->block_count());
    for (int64_t b = 0; b < count; ++b) {
      blocks.push_back(*(*strand)->index().Lookup(b));
    }
    catalog.push_back(std::move(blocks));
  }

  DiskArray array(TestDiskParameters(), kMembers);
  Simulator sim;
  SchedulerOptions options;
  options.trace = &tee;
  options.service_order = ServiceOrder::kPlanned;
  options.disk_array = &array;
  options.verify_payloads = true;
  options.bypass_admission = true;  // the hot path is under test, not Eq. 17
  options.forced_k = 1;
  options.batch_activation = true;  // all 5k join the rotation in one round
  options.scan_slot_order = scan_slot_order;
  options.incremental_planning = incremental;
  const double avg = std::max(store.AverageScatteringSec(), 1e-4);
  ServiceScheduler scheduler(&store, &sim, AdmissionControl(TestStorage(), avg), options);

  std::vector<RequestId> ids;
  ids.reserve(static_cast<size_t>(kStreams));
  for (int64_t i = 0; i < kStreams; ++i) {
    PlaybackRequest request;
    request.blocks = catalog[static_cast<size_t>(i) % catalog.size()];
    // Stretch one block's playback far past the mechanical round time:
    // Eq. 11 then holds even with 5k streams in one rotation, so the
    // auditor must come back fully clean, not merely deterministic.
    request.block_duration = SecondsToUsec(600.0);
    request.spec = RequestSpec{TestVideo(), placement->granularity};
    Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
    EXPECT_TRUE(id.ok());
    if (id.ok()) {
      ids.push_back(*id);
    }
  }
  scheduler.RunUntilIdle();

  ScaleImage image;
  for (const obs::TraceEvent& event : log.events()) {
    image.trace += obs::TraceEventSummary(event);
    image.trace += '\n';
  }
  image.metrics = registry.ToJson();
  image.slo = slo.Report().ToJson();
  image.payload_digest = scheduler.payload_digest();
  image.rounds = scheduler.rounds_executed();
  image.completion = sim.Now();
  for (RequestId id : ids) {
    Result<RequestStats> stats = scheduler.stats(id);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) {
      image.blocks_done += stats->blocks_done;
    }
  }
  image.auditor_clean = auditor.Clean();
  image.auditor_report = auditor.Report();
  return image;
}

void ExpectSameImage(const ScaleImage& image, const ScaleImage& reference,
                     const std::string& what) {
  EXPECT_TRUE(image.auditor_clean) << what << ": " << image.auditor_report;
  EXPECT_EQ(image.trace, reference.trace) << what;
  EXPECT_EQ(image.metrics, reference.metrics) << what;
  EXPECT_EQ(image.slo, reference.slo) << what;
  EXPECT_EQ(image.payload_digest, reference.payload_digest) << what;
  EXPECT_EQ(image.rounds, reference.rounds) << what;
  EXPECT_EQ(image.completion, reference.completion) << what;
  EXPECT_EQ(image.blocks_done, reference.blocks_done) << what;
}

TEST(ScaleSmokeTest, FiveThousandStreamsAreByteIdenticalAcrossHotPathModes) {
  const ScaleImage reference = RunScale(/*scan_slot_order=*/false, /*incremental=*/true);
  EXPECT_TRUE(reference.auditor_clean) << reference.auditor_report;
  EXPECT_GE(reference.rounds, 2);
  EXPECT_EQ(reference.blocks_done, kStreams * kBlocksPerStream);
  EXPECT_FALSE(reference.trace.empty());

  ExpectSameImage(RunScale(/*scan_slot_order=*/true, /*incremental=*/true), reference,
                  "scan_slot_order");
  ExpectSameImage(RunScale(/*scan_slot_order=*/false, /*incremental=*/false), reference,
                  "from_scratch_planning");
}

}  // namespace
}  // namespace vafs
