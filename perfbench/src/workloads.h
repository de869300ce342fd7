// The benchmark's workloads and the pieces they share.
//
// Every workload runs in its own process with its inputs generated from
// the command-line seed. An untraced run measures the end-to-end host
// metrics. A traced run repeats the untraced pass (for obs.trace_overhead
// and a determinism check) and then runs the same inputs with the probe on
// to produce the per-layer metrics.

#ifndef VAFS_PERFBENCH_SRC_WORKLOADS_H_
#define VAFS_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/probe.h"
#include "src/vafs/file_system.h"

namespace vafs {
namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // target host time of the measured phase
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here
  Clock::time_point process_start = Clock::now();
};

void RunVodNode(const BenchOptions& options, Report* report);
void RunIngestEdit(const BenchOptions& options, Report* report);
void RunCluster16(const BenchOptions& options, Report* report);

// The vod_node operating point, shared with cluster_16's nodes: a
// flash-class disk (microsecond positioning, ~16 GB/s) whose Eq. 17
// ceiling (~39k UVC streams) sits far above the live load, planned rounds
// with batch activation, a block cache, the session layer and telemetry at
// its defaults. Admission is on. `trace` rides along as the scheduler's
// user sink (may be null).
FileSystemConfig VodOperatingPoint(obs::TraceSink* trace);

// The testbed's display devices (UVC board, telephone audio).
DeviceProfile VideoDisplay();
DeviceProfile AudioDisplay();

// Setups per run: untraced runs report the median of several; a traced
// run sets up once so its event tally covers one stack.
int SetupRepetitions(const BenchOptions& options);

inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}
double Median(std::vector<double> values);
double PeakRssMb();

// Inputs of the per-layer metrics every workload reports. Counts are from
// the traced pass (they repeat exactly for one seed); host times of the
// drive calls are from the untraced pass.
struct LayerInputs {
  const Probe* probe = nullptr;
  size_t first_timed_span = 0;    // spans before it belong to setup
  double traced_wall_s = 0.0;     // measured phase, probe on
  double untraced_wall_s = 0.0;   // measured phase, probe off
  double untraced_round_s = 0.0;  // host time of the calls that ran rounds
  EventTally::Counts total_counts;  // setup and measured phase
  EventTally::Counts run_counts;    // measured phase only
  int64_t cache_evictions = 0;
  std::vector<const ShadowSinks*> shadows;
  // Sinks the workload's real configuration runs (obs.share counts these).
  std::vector<int> real_sinks;
  int64_t delivered_blocks = 0;
  int64_t round_recorded_blocks = 0;  // recorded by service rounds
  int64_t sim_events = 0;
  double media_bytes_recorded = 0.0;
  int64_t bytes_per_sector = 512;
  int64_t audio_blocks = 0;
  int64_t silence_blocks = 0;
  int64_t edits = 0;
  int64_t seam_blocks = 0;
  int64_t recovers = 0;
  double checkpoint_kb = 0.0;
  double node_blocks_skew = 1.0;  // max / mean of per-node delivered blocks
  int64_t repair_blocks = 0;
};

void AddLayerMetrics(const LayerInputs& in, Report* report);

// Adds the median host time of the spans named `span_name` as `metric`.
void AddSpanMedian(const Probe& probe, const char* span_name, const std::string& metric,
                   double scale, const std::string& unit, Report* report);

// Writes the traced run's spans to options.spans_path (when set).
void WriteSpans(const Probe& probe, const BenchOptions& options, Report* report);

}  // namespace perfbench
}  // namespace vafs

#endif  // VAFS_PERFBENCH_SRC_WORKLOADS_H_
