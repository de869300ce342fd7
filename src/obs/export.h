// Telemetry exporters: one trace/metrics image per external toolchain.
//
// Every exporter renders an in-memory telemetry source to a string behind
// the common Exporter interface, so benches, tests and the facade write
// them uniformly:
//
//  - PerfettoExporter: Chrome trace-event JSON of a recorded TraceLog.
//    Loadable in ui.perfetto.dev / chrome://tracing: one slice track per
//    request (service windows, lifecycle and session instants), a
//    scheduler track of rounds (with their Eq. 11 budget and slack in
//    args), a disk track of individual transfers (sector, seek distance,
//    faults) and, when the log has any, a cluster track of node and
//    failover instants.
//  - PrometheusExporter: text exposition (version 0.0.4) of a
//    MetricsRegistry. Counters/gauges map directly; histograms map to
//    native Prometheus histograms with power-of-two `le` edges. With a
//    TraceLog attached it also exposes the log's dropped-event counter,
//    and every histogram's rejected-sample counter rides along — silent
//    telemetry loss is itself telemetry.
//  - JsonSnapshotExporter: versioned JSON snapshot bundling the metrics
//    image, an optional SLO report, trace-log health and the critical-path
//    attribution table, for vafs_top and CI artifact diffing.
//  - FoldedStackExporter: folded flame stacks ("a;b;c usec" lines) over
//    the causal span events of a recorded log, for tools/vafs_flame.py.

#ifndef VAFS_SRC_OBS_EXPORT_H_
#define VAFS_SRC_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace vafs {
namespace obs {

class Exporter {
 public:
  virtual ~Exporter() = default;
  // Stable format tag ("perfetto", "prometheus", "json").
  virtual const char* Format() const = 0;
  // Conventional file suffix including the dot.
  virtual const char* FileExtension() const = 0;
  virtual std::string Export() const = 0;
};

// Writes exporter output to `path` (trailing newline included).
Status WriteExport(const Exporter& exporter, const std::string& path);

class PerfettoExporter : public Exporter {
 public:
  // The events must outlive the exporter.
  explicit PerfettoExporter(const std::vector<TraceEvent>* events) : events_(events) {}
  const char* Format() const override { return "perfetto"; }
  const char* FileExtension() const override { return ".perfetto.json"; }
  std::string Export() const override;

 private:
  const std::vector<TraceEvent>* events_;
};

class PrometheusExporter : public Exporter {
 public:
  // With a `log`, the exposition leads with vafs_trace_events_dropped_total
  // (the TraceLog's drop counter): a dashboard reading partial telemetry
  // should be able to see that it is partial.
  explicit PrometheusExporter(const MetricsRegistry* registry, const TraceLog* log = nullptr)
      : registry_(registry), log_(log) {}
  const char* Format() const override { return "prometheus"; }
  const char* FileExtension() const override { return ".prom"; }
  std::string Export() const override;

  // Instrument name -> exposition metric name: prefixed with "vafs_" and
  // every character outside [a-zA-Z0-9_] replaced by '_'.
  static std::string MetricName(const std::string& instrument);

 private:
  const MetricsRegistry* registry_;
  const TraceLog* log_;
};

class JsonSnapshotExporter : public Exporter {
 public:
  static constexpr int kVersion = 1;

  JsonSnapshotExporter(const MetricsRegistry* registry, const SloTracker* slo = nullptr,
                       const TraceLog* log = nullptr,
                       const CriticalPathAnalyzer* critical_path = nullptr)
      : registry_(registry), slo_(slo), log_(log), critical_path_(critical_path) {}
  const char* Format() const override { return "json"; }
  const char* FileExtension() const override { return ".snapshot.json"; }
  std::string Export() const override;

 private:
  const MetricsRegistry* registry_;
  const SloTracker* slo_;
  const TraceLog* log_;
  const CriticalPathAnalyzer* critical_path_;
};

// Folded flame stacks over the span events of a recorded log: one
// "frame;frame;frame usec" line per unique root-to-leaf path, exclusive
// time, path-sorted (see CriticalPathAnalyzer::FoldedStacks).
class FoldedStackExporter : public Exporter {
 public:
  // The events must outlive the exporter.
  explicit FoldedStackExporter(const std::vector<TraceEvent>* events) : events_(events) {}
  const char* Format() const override { return "folded"; }
  const char* FileExtension() const override { return ".folded"; }
  std::string Export() const override { return CriticalPathAnalyzer::FoldedStacks(*events_); }

 private:
  const std::vector<TraceEvent>* events_;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_EXPORT_H_
