// Causal span identity for the trace stream.
//
// Every trace-producing stage can open a span: a closed interval with a
// (trace_id, span_id, parent_span) triple that links it into a per-round
// tree. The ids are pure functions of structural indices — node, round,
// stage, and a deterministic ordinal (transfer number, retry attempt) —
// mixed through splitmix64. Wall clock never feeds the ids, so the span
// stream honours the wall-clock engine's invariant (DESIGN.md section 12):
// byte-identical telemetry for any VAFS_WORKERS count.
//
// Spans are flat TraceEvents (kind = kSpan), emitted at close with their
// duration, riding the existing sink graph. The tree structure lives only
// in the id links; CriticalPathAnalyzer (src/obs/critical_path.h) and the
// Perfetto/folded-stack exporters (src/obs/export.h) rebuild it.

#ifndef VAFS_SRC_OBS_SPAN_H_
#define VAFS_SRC_OBS_SPAN_H_

#include <cstdint>
#include <string>

#include "src/obs/trace.h"

namespace vafs {
namespace obs {

// splitmix64 finalizer: a cheap, high-quality 64-bit mixer. Deterministic
// and platform-independent (pure uint64 arithmetic).
inline uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Combines two ids order-sensitively (not commutative, never 0 in
// practice: MixId's output is 0 only for one input in 2^64).
inline uint64_t MixIds(uint64_t a, uint64_t b) {
  return MixId(a ^ MixId(b + 0x2545f4914f6cdd1dULL));
}

// The trace id of one scheduler round on one node. `node` is -1 for a
// single-node scheduler; the +2 offset keeps the -1 and 0 cases distinct
// without relying on signed wraparound.
inline uint64_t RoundTraceId(int64_t node, int64_t round) {
  return MixIds(static_cast<uint64_t>(node + 2), static_cast<uint64_t>(round + 1));
}

// The span id of a trace's root (the round span).
inline uint64_t RootSpanId(uint64_t trace_id) { return MixIds(trace_id, 1); }

// A child span id: parent link x stage x deterministic ordinal.
inline uint64_t ChildSpanId(uint64_t parent_span, SpanStage stage, uint64_t ordinal) {
  return MixIds(parent_span, MixIds(static_cast<uint64_t>(stage) + 1, ordinal + 1));
}

// Frame label for one span in a folded flame stack ("transfer req3 arm1",
// "node 2 round r7"). Shared by the folded-stack exporter and vafs_flame.
std::string SpanFrameName(const TraceEvent& event);

// Fills the span identity fields of an already-shaped TraceEvent and
// stamps kind = kSpan. The caller provides timing/round/request context.
inline void StampSpan(TraceEvent* event, uint64_t trace_id, uint64_t span_id,
                      uint64_t parent_span, SpanStage stage) {
  event->kind = TraceEventKind::kSpan;
  event->trace_id = trace_id;
  event->span_id = span_id;
  event->parent_span = parent_span;
  event->span_stage = static_cast<int64_t>(stage);
}

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_SPAN_H_
