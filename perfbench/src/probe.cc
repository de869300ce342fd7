#include "perfbench/src/probe.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/vafs/file_system.h"

namespace vafs {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

int32_t Probe::Open(const char* name, uint64_t tag, int64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.tag = tag;
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Probe::Close(int32_t span, int64_t end_ns) {
  spans_[static_cast<size_t>(span)].end_ns = end_ns;
  if (!open_.empty() && open_.back() == span) {
    open_.pop_back();
  }
  if (open_.empty() && hook_ && !in_hook_) {
    in_hook_ = true;
    hook_();
    in_hook_ = false;
  }
}

bool Probe::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "index\tname\tstart_ns\tend_ns\tparent\ttag\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRIu64 "\n", i, span.name,
                 span.start_ns, span.end_ns, span.parent, span.tag);
  }
  return std::fclose(file) == 0;
}

Call::Call(Probe* probe, const char* name, uint64_t tag) : probe_(probe), start_ns_(NowNs()) {
  if (probe_ != nullptr) {
    span_ = probe_->Open(name, tag, start_ns_);
  }
}

void Call::Rename(const char* name) {
  if (probe_ != nullptr) {
    probe_->Rename(span_, name);
  }
}

int64_t Call::StopNs() {
  if (end_ns_ < 0) {
    end_ns_ = NowNs();
    if (probe_ != nullptr) {
      probe_->Close(span_, end_ns_);
    }
  }
  return end_ns_ - start_ns_;
}

int64_t EventTally::Counts::events() const {
  int64_t total = 0;
  for (const int64_t count : kinds) {
    total += count;
  }
  return total;
}

EventTally::Counts EventTally::Counts::operator-(const Counts& earlier) const {
  Counts delta = *this;
  for (size_t i = 0; i < kinds.size(); ++i) {
    delta.kinds[i] -= earlier.kinds[i];
  }
  delta.planned_blocks -= earlier.planned_blocks;
  delta.transfers -= earlier.transfers;
  delta.coalesced -= earlier.coalesced;
  delta.deduped -= earlier.deduped;
  delta.cache_hits -= earlier.cache_hits;
  delta.cache_lookups -= earlier.cache_lookups;
  delta.round_k_sum -= earlier.round_k_sum;
  delta.admission_existing_sum -= earlier.admission_existing_sum;
  delta.disk_write_sectors -= earlier.disk_write_sectors;
  return delta;
}

void EventTally::OnEvent(const obs::TraceEvent& event) {
  using obs::TraceEventKind;
  ++counts_.kinds[static_cast<size_t>(event.kind)];
  switch (event.kind) {
    case TraceEventKind::kRoundPlanned:
      counts_.planned_blocks += event.blocks;
      counts_.transfers += event.transfers;
      counts_.coalesced += event.coalesced_blocks;
      counts_.deduped += event.deduped_blocks;
      counts_.cache_hits += event.cache_hits;
      counts_.cache_lookups += event.cache_lookups;
      cache_evictions_ = std::max(cache_evictions_, event.cache_evictions);
      break;
    case TraceEventKind::kRoundEnd:
      counts_.round_k_sum += event.k;
      break;
    case TraceEventKind::kAdmissionPlan:
      counts_.admission_existing_sum += event.existing;
      break;
    case TraceEventKind::kDiskWrite:
      counts_.disk_write_sectors += event.blocks;
      break;
    default:
      break;
  }
  buffer_.push_back(event);
}

std::vector<obs::TraceEvent> EventTally::TakeBuffer() {
  std::vector<obs::TraceEvent> taken;
  taken.swap(buffer_);
  return taken;
}

const char* ShadowSinks::SinkName(int sink) {
  static constexpr const char* kNames[kSinkCount] = {
      "obs.log", "obs.metrics", "obs.slo", "obs.flight", "obs.auditor", "obs.critical_path"};
  return kNames[sink];
}

ShadowSinks::ShadowSinks()
    : log_(TelemetryOptions{}.trace_capacity),
      slo_(TelemetryOptions{}.slo),
      flight_(TelemetryOptions{}.flight),
      auditor_(obs::AuditorOptions{.round_time_slack = 0.05}) {
  // The facade's wiring: an SLO breach triggers a flight-recorder dump.
  slo_.set_breach_handler([this](uint64_t /*request*/, const std::string& description) {
    flight_.TriggerDump(description);
  });
}

void ShadowSinks::Replay(const std::vector<obs::TraceEvent>& events, Probe* probe,
                         uint64_t tag) {
  if (events.empty()) {
    return;
  }
  obs::TraceSink* const sinks[kSinkCount] = {&log_,    &metrics_, &slo_,
                                             &flight_, &auditor_, &critical_path_};
  Call replay(probe, "obs.replay", tag);
  for (int sink = 0; sink < kSinkCount; ++sink) {
    Call batch(probe, SinkName(sink), tag);
    for (const obs::TraceEvent& event : events) {
      sinks[sink]->OnEvent(event);
    }
    sink_ns_[static_cast<size_t>(sink)] += batch.StopNs();
  }
  events_ += static_cast<int64_t>(events.size());
}

}  // namespace perfbench
}  // namespace vafs
