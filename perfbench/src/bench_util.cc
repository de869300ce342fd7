#include "perfbench/src/bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

namespace vafs {
namespace perfbench {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double pct) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0 || pct <= 0.0 || pct >= 100.0) {
    return std::nullopt;
  }
  // Nearest rank: the smallest sample with at least pct% of the samples at
  // or below it.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9)));
  if (n - rank < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t start = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = start;
    for (const auto& [kid_start, kid_end] : kids) {
      const int64_t from = std::max(kid_start, cursor);
      const int64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = std::max<int64_t>(0, end - start - covered);
  }
  return self;
}

Delivered& Delivered::operator+=(const Delivered& other) {
  requests += other.requests;
  blocks += other.blocks;
  played += other.played;
  recorded += other.recorded;
  continuity_violations += other.continuity_violations;
  blocks_skipped += other.blocks_skipped;
  glitched_requests += other.glitched_requests;
  return *this;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::AddPercentile(const std::string& name, const std::vector<double>& samples,
                           double pct, double scale, const std::string& unit) {
  if (std::optional<double> value = Percentile(samples, pct); value.has_value()) {
    Add(name, *value * scale, unit, static_cast<int64_t>(samples.size()));
  } else {
    Drop(name, "only " + std::to_string(samples.size()) + " samples; p" +
                   std::to_string(static_cast<int>(pct)) + " needs " +
                   std::to_string(kMinSamplesBeyond) + " beyond it");
  }
}

void Report::Drop(const std::string& name, const std::string& reason) {
  dropped_.emplace_back(name, reason);
}

void Report::Check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  if (!ok) {
    ++failed_checks_;
  }
}

void Report::Print() const {
  for (const std::string& note : notes_) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& check : checks_) {
    std::printf("check %s\n", check.c_str());
  }
  for (const Metric& metric : metrics_) {
    std::printf("%-36s %14.6g %-8s n=%" PRId64 "\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  for (const auto& [name, reason] : dropped_) {
    std::printf("%-36s dropped: %s\n", name.c_str(), reason.c_str());
  }
  for (const Metric& metric : metrics_) {
    std::printf("METRIC {\"name\": %s, \"value\": %.17g, \"unit\": %s, \"n\": %" PRId64 "}\n",
                JsonString(metric.name).c_str(), metric.value, JsonString(metric.unit).c_str(),
                metric.samples);
  }
  for (const auto& [name, reason] : dropped_) {
    std::printf("DROPPED {\"name\": %s, \"reason\": %s}\n", JsonString(name).c_str(),
                JsonString(reason).c_str());
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64 "}\n",
              correct() ? "true" : "false", attempted_, failed_);
  std::fflush(stdout);
}

}  // namespace perfbench
}  // namespace vafs
