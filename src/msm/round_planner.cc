#include "src/msm/round_planner.h"

#include <algorithm>
#include <map>
#include <utility>

namespace vafs {

namespace {

// C-SCAN key: cylinders at or past the arm sweep first in ascending
// order; the rest wait for the wrap and sweep ascending again.
std::pair<int, int64_t> ScanKey(int64_t cylinder, int64_t head_cylinder) {
  return {cylinder >= head_cylinder ? 0 : 1, cylinder};
}

}  // namespace

RoundPlan BuildRoundPlan(const DiskModel& model, int64_t head_cylinder,
                         const std::vector<PlanInput>& inputs) {
  RoundPlan plan;
  BuildRoundPlanInto(model, head_cylinder, inputs, &plan);
  return plan;
}

void BuildRoundPlanInto(const DiskModel& model, int64_t head_cylinder,
                        const std::vector<PlanInput>& inputs, RoundPlan* out) {
  out->transfers.clear();
  out->riders.clear();
  out->data_blocks = 0;
  out->cache_hits = 0;
  out->read_transfers = 0;
  out->coalesced_blocks = 0;
  out->deduped_blocks = 0;

  // Build-phase transfer: geometry plus its own rider list (the flat arena
  // is only filled once the dispatch order is final).
  struct Build {
    PlannedTransfer transfer;
    std::vector<PlannedBlock> riders;
  };

  // Per-request coalescing: a run of consecutive non-silence candidates
  // whose extents abut becomes one transfer. Silence breaks the run even
  // when the flanking extents are contiguous.
  std::vector<Build> reads;
  int32_t slot = 0;
  for (const PlanInput& input : inputs) {
    Build* run = nullptr;
    bool run_broken = true;
    for (const PlanCandidate& candidate : input.blocks) {
      const int32_t this_slot = slot++;
      if (candidate.silence) {
        run_broken = true;
        continue;
      }
      ++out->data_blocks;
      if (candidate.cache_hit) {
        ++out->cache_hits;
        run_broken = true;  // the round skips this extent; the run ends
        continue;
      }
      PlannedBlock block{input.request, candidate.ordinal, candidate.sector, candidate.sectors,
                         this_slot};
      if (!run_broken && run != nullptr &&
          run->transfer.start_sector + run->transfer.sectors == candidate.sector) {
        run->transfer.sectors += candidate.sectors;
        run->riders.push_back(block);
        ++out->coalesced_blocks;
        continue;
      }
      Build build;
      build.transfer.start_sector = candidate.sector;
      build.transfer.sectors = candidate.sectors;
      build.riders.push_back(block);
      reads.push_back(std::move(build));
      run = &reads.back();
      run_broken = false;
    }
    if (input.append_blocks > 0) {
      Build append;
      append.transfer.is_append = true;
      append.transfer.append_request = input.request;
      append.transfer.append_blocks = input.append_blocks;
      append.transfer.start_sector = std::max<int64_t>(input.append_position_sector, 0);
      reads.push_back(std::move(append));
    }
  }

  // Dedup: identical extents wanted by several requests (lockstep viewers
  // of one strand) collapse into one transfer carrying all riders.
  std::map<std::pair<int64_t, int64_t>, size_t> by_extent;
  std::vector<Build> unique;
  for (Build& build : reads) {
    if (build.transfer.is_append) {
      unique.push_back(std::move(build));
      continue;
    }
    const auto key = std::make_pair(build.transfer.start_sector, build.transfer.sectors);
    auto found = by_extent.find(key);
    if (found != by_extent.end()) {
      Build& host = unique[found->second];
      out->deduped_blocks += static_cast<int64_t>(build.riders.size());
      host.riders.insert(host.riders.end(), build.riders.begin(), build.riders.end());
      continue;
    }
    by_extent.emplace(key, unique.size());
    unique.push_back(std::move(build));
  }

  // C-SCAN from the arm's current cylinder.
  std::stable_sort(unique.begin(), unique.end(), [&](const Build& a, const Build& b) {
    const auto ka = ScanKey(model.SectorToCylinder(a.transfer.start_sector), head_cylinder);
    const auto kb = ScanKey(model.SectorToCylinder(b.transfer.start_sector), head_cylinder);
    if (ka != kb) {
      return ka < kb;
    }
    return a.transfer.start_sector < b.transfer.start_sector;
  });

  out->transfers.reserve(unique.size());
  for (Build& build : unique) {
    PlannedTransfer transfer = build.transfer;
    transfer.rider_begin = static_cast<uint32_t>(out->riders.size());
    transfer.rider_count = static_cast<uint32_t>(build.riders.size());
    out->riders.insert(out->riders.end(), build.riders.begin(), build.riders.end());
    if (!transfer.is_append) {
      ++out->read_transfers;
    }
    out->transfers.push_back(transfer);
  }
}

}  // namespace vafs
