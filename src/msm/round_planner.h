// Round I/O planner: turns one service round's block needs into an
// ordered list of disk transfers.
//
// The paper's round loop (Section 3.4) issues every block as its own disk
// operation, in request order, and admission control charges each one a
// worst-case reposition. The planner closes the gap between that bound and
// what the mechanism actually pays, in three steps over the whole round's
// needs at once:
//
//  1. Coalescing — physically contiguous blocks of one request merge into
//     a single multi-block transfer: one reposition instead of N. Blocks
//     separated by an eliminated-silence entry never merge even when their
//     extents happen to abut: a silence gap is a timeline boundary, and a
//     merged read across it would bind the later block's readiness to data
//     the round may not need (see scan_order_test.cc).
//  2. Dedup — two viewers of the same strand whose rounds want the same
//     extent share one transfer; each rider's block is marked ready when
//     the shared read completes, so lockstep viewers never read a block
//     twice even before the cache warms.
//  3. Block-level C-SCAN — transfers are dispatched in ascending-cylinder
//     elevator order starting from the arm's current cylinder, wrapping
//     once past the outermost requested cylinder. This replaces the
//     per-request kSeekScan sort: ordering per transfer, not per stream.
//
// The planner is pure: it consumes per-request candidate lists and the
// arm position and returns the transfer program. All mechanism (disk calls,
// retries, readiness reporting, cache fills) stays in the scheduler, so
// ordering and merging rules are unit-testable without a simulation.
//
// Scale note (DESIGN.md section 15): riders live in one flat arena
// (RoundPlan::riders) addressed by [rider_begin, rider_begin+rider_count)
// per transfer. The scheduler plans every round from scratch into one
// RoundPlan it owns (BuildRoundPlanInto), so the output's transfer and
// rider arenas are reused once warm. The build phase is not: every round
// it allocates one rider vector per transfer, one map node per distinct
// extent and its own transfer lists.

#ifndef VAFS_SRC_MSM_ROUND_PLANNER_H_
#define VAFS_SRC_MSM_ROUND_PLANNER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/disk_model.h"

namespace vafs {

// One block a request wants this round, in playback order. Silence
// entries carry no extent but still break coalescing runs.
struct PlanCandidate {
  int64_t ordinal = 0;  // block number within the request's stream
  bool silence = false;
  bool cache_hit = false;  // already resident: no transfer planned
  int64_t sector = -1;
  int64_t sectors = 0;
};

// One request's input to the planner.
struct PlanInput {
  uint64_t request = 0;
  std::vector<PlanCandidate> blocks;  // playback span to advance this round
  // Recording side: appends planned this round and the expected arm
  // position of the first one (the writer's previous end, for ordering).
  int64_t append_blocks = 0;
  int64_t append_position_sector = 0;
};

// A block riding a planned transfer (possibly shared between requests).
struct PlannedBlock {
  uint64_t request = 0;
  int64_t ordinal = 0;
  int64_t sector = -1;
  int64_t sectors = 0;
  // Round-global candidate index: candidates are numbered in input order,
  // one per PlanCandidate (silence and cache hits included), so the
  // scheduler can track per-candidate outcomes in a flat array instead of
  // a map keyed by (request, ordinal).
  int32_t slot = -1;
};

struct PlannedTransfer {
  bool is_append = false;
  // Reads: the (possibly merged) physical extent; riders live in
  // RoundPlan::riders at [rider_begin, rider_begin + rider_count).
  int64_t start_sector = 0;
  int64_t sectors = 0;
  uint32_t rider_begin = 0;
  uint32_t rider_count = 0;
  // Appends: the recording request and its block count.
  uint64_t append_request = 0;
  int64_t append_blocks = 0;
};

struct RoundPlan {
  // Dispatch order: C-SCAN from the arm's cylinder, appends at their
  // expected arm positions.
  std::vector<PlannedTransfer> transfers;
  // Rider arena: every transfer's blocks, contiguous per transfer. Reused
  // across rounds by BuildRoundPlanInto (clear keeps capacity).
  std::vector<PlannedBlock> riders;
  int64_t data_blocks = 0;      // playback blocks wanted this round
  int64_t cache_hits = 0;       // served from memory, no transfer
  int64_t read_transfers = 0;   // planned read operations
  int64_t coalesced_blocks = 0; // blocks that merged into a preceding one
  int64_t deduped_blocks = 0;   // blocks riding another request's transfer

  std::span<const PlannedBlock> riders_of(const PlannedTransfer& transfer) const {
    return {riders.data() + transfer.rider_begin, static_cast<size_t>(transfer.rider_count)};
  }
};

// Builds the round's transfer program from scratch for an arm resting on
// `head_cylinder`.
RoundPlan BuildRoundPlan(const DiskModel& model, int64_t head_cylinder,
                         const std::vector<PlanInput>& inputs);

// Same program, written into `out` so a caller-owned plan's vectors are
// reused across rounds.
void BuildRoundPlanInto(const DiskModel& model, int64_t head_cylinder,
                        const std::vector<PlanInput>& inputs, RoundPlan* out);

}  // namespace vafs

#endif  // VAFS_SRC_MSM_ROUND_PLANNER_H_
