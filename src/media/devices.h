// Display and capture device models.
//
// The continuity requirement (paper Section 3.1) says media data must be
// available at the display device at or before the moment its playback is
// due. PlaybackConsumer checks exactly that: the storage manager reports
// when each block became ready (transferred and, for the sequential
// architecture, decoded), and the consumer compares against the block's
// playback deadline, accounting for startup (anti-jitter) delay and for
// glitches shifting subsequent deadlines. It also tracks device buffer
// occupancy so the buffering analyses of Section 3.3.2 can be validated.
//
// CaptureProducer is the recording-side dual: frames arrive from the
// camera at the recording rate into a fixed pool of device buffers, and a
// buffer is recycled only once its block has been written to disk; the
// model reports overflows when writing falls behind capture.

#ifndef VAFS_SRC_MEDIA_DEVICES_H_
#define VAFS_SRC_MEDIA_DEVICES_H_

#include <cstdint>
#include <vector>

#include "src/util/time.h"

namespace vafs {

// Consumes equal-duration media blocks against real-time deadlines.
class PlaybackConsumer {
 public:
  // `block_duration`: playback duration of one block (q / R in usec).
  // `start_time`: when the PLAY request was issued.
  // `startup_delay`: anti-jitter delay before the first deadline.
  PlaybackConsumer(SimDuration block_duration, SimTime start_time, SimDuration startup_delay);

  // Reports that the next block (in playback order) became ready at
  // `ready_time`. Times must be non-decreasing across calls.
  void BlockReady(SimTime ready_time);

  // Number of blocks whose readiness missed their playback deadline.
  int64_t violations() const { return violations_; }

  // Sum of all tardiness (how late past the deadline ready blocks were).
  SimDuration total_tardiness() const { return total_tardiness_; }

  // Playback deadline of the next not-yet-ready block.
  SimTime next_deadline() const { return next_deadline_; }

  int64_t blocks_ready() const { return blocks_ready_; }

  // Largest number of blocks simultaneously buffered at the device
  // (ready, and playback not yet finished).
  int64_t max_buffered_blocks() const { return max_buffered_; }

  // Instant the last block finishes playing (the first deadline while no
  // block is ready).
  SimTime playback_end() const { return next_deadline_; }

  // The occupancy queries below scan back from the newest end instant, so
  // they cost O(blocks still playing at `t`) and are exact for any `t`.

  // Blocks buffered (ready, playback not finished) at time `t`.
  int64_t BufferedAt(SimTime t) const;

  // Earliest instant after `t` at which a buffered block finishes playing
  // (freeing a device buffer), or -1 if nothing is pending.
  SimTime NextDrainAfter(SimTime t) const;

  // Instant before which at least `cap` (>= 1) blocks are buffered: the
  // playback end of the cap-th newest block, from which a buffer is free.
  // -1 if fewer than `cap` blocks have been ready.
  SimTime FullUntil(int64_t cap) const;

 private:
  SimDuration block_duration_;
  SimTime next_deadline_;
  int64_t blocks_ready_ = 0;
  int64_t violations_ = 0;
  SimDuration total_tardiness_ = 0;
  int64_t max_buffered_ = 0;
  // End-of-playback instants of blocks already ready, in order; a prefix
  // pointer tracks how many have drained by the latest ready time. Every
  // instant is kept: a round nested in another's RunUntil queries at the
  // outer round's start, before ready times the outer round reported.
  std::vector<SimTime> play_ends_;
  size_t drained_ = 0;
};

// Produces equal-duration media blocks into a bounded buffer pool.
class CaptureProducer {
 public:
  // `block_duration`: capture duration of one block.
  // `buffer_count`: device buffers available for captured-but-unwritten
  // blocks.
  CaptureProducer(SimDuration block_duration, SimTime start_time, int64_t buffer_count);

  // Capture completion instant of block `index` (the block may be written
  // to disk from then on).
  SimTime CaptureEnd(int64_t index) const;

  // Reports that the next block (in capture order) finished its disk write
  // at `write_end`. Returns true if the block was captured without the
  // pool overflowing; false if capture had to drop data because all
  // buffers were still waiting on writes.
  bool BlockWritten(SimTime write_end);

  int64_t overflows() const { return overflows_; }
  int64_t blocks_written() const { return blocks_written_; }

 private:
  SimDuration block_duration_;
  SimTime start_time_;
  int64_t buffer_count_;
  int64_t blocks_written_ = 0;
  int64_t overflows_ = 0;
};

}  // namespace vafs

#endif  // VAFS_SRC_MEDIA_DEVICES_H_
