#include "src/media/devices.h"

#include <algorithm>
#include <cassert>

namespace vafs {

PlaybackConsumer::PlaybackConsumer(SimDuration block_duration, SimTime start_time,
                                   SimDuration startup_delay)
    : block_duration_(block_duration), next_deadline_(start_time + startup_delay) {
  assert(block_duration > 0);
  assert(startup_delay >= 0);
}

void PlaybackConsumer::BlockReady(SimTime ready_time) {
  SimTime play_start = next_deadline_;
  if (ready_time > next_deadline_) {
    // Continuity violation: the viewer sees a glitch. Playback of this
    // block begins when it arrives, and all later deadlines shift.
    ++violations_;
    total_tardiness_ += ready_time - next_deadline_;
    play_start = ready_time;
  }
  play_ends_.push_back(play_start + block_duration_);
  next_deadline_ = play_start + block_duration_;
  ++blocks_ready_;

  // Occupancy at this instant: blocks ready whose playback has not yet
  // finished. play_ends_ is non-decreasing, so a prefix pointer suffices.
  while (drained_ < play_ends_.size() && play_ends_[drained_] <= ready_time) {
    ++drained_;
  }
  const int64_t buffered = static_cast<int64_t>(play_ends_.size() - drained_);
  max_buffered_ = std::max(max_buffered_, buffered);
}

int64_t PlaybackConsumer::BufferedAt(SimTime t) const {
  size_t first_undrained = play_ends_.size();
  while (first_undrained > 0 && play_ends_[first_undrained - 1] > t) {
    --first_undrained;
  }
  return static_cast<int64_t>(play_ends_.size() - first_undrained);
}

SimTime PlaybackConsumer::NextDrainAfter(SimTime t) const {
  const int64_t buffered = BufferedAt(t);
  return buffered == 0 ? -1 : play_ends_[play_ends_.size() - static_cast<size_t>(buffered)];
}

SimTime PlaybackConsumer::FullUntil(int64_t cap) const {
  assert(cap >= 1);
  if (static_cast<int64_t>(play_ends_.size()) < cap) {
    return -1;
  }
  return play_ends_[play_ends_.size() - static_cast<size_t>(cap)];
}

CaptureProducer::CaptureProducer(SimDuration block_duration, SimTime start_time,
                                 int64_t buffer_count)
    : block_duration_(block_duration), start_time_(start_time), buffer_count_(buffer_count) {
  assert(block_duration > 0);
  assert(buffer_count > 0);
}

SimTime CaptureProducer::CaptureEnd(int64_t index) const {
  return start_time_ + (index + 1) * block_duration_;
}

bool CaptureProducer::BlockWritten(SimTime write_end) {
  const int64_t index = blocks_written_;
  ++blocks_written_;

  // The capture of block `index + buffer_count_` begins at
  // CaptureEnd(index + buffer_count_ - 1); it needs the buffer this block
  // occupied, which frees at write_end. If the write finished later, the
  // camera had nowhere to put incoming data.
  const SimTime reuse_needed_at = CaptureEnd(index + buffer_count_ - 1);
  if (write_end > reuse_needed_at) {
    ++overflows_;
    return false;
  }
  return true;
}

}  // namespace vafs
