#include "src/media/sources.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "src/util/units.h"

namespace vafs {

VideoSource::VideoSource(const MediaProfile& profile, uint64_t seed)
    : profile_(profile), frame_bytes_(BitsToBytesCeil(profile.bits_per_unit)), seed_(seed) {
  assert(profile_.medium == Medium::kVideo);
  assert(frame_bytes_ > 0);
}

std::vector<uint8_t> VideoSource::FramePayload(int64_t index) const {
  // Payload bytes come from a SplitMix64 stream keyed by (seed, index):
  // cheap, deterministic and unique per frame. Each word lands as 8 bytes,
  // least significant first on every host: a big-endian host swaps the
  // word to little-endian before the one 8-byte store. A short tail takes
  // the low bytes of one more word.
  std::vector<uint8_t> payload(static_cast<size_t>(frame_bytes_));
  uint64_t state = seed_ ^ (0x632be59bd9b4e019ULL * static_cast<uint64_t>(index + 1));
  uint8_t* out = payload.data();
  const size_t whole = payload.size() / 8 * 8;
  for (size_t i = 0; i < whole; i += 8) {
    uint64_t word = SplitMix64(state);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out + i, &word, sizeof(word));
  }
  if (whole < payload.size()) {
    const uint64_t word = SplitMix64(state);
    for (size_t i = whole; i < payload.size(); ++i) {
      out[i] = static_cast<uint8_t>(word >> (8 * (i - whole)));
    }
  }
  return payload;
}

VideoFrame VideoSource::NextFrame() {
  VideoFrame frame;
  frame.index = next_index_;
  frame.payload = FramePayload(next_index_);
  ++next_index_;
  return frame;
}

AudioSource::AudioSource(const MediaProfile& profile, const SpeechProfile& speech, uint64_t seed)
    : profile_(profile),
      speech_(speech),
      script_prng_(seed),
      jitter_prng_(seed ^ 0x5eed5eed5eed5eedULL) {
  assert(profile_.medium == Medium::kAudio);
}

void AudioSource::ExtendScriptTo(int64_t position) {
  while (segment_ends_.empty() || segment_ends_.back() <= position) {
    const bool next_is_silence = (segment_ends_.size() % 2) == 1;
    const double mean_sec =
        next_is_silence ? speech_.silence_mean_sec : speech_.talk_spurt_mean_sec;
    // Exponential duration with the configured mean, floored at 10 ms so
    // segments are never degenerate.
    const double u = std::max(script_prng_.NextDouble(), 1e-12);
    const double duration_sec = std::max(0.010, -mean_sec * std::log(u));
    const int64_t samples = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(duration_sec * profile_.units_per_sec)));
    const int64_t prev_end = segment_ends_.empty() ? 0 : segment_ends_.back();
    segment_ends_.push_back(prev_end + samples);
  }
}

bool AudioSource::IsScriptedSilence(int64_t position) const {
  assert(position >= 0);
  assert(!segment_ends_.empty() && position < segment_ends_.back());
  auto it = std::upper_bound(segment_ends_.begin(), segment_ends_.end(), position);
  const size_t segment = static_cast<size_t>(it - segment_ends_.begin());
  return (segment % 2) == 1;
}

std::vector<uint8_t> AudioSource::NextSamples(int64_t count) {
  assert(count > 0);
  ExtendScriptTo(next_index_ + count - 1);
  std::vector<uint8_t> samples(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const int64_t position = next_index_ + i;
    const bool silent = IsScriptedSilence(position);
    const uint8_t amplitude = silent ? speech_.noise_amplitude : speech_.speech_amplitude;
    // Triangle-ish waveform plus jitter keeps the energy well separated
    // between speech and silence without needing floating-point audio.
    const int64_t phase = position % 64;
    const int64_t tri = phase < 32 ? phase : 64 - phase;  // 0..32
    const int64_t wave = (tri - 16) * amplitude / 16;
    const int64_t jitter =
        amplitude == 0 ? 0 : jitter_prng_.NextInRange(-amplitude / 8 - 1, amplitude / 8 + 1);
    const int64_t value = 128 + wave + jitter;
    samples[static_cast<size_t>(i)] = static_cast<uint8_t>(std::clamp<int64_t>(value, 0, 255));
  }
  next_index_ += count;
  return samples;
}

}  // namespace vafs
