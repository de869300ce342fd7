#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/media/devices.h"
#include "src/media/media.h"
#include "src/media/silence.h"
#include "src/media/sources.h"
#include "src/util/prng.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

TEST(MediaProfileTest, DerivedQuantities) {
  const MediaProfile video = TestVideo();
  EXPECT_DOUBLE_EQ(video.BitRate(), 30.0 * 16384);
  EXPECT_DOUBLE_EQ(video.UnitDuration(), 1.0 / 30.0);
  EXPECT_NE(video.ToString().find("video"), std::string::npos);
}

TEST(MediaProfileTest, PresetsMatchPaperFigures) {
  EXPECT_NEAR(UvcCompressedVideo().BitRate(), 2.88e6, 1e4);   // ~2.9 Mbit/s
  EXPECT_NEAR(TelephoneAudio().BitRate(), 64e3, 1.0);         // 8 KB/s
  EXPECT_GT(HdtvVideo().BitRate(), 2.4e9);                    // ~2.5 Gbit/s claim
  EXPECT_LT(HdtvVideo().BitRate(), 2.6e9);
  EXPECT_DOUBLE_EQ(UvcRawVideo().BitRate() / UvcCompressedVideo().BitRate(), 12.0);
}

TEST(VideoSourceTest, FramesHaveConfiguredSize) {
  VideoSource source(TestVideo(), 1);
  const VideoFrame frame = source.NextFrame();
  EXPECT_EQ(frame.index, 0);
  EXPECT_EQ(static_cast<int64_t>(frame.payload.size()), source.frame_bytes());
  EXPECT_EQ(source.frame_bytes(), 2048);
}

TEST(VideoSourceTest, DeterministicAndRegenerable) {
  VideoSource a(TestVideo(), 42);
  VideoSource b(TestVideo(), 42);
  for (int i = 0; i < 5; ++i) {
    const VideoFrame frame_a = a.NextFrame();
    const VideoFrame frame_b = b.NextFrame();
    EXPECT_EQ(frame_a.payload, frame_b.payload);
    EXPECT_EQ(frame_a.payload, a.FramePayload(i));
  }
}

TEST(VideoSourceTest, FramesDifferAcrossIndexAndSeed) {
  VideoSource source(TestVideo(), 42);
  EXPECT_NE(source.FramePayload(0), source.FramePayload(1));
  VideoSource other(TestVideo(), 43);
  EXPECT_NE(source.FramePayload(0), other.FramePayload(0));
}

// The byte-at-a-time fill FramePayload must reproduce: SplitMix64 words
// keyed by (seed, index), least significant byte first.
std::vector<uint8_t> BytewiseFramePayload(uint64_t seed, int64_t index, int64_t frame_bytes) {
  std::vector<uint8_t> payload(static_cast<size_t>(frame_bytes));
  uint64_t state = seed ^ (0x632be59bd9b4e019ULL * static_cast<uint64_t>(index + 1));
  size_t i = 0;
  while (i < payload.size()) {
    uint64_t word = SplitMix64(state);
    for (int b = 0; b < 8 && i < payload.size(); ++b, ++i) {
      payload[i] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return payload;
}

TEST(VideoSourceTest, PayloadBytesArePinnedForEveryFrameSize) {
  // Frame sizes below, at and just past one word, and a long odd one: the
  // whole-word fill and its tail give the same bytes as the bytewise loop.
  for (int64_t frame_bytes : {1, 7, 8, 9, 12345}) {
    MediaProfile profile = TestVideo();
    profile.bits_per_unit = 8 * frame_bytes;
    for (uint64_t seed : {0ULL, 7ULL, 0xfeedface12345678ULL}) {
      VideoSource source(profile, seed);
      ASSERT_EQ(source.frame_bytes(), frame_bytes);
      for (int64_t index : {0, 1, 2, 99, 123456}) {
        EXPECT_EQ(source.FramePayload(index), BytewiseFramePayload(seed, index, frame_bytes))
            << "frame_bytes " << frame_bytes << " seed " << seed << " index " << index;
      }
    }
  }
}

TEST(AudioSourceTest, ProducesRequestedCounts) {
  AudioSource source(TestAudio(), SpeechProfile{}, 7);
  EXPECT_EQ(source.NextSamples(100).size(), 100u);
  EXPECT_EQ(source.samples_produced(), 100);
  EXPECT_EQ(source.NextSamples(50).size(), 50u);
  EXPECT_EQ(source.samples_produced(), 150);
}

TEST(AudioSourceTest, ScriptAlternatesSpeechAndSilence) {
  AudioSource source(TestAudio(), SpeechProfile{}, 7);
  const int64_t total = 4000 * 30;  // 30 seconds
  source.NextSamples(total);
  int64_t silent = 0;
  bool saw_transition = false;
  bool previous = source.IsScriptedSilence(0);
  for (int64_t i = 0; i < total; ++i) {
    const bool now_silent = source.IsScriptedSilence(i);
    silent += now_silent ? 1 : 0;
    saw_transition |= (now_silent != previous);
    previous = now_silent;
  }
  EXPECT_TRUE(saw_transition);
  // Mean 1.2 s talk / 0.6 s silence -> roughly one third silent.
  EXPECT_GT(silent, total / 10);
  EXPECT_LT(silent, total * 6 / 10);
}

TEST(AudioSourceTest, SpeechIsLouderThanSilence) {
  SpeechProfile speech;
  AudioSource source(TestAudio(), speech, 11);
  const int64_t chunk = 400;  // 100 ms
  double max_silence_energy = 0.0;
  double min_speech_energy = 1e9;
  for (int block = 0; block < 100; ++block) {
    std::vector<uint8_t> samples = source.NextSamples(chunk);
    const int64_t start = block * chunk;
    // Classify by majority of scripted state.
    int64_t silent_count = 0;
    for (int64_t i = 0; i < chunk; ++i) {
      silent_count += source.IsScriptedSilence(start + i) ? 1 : 0;
    }
    const double energy = SilenceDetector::AverageEnergy(samples);
    if (silent_count == chunk) {
      max_silence_energy = std::max(max_silence_energy, energy);
    } else if (silent_count == 0) {
      min_speech_energy = std::min(min_speech_energy, energy);
    }
  }
  EXPECT_LT(max_silence_energy, 100.0);
  EXPECT_GT(min_speech_energy, 100.0);
}

TEST(SilenceDetectorTest, EnergyOfFlatSignalIsZero) {
  std::vector<uint8_t> flat(64, 128);
  EXPECT_DOUBLE_EQ(SilenceDetector::AverageEnergy(flat), 0.0);
  EXPECT_TRUE(SilenceDetector().IsSilent(flat));
}

TEST(SilenceDetectorTest, EnergyOfSquareWave) {
  std::vector<uint8_t> wave;
  for (int i = 0; i < 64; ++i) {
    wave.push_back(i % 2 == 0 ? 128 + 50 : 128 - 50);
  }
  EXPECT_DOUBLE_EQ(SilenceDetector::AverageEnergy(wave), 2500.0);
  EXPECT_FALSE(SilenceDetector(100.0).IsSilent(wave));
  EXPECT_TRUE(SilenceDetector(3000.0).IsSilent(wave));
}

TEST(SilenceDetectorTest, EmptyWindowIsSilent) {
  EXPECT_TRUE(SilenceDetector().IsSilent({}));
}

TEST(PlaybackConsumerTest, OnTimeBlocksNeverViolate) {
  // 10 blocks of 100 ms each, all ready well before their deadlines.
  PlaybackConsumer consumer(100'000, 0, 50'000);
  for (int i = 0; i < 10; ++i) {
    consumer.BlockReady(i * 10'000);
  }
  EXPECT_EQ(consumer.violations(), 0);
  EXPECT_EQ(consumer.total_tardiness(), 0);
  EXPECT_EQ(consumer.blocks_ready(), 10);
}

TEST(PlaybackConsumerTest, LateBlockCountsOnceAndShiftsDeadlines) {
  PlaybackConsumer consumer(100'000, 0, 0);
  consumer.BlockReady(0);         // deadline 0: on time
  consumer.BlockReady(150'000);   // deadline 100'000: 50 ms late
  EXPECT_EQ(consumer.violations(), 1);
  EXPECT_EQ(consumer.total_tardiness(), 50'000);
  // Deadlines shift: the next block is due at 250'000, not 200'000.
  consumer.BlockReady(240'000);
  EXPECT_EQ(consumer.violations(), 1);
}

TEST(PlaybackConsumerTest, StartupDelayDefersFirstDeadline) {
  PlaybackConsumer consumer(100'000, 1'000'000, 200'000);
  EXPECT_EQ(consumer.next_deadline(), 1'200'000);
  consumer.BlockReady(1'100'000);
  EXPECT_EQ(consumer.violations(), 0);
}

TEST(PlaybackConsumerTest, BufferOccupancyTracksUnplayedBlocks) {
  PlaybackConsumer consumer(100'000, 0, 0);
  // 5 blocks all ready at t=0: first plays [0,100ms), so 5 buffered.
  for (int i = 0; i < 5; ++i) {
    consumer.BlockReady(0);
  }
  EXPECT_EQ(consumer.max_buffered_blocks(), 5);
  EXPECT_EQ(consumer.BufferedAt(0), 5);
  EXPECT_EQ(consumer.BufferedAt(100'000), 4);
  EXPECT_EQ(consumer.BufferedAt(450'000), 1);
  EXPECT_EQ(consumer.BufferedAt(500'000), 0);
  EXPECT_EQ(consumer.NextDrainAfter(0), 100'000);
  EXPECT_EQ(consumer.NextDrainAfter(499'999), 500'000);
  EXPECT_EQ(consumer.NextDrainAfter(500'000), -1);
  EXPECT_EQ(consumer.playback_end(), 500'000);
}

TEST(PlaybackConsumerTest, TailScanOccupancyMatchesAFullHistoryReference) {
  // 60k blocks: bursts, waits for a free buffer, and late blocks that
  // glitch and shift every later deadline. The reference answers with
  // std::upper_bound over every block's end instant; the consumer scans
  // back from the newest. Queries land at, after and before the latest
  // ready instant (a round nested in another's RunUntil queries at the
  // outer round's start).
  constexpr SimDuration kBlock = 33'333;
  constexpr int64_t kBlocks = 60'000;
  constexpr int64_t kBuffers = 8;
  PlaybackConsumer consumer(kBlock, 0, 2 * kBlock);
  Prng rng(20261018);
  std::vector<SimTime> ends;
  const auto buffered = [&ends](SimTime t) {
    return static_cast<int64_t>(ends.end() - std::upper_bound(ends.begin(), ends.end(), t));
  };
  const auto next_drain = [&ends](SimTime t) {
    const auto it = std::upper_bound(ends.begin(), ends.end(), t);
    return it == ends.end() ? SimTime{-1} : *it;
  };
  SimTime deadline = 2 * kBlock;
  SimTime ready = 0;
  SimTime previous_ready = 0;
  int64_t violations = 0;
  int64_t max_buffered = 0;
  for (int64_t b = 0; b < kBlocks; ++b) {
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 2) {
      ready = std::max(ready, deadline + 1 + static_cast<SimTime>(rng.NextBelow(3 * kBlock)));
    } else if (roll < 60 && buffered(ready) >= kBuffers) {
      ready = ends[ends.size() - kBuffers];  // the first instant a buffer is free
    } else if (roll < 90) {
      ready += static_cast<SimTime>(rng.NextBelow(kBlock));
    }
    consumer.BlockReady(ready);
    const SimTime before = previous_ready;
    previous_ready = ready;
    if (ready > deadline) {
      ++violations;
      deadline = ready;
    }
    deadline += kBlock;
    ends.push_back(deadline);
    max_buffered = std::max(max_buffered, buffered(ready));

    const int64_t held = buffered(ready);
    const SimTime some_end = ends[ends.size() - 1 - rng.NextBelow(static_cast<uint64_t>(held))];
    for (SimTime t : {ready, ready + 1, ends.back() - 1, ends.back(), ends.back() + kBlock,
                      some_end - 1, some_end, some_end + 1, before, ready - 1}) {
      ASSERT_EQ(consumer.BufferedAt(t), buffered(t)) << "block " << b << " t=" << t;
      ASSERT_EQ(consumer.NextDrainAfter(t), next_drain(t)) << "block " << b << " t=" << t;
    }
    for (int64_t cap = 1; cap <= held + 2; ++cap) {
      const SimTime until = consumer.FullUntil(cap);
      if (cap > static_cast<int64_t>(ends.size())) {
        ASSERT_EQ(until, -1) << "block " << b;
        continue;
      }
      // The cap-th newest block's end: full just before it, not from it on.
      ASSERT_GE(buffered(until - 1), cap) << "block " << b << " cap " << cap;
      ASSERT_LT(buffered(until), cap) << "block " << b << " cap " << cap;
    }
  }
  EXPECT_EQ(consumer.blocks_ready(), kBlocks);
  EXPECT_EQ(consumer.violations(), violations);
  EXPECT_GT(violations, 100);
  EXPECT_EQ(consumer.max_buffered_blocks(), max_buffered);
  EXPECT_GT(max_buffered, kBuffers);
  EXPECT_EQ(consumer.playback_end(), ends.back());
}

TEST(CaptureProducerTest, CaptureEndsAreSpaced) {
  CaptureProducer producer(100'000, 50'000, 2);
  EXPECT_EQ(producer.CaptureEnd(0), 150'000);
  EXPECT_EQ(producer.CaptureEnd(3), 450'000);
}

TEST(CaptureProducerTest, TimelyWritesNeverOverflow) {
  CaptureProducer producer(100'000, 0, 2);
  for (int i = 0; i < 10; ++i) {
    // Each block written 10 ms after its capture completes.
    EXPECT_TRUE(producer.BlockWritten(producer.CaptureEnd(i) + 10'000));
  }
  EXPECT_EQ(producer.overflows(), 0);
}

TEST(CaptureProducerTest, SlowWritesOverflowBoundedBuffers) {
  CaptureProducer producer(100'000, 0, 2);
  // Block 0 captured at 100 ms but written only at 350 ms; meanwhile
  // block 2's capture (starting at 200 ms) found both buffers occupied.
  EXPECT_FALSE(producer.BlockWritten(350'000));
  EXPECT_EQ(producer.overflows(), 1);
}

TEST(CaptureProducerTest, LargerPoolAbsorbsTheSameDelay) {
  CaptureProducer producer(100'000, 0, 4);
  EXPECT_TRUE(producer.BlockWritten(350'000));
  EXPECT_EQ(producer.overflows(), 0);
}

}  // namespace
}  // namespace vafs
