// Section 4 silence elimination: "if the average energy level over a block
// falls below a threshold, no audio data is stored for that duration",
// with NULL primary-index entries acting as delay holders.
//
// Sweeps the speech/silence mix of the synthetic source and reports the
// storage saved by elimination, the block counts, and the effect of the
// audio block size (bigger blocks -> fewer whole-block silences).

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "bench/bench_support.h"
#include "src/msm/recorder.h"

namespace vafs {
namespace {

struct SilenceRun {
  int64_t blocks = 0;
  int64_t silent_blocks = 0;
  int64_t sectors_used = 0;
};

SilenceRun Record(double silence_mean_sec, int64_t granularity, double threshold,
                  uint64_t seed) {
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(TestbedDisk(), disk_options);
  StrandStore store(&disk);
  SpeechProfile speech;
  speech.silence_mean_sec = silence_mean_sec;
  AudioSource source(TelephoneAudio(), speech, seed);
  const StrandPlacement placement{granularity, 0.0, 0.2};
  const int64_t free_before = store.allocator().free_sectors();
  RecordingResult result =
      *RecordAudio(&store, &source, SilenceDetector(threshold), placement, 60.0);
  SilenceRun run;
  run.blocks = result.blocks_total;
  run.silent_blocks = result.silence_blocks;
  run.sectors_used = free_before - store.allocator().free_sectors();
  return run;
}

void PrintSilenceTable() {
  PrintHeader("Section 4", "silence elimination savings (60 s of telephone audio)");
  std::printf("audio: %s; block = 1024 samples (128 ms)\n",
              TelephoneAudio().ToString().c_str());
  std::printf("%14s | %8s %10s %12s %10s\n", "silence mean", "blocks", "silent",
              "sectors", "saved");
  for (double silence_mean : {0.2, 0.6, 1.2, 2.5}) {
    const SilenceRun with = Record(silence_mean, 1024, 100.0, 42);
    const SilenceRun without = Record(silence_mean, 1024, 0.0, 42);
    std::printf("%12.1f s | %8lld %10lld %12lld %9.1f%%\n", silence_mean,
                static_cast<long long>(with.blocks), static_cast<long long>(with.silent_blocks),
                static_cast<long long>(with.sectors_used),
                100.0 * (1.0 - static_cast<double>(with.sectors_used) /
                                   static_cast<double>(without.sectors_used)));
  }

  std::printf("\nblock-size sensitivity (silence mean 0.6 s):\n");
  std::printf("%16s | %8s %10s %10s\n", "block", "blocks", "silent", "saved");
  for (int64_t granularity : {256, 1024, 4096, 16384}) {
    const SilenceRun with = Record(0.6, granularity, 100.0, 42);
    const SilenceRun without = Record(0.6, granularity, 0.0, 42);
    std::printf("%7lld (%4.0fms) | %8lld %10lld %9.1f%%\n",
                static_cast<long long>(granularity),
                static_cast<double>(granularity) / 8.0,
                static_cast<long long>(with.blocks),
                static_cast<long long>(with.silent_blocks),
                100.0 * (1.0 - static_cast<double>(with.sectors_used) /
                                   static_cast<double>(without.sectors_used)));
  }
  std::printf("(coarser blocks rarely go entirely silent, so elimination fades out)\n");
}

void BM_SilenceDetection(benchmark::State& state) {
  SpeechProfile speech;
  AudioSource source(TelephoneAudio(), speech, 1);
  std::vector<uint8_t> window = source.NextSamples(1024);
  SilenceDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.IsSilent(window));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SilenceDetection);

void BM_AudioGeneration(benchmark::State& state) {
  SpeechProfile speech;
  AudioSource source(TelephoneAudio(), speech, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.NextSamples(1024).size());
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AudioGeneration);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintSilenceTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
