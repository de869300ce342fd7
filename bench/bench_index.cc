// Figures 5-6: the 3-level strand index (HB -> SB -> PB -> MB).
//
// Reports the structural size of the index (primary/secondary block
// counts, on-disk bytes) as strands grow from seconds to hours, and the
// simulated cost of a cold random lookup (3 index-block reads) vs the
// payoff: direct random access into arbitrarily large strands.

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "bench/bench_support.h"
#include "src/layout/strand_index.h"
#include "src/msm/strand_store.h"
#include "src/util/prng.h"

namespace vafs {
namespace {

void PrintStructureTable() {
  PrintHeader("Figures 5-6", "index structure vs strand length (UVC video, q = 4)");
  const MediaProfile video = UvcCompressedVideo();
  const int64_t q = 4;
  const IndexFanout fanout;
  std::printf("%10s %10s %8s %8s %14s\n", "length", "blocks", "PBs", "SBs", "index bytes");
  for (double minutes : {0.5, 5.0, 30.0, 60.0, 240.0}) {
    const int64_t blocks =
        static_cast<int64_t>(minutes * 60.0 * video.units_per_sec) / q;
    StrandIndex index(fanout);
    for (int64_t b = 0; b < blocks; ++b) {
      index.Append(PrimaryEntry{b * 100, 94});
    }
    const int64_t pb_bytes = blocks * 16;
    const int64_t sb_bytes = index.primary_block_count() * 32;
    const int64_t hb_bytes = 24 + index.secondary_block_count() * 16;
    std::printf("%8.1fm %10lld %8lld %8lld %14lld\n", minutes,
                static_cast<long long>(blocks),
                static_cast<long long>(index.primary_block_count()),
                static_cast<long long>(index.secondary_block_count()),
                static_cast<long long>(pb_bytes + sb_bytes + hb_bytes));
  }
  std::printf("cold random lookup: %lld index-block reads (HB -> SB -> PB)\n",
              static_cast<long long>(StrandIndex::kColdLookupHops));
}

void PrintLookupCost() {
  PrintHeader("Figure 5", "simulated random-access cost into a 30-minute strand");
  DiskOptions disk_options;
  disk_options.retain_data = false;
  Disk disk(FutureDisk(), disk_options);
  StrandStore store(&disk);
  const MediaProfile video = UvcCompressedVideo();
  ContinuityModel model(StorageTimings::FromDiskModel(disk.model()), UvcDisplay());
  const StrandPlacement placement =
      *model.DerivePlacement(RetrievalArchitecture::kPipelined, video);
  // Write a long strand (timing-only payloads).
  Result<std::unique_ptr<StrandWriter>> writer = store.CreateStrand(video, placement);
  const int64_t blocks = static_cast<int64_t>(30 * 60 * video.units_per_sec) /
                         placement.granularity;
  const std::vector<uint8_t> payload(
      static_cast<size_t>(placement.granularity * video.bits_per_unit / 8), 0);
  for (int64_t b = 0; b < blocks; ++b) {
    (void)(*writer)->AppendBlock(payload);
  }
  const StrandId id = *(*writer)->Finish(blocks * placement.granularity);

  // Random access: index lookup is in-memory once cached; the disk pays
  // one block read. A cold lookup adds kColdLookupHops index reads, which
  // we charge at one average access each.
  Prng prng(7);
  const Strand* strand = *store.Get(id);
  SimDuration data_total = 0;
  const int probes = 200;
  for (int i = 0; i < probes; ++i) {
    const int64_t block = prng.NextInRange(0, strand->block_count() - 1);
    std::vector<uint8_t> sink;
    data_total += *store.ReadBlock(id, block, &sink);
  }
  const SimDuration cold_index_cost =
      StrandIndex::kColdLookupHops *
      (disk.model().SeekTimeForDistance(disk.model().params().cylinders / 3) +
       disk.model().AverageRotationalLatency() + disk.model().TransferTime(8));
  std::printf("%lld-block strand; %d random probes\n",
              static_cast<long long>(strand->block_count()), probes);
  std::printf("avg data-block access: %.2f ms; cold 3-hop index walk: %.2f ms\n",
              UsecToSeconds(data_total / probes) * 1e3,
              UsecToSeconds(cold_index_cost) * 1e3);
}

void BM_IndexAppend(benchmark::State& state) {
  for (auto _ : state) {
    StrandIndex index;
    for (int64_t b = 0; b < state.range(0); ++b) {
      index.Append(PrimaryEntry{b, 94});
    }
    benchmark::DoNotOptimize(index.block_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexAppend)->Arg(1000)->Arg(100000);

void BM_IndexLookup(benchmark::State& state) {
  StrandIndex index;
  for (int64_t b = 0; b < 100000; ++b) {
    index.Append(PrimaryEntry{b, 94});
  }
  Prng prng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup(prng.NextInRange(0, 99999)).ok());
  }
}
BENCHMARK(BM_IndexLookup);

void BM_IndexSerialize(benchmark::State& state) {
  StrandIndex index;
  for (int64_t b = 0; b < 100000; ++b) {
    index.Append(PrimaryEntry{b, 94});
  }
  for (auto _ : state) {
    for (int64_t pb = 0; pb < index.primary_block_count(); ++pb) {
      benchmark::DoNotOptimize(index.SerializePrimaryBlock(pb).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * index.primary_block_count());
}
BENCHMARK(BM_IndexSerialize);

}  // namespace
}  // namespace vafs

int main(int argc, char** argv) {
  vafs::PrintStructureTable();
  vafs::PrintLookupCost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
