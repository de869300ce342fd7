#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <string>
#include <vector>

#include "src/msm/block_cache.h"
#include "src/msm/recorder.h"
#include "src/msm/scattering_repair.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/prng.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// --- PagePool -----------------------------------------------------------

TEST(PagePoolTest, RecyclesReleasedPages) {
  PagePool pool;
  std::vector<uint8_t>* page = pool.Acquire(1024);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->size(), 1024u);
  (*page)[0] = 0xFF;
  pool.Release(page);
  EXPECT_EQ(pool.pages_pooled(), 1);
  // The recycled page comes back zeroed at the requested size.
  std::vector<uint8_t>* again = pool.Acquire(512);
  EXPECT_EQ(pool.pages_pooled(), 0);
  EXPECT_EQ(again->size(), 512u);
  EXPECT_EQ((*again)[0], 0);
  pool.Release(again);
}

TEST(PagePoolTest, DistinctLivePagesDoNotAlias) {
  PagePool pool;
  std::vector<uint8_t>* a = pool.Acquire(256);
  std::vector<uint8_t>* b = pool.Acquire(256);
  EXPECT_NE(a, b);
  pool.Release(a);
  pool.Release(b);
  EXPECT_EQ(pool.pages_pooled(), 2);
}

// --- BlockCache unit ----------------------------------------------------

TEST(BlockCacheTest, DisabledCacheNeverHits) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 0});
  EXPECT_FALSE(cache.enabled());
  cache.Insert(0, 8, 4096, false);
  EXPECT_FALSE(cache.Lookup(0, 8));
  EXPECT_EQ(cache.stats().insertions, 0);
}

TEST(BlockCacheTest, HitMissAndExactExtentMatch) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 20});
  cache.Insert(100, 8, 4096, false);
  EXPECT_TRUE(cache.Lookup(100, 8));
  // Same start, different length: the platter extent differs, so miss.
  EXPECT_FALSE(cache.Lookup(100, 4));
  EXPECT_FALSE(cache.Lookup(200, 8));
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_TRUE(cache.Contains(100, 8));
  // Contains must not disturb the measured rate.
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 3);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedFirst) {
  // Room for exactly two 4 KB entries.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 8192});
  cache.Insert(0, 8, 4096, false);
  cache.Insert(100, 8, 4096, false);
  // Touch the older entry so the newer one becomes LRU.
  EXPECT_TRUE(cache.Lookup(0, 8));
  cache.Insert(200, 8, 4096, false);
  EXPECT_TRUE(cache.Contains(0, 8));
  EXPECT_FALSE(cache.Contains(100, 8));
  EXPECT_TRUE(cache.Contains(200, 8));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(BlockCacheTest, IntervalBiasedEntriesEvictLast) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 8192});
  cache.Insert(0, 8, 4096, /*interval_biased=*/true);  // LRU, but biased
  cache.Insert(100, 8, 4096, false);
  cache.Insert(200, 8, 4096, false);
  // The plain entry went first even though the biased one was older.
  EXPECT_TRUE(cache.Contains(0, 8));
  EXPECT_FALSE(cache.Contains(100, 8));
}

TEST(BlockCacheTest, PinnedEntriesSurviveEvictionUntilUnpinned) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 8192});
  cache.Insert(0, 8, 4096, false);
  cache.Pin(0, 8);
  EXPECT_EQ(cache.stats().pinned_entries, 1);
  cache.Insert(100, 8, 4096, false);
  cache.Insert(200, 8, 4096, false);  // would evict sector 0 by LRU
  EXPECT_TRUE(cache.Contains(0, 8));
  // Pin counts nest: one unpin of a doubly-pinned entry keeps it pinned.
  cache.Pin(0, 8);
  cache.Unpin(0, 8);
  EXPECT_EQ(cache.stats().pinned_entries, 1);
  cache.Unpin(0, 8);
  EXPECT_EQ(cache.stats().pinned_entries, 0);
  cache.Insert(300, 8, 4096, false);
  EXPECT_FALSE(cache.Contains(0, 8));  // now evictable, and LRU
}

TEST(BlockCacheTest, InsertDroppedWhenEverythingIsPinned) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 4096});
  cache.Insert(0, 8, 4096, false);
  cache.Pin(0, 8);
  cache.Insert(100, 8, 4096, false);
  EXPECT_FALSE(cache.Contains(100, 8));
  EXPECT_TRUE(cache.Contains(0, 8));
}

TEST(BlockCacheTest, OversizeInsertIsDropped) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 4096});
  cache.Insert(0, 64, 8192, false);
  EXPECT_FALSE(cache.Contains(0, 64));
  EXPECT_EQ(cache.stats().resident_bytes, 0);
}

TEST(BlockCacheTest, InvalidateRangeDropsOverlappingEntries) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 20});
  cache.Insert(0, 8, 4096, false);    // [0, 8) — overlaps from the left
  cache.Insert(10, 8, 4096, false);   // [10, 18) — inside
  cache.Insert(20, 8, 4096, false);   // [20, 28) — overlaps the tail
  cache.Insert(40, 8, 4096, false);   // [40, 48) — untouched
  cache.Pin(10, 8);                   // invalidation outranks pinning
  const int64_t dropped = cache.InvalidateRange(4, 20);  // [4, 24)
  EXPECT_EQ(dropped, 3);
  EXPECT_FALSE(cache.Contains(0, 8));
  EXPECT_FALSE(cache.Contains(10, 8));
  EXPECT_FALSE(cache.Contains(20, 8));
  EXPECT_TRUE(cache.Contains(40, 8));
  EXPECT_EQ(cache.stats().pinned_entries, 0);
  EXPECT_EQ(cache.stats().invalidated_entries, 3);
}

TEST(BlockCacheTest, InvalidateAllEmptiesTheCache) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 20});
  cache.Insert(0, 8, 4096, false);
  cache.Insert(100, 8, 4096, true);
  cache.Pin(0, 8);
  cache.InvalidateAll();
  EXPECT_EQ(cache.stats().resident_entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().pinned_entries, 0);
  EXPECT_EQ(cache.stats().invalidated_entries, 2);
  EXPECT_FALSE(cache.Contains(0, 8));
}

TEST(BlockCacheTest, RecentHitRateTracksTheWindow) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 20, .hit_window = 8});
  EXPECT_DOUBLE_EQ(cache.RecentHitRate(), 0.0);
  cache.Insert(0, 8, 4096, false);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(cache.Lookup(0, 8));
  }
  EXPECT_DOUBLE_EQ(cache.RecentHitRate(), 1.0);
  // A run of misses (the sharing stream went away) must drag the estimate
  // down within roughly one window, not be averaged into history forever.
  for (int i = 0; i < 16; ++i) {
    cache.Lookup(999, 8);
  }
  EXPECT_LT(cache.RecentHitRate(), 0.5);
}

TEST(BlockCacheTest, InvalidationDecaysTheHitWindow) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 20, .hit_window = 64});
  for (int i = 0; i < 8; ++i) {
    cache.Insert(i * 10, 8, 4096, false);
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(cache.Lookup(i * 10, 8));
    }
  }
  EXPECT_DOUBLE_EQ(cache.RecentHitRate(), 1.0);
  // Half the entries vanish under an invalidation: the evidence behind
  // those hits is gone, so the estimate must decay in proportion instead
  // of reporting a perfect window built on departed extents.
  cache.InvalidateRange(0, 38);  // drops sectors 0, 10, 20, 30
  EXPECT_LE(cache.RecentHitRate(), 0.5 + 1e-9);
  EXPECT_GT(cache.RecentHitRate(), 0.0);
  // A storm that empties the cache resets the window outright: the next
  // admission decision starts from zero evidence, not stale history.
  cache.InvalidateAll();
  EXPECT_DOUBLE_EQ(cache.RecentHitRate(), 0.0);
}

TEST(BlockCacheTest, PinFailsWhenExtentIsNotResident) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 4096});
  cache.Insert(0, 8, 4096, false);
  EXPECT_TRUE(cache.Pin(0, 8));
  // The insert is dropped (everything resident is pinned), so the pin
  // must report failure instead of silently doing nothing...
  cache.Insert(100, 8, 4096, false);
  EXPECT_FALSE(cache.Pin(100, 8));
  // ...and a length mismatch is not the pinned extent either.
  EXPECT_FALSE(cache.Pin(0, 4));
  // Unpinning the failed extent must not release the real pin.
  cache.Unpin(100, 8);
  EXPECT_EQ(cache.stats().pinned_entries, 1);
}

TEST(BlockCacheTest, UnpinnedEntryKeepsItsRecency) {
  // Room for exactly three 4 KB entries.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 3 * 4096});
  cache.Insert(0, 8, 4096, false);
  ASSERT_TRUE(cache.Pin(0, 8));
  cache.Insert(100, 8, 4096, false);
  cache.Insert(200, 8, 4096, false);
  cache.Unpin(0, 8);
  // The pin hid sector 0 from eviction without making it recent: it is
  // still the least recently used entry, so it is the one victim.
  cache.Insert(300, 8, 4096, false);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.Contains(0, 8));
  EXPECT_TRUE(cache.Contains(100, 8));
  EXPECT_TRUE(cache.Contains(200, 8));
  EXPECT_TRUE(cache.Contains(300, 8));
}

TEST(BlockCacheTest, BiasedRefreshOutlivesNewerPlainEntries) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 8192});
  cache.Insert(0, 8, 4096, false);
  // A re-read that learns another stream is scheduled to read this extent
  // moves it into the biased class...
  cache.Insert(0, 8, 4096, /*interval_biased=*/true);
  cache.Insert(100, 8, 4096, false);
  // ...so the newer plain entry goes first, although sector 0 is older.
  cache.Insert(200, 8, 4096, false);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.Contains(0, 8));
  EXPECT_FALSE(cache.Contains(100, 8));
  EXPECT_TRUE(cache.Contains(200, 8));
}

// --- Differential check against the list walk ---------------------------

// The replacement policy spelled out the slow way: one LRU list, and a
// victim scan that walks it twice — plain entries on the first pass,
// interval-biased ones only on the second, pinned ones never. BlockCache
// must agree with it after every operation.
class ListWalkCache {
 public:
  explicit ListWalkCache(BlockCacheOptions options) : options_(options) {}

  bool Lookup(int64_t sector, int64_t sectors) {
    if (window_lookups_ >= std::max<int64_t>(options_.hit_window, 2)) {
      window_lookups_ /= 2;
      window_hits_ /= 2;
    }
    ++window_lookups_;
    auto it = Find(sector);
    if (it == lru_.end() || it->sectors != sectors) {
      ++stats_.misses;
      return false;
    }
    lru_.splice(lru_.end(), lru_, it);
    ++stats_.hits;
    ++window_hits_;
    return true;
  }

  void Insert(int64_t sector, int64_t sectors, int64_t bytes, bool interval_biased) {
    if (bytes > options_.capacity_bytes) {
      return;
    }
    if (auto it = Find(sector); it != lru_.end()) {
      it->biased = it->biased || interval_biased;
      lru_.splice(lru_.end(), lru_, it);
      return;
    }
    for (const bool allow_biased : {false, true}) {
      for (auto it = lru_.begin();
           it != lru_.end() && stats_.resident_bytes + bytes > options_.capacity_bytes;) {
        if (it->pins > 0 || (it->biased && !allow_biased)) {
          ++it;
          continue;
        }
        stats_.resident_bytes -= it->bytes;
        --stats_.resident_entries;
        ++stats_.evictions;
        it = lru_.erase(it);
      }
    }
    if (stats_.resident_bytes + bytes > options_.capacity_bytes) {
      return;
    }
    lru_.push_back(Entry{sector, sectors, bytes, 0, interval_biased});
    stats_.resident_bytes += bytes;
    ++stats_.resident_entries;
    ++stats_.insertions;
  }

  bool Pin(int64_t sector, int64_t sectors) {
    auto it = Find(sector);
    if (it == lru_.end() || it->sectors != sectors) {
      return false;
    }
    if (it->pins++ == 0) {
      ++stats_.pinned_entries;
    }
    return true;
  }

  void Unpin(int64_t sector, int64_t sectors) {
    auto it = Find(sector);
    if (it != lru_.end() && it->sectors == sectors && it->pins > 0 && --it->pins == 0) {
      --stats_.pinned_entries;
    }
  }

  int64_t InvalidateRange(int64_t sector, int64_t sectors) {
    const int64_t resident_before = stats_.resident_entries;
    int64_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->sector < sector + sectors && it->sector + it->sectors > sector) {
        stats_.pinned_entries -= it->pins > 0 ? 1 : 0;
        stats_.resident_bytes -= it->bytes;
        --stats_.resident_entries;
        it = lru_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    stats_.invalidated_entries += dropped;
    if (dropped > 0 && resident_before > 0) {
      window_hits_ = (window_hits_ * stats_.resident_entries) / resident_before;
    }
    return dropped;
  }

  void InvalidateAll() {
    stats_.invalidated_entries += stats_.resident_entries;
    stats_.resident_bytes = 0;
    stats_.resident_entries = 0;
    stats_.pinned_entries = 0;
    lru_.clear();
    window_hits_ = 0;
    window_lookups_ = 0;
  }

  bool Contains(int64_t sector, int64_t sectors) {
    auto it = Find(sector);
    return it != lru_.end() && it->sectors == sectors;
  }

  double RecentHitRate() const {
    return window_lookups_ == 0 ? 0.0
                                : static_cast<double>(window_hits_) /
                                      static_cast<double>(window_lookups_);
  }

  const BlockCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    int64_t sector;
    int64_t sectors;
    int64_t bytes;
    int64_t pins;
    bool biased;
  };

  std::list<Entry>::iterator Find(int64_t sector) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [sector](const Entry& entry) { return entry.sector == sector; });
  }

  BlockCacheOptions options_;
  BlockCacheStats stats_;
  std::list<Entry> lru_;  // front = least recently used
  int64_t window_lookups_ = 0;
  int64_t window_hits_ = 0;
};

TEST(BlockCacheTest, EvictionMatchesTheListWalkOnRandomSequences) {
  // Extents sit on an 8-sector grid (never overlapping), and a probe may
  // name the short 4-sector extent at the same start to exercise length
  // mismatches. Four 4 KB entries fill the cache, so evictions are frequent.
  constexpr int64_t kSlots = 12;
  const BlockCacheOptions options{.capacity_bytes = 4 * 4096, .hit_window = 16};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Prng prng(seed);
    BlockCache cache(options);
    ListWalkCache model(options);
    for (int op = 0; op < 400; ++op) {
      static constexpr int64_t kBytes[] = {1024, 2048, 4096, 4096, 6144, 20000};
      const int64_t sector = 8 * prng.NextInRange(0, kSlots - 1);
      const int64_t sectors = prng.NextBelow(8) == 0 ? 4 : 8;
      const int64_t bytes = kBytes[prng.NextBelow(std::size(kBytes))];
      const int64_t span = 8 * prng.NextInRange(1, 3) - 6;
      // < 15 biased insert, < 45 plain insert, < 70 lookup, < 82 pin,
      // < 94 unpin, < 99 range invalidation, else invalidate all.
      const uint64_t roll = prng.NextBelow(100);
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " + std::to_string(op) + " roll " +
                   std::to_string(roll) + " extent " + std::to_string(sector) + "+" +
                   std::to_string(sectors));
      if (roll < 45) {
        cache.Insert(sector, sectors, bytes, /*interval_biased=*/roll < 15);
        model.Insert(sector, sectors, bytes, /*interval_biased=*/roll < 15);
      } else if (roll < 70) {
        ASSERT_EQ(cache.Lookup(sector, sectors), model.Lookup(sector, sectors));
      } else if (roll < 82) {
        ASSERT_EQ(cache.Pin(sector, sectors), model.Pin(sector, sectors));
      } else if (roll < 94) {
        cache.Unpin(sector, sectors);
        model.Unpin(sector, sectors);
      } else if (roll < 99) {
        ASSERT_EQ(cache.InvalidateRange(sector + 3, span), model.InvalidateRange(sector + 3, span));
      } else {
        cache.InvalidateAll();
        model.InvalidateAll();
      }
      for (int64_t slot = 0; slot < kSlots; ++slot) {
        for (const int64_t length : {4, 8}) {
          ASSERT_EQ(cache.Contains(8 * slot, length), model.Contains(8 * slot, length))
              << "extent " << 8 * slot << "+" << length;
        }
      }
      const BlockCacheStats& got = cache.stats();
      const BlockCacheStats& want = model.stats();
      ASSERT_EQ(got.hits, want.hits);
      ASSERT_EQ(got.misses, want.misses);
      ASSERT_EQ(got.insertions, want.insertions);
      ASSERT_EQ(got.evictions, want.evictions);
      ASSERT_EQ(got.invalidated_entries, want.invalidated_entries);
      ASSERT_EQ(got.resident_bytes, want.resident_bytes);
      ASSERT_EQ(got.resident_entries, want.resident_entries);
      ASSERT_EQ(got.pinned_entries, want.pinned_entries);
      ASSERT_EQ(cache.RecentHitRate(), model.RecentHitRate());
    }
  }
}

// --- Invalidation through the store (coherence) -------------------------

class CacheCoherenceTest : public ::testing::Test {
 protected:
  CacheCoherenceTest()
      : disk_(TestDiskParameters()),
        store_(&disk_),
        cache_(BlockCacheOptions{.capacity_bytes = 1 << 22}) {
    store_.set_block_cache(&cache_);
  }

  StrandPlacement VideoPlacement() {
    ContinuityModel model(TestStorage(), TestVideoDevice());
    return *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  }

  StrandId RecordStrand(double duration_sec, uint64_t seed) {
    VideoSource source(TestVideo(), seed);
    Result<RecordingResult> recorded =
        RecordVideo(&store_, &source, VideoPlacement(), duration_sec);
    EXPECT_TRUE(recorded.ok());
    return recorded->strand;
  }

  // Caches every data extent of the strand, as the planner would after a
  // full playback pass.
  void PrimeCache(StrandId id) {
    const Strand* strand = *store_.Get(id);
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      const PrimaryEntry entry = *strand->index().Lookup(b);
      if (!entry.IsSilence()) {
        cache_.Insert(entry.sector, entry.sector_count,
                      entry.sector_count * disk_.model().params().bytes_per_sector, false);
      }
    }
  }

  // Blankets the disk with fixed-size cached chunks, as if all this space
  // had been read while earlier strands lived there. Any later write must
  // punch holes in this coverage.
  static constexpr int64_t kChunk = 64;
  void BlanketPrime() {
    const int64_t total = disk_.model().params().TotalSectors();
    for (int64_t s = 0; s + kChunk <= total; s += kChunk) {
      cache_.Insert(s, kChunk, 512, false);
    }
  }

  // Asserts no stale blanket chunk survives over any data extent of the
  // strand; returns how many chunks were checked.
  int64_t ExpectExtentsUncached(StrandId id) {
    const Strand* strand = *store_.Get(id);
    int64_t checked = 0;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      const PrimaryEntry entry = *strand->index().Lookup(b);
      if (entry.IsSilence()) {
        continue;
      }
      for (int64_t s = (entry.sector / kChunk) * kChunk;
           s < entry.sector + entry.sector_count; s += kChunk) {
        EXPECT_FALSE(cache_.Contains(s, kChunk)) << "stale chunk at sector " << s;
        ++checked;
      }
    }
    return checked;
  }

  // Records a strand whose blocks all sit near `cylinder` (tight window),
  // to force a seam repair between distant strands.
  StrandId StrandNearCylinder(int64_t cylinder, int64_t blocks, double max_scattering_sec) {
    const StrandPlacement placement{2, 0.0, max_scattering_sec};
    Result<std::unique_ptr<StrandWriter>> writer = store_.CreateStrand(TestVideo(), placement);
    EXPECT_TRUE(writer.ok());
    const int64_t per_cylinder = disk_.model().params().SectorsPerCylinder();
    EXPECT_TRUE((*writer)->SetAnchor(cylinder * per_cylinder + 1).ok());
    const int64_t block_bytes = 2 * 16384 / 8;
    for (int64_t b = 0; b < blocks; ++b) {
      EXPECT_TRUE((*writer)->AppendBlock(std::vector<uint8_t>(block_bytes, 1)).ok());
    }
    Result<StrandId> id = (*writer)->Finish(blocks * 2);
    EXPECT_TRUE(id.ok());
    return *id;
  }

  Disk disk_;
  StrandStore store_;
  BlockCache cache_;
};

TEST_F(CacheCoherenceTest, RelocateBlocksInvalidatesRewrittenExtents) {
  const StrandId id = RecordStrand(2.0, 7);
  BlanketPrime();
  Result<BlockRelocationOutcome> outcome = RelocateBlocks(&store_, id, 1, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->blocks_copied, 2);
  // The copy strand wrote fresh extents; the stale coverage over every one
  // of them must be gone, while the untouched blanket stays resident.
  EXPECT_GT(ExpectExtentsUncached(outcome->copy_strand), 0);
  EXPECT_GT(cache_.stats().invalidated_entries, 0);
  EXPECT_GT(cache_.stats().resident_entries, 0);
}

TEST_F(CacheCoherenceTest, RepairSeamInvalidatesCopiedBlocks) {
  // Distant strands under a tight bound: the seam repair must copy.
  const double bound = 0.020;
  const StrandId a = StrandNearCylinder(5, 5, bound);
  const StrandId b = StrandNearCylinder(190, 40, bound);
  BlanketPrime();
  Result<RepairOutcome> outcome = RepairSeam(&store_, a, 4, b, 0, 40);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->already_continuous);
  ASSERT_GT(outcome->blocks_copied, 0);
  // Every copied block punched its stale coverage out of the cache.
  EXPECT_GT(ExpectExtentsUncached(outcome->copy_strand), 0);
  EXPECT_GT(cache_.stats().invalidated_entries, 0);
}

TEST_F(CacheCoherenceTest, DeleteInvalidatesTheStrandExtents) {
  const StrandId id = RecordStrand(2.0, 17);
  PrimeCache(id);
  const int64_t resident_before = cache_.stats().resident_entries;
  ASSERT_GT(resident_before, 0);
  ASSERT_TRUE(store_.Delete(id).ok());
  EXPECT_EQ(cache_.stats().resident_entries, 0);
  EXPECT_EQ(cache_.stats().invalidated_entries, resident_before);
}

TEST_F(CacheCoherenceTest, DeleteResetsTheRecentHitRate) {
  const StrandId id = RecordStrand(2.0, 21);
  PrimeCache(id);
  const Strand* strand = *store_.Get(id);
  for (int64_t b = 0; b < strand->block_count(); ++b) {
    const PrimaryEntry entry = *strand->index().Lookup(b);
    if (!entry.IsSilence()) {
      EXPECT_TRUE(cache_.Lookup(entry.sector, entry.sector_count));
    }
  }
  EXPECT_DOUBLE_EQ(cache_.RecentHitRate(), 1.0);
  // Deleting the strand drops every entry behind that perfect window; an
  // admission decision made on the stale rate would admit against extents
  // that no longer exist.
  ASSERT_TRUE(store_.Delete(id).ok());
  EXPECT_DOUBLE_EQ(cache_.RecentHitRate(), 0.0);
}

TEST_F(CacheCoherenceTest, RelocationDecaysTheRecentHitRate) {
  const StrandId id = RecordStrand(2.0, 29);
  BlanketPrime();
  // A perfect window measured over blanket chunks...
  for (int64_t s = 0; s + kChunk <= 64 * kChunk; s += kChunk) {
    EXPECT_TRUE(cache_.Lookup(s, kChunk));
  }
  EXPECT_DOUBLE_EQ(cache_.RecentHitRate(), 1.0);
  // ...must lose weight when relocation rewrites sectors under the cache,
  // even though most of the blanket survives.
  Result<BlockRelocationOutcome> outcome = RelocateBlocks(&store_, id, 1, 2);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GT(cache_.stats().invalidated_entries, 0);
  EXPECT_LT(cache_.RecentHitRate(), 1.0);
}

// --- Shared-strand playback: no block is read twice ---------------------

class SharedStrandTest : public ::testing::Test {
 protected:
  SharedStrandTest() : disk_(TestDiskParameters()), store_(&disk_) {
    tee_.Add(&log_);
    tee_.Add(&auditor_);
  }

  void TearDown() override { EXPECT_TRUE(auditor_.Clean()) << auditor_.Report(); }

  StrandPlacement VideoPlacement() {
    ContinuityModel model(TestStorage(), TestVideoDevice());
    return *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  }

  PlaybackRequest MakePlayback(StrandId id) {
    const Strand* strand = *store_.Get(id);
    PlaybackRequest request;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      request.blocks.push_back(*strand->index().Lookup(b));
    }
    request.block_duration = strand->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), VideoPlacement().granularity};
    return request;
  }

  Disk disk_;
  StrandStore store_;
  obs::TraceLog log_;
  obs::ContinuityAuditor auditor_{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee_;
};

TEST_F(SharedStrandTest, TwoViewersOfOneStrandNeverReadABlockTwice) {
  VideoSource source(TestVideo(), 23);
  Result<RecordingResult> recorded = RecordVideo(&store_, &source, VideoPlacement(), 3.0);
  ASSERT_TRUE(recorded.ok());

  Simulator sim;
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  SchedulerOptions options;
  options.service_order = ServiceOrder::kPlanned;
  options.block_cache = &cache;
  options.trace = &tee_;
  ServiceScheduler scheduler(&store_, &sim, admission, options);

  // Capture device traffic only from here on (recording is done).
  obs::TraceLog disk_log;
  disk_.set_trace_sink(&disk_log);

  // Lockstep pair: both rounds want the same extents, dedup shares the
  // transfers.
  Result<RequestId> a = scheduler.SubmitPlayback(MakePlayback(recorded->strand));
  Result<RequestId> b = scheduler.SubmitPlayback(MakePlayback(recorded->strand));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  scheduler.RunUntilIdle();
  // Laggard viewer: every extent is already resident, so its whole run is
  // served from the cache.
  Result<RequestId> c = scheduler.SubmitPlayback(MakePlayback(recorded->strand));
  ASSERT_TRUE(c.ok());
  scheduler.RunUntilIdle();
  disk_.set_trace_sink(nullptr);

  EXPECT_EQ(scheduler.stats(*a)->continuity_violations, 0);
  EXPECT_EQ(scheduler.stats(*b)->continuity_violations, 0);
  EXPECT_EQ(scheduler.stats(*c)->continuity_violations, 0);

  // Between dedup (lockstep rounds share one transfer) and the cache
  // (laggards replay resident extents), no data sector is fetched twice.
  std::set<int64_t> seen;
  for (const obs::TraceEvent& event : disk_log.events()) {
    if (event.kind != obs::TraceEventKind::kDiskRead) {
      continue;
    }
    EXPECT_TRUE(seen.insert(event.sector).second)
        << "sector " << event.sector << " read twice";
  }
  EXPECT_FALSE(seen.empty());
  EXPECT_GT(cache.stats().hits, 0);
}

}  // namespace
}  // namespace vafs
