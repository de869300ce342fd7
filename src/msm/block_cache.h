// Shared block cache for the round I/O planner.
//
// Concurrent viewers of one strand read the same physical blocks; the
// paper's admission math charges every viewer a full disk transfer, but a
// block already resident in memory costs no mechanism at all. The cache
// sits between the service scheduler and the disk, keyed by physical
// extent (start sector + length): the planner probes it while building a
// round's transfer list and every block that hits is served from memory,
// shrinking the round and freeing Eq. 11 slack.
//
// Replacement is LRU with an interval-caching bias (PAPERS.md, scalable
// VoD): an entry some *other* active stream will need soon — the interval
// between a leading and a trailing viewer of the same strand — is evicted
// last, because its next hit is scheduled, not speculative. Read-ahead
// pages fetched during a stream's anti-jitter prelude can be pinned so
// eviction cannot undo the startup guarantee before playback begins.
//
// Victims come off an ordered eviction index that holds only the unpinned
// entries, keyed by (biased, last-touch stamp): its front is the least
// recently touched plain entry, and biased entries follow every plain one,
// again oldest first. A pin takes the entry out of the index and the last
// unpin puts it back under its old stamp, so pinning never changes
// recency. A touch (hit or refresh) re-keys one entry and each victim is
// one pop, O(log n) each; eviction never visits an entry it will not take.
//
// Coherence: the cache indexes platter contents, so every path that
// rewrites sectors must invalidate — StrandWriter appends (including
// scattering repair and relocation, which write through fresh writers onto
// possibly reused extents), strand deletion (the freed extents will be
// reallocated), and recovery (the in-memory image is rebuilt from disk).
//
// The embedded PagePool recycles payload-sized scratch buffers so the
// per-round service loop never allocates per block.

#ifndef VAFS_SRC_MSM_BLOCK_CACHE_H_
#define VAFS_SRC_MSM_BLOCK_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vafs {

// Recycles payload buffers between rounds. Acquired pages are zero-filled
// (the simulated capture path records zero payloads), sized to whole
// blocks, and returned to the pool on release instead of freed. A pool
// belongs to one node and is used only by that node's epoch task
// (DESIGN.md section 12), one task at a time; Acquire and Release still
// lock, so the counters below may be read from another thread. The
// buffers handed out are exclusively the caller's until released.
class PagePool {
 public:
  // A zeroed buffer of exactly `bytes` bytes. Reuses a pooled page when
  // one of sufficient capacity exists.
  std::vector<uint8_t>* Acquire(int64_t bytes);
  void Release(std::vector<uint8_t>* page);

  int64_t pages_pooled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(free_.size());
  }
  // Pages handed out and not yet released: a non-zero steady state between
  // rounds is a leak (surfaces in telemetry as page_pool.outstanding).
  int64_t pages_outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(live_.size());
  }
  // Lifetime counters: fresh heap allocations vs. recycled acquisitions.
  int64_t pages_created() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return created_;
  }
  int64_t pages_recycled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return recycled_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> free_;
  // Keyed by buffer address so Release is O(1) even with thousands of
  // pages in flight during a scale round.
  std::unordered_map<std::vector<uint8_t>*, std::unique_ptr<std::vector<uint8_t>>> live_;
  int64_t created_ = 0;
  int64_t recycled_ = 0;
};

struct BlockCacheOptions {
  // Total bytes of block payload the cache may hold; 0 disables caching
  // (lookups always miss, inserts are dropped).
  int64_t capacity_bytes = 0;
  // Window of the recent-hit-rate estimate, in lookups. The estimate
  // decays exponentially at this granularity so a collapse (the sharing
  // stream stopped) surfaces within one window.
  int64_t hit_window = 256;
};

struct BlockCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t invalidated_entries = 0;
  int64_t resident_bytes = 0;
  int64_t resident_entries = 0;
  int64_t pinned_entries = 0;
};

// Thread-safety: each node owns its cache, and only that node's epoch
// task (DESIGN.md section 12) probes and mutates it, one task at a time.
// Every probing or mutating method still takes an internal mutex. stats()
// returns a reference into the guarded state: read it from the node's
// own task, or from the coordinator between epochs (after the pool's join
// barrier), which is where the scheduler and exporters sample it.
class BlockCache {
 public:
  explicit BlockCache(BlockCacheOptions options);

  bool enabled() const { return options_.capacity_bytes > 0; }

  // Probes for the exact extent, counting a hit or miss and refreshing
  // recency on hit.
  bool Lookup(int64_t sector, int64_t sectors);

  // Probe without touching stats or recency (admission-time coverage
  // estimates must not distort the measured hit rate).
  bool Contains(int64_t sector, int64_t sectors) const;

  // Registers an extent just read from disk. `interval_biased` marks it as
  // scheduled for another active stream (evicted last). Entries larger
  // than the whole cache are dropped.
  void Insert(int64_t sector, int64_t sectors, int64_t bytes, bool interval_biased);

  // Pins / unpins an extent (read-ahead pages). Pinned entries are never
  // evicted; they still invalidate. Pin counts nest. Pin returns false when
  // the extent is not resident (e.g. the insert was dropped because
  // everything else was pinned) — callers must only record a pin they
  // actually took, or a later Unpin releases somebody else's pin.
  bool Pin(int64_t sector, int64_t sectors);
  void Unpin(int64_t sector, int64_t sectors);

  // Drops every entry overlapping [sector, sector + sectors): the platter
  // contents changed under the cache. Both also decay the recent-hit-rate
  // window in proportion to what was dropped — the evidence behind those
  // hits is gone, and cache-aware admission must not admit on it.
  int64_t InvalidateRange(int64_t sector, int64_t sectors);
  void InvalidateAll();

  // Recent hit rate in [0, 1] over the configured window; 0 before any
  // lookup lands, and reset by invalidation storms (see above).
  double RecentHitRate() const;

  const BlockCacheStats& stats() const { return stats_; }
  PagePool& page_pool() { return pool_; }

 private:
  // (biased, last-touch stamp): plain entries sort before biased ones,
  // each class oldest first. Stamps are unique, so a key names one entry.
  using EvictionKey = std::pair<bool, uint64_t>;

  struct Entry {
    int64_t sector = 0;
    int64_t sectors = 0;
    int64_t bytes = 0;
    int64_t pins = 0;
    bool biased = false;
    uint64_t stamp = 0;  // last touch; kept while pinned
    EvictionKey key() const { return {biased, stamp}; }
  };
  using EntryMap = std::map<int64_t, Entry>;  // by start sector

  // All three run under mutex_ (called from the locked public methods only).
  // Gives the entry a fresh stamp and the given bias, re-keying it in the
  // eviction index when it is unpinned.
  void Touch(Entry* entry, bool biased);
  void Evict(EntryMap::iterator it);
  // Frees space until `bytes` more fit, popping victims off the eviction
  // index. Returns false when pinned entries make that impossible.
  bool MakeRoom(int64_t bytes);

  mutable std::mutex mutex_;
  BlockCacheOptions options_;
  BlockCacheStats stats_;
  EntryMap entries_;
  std::map<EvictionKey, EntryMap::iterator> evictable_;  // unpinned only; front = next victim
  uint64_t clock_ = 0;                                    // last stamp handed out
  int64_t window_lookups_ = 0;
  int64_t window_hits_ = 0;
  PagePool pool_;
};

}  // namespace vafs

#endif  // VAFS_SRC_MSM_BLOCK_CACHE_H_
