#include "src/msm/block_cache.h"

#include <algorithm>
#include <cassert>

namespace vafs {

std::vector<uint8_t>* PagePool::Acquire(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t want = static_cast<size_t>(bytes);
  for (size_t i = 0; i < free_.size(); ++i) {
    if (free_[i]->capacity() >= want) {
      std::unique_ptr<std::vector<uint8_t>> page = std::move(free_[i]);
      free_.erase(free_.begin() + static_cast<ptrdiff_t>(i));
      page->assign(want, 0);
      std::vector<uint8_t>* raw = page.get();
      live_.emplace(raw, std::move(page));
      ++recycled_;
      return raw;
    }
  }
  auto page = std::make_unique<std::vector<uint8_t>>(want, 0);
  std::vector<uint8_t>* raw = page.get();
  live_.emplace(raw, std::move(page));
  ++created_;
  return raw;
}

void PagePool::Release(std::vector<uint8_t>* page) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(page);
  if (it == live_.end()) {
    assert(false && "released a page the pool does not own");
    return;
  }
  free_.push_back(std::move(it->second));
  live_.erase(it);
}

BlockCache::BlockCache(BlockCacheOptions options) : options_(options) {}

bool BlockCache::Lookup(int64_t sector, int64_t sectors) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (window_lookups_ >= std::max<int64_t>(options_.hit_window, 2)) {
    // Exponential decay: old rounds fade so a sharing collapse shows up
    // within one window instead of being averaged away.
    window_lookups_ /= 2;
    window_hits_ /= 2;
  }
  ++window_lookups_;
  auto it = entries_.find(sector);
  if (it == entries_.end() || it->second.sectors != sectors) {
    ++stats_.misses;
    return false;
  }
  Touch(&it->second, it->second.biased);
  ++stats_.hits;
  ++window_hits_;
  return true;
}

bool BlockCache::Contains(int64_t sector, int64_t sectors) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(sector);
  return it != entries_.end() && it->second.sectors == sectors;
}

void BlockCache::Touch(Entry* entry, bool biased) {
  const EvictionKey old_key = entry->key();
  entry->biased = biased;
  entry->stamp = ++clock_;
  if (entry->pins == 0) {
    auto node = evictable_.extract(old_key);
    node.key() = entry->key();
    evictable_.insert(std::move(node));
  }
}

void BlockCache::Evict(EntryMap::iterator it) {
  stats_.resident_bytes -= it->second.bytes;
  --stats_.resident_entries;
  if (it->second.pins == 0) {
    evictable_.erase(it->second.key());
  }
  entries_.erase(it);
}

bool BlockCache::MakeRoom(int64_t bytes) {
  // The index puts plain entries first and interval-biased ones after them
  // — a biased entry's next hit is another stream's scheduled read, the
  // most valuable bytes in the cache — and holds no pinned entry at all.
  while (stats_.resident_bytes + bytes > options_.capacity_bytes) {
    if (evictable_.empty()) {
      return false;
    }
    Evict(evictable_.begin()->second);
    ++stats_.evictions;
  }
  return true;
}

void BlockCache::Insert(int64_t sector, int64_t sectors, int64_t bytes, bool interval_biased) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled() || bytes > options_.capacity_bytes) {
    return;
  }
  auto existing = entries_.find(sector);
  if (existing != entries_.end()) {
    // Re-read of a resident extent: refresh recency and bias only.
    Touch(&existing->second, existing->second.biased || interval_biased);
    return;
  }
  if (!MakeRoom(bytes)) {
    return;  // everything resident is pinned; drop the insert
  }
  Entry entry;
  entry.sector = sector;
  entry.sectors = sectors;
  entry.bytes = bytes;
  entry.biased = interval_biased;
  entry.stamp = ++clock_;
  const EntryMap::iterator it = entries_.emplace(sector, entry).first;
  evictable_.emplace(entry.key(), it);
  stats_.resident_bytes += bytes;
  ++stats_.resident_entries;
  ++stats_.insertions;
}

bool BlockCache::Pin(int64_t sector, int64_t sectors) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(sector);
  if (it == entries_.end() || it->second.sectors != sectors) {
    return false;
  }
  if (it->second.pins == 0) {
    ++stats_.pinned_entries;
    evictable_.erase(it->second.key());
  }
  ++it->second.pins;
  return true;
}

void BlockCache::Unpin(int64_t sector, int64_t sectors) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(sector);
  if (it == entries_.end() || it->second.sectors != sectors || it->second.pins == 0) {
    return;
  }
  if (--it->second.pins == 0) {
    --stats_.pinned_entries;
    // Back under the old stamp: the pin did not change the entry's recency.
    evictable_.emplace(it->second.key(), it);
  }
}

int64_t BlockCache::InvalidateRange(int64_t sector, int64_t sectors) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t end = sector + sectors;
  const int64_t resident_before = stats_.resident_entries;
  int64_t dropped = 0;
  // Entries are keyed by start sector; one starting before `sector` can
  // still overlap, so back up one position before scanning forward.
  auto it = entries_.lower_bound(sector);
  if (it != entries_.begin()) {
    --it;
  }
  while (it != entries_.end() && it->first < end) {
    if (it->first + it->second.sectors > sector) {
      if (it->second.pins > 0) {
        --stats_.pinned_entries;  // invalidation outranks pinning
      }
      Evict(it++);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidated_entries += dropped;
  if (dropped > 0 && resident_before > 0) {
    // The window's hits were earned against entries that may just have
    // vanished: scale them down by the surviving fraction so the rate
    // reflects what is still resident instead of a stale storm-ago view.
    window_hits_ = (window_hits_ * stats_.resident_entries) / resident_before;
  }
  return dropped;
}

void BlockCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.invalidated_entries += stats_.resident_entries;
  stats_.resident_bytes = 0;
  stats_.resident_entries = 0;
  stats_.pinned_entries = 0;
  entries_.clear();
  evictable_.clear();
  // Nothing the window measured survives; the rate restarts from zero.
  window_hits_ = 0;
  window_lookups_ = 0;
}

double BlockCache::RecentHitRate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (window_lookups_ == 0) {
    return 0.0;
  }
  return static_cast<double>(window_hits_) / static_cast<double>(window_lookups_);
}

}  // namespace vafs
