// Unit helpers for data sizes and rates.
//
// The paper's model mixes bits (frame sizes, transfer rates) and disk
// sectors (storage units). All vaFS interfaces carry explicit unit names in
// identifiers; these helpers keep conversion sites readable.

#ifndef VAFS_SRC_UTIL_UNITS_H_
#define VAFS_SRC_UTIL_UNITS_H_

#include <cstdint>

namespace vafs {

inline constexpr int64_t kBitsPerByte = 8;

inline constexpr int64_t KiB(int64_t n) { return n * 1024; }
inline constexpr int64_t MiB(int64_t n) { return n * 1024 * 1024; }

inline constexpr int64_t BytesToBits(int64_t bytes) { return bytes * kBitsPerByte; }

// Rounds bits up to whole bytes.
inline constexpr int64_t BitsToBytesCeil(int64_t bits) {
  return (bits + kBitsPerByte - 1) / kBitsPerByte;
}

// Integer ceiling division for non-negative operands.
inline constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace vafs

#endif  // VAFS_SRC_UTIL_UNITS_H_
