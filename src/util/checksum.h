// CRC-64 (ECMA-182 polynomial) for on-disk metadata integrity.
//
// The crash-consistency machinery stamps every durable metadata record —
// root sectors, catalog blobs, journal entries, strand Header Blocks —
// with a checksum, so recovery can tell a record that fully reached the
// platter from the prefix a power cut left behind. CRC-64 keeps the
// false-accept probability negligible for the record sizes involved while
// staying dependency-free and byte-order stable (records serialize
// little-endian, and the CRC is computed over those bytes).

#ifndef VAFS_SRC_UTIL_CHECKSUM_H_
#define VAFS_SRC_UTIL_CHECKSUM_H_

#include <cstdint>
#include <span>

namespace vafs {

// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout all-ones) of the
// given bytes.
uint64_t Crc64(std::span<const uint8_t> bytes);

// Incremental form: feed `bytes` into a running checksum. Start with
// kCrc64Init and finish with Crc64Finish.
inline constexpr uint64_t kCrc64Init = ~0ULL;
uint64_t Crc64Update(uint64_t state, std::span<const uint8_t> bytes);
inline uint64_t Crc64Finish(uint64_t state) { return ~state; }

}  // namespace vafs

#endif  // VAFS_SRC_UTIL_CHECKSUM_H_
