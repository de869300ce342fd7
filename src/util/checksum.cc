#include "src/util/checksum.h"

#include <array>

namespace vafs {

namespace {

// Reflected ECMA-182 polynomial.
constexpr uint64_t kPoly = 0xC96C'5795'D787'0F42ULL;

std::array<uint64_t, 256> BuildTable() {
  std::array<uint64_t, 256> table{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[static_cast<size_t>(i)] = crc;
  }
  return table;
}

const std::array<uint64_t, 256>& Table() {
  static const std::array<uint64_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint64_t Crc64Update(uint64_t state, std::span<const uint8_t> bytes) {
  const std::array<uint64_t, 256>& table = Table();
  for (uint8_t byte : bytes) {
    state = table[(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint64_t Crc64(std::span<const uint8_t> bytes) {
  return Crc64Finish(Crc64Update(kCrc64Init, bytes));
}

}  // namespace vafs
