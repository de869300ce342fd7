#include "src/util/checksum.h"

#include <array>

namespace vafs {

namespace {

// Reflected ECMA-182 polynomial.
constexpr uint64_t kPoly = 0xC96C'5795'D787'0F42ULL;

// Slicing-by-8 tables: table[0] is the bytewise table; table[s][i] is the
// CRC of byte i followed by s zero bytes, so one step folds 8 input bytes.
using Tables = std::array<std::array<uint64_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][static_cast<size_t>(i)] = crc;
  }
  for (size_t s = 1; s < tables.size(); ++s) {
    for (size_t i = 0; i < 256; ++i) {
      const uint64_t prev = tables[s - 1][i];
      tables[s][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

const Tables& CrcTables() {
  static const Tables tables = BuildTables();
  return tables;
}

// The 8 bytes at `p` as a little-endian word, whatever the host order.
uint64_t LoadLittleEndian64(const uint8_t* p) {
  uint64_t word = 0;
  for (size_t b = 0; b < 8; ++b) {
    word |= static_cast<uint64_t>(p[b]) << (8 * b);
  }
  return word;
}

}  // namespace

uint64_t Crc64Update(uint64_t state, std::span<const uint8_t> bytes) {
  const Tables& t = CrcTables();
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  for (; left >= 8; p += 8, left -= 8) {
    const uint64_t x = state ^ LoadLittleEndian64(p);
    state = t[7][x & 0xFF] ^ t[6][(x >> 8) & 0xFF] ^ t[5][(x >> 16) & 0xFF] ^
            t[4][(x >> 24) & 0xFF] ^ t[3][(x >> 32) & 0xFF] ^ t[2][(x >> 40) & 0xFF] ^
            t[1][(x >> 48) & 0xFF] ^ t[0][x >> 56];
  }
  for (; left > 0; ++p, --left) {
    state = t[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint64_t Crc64(std::span<const uint8_t> bytes) {
  return Crc64Finish(Crc64Update(kCrc64Init, bytes));
}

}  // namespace vafs
