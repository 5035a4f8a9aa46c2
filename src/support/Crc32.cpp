//===- support/Crc32.cpp - CRC-32 checksums ----------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

#include <array>

using namespace dspec;

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial (the one
/// zlib and PNG use). T[0] is the classic byte-at-a-time table; T[K][N]
/// is the CRC of byte N followed by K zero bytes, so eight table lookups
/// advance the CRC over eight input bytes at once.
Tables makeTables() {
  Tables T{};
  for (uint32_t N = 0; N < 256; ++N) {
    uint32_t C = N;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[0][N] = C;
  }
  for (uint32_t N = 0; N < 256; ++N)
    for (int K = 1; K < 8; ++K)
      T[K][N] = T[0][T[K - 1][N] & 0xFFu] ^ (T[K - 1][N] >> 8);
  return T;
}

/// Little-endian load of four bytes (alignment-free, any host order).
uint32_t loadLE32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace

uint32_t dspec::crc32(const void *Data, size_t Size, uint32_t Seed) {
  static const Tables T = makeTables();
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  for (; Size >= 8; Bytes += 8, Size -= 8) {
    uint32_t Lo = loadLE32(Bytes) ^ C;
    uint32_t Hi = loadLE32(Bytes + 4);
    C = T[7][Lo & 0xFFu] ^ T[6][(Lo >> 8) & 0xFFu] ^
        T[5][(Lo >> 16) & 0xFFu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xFFu] ^
        T[2][(Hi >> 8) & 0xFFu] ^ T[1][(Hi >> 16) & 0xFFu] ^ T[0][Hi >> 24];
  }
  for (; Size > 0; ++Bytes, --Size)
    C = T[0][(C ^ *Bytes) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}
