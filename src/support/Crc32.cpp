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

/// Inputs at least this long are checksummed as three interleaved
/// streams; below it, joining them costs more than the overlap saves.
constexpr size_t kInterleaveMinBytes = 16 << 10;

/// Little-endian load of four bytes (alignment-free, any host order).
uint32_t loadLE32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

/// Polynomials mod P in the reflected bit order the CRC uses: x^0 is the
/// top bit, x^31 the lowest.
constexpr uint32_t kPoly = 0xEDB88320u;
constexpr uint32_t kOne = 0x80000000u;

/// A * B mod P (the GF(2) product zlib calls multmodp).
uint32_t multModP(uint32_t A, uint32_t B) {
  uint32_t Product = 0;
  for (uint32_t M = kOne; M != 0 && A != 0; M >>= 1) {
    if (A & M) {
      Product ^= B;
      A ^= M;
    }
    B = (B & 1) ? (B >> 1) ^ kPoly : B >> 1;
  }
  return Product;
}

/// x^(8 N) mod P: the operator that shifts a CRC register across N zero
/// bytes, by squaring through a table of x^(2^K) mod P. x^(2^32) = x mod
/// P, so the table repeats with period 32 (as zlib's x2n_table does).
uint32_t shiftBytesOp(uint64_t N) {
  static const std::array<uint32_t, 32> X2N = [] {
    std::array<uint32_t, 32> Table{};
    Table[0] = kOne >> 1; // x^1
    for (size_t K = 1; K < Table.size(); ++K)
      Table[K] = multModP(Table[K - 1], Table[K - 1]);
    return Table;
  }();
  uint32_t Op = kOne;
  for (size_t K = 3; N != 0; N >>= 1, ++K) // 8 N = N << 3
    if (N & 1)
      Op = multModP(X2N[K % X2N.size()], Op);
  return Op;
}

} // namespace

uint32_t dspec::crc32(const void *Data, size_t Size, uint32_t Seed) {
  static const Tables T = makeTables();
  // One slicing-by-8 step: register C advanced over the 8 bytes at P.
  auto Step = [](uint32_t C, const unsigned char *P) {
    uint32_t Lo = loadLE32(P) ^ C;
    uint32_t Hi = loadLE32(P + 4);
    return T[7][Lo & 0xFFu] ^ T[6][(Lo >> 8) & 0xFFu] ^
           T[5][(Lo >> 16) & 0xFFu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xFFu] ^
           T[2][(Hi >> 8) & 0xFFu] ^ T[1][(Hi >> 16) & 0xFFu] ^
           T[0][Hi >> 24];
  };
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  if (Size >= kInterleaveMinBytes) {
    // Each step waits on the previous one's table loads, so one stream
    // leaves the load ports mostly idle. Three independent streams over
    // the three thirds run side by side; crc32Combine then joins them.
    const size_t Third = Size / 3 / 8 * 8;
    const unsigned char *Mid = Bytes + Third, *Last = Bytes + 2 * Third;
    uint32_t CMid = 0xFFFFFFFFu, CLast = 0xFFFFFFFFu;
    for (size_t At = 0; At < Third; At += 8) {
      C = Step(C, Bytes + At);
      CMid = Step(CMid, Mid + At);
      CLast = Step(CLast, Last + At);
    }
    const uint32_t Op = shiftBytesOp(Third);
    uint32_t Crc = multModP(Op, C ^ 0xFFFFFFFFu) ^ CMid ^ 0xFFFFFFFFu;
    C = multModP(Op, Crc) ^ CLast; // conditioned again for the tail
    Bytes += 3 * Third;
    Size -= 3 * Third;
  }
  for (; Size >= 8; Bytes += 8, Size -= 8)
    C = Step(C, Bytes);
  for (; Size > 0; ++Bytes, --Size)
    C = T[0][(C ^ *Bytes) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

uint32_t dspec::crc32Combine(uint32_t CrcA, uint32_t CrcB, uint64_t SizeB) {
  // crc(A ++ B) = crc(A) * x^(8|B|) + crc(B) mod P; the pre- and
  // post-conditioning terms cancel (zlib's crc32_combine).
  return multModP(shiftBytesOp(SizeB), CrcA) ^ CrcB;
}

Crc32Shift::Crc32Shift(uint64_t SizeB) : SizeB(SizeB), T{} {
  // Multiplication by a fixed polynomial is linear in the other factor:
  // one product per bit of CrcA, then every table entry is the XOR of
  // the products of its set bits.
  const uint32_t Op = shiftBytesOp(SizeB);
  std::array<uint32_t, 32> Bit;
  for (unsigned I = 0; I < 32; ++I)
    Bit[I] = multModP(Op, uint32_t{1} << I);
  for (unsigned Byte = 0; Byte < 4; ++Byte)
    for (unsigned V = 1; V < 256; ++V)
      T[Byte][V] = T[Byte][V & (V - 1)] ^
                   Bit[8 * Byte + static_cast<unsigned>(__builtin_ctz(V))];
}
