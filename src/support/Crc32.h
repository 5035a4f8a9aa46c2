//===- support/Crc32.h - CRC-32 checksums -----------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to checksum
/// every DSPF frame payload (each service reply, both ways), snapshot
/// file sections and spill files. A 640x480 reply is 3.7 MB, so this is
/// on the hot path of every cache hit: slicing-by-8 consumes eight bytes
/// per step through eight 256-entry tables, and the tail runs byte at a
/// time through the first. From 16 KiB up, three independent streams over
/// the input's thirds run interleaved (one stream's steps wait on each
/// other's table loads) and are joined with crc32Combine; that about
/// halves the time of a 3.7 MB reply. The values are exactly the classic
/// byte-at-a-time CRC's (tests/TestSupport.cpp checks both against each
/// other and against the "123456789" check value).
///
/// crc32Combine joins the CRCs of two adjacent byte ranges without
/// touching the bytes, so ranges can be checksummed in parallel (the
/// render engine CRCs each tile's RGB bytes on the worker that wrote
/// them). It multiplies by x^(8n) mod P in GF(2), as zlib >= 1.2.12
/// does; Crc32Shift precomputes that operator for one length n, so
/// joining many equal-length ranges costs four table lookups each.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_CRC32_H
#define DATASPEC_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace dspec {

/// CRC-32 of \p Size bytes at \p Data. \p Seed allows incremental use:
/// crc32(B, crc32(A)) == crc32(A ++ B).
uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0);

/// CRC-32 of A ++ B from \p CrcA = crc32(A), \p CrcB = crc32(B) and
/// \p SizeB = |B|, in O(log SizeB) without reading either range.
uint32_t crc32Combine(uint32_t CrcA, uint32_t CrcB, uint64_t SizeB);

/// crc32Combine with the second range's length fixed at construction:
/// combine(CrcA, CrcB) == crc32Combine(CrcA, CrcB, SizeB).
class Crc32Shift {
public:
  explicit Crc32Shift(uint64_t SizeB);

  uint64_t size() const { return SizeB; }

  uint32_t combine(uint32_t CrcA, uint32_t CrcB) const {
    return T[0][CrcA & 0xFFu] ^ T[1][(CrcA >> 8) & 0xFFu] ^
           T[2][(CrcA >> 16) & 0xFFu] ^ T[3][CrcA >> 24] ^ CrcB;
  }

private:
  uint64_t SizeB;
  /// The linear map CrcA -> CrcA * x^(8 SizeB) mod P, one table per
  /// byte of CrcA.
  std::array<std::array<uint32_t, 256>, 4> T;
};

} // namespace dspec

#endif // DATASPEC_SUPPORT_CRC32_H
